(** The serving engine behind {!Server}: a fixed pool of loop domains
    multiplexing every connection with poll(2) (see {!Poll}) plus a
    coalesced self-pipe wakeup, each loop doubling as the driver of one
    runtime worker — run-to-completion serving.

    Per connection, the owning loop does nonblocking batched reads into
    a {e per-loop} scratch buffer, feeds the incremental
    {!Wire.Decoder}, and calls [cb.handle ~loop] inline for each
    request, with a completion that fills the request's slot in the
    connection's arrival-ordered slot queue. The handler may complete
    inline (the common case: the request ran on this loop) or later
    from any domain. Each iteration the loop also calls [drive loop] —
    running the ops other domains queued for its worker — then encodes
    every connection's ready prefix of slots into its output buffer and
    flushes it with one coalesced write, firing each response's
    [written] hook once its last byte went to the socket. Responses on
    one connection therefore leave in request order, the pipelining
    guarantee.

    Protocol errors are connection-fatal, but owed responses still
    flush; a dead peer's requests still complete (an acknowledged write
    is applied whether or not the ack is deliverable) with their hooks
    fired; {!stop} half-closes every receive side, answers everything
    accepted, and only then tears the loops down.

    Overload is backpressure, not loss: a connection holding
    [max_pending] requests whose responses have not yet been flushed is
    neither decoded nor polled for input until they drain. Only a peer
    whose completed-but-unflushed output passes {!max_unflushed} bytes
    (it is not reading) is dropped as a slow client — [on_slow_drop]
    then [on_protocol_error] fire, buffered output is abandoned, already
    submitted operations still complete. *)

type callbacks = {
  handle :
    loop:int -> Wire.request -> (Wire.response -> written:(unit -> unit) -> unit) -> unit;
      (** called on loop [loop]'s domain; must not block, and must call
          the completion exactly once (on any domain, any time). If it
          raises instead, the request is answered [Err] and the
          connection stops reading. *)
  on_bytes_in : int -> unit;
  on_bytes_out : int -> unit;
  on_protocol_error : string -> unit;
  on_closed : unit -> unit;  (** socket closed, every response retired *)
}

type t

(** The slow-client bound: 16 MiB of completed but unflushed output
    per connection. *)
val max_unflushed : int

(** Start [loops] loop domains. Loop [i] calls [drive i] once per
    iteration. Raises [Invalid_argument] unless [loops] and
    [max_pending] are positive. *)
val create :
  wire:Wire.t ->
  loops:int ->
  max_pending:int ->
  on_slow_drop:(unit -> unit) ->
  drive:(int -> unit) ->
  unit ->
  t

(** Wake loop [i] (coalesced: one self-pipe byte per batch). Callable
    from any domain, also after {!stop}. *)
val wake : t -> int -> unit

(** Take ownership of [fd] (a connected stream socket): set it
    nonblocking and hand it to a loop (round-robin). After {!stop} has
    begun, the fd is closed and [on_closed] fired immediately. *)
val add : t -> fd:Unix.file_descr -> callbacks -> unit

(** Graceful drain: half-close every connection's receive side, decode
    and answer everything already received, flush every pending
    response, then join the loop domains. Loops keep driving their
    workers until no connection is left on any loop. Blocks until done.
    Idempotent (concurrent calls may return before the drain completes;
    the caller serialises, as {!Server.stop} does). *)
val stop : t -> unit
