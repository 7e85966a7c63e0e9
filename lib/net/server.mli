(** TCP front-end for the multicore runtime KVS: an acceptor thread plus
    the {!Evloop} serving engine, feeding one {!C4_runtime.Server} —
    CREW routing, write compaction, and crash recovery apply to network
    traffic unchanged.

    Run-to-completion serving: the runtime must be started with
    [worker_domains = false], and the engine runs one event-loop domain
    per runtime worker, loop [i] driving worker [i]. The request path:

    {ol
    {- {b decode} — loop [i] reads the connection's bytes and decodes
       the frame;}
    {- {b admit} — reads need no admission; a SET/DELETE goes through
       the d-CREW policy core, which names the partition's writer;}
    {- {b inline or forward} — a read, or a write whose writer is
       worker [i], runs to completion on loop [i] itself; any other
       write is queued for its writer's loop, which is woken;}
    {- {b slot} — the completion fills the request's slot in the
       connection's arrival-ordered slot queue (waking loop [i] when it
       ran elsewhere);}
    {- {b flush} — loop [i] encodes the connection's ready prefix of
       slots and writes it with one coalesced write(2).}}

    Responses on one connection therefore leave in request order (the
    pipelining guarantee), while requests from different connections
    (and different keys) proceed in parallel. SET acks are only emitted
    after the store apply (the runtime's deferred-response rule), so an
    acknowledged write observed by a client survives worker crashes.
    Overload is backpressure: a connection with {!config.max_pending}
    unanswered requests is not read until they drain.

    Shutdown ({!stop}) drains gracefully: the listening socket closes
    first (no new connections), every live connection is half-closed and
    its already-received requests answered, all pending responses are
    flushed, and only then does [stop] return. The runtime server is
    {e not} stopped — it is owned by the caller, who must call
    {!C4_runtime.Server.stop} after this returns (that order is what
    guarantees no accepted-but-unanswered request is ever dropped, and
    the loops being gone is what lets the runtime drain its backlogs
    itself).

    Metrics (all in [registry], which must be thread-safe):
    [net.conns_accepted], [net.conns_active], [net.bytes_in],
    [net.bytes_out], [net.inflight], [net.protocol_errors],
    [net.requests], [net.accept_errors] (accepts shed to
    [EMFILE]/[ENFILE] fd exhaustion — the acceptor backs off and
    survives instead of dying), [net.slow_client_drops] (connections
    dropped once their completed but unflushed output passes
    {!Evloop.max_unflushed} bytes), and per-op
    service-time histograms [net.get_ns],
    [net.set_ns], [net.delete_ns]. Each mutation additionally bumps a
    [net.routed_w<i>] counter for the worker its d-CREW admission
    chose, the one that ran it: the decoding loop's own worker for a
    write to an unpinned partition, the pinned worker for a write that
    depends on one still outstanding. The counts therefore sum to the
    mutations served and show how much write work was forwarded. One
    counter per worker is registered eagerly at start, so a telemetry
    scrape sees every worker from the first request and a count can
    never land on a dangling worker id.

    Tracing: with {!config.spans} set, a request that arrives carrying
    a {!Wire.trace_context} grows a three-span chain in the buffer —
    [server.recv] (decode + crew admission, annotated with the policy
    decisions taken while submitting, parented on the client's in-band
    context), [server.apply] (submission to completion) and
    [server.respond] (closed when the response's last byte went to the
    socket) — one connected chain with the client's dispatch span.
    Context-free requests trace nothing. *)

(** Cluster-runtime hooks, injected by [C4_clusterd.Member] (which sits
    {e above} this library in the build graph — hence plain functions
    over the encoded-shard-map bytes rather than cluster types).

    With [config.cluster] set, every GET/SET/DELETE first passes
    [cl_check ~key ~write]: [Error map] answers the request with
    {!Wire.Wrong_shard} carrying [map] (the node's current encoded
    shard map) and never reaches the runtime. {!Wire.Cluster_info}
    requests are answered by [cl_info] (payload = an encoded map to
    install if newer, or empty to just fetch) with {!Wire.Cluster_ok}
    carrying the node's current map. [cl_read_fence ~key k] is called
    after a GET's store read, before its response goes out; it must
    call [k] (on any thread, once) when the key's partition has no
    locally-applied-but-unreplicated suffix (quorum-ack mode), so a
    value a client observed can never be lost to a failover. It must
    not block: it is called on an event loop. Requests answered
    WRONG_SHARD bump [net.wrong_shard]. *)
type cluster = {
  cl_check : key:int -> write:bool -> (unit, bytes) result;
  cl_read_fence : key:int -> (unit -> unit) -> unit;
  cl_info : bytes -> (bytes, string) result;
}

type config = {
  host : string;  (** address to bind, e.g. "127.0.0.1" *)
  port : int;  (** 0 = pick an ephemeral port (see {!port}) *)
  backlog : int;
  max_frame : int;  (** connection-fatal bound on frame size *)
  spans : C4_obs.Span.t option;
      (** adopt incoming trace contexts into this buffer; [None] (the
          default) disables server-side tracing *)
  cluster : cluster option;
      (** shard-map routing + replication hooks; [None] (the default)
          serves every key and rejects CLUSTER_INFO *)
  max_pending : int;
      (** backpressure bound: a connection holding this many decoded
          requests whose responses are not yet flushed is neither
          decoded nor read until some drain *)
}

(** Loopback, ephemeral port, 64-deep backlog, 1 MiB frames, no span
    buffer, no cluster hooks, 1024 pending requests per connection. *)
val default_config : config

type t

(** Bind, listen, and start accepting; start one event loop per runtime
    worker and install their wakeups as the runtime's waker. [registry]
    (created with [~thread_safe:true] when supplied) receives the
    metrics; a private thread-safe registry is used when omitted.
    Raises [Unix.Unix_error] when the address cannot be bound, and
    [Invalid_argument] when [runtime] runs worker domains. *)
val start : ?registry:C4_obs.Registry.t -> config -> runtime:C4_runtime.Server.t -> t

(** The port actually bound (resolves port 0). *)
val port : t -> int

val registry : t -> C4_obs.Registry.t

(** Graceful drain as described above. Idempotent. *)
val stop : t -> unit

type stats = {
  conns_accepted : int;
  conns_active : int;
  requests : int;  (** frames decoded and submitted *)
  inflight : int;  (** submitted but not yet answered *)
  bytes_in : int;
  bytes_out : int;
  protocol_errors : int;
  accept_errors : int;  (** accepts shed to fd exhaustion *)
  slow_client_drops : int;  (** conns dropped at the unflushed-output bound *)
}

val stats : t -> stats
