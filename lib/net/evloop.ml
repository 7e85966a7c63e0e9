module Sync = C4_runtime.Sync

(* The serving engine: a fixed pool of loop domains multiplexing every
   connection with poll(2) plus a self-pipe wakeup, loop [i] doubling as
   the driver of runtime worker [i] ([drive]). Each loop owns a disjoint
   set of connections (round-robin assignment at accept time); every
   connection field is touched only by the owning loop, except the
   completion slots and the [notified] flag, which completions on other
   domains fill through atomics.

   Per request: the loop does the nonblocking batched read into its
   per-loop scratch buffer, feeds the connection's incremental
   [Wire.Decoder], reserves a slot at the tail of the connection's
   arrival-ordered slot queue and calls [cb.handle] inline with a
   completion that fills it. The handler runs the request to completion
   right there when it can (reads; writes this loop's worker owns) or
   hands it to another domain, whose completion later fills the slot and
   queues the connection on this loop's ready list (waking the loop when
   it ran elsewhere). The loop encodes each connection's ready prefix of
   slots into its output buffer — responses leave in request order, the
   pipelining guarantee — and drains the buffer with one coalesced write
   per wakeup, firing each response's [written] hook once its last byte
   went to the socket. *)

type callbacks = {
  handle :
    loop:int -> Wire.request -> (Wire.response -> written:(unit -> unit) -> unit) -> unit;
  on_bytes_in : int -> unit;
  on_bytes_out : int -> unit;
  on_protocol_error : string -> unit;
  on_closed : unit -> unit;
}

type slot = (Wire.response * (unit -> unit)) option Atomic.t

type conn = {
  id : int;
  fd : Unix.file_descr;
  cb : callbacks;
  decoder : Wire.Decoder.decoder;
  c_loop : loop;
  slots : slot Queue.t;  (* decoded, response not yet encoded; arrival order *)
  notified : bool Atomic.t;  (* on [c_loop.ready] already *)
  mutable obuf : Bytes.t;  (* encoded responses, [o_start, o_end) valid *)
  mutable o_start : int;
  mutable o_end : int;
  (* (queued_total offset at end of frame, written hook): crossed by the
     flush cursor in order. *)
  bounds : (int * (unit -> unit)) Queue.t;
  mutable queued_total : int;
  mutable flushed_total : int;
  mutable eof : bool;  (* no further frames will be decoded *)
  mutable dead : bool;  (* peer unwritable (gone or dropped as slow) *)
  mutable drained : bool;  (* receive side already shut down *)
  mutable closed : bool;
}

and loop = {
  idx : int;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  woken : bool Atomic.t;  (* a wake byte is pending: coalesce the rest *)
  ready : conn list Atomic.t;  (* conns with newly filled slots *)
  l_lock : Mutex.t;  (* guards [incoming], [pipe_open] *)
  mutable pipe_open : bool;
  incoming : conn Queue.t;
  conns : (int, conn) Hashtbl.t;
  scratch : Bytes.t;  (* per-loop read buffer, shared by its conns *)
  wake_buf : Bytes.t;
  mutable pfds : Unix.file_descr array;
  mutable pevents : int array;
  mutable prevents : int array;
  mutable porder : conn option array;
  mutable domain : unit Domain.t option;
}

and t = {
  wire : Wire.t;
  max_pending : int;
  on_slow_drop : unit -> unit;
  drive : int -> unit;
  loops : loop array;
  mutable next_loop : int;  (* under p_lock *)
  mutable next_id : int;  (* under p_lock *)
  p_lock : Mutex.t;
  active : int Atomic.t;
  stopping : bool Atomic.t;
  draining : bool Atomic.t;
  q_lock : Mutex.t;  (* with q_cond: signals active reaching zero *)
  q_cond : Condition.t;
}

(* The loop running on this domain and the id of the thread running it,
   if any: a completion on that very thread needs no wakeup. The thread
   id matters because other threads created on a loop's domain share
   its DLS, and a completion from one of them must still wake the loop
   (which may be blocked in poll). *)
let current_loop : (loop * int) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(* Slow-client bound, in bytes: a connection whose completed but
   unflushed output passes it is not reading, and is dropped. *)
let max_unflushed = 16 lsl 20

let wake_byte = Bytes.make 1 'w'

(* One self-pipe byte per batch of wakeups: only the producer that flips
   [woken] writes. The loop clears the flag after draining the pipe and
   before collecting work, so no wakeup is lost. A full pipe already
   guarantees a wakeup is pending. The write holds [l_lock] so it can
   never hit the fd number after [stop] closed (and the process maybe
   reused) it. *)
let wake_loop l =
  if not (Atomic.exchange l.woken true) then
    Sync.with_lock l.l_lock (fun () ->
        if l.pipe_open then
          try ignore (Unix.write l.wake_w wake_byte 0 1) with Unix.Unix_error _ -> ())

let wake pool i = wake_loop pool.loops.(i)

let drain_wake l =
  let continue = ref true in
  while !continue do
    match Unix.read l.wake_r l.wake_buf 0 (Bytes.length l.wake_buf) with
    | 0 -> continue := false
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> continue := false
  done

(* --- completions (any domain) --- *)

let rec push_ready l c =
  let old = Atomic.get l.ready in
  if not (Atomic.compare_and_set l.ready old (c :: old)) then push_ready l c

(* Fill [slot] (first completion wins) and make sure the owning loop
   looks at the connection: the [notified] flag keeps it on the ready
   list at most once, and only a completion off the loop's own thread
   pays for a wakeup. *)
let complete c (slot : slot) resp ~written =
  if Atomic.compare_and_set slot None (Some (resp, written))
     && not (Atomic.exchange c.notified true)
  then begin
    let l = c.c_loop in
    push_ready l c;
    match Domain.DLS.get current_loop with
    | Some (cur, tid) when cur == l && tid = Thread.id (Thread.self ()) -> ()
    | Some _ | None -> wake_loop l
  end

(* --- output buffer --- *)

let pending c = Queue.length c.slots + Queue.length c.bounds

let append_out c frame written =
  let flen = Bytes.length frame in
  let len = c.o_end - c.o_start in
  let cap = Bytes.length c.obuf in
  if c.o_end + flen > cap then begin
    if len + flen <= cap then Bytes.blit c.obuf c.o_start c.obuf 0 len
    else begin
      let nb = Bytes.create (max (cap * 2) (len + flen)) in
      Bytes.blit c.obuf c.o_start nb 0 len;
      c.obuf <- nb
    end;
    c.o_start <- 0;
    c.o_end <- len
  end;
  Bytes.blit frame 0 c.obuf c.o_end flen;
  c.o_end <- c.o_end + flen;
  c.queued_total <- c.queued_total + flen;
  Queue.add (c.queued_total, written) c.bounds

(* Fire the written hook of every response the flush cursor crossed. *)
let retire_flushed c =
  let continue = ref true in
  while !continue && not (Queue.is_empty c.bounds) do
    let off, written = Queue.peek c.bounds in
    if off <= c.flushed_total then begin
      ignore (Queue.pop c.bounds);
      written ()
    end
    else continue := false
  done

(* Peer unwritable: abandon buffered output, but retire every owed
   response through its hook — a response's lifecycle ends (and its
   respond span closes) whether or not the ack could be delivered. *)
let mark_dead c =
  if not c.dead then begin
    c.dead <- true;
    Queue.iter (fun (_, written) -> written ()) c.bounds;
    Queue.clear c.bounds;
    c.o_start <- 0;
    c.o_end <- 0
  end

(* Move the connection's ready prefix of completed slots into the
   output buffer, in arrival order. *)
let encode_ready pool c =
  let rec go () =
    match Queue.peek_opt c.slots with
    | None -> ()
    | Some slot -> (
      match Atomic.get slot with
      | None -> ()
      | Some (resp, written) ->
        ignore (Queue.pop c.slots);
        if c.dead then written ()
        else append_out c (Wire.encode_response pool.wire resp) written;
        go ())
  in
  go ()

(* One coalesced write per wakeup: everything buffered goes out in a
   single write(2); a partial write leaves the tail for the next
   POLLOUT. *)
let rec flush c =
  if (not c.dead) && c.o_start < c.o_end then
    match Unix.write c.fd c.obuf c.o_start (c.o_end - c.o_start) with
    | n ->
      c.o_start <- c.o_start + n;
      c.flushed_total <- c.flushed_total + n;
      c.cb.on_bytes_out n;
      retire_flushed c;
      if c.o_start = c.o_end then begin
        c.o_start <- 0;
        c.o_end <- 0
      end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush c
    | exception Unix.Unix_error (_, _, _) -> mark_dead c

(* --- read path --- *)

let fatal c msg =
  c.cb.on_protocol_error msg;
  c.eof <- true

let slow_drop pool c =
  pool.on_slow_drop ();
  fatal c "slow client: unflushed output bound exceeded";
  mark_dead c;
  try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

(* Decode and hand off frames while the connection is under its pending
   bound; past it, frames wait in the decoder (and the loop stops
   polling the socket for input) until responses drain — backpressure,
   not a drop. *)
let process_frames pool l c =
  let rec go () =
    if (not c.eof) && pending c < pool.max_pending then
      match Wire.Decoder.next_frame c.decoder with
      | `Awaiting -> ()
      | `Corrupt msg -> fatal c msg
      | `Frame body -> (
        match Wire.decode_request pool.wire body with
        | Error msg -> fatal c msg
        | Ok req -> (
          let slot = Atomic.make None in
          Queue.add slot c.slots;
          match c.cb.handle ~loop:l.idx req (complete c slot) with
          | () -> go ()
          | exception e ->
            (* The handler owes every request an answer; if it raised
               instead, answer for it and stop reading the connection. *)
            complete c slot ~written:ignore
              {
                Wire.resp_id = req.Wire.id;
                status = Wire.Err;
                timing_ns = 0;
                resp_value = Bytes.of_string "request handler raised";
              };
            fatal c ("request handler raised: " ^ Printexc.to_string e)))
  in
  go ()

let read_conn pool l c =
  (* Batched reads: drain the socket up to a per-wakeup budget (poll is
     level-triggered, so leftover bytes re-report as readable — the
     budget is fairness across the loop's conns, not a correctness
     bound). *)
  let budget = ref 8 in
  let continue = ref true in
  while !continue && !budget > 0 && (not c.eof) && pending c < pool.max_pending do
    decr budget;
    match Unix.read c.fd l.scratch 0 (Bytes.length l.scratch) with
    | 0 ->
      c.eof <- true;
      continue := false
    | n ->
      c.cb.on_bytes_in n;
      Wire.Decoder.feed c.decoder l.scratch ~off:0 ~len:n;
      process_frames pool l c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (_, _, _) ->
      c.eof <- true;
      mark_dead c;
      continue := false
  done

(* Bring a touched connection up to date: encode its ready prefix,
   flush, drop it if its completed-but-unflushed output passed the byte
   bound (a peer that is not reading), and resume decoding frames that
   waited at the pending bound. *)
let settle pool l c =
  encode_ready pool c;
  flush c;
  if (not c.dead) && c.o_end - c.o_start > max_unflushed then slow_drop pool c;
  process_frames pool l c

(* --- loop domain --- *)

let closable c = (not c.closed) && c.eof && pending c = 0 && (c.dead || c.o_start = c.o_end)

let close_conn pool l c =
  c.closed <- true;
  Hashtbl.remove l.conns c.id;
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  c.cb.on_closed ();
  let now = Atomic.fetch_and_add pool.active (-1) - 1 in
  if now = 0 then
    Sync.with_lock pool.q_lock (fun () -> Condition.broadcast pool.q_cond)

let ensure_capacity l n =
  if Array.length l.pfds < n then begin
    let cap = max n (2 * Array.length l.pfds) in
    l.pfds <- Array.make cap l.wake_r;
    l.pevents <- Array.make cap 0;
    l.prevents <- Array.make cap 0;
    l.porder <- Array.make cap None
  end

let take_incoming l =
  Sync.with_lock l.l_lock (fun () ->
      let xs = List.rev (Queue.fold (fun acc c -> c :: acc) [] l.incoming) in
      Queue.clear l.incoming;
      xs)

(* An exception out of one connection's handling is fatal to that
   connection only: the loop also drives a runtime worker, and must keep
   doing so for every other connection. *)
let guard c f =
  try f ()
  with e ->
    fatal c ("event loop: " ^ Printexc.to_string e);
    mark_dead c

let loop_iter pool l =
  List.iter (fun c -> Hashtbl.replace l.conns c.id c) (take_incoming l);
  (* Graceful drain: half-close every receive side once; buffered bytes
     still read out (and decode, and get answered) before EOF shows. *)
  if Atomic.get pool.draining then
    Hashtbl.iter
      (fun _ c ->
        if not c.drained then begin
          c.drained <- true;
          try Unix.shutdown c.fd Unix.SHUTDOWN_RECEIVE
          with Unix.Unix_error _ -> ()
        end)
      l.conns;
  (* Interest set: self-pipe + every conn (read unless EOF or at the
     pending bound, write while output is buffered). *)
  let n = 1 + Hashtbl.length l.conns in
  ensure_capacity l n;
  l.pfds.(0) <- l.wake_r;
  l.pevents.(0) <- Poll.pollin;
  l.porder.(0) <- None;
  let i = ref 1 in
  Hashtbl.iter
    (fun _ c ->
      let ev = if (not c.eof) && pending c < pool.max_pending then Poll.pollin else 0 in
      let ev = if (not c.dead) && c.o_start < c.o_end then ev lor Poll.pollout else ev in
      l.pfds.(!i) <- c.fd;
      l.pevents.(!i) <- ev;
      l.porder.(!i) <- Some c;
      incr i)
    l.conns;
  let timeout_ms = if Atomic.get l.ready <> [] then 0 else 250 in
  ignore
    (Poll.poll ~fds:l.pfds ~events:l.pevents ~revents:l.prevents ~n:!i ~timeout_ms);
  if Poll.readable l.prevents.(0) || Poll.errored l.prevents.(0) then drain_wake l;
  Atomic.set l.woken false;
  (* Ops other domains queued for this loop's worker: their completions
     land on this (or another) loop's ready list. *)
  pool.drive l.idx;
  let touched = ref [] in
  for j = 1 to !i - 1 do
    match l.porder.(j) with
    | None -> ()
    | Some c ->
      let re = l.prevents.(j) in
      if (Poll.readable re || Poll.errored re) && not c.eof then
        guard c (fun () -> read_conn pool l c);
      if re <> 0 then touched := c :: !touched;
      l.porder.(j) <- None
  done;
  (* Clear each flag before looking at the slots: a completion that
     lands after the look re-queues the conn. *)
  List.iter
    (fun c ->
      Atomic.set c.notified false;
      touched := c :: !touched)
    (Atomic.exchange l.ready []);
  List.iter (fun c -> guard c (fun () -> settle pool l c)) !touched;
  List.iter (fun c -> if closable c then close_conn pool l c) !touched

let loop_run pool l () =
  Domain.DLS.set current_loop (Some (l, Thread.id (Thread.self ())));
  (* A loop also drives its runtime worker, so it keeps running until
     every connection of every loop is gone: an op forwarded to this
     worker may still be owed to another loop's connection. *)
  let rec go () =
    (try loop_iter pool l
     with e ->
       (* Never die silently: the pool's accounting and the worker this
          loop drives both depend on it. Count it against every conn. *)
       Hashtbl.iter
         (fun _ c -> fatal c ("event loop: " ^ Printexc.to_string e))
         l.conns);
    if not (Atomic.get pool.stopping && Atomic.get pool.active = 0) then go ()
  in
  go ()

(* --- pool lifecycle --- *)

let create ~wire ~loops ~max_pending ~on_slow_drop ~drive () =
  if loops < 1 then invalid_arg "Evloop.create: loops";
  if max_pending < 1 then invalid_arg "Evloop.create: max_pending";
  let mk_loop idx =
    let r, w = Unix.pipe () in
    Unix.set_nonblock r;
    Unix.set_nonblock w;
    {
      idx;
      wake_r = r;
      wake_w = w;
      woken = Atomic.make false;
      ready = Atomic.make [];
      l_lock = Mutex.create ();
      pipe_open = true;
      incoming = Queue.create ();
      conns = Hashtbl.create 64;
      scratch = Bytes.create 65536;
      wake_buf = Bytes.create 64;
      pfds = Array.make 16 r;
      pevents = Array.make 16 0;
      prevents = Array.make 16 0;
      porder = Array.make 16 None;
      domain = None;
    }
  in
  let pool =
    {
      wire;
      max_pending;
      on_slow_drop;
      drive;
      loops = Array.init loops mk_loop;
      next_loop = 0;
      next_id = 0;
      p_lock = Mutex.create ();
      active = Atomic.make 0;
      stopping = Atomic.make false;
      draining = Atomic.make false;
      q_lock = Mutex.create ();
      q_cond = Condition.create ();
    }
  in
  Array.iter
    (fun l -> l.domain <- Some (Domain.spawn (fun () -> loop_run pool l ())))
    pool.loops;
  pool

let add pool ~fd cb =
  if Atomic.get pool.stopping then begin
    (try Unix.close fd with Unix.Unix_error _ -> ());
    cb.on_closed ()
  end
  else begin
    Unix.set_nonblock fd;
    let id, l =
      Sync.with_lock pool.p_lock (fun () ->
          let id = pool.next_id in
          pool.next_id <- id + 1;
          let l = pool.loops.(pool.next_loop mod Array.length pool.loops) in
          pool.next_loop <- pool.next_loop + 1;
          (id, l))
    in
    let c =
      {
        id;
        fd;
        cb;
        decoder = Wire.Decoder.create pool.wire;
        c_loop = l;
        slots = Queue.create ();
        notified = Atomic.make false;
        obuf = Bytes.create 4096;
        o_start = 0;
        o_end = 0;
        bounds = Queue.create ();
        queued_total = 0;
        flushed_total = 0;
        eof = false;
        dead = false;
        drained = false;
        closed = false;
      }
    in
    Atomic.incr pool.active;
    Sync.with_lock l.l_lock (fun () -> Queue.add c l.incoming);
    wake_loop l
  end

let stop pool =
  if not (Atomic.exchange pool.stopping true) then begin
    Atomic.set pool.draining true;
    Array.iter wake_loop pool.loops;
    (* Loops keep running while connections drain — they do the
       flushing and drive the workers; quiesce first, then tear the
       machinery down. *)
    Sync.with_lock pool.q_lock (fun () ->
        while Atomic.get pool.active > 0 do
          Condition.wait pool.q_cond pool.q_lock
        done);
    Array.iter wake_loop pool.loops;
    Array.iter
      (fun l ->
        Option.iter Domain.join l.domain;
        l.domain <- None)
      pool.loops;
    Array.iter
      (fun l ->
        Sync.with_lock l.l_lock (fun () ->
            l.pipe_open <- false;
            (try Unix.close l.wake_r with Unix.Unix_error _ -> ());
            try Unix.close l.wake_w with Unix.Unix_error _ -> ()))
      pool.loops
  end
