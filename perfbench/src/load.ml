(* The TCP load generator: one thread, a few nonblocking connections, raw
   {!C4_net.Wire} frames, multiplexed with select(2).

   Deliberately not built on [C4_net.Client] (a reader thread per
   connection, retries) or [C4_net.Loadgen] (times requests from
   dispatch): a benchmark client must neither retry nor hide a stall,
   and must not compete with the server for the box's cores with
   threads of its own.

   Every response is judged here. A request fails on an [Err],
   [Wrong_shard] or any other unexpected status, a GET value that does
   not belong to its key, a read-back mismatch, a transport error, no
   answer by its phase's deadline, or a response out of request order.
   Responses must come back in send order per connection, so an
   out-of-order answer poisons its connection: every request in flight
   on it fails, and every later send to it fails at once. *)

module Wire = C4_net.Wire

type reason =
  | Err_status
  | Wrong_shard
  | Bad_status
  | Bad_value
  | Readback_mismatch
  | Transport
  | Out_of_order
  | Deadline

let reasons =
  [ Err_status; Wrong_shard; Bad_status; Bad_value; Readback_mismatch;
    Transport; Out_of_order; Deadline ]

let reason_name = function
  | Err_status -> "err"
  | Wrong_shard -> "wrong_shard"
  | Bad_status -> "bad_status"
  | Bad_value -> "bad_value"
  | Readback_mismatch -> "readback_mismatch"
  | Transport -> "transport"
  | Out_of_order -> "out_of_order"
  | Deadline -> "deadline"

let reason_index r =
  let rec go i = function
    | [] -> assert false
    | x :: rest -> if x = r then i else go (i + 1) rest
  in
  go 0 reasons

type req = {
  id : int;
  op : Spec.op;
  key : int;
  expect : bytes option;  (** read-back GET: the exact bytes expected *)
  due : float;  (** s; open loop: when the request was due *)
  mutable sent : float;  (** s *)
}

type conn = {
  fd : Unix.file_descr;
  dec : Wire.Decoder.decoder;
  mutable obuf : bytes;  (* unsent bytes live in [ooff, ooff + olen) *)
  mutable ooff : int;
  mutable olen : int;
  inflight : req Queue.t;
  mutable dead : bool;
}

(* Called once per successful request with the response and the time
   (s) its bytes were read off the socket. *)
type sink = req -> Wire.response -> recv:float -> unit

type t = {
  wire : Wire.t;
  conns : conn array;
  value_size : int;
  scratch : bytes;
  mutable next_id : int;
  mutable stamp : int;  (* last write stamp handed out *)
  mutable attempted : int;
  failed : int array;  (* per reason, indexed by [reason_index] *)
  mutable sink : sink;
}

let ignore_sink _ _ ~recv:_ = ()

let connect ~port ~conns ~value_size =
  let open_one () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
       Unix.setsockopt fd Unix.TCP_NODELAY true;
       Unix.set_nonblock fd
     with e -> Unix.close fd; raise e);
    fd
  in
  let wire = Wire.create () in
  let conns =
    Array.init conns (fun _ ->
        {
          fd = open_one ();
          dec = Wire.Decoder.create wire;
          obuf = Bytes.create 65536;
          ooff = 0;
          olen = 0;
          inflight = Queue.create ();
          dead = false;
        })
  in
  {
    wire;
    conns;
    value_size;
    scratch = Bytes.create 65536;
    next_id = 0;
    stamp = 0;
    attempted = 0;
    failed = Array.make (List.length reasons) 0;
    sink = ignore_sink;
  }

let attempted t = t.attempted
let failed_total t = Array.fold_left ( + ) 0 t.failed

let failures t =
  List.map (fun r -> (reason_name r, t.failed.(reason_index r))) reasons

let fail t r = t.failed.(reason_index r) <- t.failed.(reason_index r) + 1

let close t =
  Array.iter
    (fun c ->
      if not c.dead then begin
        c.dead <- true;
        try Unix.close c.fd with Unix.Unix_error _ -> ()
      end)
    t.conns

(* Every in-flight request on [c] fails with [r]; the connection is
   closed and later sends to it fail as transport errors. *)
let poison t c r =
  Queue.iter (fun _ -> fail t r) c.inflight;
  Queue.clear c.inflight;
  if not c.dead then begin
    c.dead <- true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let in_flight t = Array.fold_left (fun n c -> n + Queue.length c.inflight) 0 t.conns

let next_stamp t =
  t.stamp <- t.stamp + 1;
  t.stamp

let judge t (r : req) (resp : Wire.response) =
  match resp.Wire.status with
  | Wire.Err -> Error Err_status
  | Wire.Wrong_shard -> Error Wrong_shard
  | Wire.Not_found | Wire.Cluster_ok -> Error Bad_status  (* every key is preloaded *)
  | Wire.Ok -> (
    match (r.op, r.expect) with
    | Spec.Set, _ -> Ok ()
    | Spec.Get, Some want ->
      if Bytes.equal want resp.Wire.resp_value then Ok () else Error Readback_mismatch
    | Spec.Get, None ->
      if Spec.value_ok ~size:t.value_size ~key:r.key resp.Wire.resp_value then Ok ()
      else Error Bad_value)

let on_frame t c body ~recv =
  match Wire.decode_response t.wire body with
  | Error _ -> poison t c Transport
  | Ok resp -> (
    match Queue.peek_opt c.inflight with
    | Some r when r.id = resp.Wire.resp_id -> (
      ignore (Queue.pop c.inflight);
      match judge t r resp with
      | Ok () -> t.sink r resp ~recv
      | Error reason -> fail t reason)
    | Some _ | None -> poison t c Out_of_order)

let read_conn t c =
  let rec go reads =
    if reads > 0 && not c.dead then
      match Unix.read c.fd t.scratch 0 (Bytes.length t.scratch) with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> poison t c Transport
      | 0 -> poison t c Transport
      | n ->
        let recv = Clock.s () in
        Wire.Decoder.feed c.dec t.scratch ~off:0 ~len:n;
        let rec frames () =
          if not c.dead then
            match Wire.Decoder.next_frame c.dec with
            | `Frame body -> on_frame t c body ~recv; frames ()
            | `Awaiting -> ()
            | `Corrupt _ -> poison t c Transport
        in
        frames ();
        if n = Bytes.length t.scratch then go (reads - 1)
  in
  go 8

let flush t c =
  if (not c.dead) && c.olen > 0 then
    match Unix.write c.fd c.obuf c.ooff c.olen with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> poison t c Transport
    | n ->
      c.ooff <- c.ooff + n;
      c.olen <- c.olen - n;
      if c.olen = 0 then c.ooff <- 0

let enqueue c frame =
  let len = Bytes.length frame in
  if c.ooff + c.olen + len > Bytes.length c.obuf then begin
    let cap = max (Bytes.length c.obuf) (2 * (c.olen + len)) in
    let b = if cap > Bytes.length c.obuf then Bytes.create cap else c.obuf in
    Bytes.blit c.obuf c.ooff b 0 c.olen;
    c.obuf <- b;
    c.ooff <- 0
  end;
  Bytes.blit frame 0 c.obuf (c.ooff + c.olen) len;
  c.olen <- c.olen + len

(* Queue one request on connection [ci] (written by the next {!flush}).
   A SET carries a fresh stamp unless [value] is given. *)
let send ?(due = 0.0) ?expect ?value t ci op key =
  let c = t.conns.(ci) in
  t.attempted <- t.attempted + 1;
  let id = t.next_id in
  t.next_id <- id + 1;
  let r = { id; op; key; expect; due; sent = Clock.s () } in
  if c.dead then fail t Transport
  else begin
    let wop, v =
      match op with
      | Spec.Get -> (Wire.Get, Bytes.empty)
      | Spec.Set ->
        ( Wire.Set,
          match value with
          | Some v -> v
          | None -> Spec.make_value ~size:t.value_size ~key ~stamp:(next_stamp t) )
    in
    enqueue c
      (Wire.encode_request t.wire
         { Wire.id; op = wop; key; token = None; trace = None; value = v });
    Queue.push r c.inflight
  end;
  r

let flush_all t = Array.iter (flush t) t.conns

(* One select(2) round: write what the kernel will take, read what has
   arrived, waiting at most [timeout] s. *)
let pump t ~timeout =
  let live = Array.to_list t.conns |> List.filter (fun c -> not c.dead) in
  let rd = List.map (fun c -> c.fd) live in
  let wr = List.filter_map (fun c -> if c.olen > 0 then Some c.fd else None) live in
  if rd = [] then (if timeout > 0.0 then Unix.sleepf timeout)
  else
    match Unix.select rd wr [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | r, w, _ ->
      List.iter (fun c -> if List.memq c.fd w then flush t c) live;
      List.iter (fun c -> if List.memq c.fd r then read_conn t c) live

(* Wait until nothing is in flight or [deadline] (s) passes; whatever
   is still unanswered then fails, and its connection is closed (a late
   answer would arrive out of order). *)
let drain t ~deadline =
  flush_all t;
  while in_flight t > 0 && Clock.s () < deadline do
    pump t ~timeout:(Float.min 0.01 (Float.max 0.0 (deadline -. Clock.s ())))
  done;
  Array.iter (fun c -> if not (Queue.is_empty c.inflight) then poison t c Deadline) t.conns

(* ------------------------------------------------------------------ *)
(* Phases *)

(* Keep [depth] requests outstanding per connection until [more ()] is
   false, then drain by [deadline]. [next ci] issues one request on
   connection [ci]. *)
let closed_loop t ~depth ~more ~next ~deadline =
  let refill () =
    Array.iteri
      (fun ci c ->
        while (not c.dead) && Queue.length c.inflight < depth && more () do
          ignore (next ci)
        done)
      t.conns;
    flush_all t
  in
  refill ();
  while more () && Clock.s () < deadline && Array.exists (fun c -> not c.dead) t.conns do
    pump t ~timeout:0.01;
    refill ()
  done;
  drain t ~deadline

(* SET every key in [0, n_keys) once (stamp 0). *)
let preload t ~n_keys ~depth ~deadline =
  let k = ref 0 in
  closed_loop t ~depth
    ~more:(fun () -> !k < n_keys)
    ~next:(fun ci ->
      let key = !k in
      incr k;
      send t ci Spec.Set key
        ~value:(Spec.make_value ~size:t.value_size ~key ~stamp:0))
    ~deadline

(* Open loop: send each request of [schedule] when it falls due
   (connections alternate), regardless of answers, then drain for at
   most [drain_s]. Request [i] is due at
   [start + schedule.(i).due_ns / 1e9] (s); every request is due within
   [seconds].

   A connection never holds more than [max_inflight] requests: like any
   pipelining client, the generator waits for answers there, and the
   wait counts in each delayed request's latency and lateness. Requests
   still unsent [drain_s] after the phase ends fail as unanswered. *)
let open_loop t ~start ~(schedule : Spec.req array) ~seconds ~drain_s ~max_inflight =
  let give_up = start +. seconds +. drain_s in
  let n = Array.length schedule in
  let nc = Array.length t.conns in
  let i = ref 0 in
  let due k = start +. (schedule.(k).Spec.due_ns /. 1e9) in
  while !i < n && Clock.s () < give_up do
    let now = Clock.s () in
    let blocked = ref false in
    while (not !blocked) && !i < n && due !i <= now do
      let c = t.conns.(!i mod nc) in
      if (not c.dead) && Queue.length c.inflight >= max_inflight then blocked := true
      else begin
        let r = schedule.(!i) in
        ignore (send t (!i mod nc) r.Spec.op r.Spec.key ~due:(due !i));
        incr i
      end
    done;
    flush_all t;
    let wait = if !blocked || !i >= n then 0.01 else due !i -. Clock.s () in
    pump t ~timeout:(Float.max 0.0 (Float.min wait 0.01))
  done;
  for _ = !i to n - 1 do
    t.attempted <- t.attempted + 1;
    fail t Deadline
  done;
  drain t ~deadline:(Clock.s () +. drain_s)

(* Read-after-ack: for each key, SET a value nobody else writes, wait
   for the ack, GET on the same connection and demand those exact
   bytes. Sequential, one key at a time; a GET whose SET failed is not
   sent (the SET's failure is already counted). *)
let readback t ~keys ~op_timeout =
  let nc = Array.length t.conns in
  List.iteri
    (fun i key ->
      let ci = i mod nc in
      let v = Spec.make_value ~size:t.value_size ~key ~stamp:(next_stamp t) in
      let before = failed_total t in
      ignore (send t ci Spec.Set key ~value:v);
      drain t ~deadline:(Clock.s () +. op_timeout);
      if failed_total t = before then begin
        ignore (send t ci Spec.Get key ~expect:v);
        drain t ~deadline:(Clock.s () +. op_timeout)
      end)
    keys
