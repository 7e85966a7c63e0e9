(* Per-layer numbers from inside one process: a traced replay of the
   workload through the calls a serving loop makes, and isolated
   microbenchmarks of single layers.

   Traced replay. [C4_runtime.Server] is started with the workload's
   configuration and preloaded; then the workload's generated requests
   go through

     Wire.decode_request -> get_async/set_async -> Promise.await
       -> Wire.encode_response

   in batches of the closed-loop depth (all of a batch is submitted
   before the first await, as a pipelining connection would). The spans
   are recorded here, around each call, one trace id per request: a
   root span per request and one child span per call. The children are
   leaves, so each child's self time is its duration; the root's self
   time is the time the request spent between calls.

   Tracing overhead is measured on a replay with one request in flight,
   traced and untraced in turn. In a batch the clock reads space out
   the submissions, so more promises are fulfilled before their await
   and the traced replay can run faster than the untraced one; with one
   request in flight every await waits for the worker either way, and
   the difference is the cost of the stamps. *)

module Rt = C4_runtime.Server
module Promise = C4_runtime.Promise
module Channel = C4_runtime.Channel
module Wire = C4_net.Wire
module Store = C4_kvs.Store
module Core = C4_crew.Core
module Crew_config = C4_crew.Config
module Wal = C4_wal.Wal
module Span = C4_obs.Span

let replay_requests = 40_000
let overhead_requests = 10_000
let chrome_requests = 2_000

type pending = G of int * bytes option Promise.t | S of unit Promise.t

type stamps = {
  dec0 : float array;
  dec1 : float array;
  sub1 : float array;
  aw0 : float array;
  aw1 : float array;
  enc1 : float array;
}

let stamps n =
  let a () = Array.make n 0.0 in
  { dec0 = a (); dec1 = a (); sub1 = a (); aw0 = a (); aw1 = a (); enc1 = a () }

(* The configuration [c4_sim serve] runs with: the queued d-CREW
   profile (compaction on), no WAL. *)
let start_runtime (spec : Spec.t) =
  Rt.start
    {
      Rt.default_config with
      Rt.n_workers = spec.Spec.n_workers;
      n_partitions = spec.Spec.n_partitions;
      registry = Some (C4_obs.Registry.create ~thread_safe:true ());
    }

let preload rt (spec : Spec.t) =
  let chunk = 256 in
  let k = ref 0 in
  while !k < spec.Spec.n_keys do
    let ps =
      List.init (min chunk (spec.Spec.n_keys - !k)) (fun j ->
          let key = !k + j in
          Rt.set_async rt ~key
            ~value:(Spec.make_value ~size:spec.Spec.value_size ~key ~stamp:0))
    in
    List.iter Promise.await ps;
    k := !k + chunk
  done

(* Request bodies as the server's decoder would yield them. *)
let bodies (spec : Spec.t) ~seed =
  let wire = Wire.create () in
  let next = Spec.stream spec ~seed ~salt:3 in
  Array.init replay_requests (fun i ->
      let r = next () in
      let op, value =
        match r.Spec.op with
        | Spec.Get -> (Wire.Get, Bytes.empty)
        | Spec.Set ->
          (Wire.Set, Spec.make_value ~size:spec.Spec.value_size ~key:r.Spec.key ~stamp:(i + 1))
      in
      let frame =
        Wire.encode_request wire
          { Wire.id = i; op; key = r.Spec.key; token = None; trace = None; value }
      in
      Bytes.sub frame 4 (Bytes.length frame - 4))

(* One replay of the first [n] bodies, [batch] requests in flight;
   returns (wall ns, failed). [st] records the spans. *)
let replay rt (spec : Spec.t) bodies ~n ~batch ?st () =
  let wire = Wire.create () in
  let pend = Array.make batch (S (Promise.create ())) in
  let failed = ref 0 in
  let stamp a k = match st with Some s -> (a s).(k) <- Clock.ns () | None -> () in
  let t0 = Clock.ns () in
  let i = ref 0 in
  while !i < n do
    let b = min batch (n - !i) in
    for j = 0 to b - 1 do
      let k = !i + j in
      stamp (fun s -> s.dec0) k;
      let req =
        match Wire.decode_request wire bodies.(k) with
        | Ok r -> r
        | Error e -> failwith ("traced replay: undecodable request: " ^ e)
      in
      stamp (fun s -> s.dec1) k;
      pend.(j) <-
        (match req.Wire.op with
        | Wire.Set -> S (Rt.set_async rt ~key:req.Wire.key ~value:req.Wire.value)
        | _ -> G (req.Wire.key, Rt.get_async rt ~key:req.Wire.key));
      stamp (fun s -> s.sub1) k
    done;
    for j = 0 to b - 1 do
      let k = !i + j in
      stamp (fun s -> s.aw0) k;
      let status, value =
        match pend.(j) with
        | S p -> Promise.await p; (Wire.Ok, Bytes.empty)
        | G (key, p) -> (
          match Promise.await p with
          | Some v when Spec.value_ok ~size:spec.Spec.value_size ~key v -> (Wire.Ok, v)
          | Some _ | None -> incr failed; (Wire.Err, Bytes.empty))
      in
      stamp (fun s -> s.aw1) k;
      ignore
        (Wire.encode_response wire
           { Wire.resp_id = k; status; timing_ns = 0; resp_value = value });
      stamp (fun s -> s.enc1) k
    done;
    i := !i + b
  done;
  (Clock.ns () -. t0, !failed)

let durations n f =
  let s = Account.samples () in
  for k = 0 to n - 1 do Account.add s (f k) done;
  s

let chrome (st : stamps) ~path =
  let buf = Span.create ~process:"perfbench-replay" () in
  for k = 0 to min chrome_requests (Array.length st.dec0) - 1 do
    let root = Span.start buf ~name:"request" ~ts:st.dec0.(k) in
    let parent = Span.context root in
    let child name a b =
      let s = Span.start ~parent buf ~name ~ts:a in
      Span.finish buf s ~ts:b
    in
    child "wire.decode" st.dec0.(k) st.dec1.(k);
    child "runtime.submit" st.dec1.(k) st.sub1.(k);
    child "runtime.await" st.aw0.(k) st.aw1.(k);
    child "wire.encode" st.aw1.(k) st.enc1.(k);
    Span.finish buf root ~ts:st.enc1.(k)
  done;
  Span.save_chrome buf ~path

let traced report (spec : Spec.t) ~seed ~trace_out ~server_p50_us =
  let m = Report.metric report in
  let rt = start_runtime spec in
  Fun.protect ~finally:(fun () -> Rt.stop rt) @@ fun () ->
  preload rt spec;
  let bodies = bodies spec ~seed in
  let n = Array.length bodies in
  let st = stamps n in
  let depth = spec.Spec.depth in
  (* one untimed pass first, so no timed replay pays the warm-up *)
  let _, failed = replay rt spec bodies ~n ~batch:depth () in
  let failed = ref failed in
  let timed ~n ~batch ?st () =
    let w, f = replay rt spec bodies ~n ~batch ?st () in
    failed := !failed + f;
    w
  in
  let one = overhead_requests and scratch = stamps overhead_requests in
  let plain = ref 0.0 and traced = ref 0.0 in
  for _ = 1 to 3 do
    plain := !plain +. timed ~n:one ~batch:1 ();
    traced := !traced +. timed ~n:one ~batch:1 ~st:scratch ()
  done;
  let before = Rt.stats rt in
  for _ = 1 to 2 do ignore (timed ~n ~batch:depth ~st ()) done;
  Report.count report ~attempted:((3 * n) + (6 * one)) ~failed:!failed;
  let after = Rt.stats rt in
  let per_worker =
    Array.mapi (fun w x -> float_of_int (x - before.Rt.per_worker_ops.(w))) after.Rt.per_worker_ops
  in
  let mean = Array.fold_left ( +. ) 0.0 per_worker /. float_of_int (Array.length per_worker) in
  let reads =
    float_of_int
      (after.Rt.ops_completed - before.Rt.ops_completed - (after.Rt.writes - before.Rt.writes))
  in
  let stage name a b =
    let s = durations n (fun k -> b.(k) -. a.(k)) in
    (name, Account.quantile s 0.5, Account.quantile s 0.99)
  in
  let stages =
    [
      stage "wire.decode" st.dec0 st.dec1;
      stage "runtime.submit" st.dec1 st.sub1;
      stage "runtime.await" st.aw0 st.aw1;
      stage "wire.encode" st.aw1 st.enc1;
    ]
  in
  let root_self =
    durations n (fun k ->
        st.enc1.(k) -. st.dec0.(k)
        -. (st.dec1.(k) -. st.dec0.(k)) -. (st.sub1.(k) -. st.dec1.(k))
        -. (st.aw1.(k) -. st.aw0.(k)) -. (st.enc1.(k) -. st.aw1.(k)))
  in
  chrome st ~path:trace_out;
  Report.note report
    (Printf.sprintf
       "traced replay: %d requests x 2 (after an untimed pass), batches of %d; overhead replay: \
        %d requests x 3, one in flight; %d failed; chrome trace %s"
       n depth one !failed trace_out);
  Report.note report (Printf.sprintf "  %-18s %12s %12s" "span (self time)" "p50 ns" "p99 ns");
  List.iter
    (fun (name, p50, p99) -> Report.note report (Printf.sprintf "  %-18s %12.0f %12.0f" name p50 p99))
    stages;
  Report.note report
    (Printf.sprintf "  %-18s %12.0f %12.0f" "request (root)" (Account.quantile root_self 0.5)
       (Account.quantile root_self 0.99));
  let p50 name = List.fold_left (fun a (n, v, _) -> if n = name then v else a) 0.0 stages in
  m "wire.decode_ns" "ns" (p50 "wire.decode");
  m "wire.encode_ns" "ns" (p50 "wire.encode");
  m "runtime.submit_ns" "ns" (p50 "runtime.submit");
  m "runtime.await_ns" "ns" (p50 "runtime.await");
  m "runtime.worker_imbalance" "ratio"
    (if mean > 0.0 then Array.fold_left Float.max 0.0 per_worker /. mean else 0.0);
  m "runtime.read_retries_per_kread" "count"
    (if reads > 0.0 then
       1000.0 *. float_of_int (after.Rt.read_retries - before.Rt.read_retries) /. reads
     else 0.0);
  m "trace.overhead_frac" "ratio" ((!traced -. !plain) /. !plain);
  (* Reported, not gated: how far the four calls fall from explaining
     the server's own decode-to-response time over TCP, either way. *)
  let sum_us = List.fold_left (fun a (_, v, _) -> a +. v) 0.0 stages /. 1e3 in
  Report.note report
    (Printf.sprintf "  stage p50 sum %.2f us vs TCP net.server_p50_us %.2f us" sum_us server_p50_us);
  m "trace.gap_us" "us" (Float.abs (server_p50_us -. sum_us))

(* ------------------------------------------------------------------ *)
(* Isolated microbenchmarks: median over repetitions of ns per op. *)

let reps = 5

let per_op ~n f =
  Account.median_of
    (List.init reps (fun _ ->
         let t0 = Clock.ns () in
         f ();
         (Clock.ns () -. t0) /. float_of_int n))

(* Channel push -> pop on another domain, then Promise fulfil -> await
   back: the two hops every runtime request makes. *)
let hop () =
  let ch = Channel.create () in
  let d =
    Domain.spawn (fun () ->
        let rec loop () =
          match Channel.pop ch with
          | None -> ()
          | Some p -> Promise.fulfil p (); loop ()
        in
        loop ())
  in
  let n = 20_000 in
  let r =
    per_op ~n (fun () ->
        for _ = 1 to n do
          let p = Promise.create () in
          Channel.push ch p;
          Promise.await p
        done)
  in
  Channel.close ch;
  Domain.join d;
  r

let writes_stream (spec : Spec.t) ~seed ~salt ~n =
  let next = Spec.stream spec ~seed ~salt in
  let rec go acc k =
    if k = n then Array.of_list (List.rev acc)
    else
      let r = next () in
      if r.Spec.op = Spec.Set then go (r.Spec.key :: acc) (k + 1) else go acc k
  in
  go [] 0

(* Core admission + release over the workload's write partitions, with
   as many writes outstanding as the closed loop keeps in flight. *)
let admit (spec : Spec.t) store ~seed =
  let n = 100_000 in
  let parts = Array.map (Store.partition_of_key store) (writes_stream spec ~seed ~salt:4 ~n) in
  let outstanding = spec.Spec.conns * spec.Spec.depth in
  per_op ~n (fun () ->
      let cfg =
        { Crew_config.queued with
          Crew_config.ewt_capacity = max Crew_config.queued.Crew_config.ewt_capacity spec.Spec.n_partitions }
      in
      let core =
        Core.create ~cfg ~n_workers:spec.Spec.n_workers ~n_partitions:spec.Spec.n_partitions ()
      in
      for k = 0 to n - 1 do
        Core.note_arrival core;
        ignore (Core.admit_write core ~partition:parts.(k) ~now:0.0 ~pick:`Static);
        if k >= outstanding then Core.write_done ~strict:false core ~partition:parts.(k - outstanding)
      done)

let store_ops (spec : Spec.t) ~seed =
  let store = Store.create ~n_buckets:Rt.default_config.Rt.n_buckets ~n_partitions:spec.Spec.n_partitions () in
  for key = 0 to spec.Spec.n_keys - 1 do
    Store.set store ~key ~value:(Spec.make_value ~size:spec.Spec.value_size ~key ~stamp:0)
  done;
  let n = 100_000 in
  let next = Spec.stream spec ~seed ~salt:5 in
  let keys = Array.init n (fun _ -> (next ()).Spec.key) in
  let v = Spec.make_value ~size:spec.Spec.value_size ~key:0 ~stamp:1 in
  let get = per_op ~n (fun () -> Array.iter (fun key -> ignore (Store.get store ~key)) keys) in
  let set = per_op ~n (fun () -> Array.iter (fun key -> Store.set store ~key ~value:v) keys) in
  let batched =
    per_op ~n (fun () -> Array.iter (fun key -> Store.set_batched store ~key ~values:[ v; v ]) keys)
  in
  (store, get, set, batched)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Wal.append of one value-sized record, no fsync. *)
let wal_append (spec : Spec.t) store ~seed ~workdir =
  let dir = Filename.concat workdir "wal-micro" in
  let n = 10_000 in
  let keys = writes_stream spec ~seed ~salt:6 ~n in
  let v = Spec.make_value ~size:spec.Spec.value_size ~key:0 ~stamp:1 in
  let wal, _ =
    Wal.open_ ~replay:(fun ~partition:_ _ -> ())
      { (Wal.default_config ~dir ~n_partitions:spec.Spec.n_partitions) with Wal.fsync = Wal.Never }
  in
  let r =
    per_op ~n (fun () ->
        Array.iter
          (fun key ->
            ignore
              (Wal.append wal ~partition:(Store.partition_of_key store key)
                 ~op:(C4_wal.Record.Set { key; value = v; token = None })))
          keys)
  in
  Wal.close wal;
  rm_rf dir;
  r

let micro report (spec : Spec.t) ~seed ~workdir =
  let m = Report.metric report in
  m "runtime.hop_ns" "ns" (hop ());
  let store, get, set, batched = store_ops spec ~seed in
  m "store.get_ns" "ns" get;
  m "store.set_ns" "ns" set;
  m "store.set_batched_ns" "ns" batched;
  m "crew.admit_ns" "ns" (admit spec store ~seed);
  m "wal.append_ns" "ns" (wal_append spec store ~seed ~workdir)

let run report ~spec ~seed ~workdir ~trace_out ~server_p50_us =
  traced report spec ~seed ~trace_out ~server_p50_us;
  micro report spec ~seed ~workdir
