(* Tests for the engine-agnostic d-CREW policy core (lib/crew): the
   transition functions themselves, the TTL-sweep-vs-open-window
   interaction, and the differential parity check — one recorded trace
   driven through BOTH execution engines (the discrete-event model
   server and the multicore runtime server) must produce identical
   decision sequences. *)

module Config = C4_crew.Config
module Core = C4_crew.Core
module Decision = C4_crew.Decision
module Registry = C4_obs.Registry
module Request = C4_workload.Request
module Wtrace = C4_workload.Trace
module MServer = C4_model.Server
module RServer = C4_runtime.Server
module Promise = C4_runtime.Promise

let decision =
  Alcotest.testable
    (fun ppf d -> Format.pp_print_string ppf (Decision.to_string d))
    ( = )

(* A recorder for the core's decision stream. The runtime emits from
   worker domains as well as the submitter, so guard with a mutex. *)
let recorder () =
  let lock = Mutex.create () in
  let log = ref [] in
  let record d =
    Mutex.lock lock;
    log := d :: !log;
    Mutex.unlock lock
  in
  let dump () =
    Mutex.lock lock;
    let l = List.rev !log in
    Mutex.unlock lock;
    l
  in
  (record, dump)

(* ---------------- configuration validation ---------------- *)

let test_config_validate () =
  let cases =
    [
      ( { Config.default with Config.jbsq_bound = 0 },
        "Crew.Config: jbsq_bound must be >= 1" );
      ( { Config.default with Config.ewt_capacity = 0 },
        "Crew.Config: ewt_capacity must be >= 1" );
      ( { Config.default with Config.ewt_max_outstanding = 0 },
        "Crew.Config: ewt_max_outstanding must be >= 1" );
      ( {
          Config.default with
          Config.compaction =
            Some { Config.default_compaction with Config.scan_depth = 0 };
        },
        "Crew.Config: scan_depth must be >= 1" );
      ( {
          Config.default with
          Config.compaction =
            Some { Config.default_compaction with Config.max_batch = 0 };
        },
        "Crew.Config: max_batch must be >= 1" );
      ( {
          Config.default with
          Config.ewt_ttl = Some { Config.ttl = -1.0; sweep_interval = 10.0 };
        },
        "Crew.Config: ewt_ttl fields must be positive" );
      ( {
          Config.default with
          Config.shed = Some { Config.default_shed with Config.check_interval = 0.0 };
        },
        "Crew.Config: shed.check_interval must be positive" );
    ]
  in
  List.iter
    (fun (cfg, msg) ->
      Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
          ignore (Core.create ~cfg ~n_workers:2 ~n_partitions:4 ())))
    cases;
  (* create's own argument validation *)
  Alcotest.check_raises "n_workers" (Invalid_argument "Crew.Core.create: n_workers")
    (fun () -> ignore (Core.create ~cfg:Config.default ~n_workers:0 ~n_partitions:4 ()))

(* ---------------- pin / route / unpin lifecycle ---------------- *)

let test_pin_route_unpin () =
  let record, dump = recorder () in
  let core =
    Core.create ~on_decision:record ~cfg:Config.default ~n_workers:4 ~n_partitions:8 ()
  in
  Alcotest.(check int) "durable owner" 2 (Core.assigned_owner core ~partition:6);
  (match Core.admit_write core ~partition:6 ~now:0.0 ~pick:`Static with
  | Core.Admitted { worker; fresh } ->
    Alcotest.(check int) "pinned at durable owner" 2 worker;
    Alcotest.(check bool) "first write is a miss" true fresh
  | _ -> Alcotest.fail "expected Admitted");
  (match Core.admit_write core ~partition:6 ~now:1.0 ~pick:`Static with
  | Core.Admitted { worker; fresh } ->
    Alcotest.(check int) "routed to pin" 2 worker;
    Alcotest.(check bool) "second write is a hit" false fresh
  | _ -> Alcotest.fail "expected Admitted");
  Alcotest.(check int) "outstanding" 2 (Core.ewt_outstanding core ~partition:6);
  Alcotest.(check int) "route follows pin" 2 (Core.route_owner core ~partition:6);
  Core.write_done core ~partition:6;
  Alcotest.(check int) "one release" 1 (Core.ewt_outstanding core ~partition:6);
  Core.write_done core ~partition:6;
  Alcotest.(check int) "entry freed" 0 (Core.ewt_occupancy core);
  Alcotest.(check (list decision)) "decision stream"
    [
      Decision.Pin { partition = 6; worker = 2 };
      Decision.Route { partition = 6; worker = 2 };
      Decision.Unpin { partition = 6 };
    ]
    (dump ())

let test_rejects () =
  (* Saturated counter: the pin survives, so the reject names the owner. *)
  let record, dump = recorder () in
  let cfg = { Config.default with Config.ewt_max_outstanding = 1 } in
  let core = Core.create ~on_decision:record ~cfg ~n_workers:2 ~n_partitions:4 () in
  (match Core.admit_write core ~partition:1 ~now:0.0 ~pick:`Static with
  | Core.Admitted _ -> ()
  | _ -> Alcotest.fail "expected Admitted");
  (match Core.admit_write core ~partition:1 ~now:1.0 ~pick:`Static with
  | Core.Rejected { reason = Decision.Counter_saturated; owner = Some 1 } -> ()
  | _ -> Alcotest.fail "expected saturated reject naming owner 1");
  Alcotest.(check decision) "reject decision"
    (Decision.Reject { partition = 1; reason = Decision.Counter_saturated })
    (List.nth (dump ()) 1);
  (* Full table: no entry was installed, so there is no owner to name. *)
  let cfg = { Config.default with Config.ewt_capacity = 1 } in
  let core = Core.create ~cfg ~n_workers:2 ~n_partitions:4 () in
  (match Core.admit_write core ~partition:0 ~now:0.0 ~pick:`Static with
  | Core.Admitted _ -> ()
  | _ -> Alcotest.fail "expected Admitted");
  match Core.admit_write core ~partition:1 ~now:1.0 ~pick:`Static with
  | Core.Rejected { reason = Decision.Table_full; owner = None } -> ()
  | _ -> Alcotest.fail "expected table-full reject"

let test_pin_fallback () =
  (* Static fallback: a balanced pick degrades to the static hash. *)
  Alcotest.(check int) "static hash" 2 (Core.static_owner ~partition:6 ~lo:2 ~hi:4);
  let cfg = { Config.default with Config.pin_fallback = Config.Static } in
  let core = Core.create ~cfg ~n_workers:4 ~n_partitions:8 () in
  (match Core.admit_write core ~partition:6 ~now:0.0 ~pick:(`Balanced (0, 4)) with
  | Core.Admitted { worker; _ } -> Alcotest.(check int) "static pin" 2 worker
  | _ -> Alcotest.fail "expected Admitted");
  (* Balanced fallback: JBSQ picks the least-loaded worker in range. *)
  let core = Core.create ~cfg:Config.default ~n_workers:4 ~n_partitions:8 () in
  Core.dispatch_to core ~worker:0;
  Core.dispatch_to core ~worker:1;
  Core.dispatch_to core ~worker:2;
  (match Core.admit_write core ~partition:6 ~now:0.0 ~pick:(`Balanced (0, 4)) with
  | Core.Admitted { worker; _ } -> Alcotest.(check int) "least loaded" 3 worker
  | _ -> Alcotest.fail "expected Admitted");
  Alcotest.(check int) "pick charged a slot" 1 (Core.occupancy core ~worker:3);
  (* Explicit worker pick (central-queue hand-out). *)
  (match Core.admit_write core ~partition:7 ~now:0.0 ~pick:(`Worker 1) with
  | Core.Admitted { worker; _ } -> Alcotest.(check int) "explicit pick" 1 worker
  | _ -> Alcotest.fail "expected Admitted");
  Alcotest.(check int) "explicit pick charged a slot" 2 (Core.occupancy core ~worker:1);
  (* An engine with its own queues (the runtime) admits uncharged. *)
  match Core.admit_write core ~charge:false ~partition:5 ~now:0.0 ~pick:(`Worker 1) with
  | Core.Admitted { worker; _ } ->
    Alcotest.(check int) "uncharged pick" 1 worker;
    Alcotest.(check int) "no slot charged" 2 (Core.occupancy core ~worker:1)
  | _ -> Alcotest.fail "expected Admitted"

let test_reassign () =
  let record, dump = recorder () in
  let core =
    Core.create ~on_decision:record ~cfg:Config.default ~n_workers:4 ~n_partitions:8 ()
  in
  (* Two writes outstanding on partition 1, pinned at worker 1. *)
  for _ = 1 to 2 do
    match Core.admit_write core ~partition:1 ~now:0.0 ~pick:`Static with
    | Core.Admitted { worker = 1; _ } -> ()
    | _ -> Alcotest.fail "expected pin at worker 1"
  done;
  Alcotest.(check int) "no-op self reassign" 0
    (Core.reassign core ~from_worker:1 ~to_worker:1);
  Alcotest.(check int) "partitions moved" 2
    (Core.reassign core ~from_worker:1 ~to_worker:3);
  Alcotest.(check int) "pin moved, not evicted" 1 (Core.ewt_occupancy core);
  Alcotest.(check int) "pin keeps its count" 2 (Core.ewt_outstanding core ~partition:1);
  Alcotest.(check int) "durable moved" 3 (Core.assigned_owner core ~partition:5);
  Alcotest.(check int) "route follows remap" 3 (Core.route_owner core ~partition:1);
  Core.write_done core ~partition:1;
  Core.write_done core ~partition:1;
  Alcotest.(check int) "released by the writes it counts" 0 (Core.ewt_occupancy core);
  Alcotest.(check (list decision)) "pin hand-over precedes remaps"
    [
      Decision.Pin { partition = 1; worker = 1 };
      Decision.Route { partition = 1; worker = 1 };
      Decision.Pin { partition = 1; worker = 3 };
      Decision.Remap { partition = 1; from_worker = 1; to_worker = 3 };
      Decision.Remap { partition = 5; from_worker = 1; to_worker = 3 };
      Decision.Unpin { partition = 1 };
    ]
    (dump ())

let test_window_lifecycle () =
  let record, dump = recorder () in
  let cfg =
    { Config.default with Config.compaction = Some Config.default_compaction }
  in
  let core = Core.create ~on_decision:record ~cfg ~n_workers:2 ~n_partitions:4 () in
  Alcotest.(check bool) "enabled" true (Core.compaction_enabled core);
  Alcotest.(check int) "scan depth" 8 (Core.scan_depth core);
  Alcotest.(check int) "max batch" 64 (Core.max_batch core);
  Alcotest.(check (float 1e-9)) "scan cost" 15.0 (Core.scan_cost core ~queued:3);
  Alcotest.(check (float 1e-9)) "scan cost capped" 40.0 (Core.scan_cost core ~queued:20);
  let deadline =
    Core.open_window core ~worker:0 ~key:9 ~now:100.0 ~arrival:50.0 ~mean_service:100.0
  in
  (* anchor = now, slack = 100 * (10-1) * 0.5 *)
  Alcotest.(check (float 1e-9)) "deadline" 550.0 deadline;
  Alcotest.(check bool) "open" true (Core.window_is_open core ~worker:0);
  Alcotest.(check bool) "accepts its key" true (Core.window_accepts core ~worker:0 ~key:9);
  Alcotest.(check bool) "rejects other keys" false
    (Core.window_accepts core ~worker:0 ~key:8);
  Core.absorb core ~worker:0 ~key:9 ~id:5 ~now:110.0;
  Core.absorb core ~worker:0 ~key:9 ~id:6 ~now:120.0;
  Core.absorb core ~worker:0 ~key:9 ~id:7 ~now:130.0;
  Alcotest.(check int) "buffered" 3 (Core.window_buffered core ~worker:0);
  Alcotest.(check bool) "not expired" false
    (Core.must_close core ~worker:0 ~now:200.0 ~queue_empty:true);
  Alcotest.(check bool) "expired" true
    (Core.must_close core ~worker:0 ~now:600.0 ~queue_empty:false);
  (match Core.close_window core ~worker:0 ~now:600.0 with
  | None -> Alcotest.fail "expected a closed window"
  | Some closed ->
    Alcotest.(check (list int)) "answers in buffering order" [ 5; 6; 7 ]
      (List.map
         (fun (p : C4_kvs.Compaction_log.pending) -> p.C4_kvs.Compaction_log.request_id)
         closed.C4_kvs.Compaction_log.writes));
  Alcotest.(check bool) "closed" false (Core.window_is_open core ~worker:0);
  (match Core.close_window core ~worker:0 ~now:700.0 with
  | None -> ()
  | Some _ -> Alcotest.fail "double close");
  Alcotest.(check (list decision)) "window decisions"
    [
      Decision.Window_open { worker = 0; key = 9 };
      Decision.Window_close { worker = 0; key = 9; absorbed = 3 };
    ]
    (dump ())

let test_shed_levels () =
  let record, dump = recorder () in
  let shed =
    Some
      {
        Config.check_interval = 10.0;
        shed_threshold = 0.5;
        recover_threshold = 0.1;
      }
  in
  let cfg = { Config.default with Config.shed } in
  let core = Core.create ~on_decision:record ~cfg ~n_workers:2 ~n_partitions:4 () in
  let drive ~arrivals ~drops =
    for _ = 1 to arrivals do
      Core.note_arrival core
    done;
    for _ = 1 to drops do
      Core.note_drop core
    done;
    Core.shed_check core ~now:0.0
  in
  Alcotest.(check int) "level 1" 1 (drive ~arrivals:10 ~drops:8);
  Alcotest.(check bool) "level 1 sheds reads" true (Core.shed_rejects core ~is_read:true);
  Alcotest.(check bool) "level 1 keeps writes" false
    (Core.shed_rejects core ~is_read:false);
  Alcotest.(check int) "level 2" 2 (drive ~arrivals:10 ~drops:8);
  Alcotest.(check bool) "level 2 sheds writes without compaction" true
    (Core.shed_rejects core ~is_read:false);
  Alcotest.(check int) "recovery" 1 (drive ~arrivals:10 ~drops:0);
  Alcotest.(check (list decision)) "level changes"
    [
      Decision.Shed_level { level = 1 };
      Decision.Shed_level { level = 2 };
      Decision.Shed_level { level = 1 };
    ]
    (dump ());
  (* With compaction on, level 2 still admits writes — the window can
     absorb them, and losing them would forfeit the batching capacity. *)
  let cfg =
    {
      Config.default with
      Config.shed;
      compaction = Some Config.default_compaction;
    }
  in
  let core = Core.create ~cfg ~n_workers:2 ~n_partitions:4 () in
  for _ = 1 to 2 do
    Core.note_arrival core;
    Core.note_drop core;
    ignore (Core.shed_check core ~now:0.0)
  done;
  Alcotest.(check int) "at level 2" 2 (Core.shed_level core);
  Alcotest.(check bool) "absorbable writes still admitted" false
    (Core.shed_rejects core ~is_read:false)

(* ---------------- TTL sweep vs. open window ---------------- *)

(* A staleness sweep firing while a compaction window is open must not
   orphan the buffered-but-unanswered writes: the window lifecycle is
   per-worker state, independent of the EWT mapping, so the close still
   returns every absorbed id; the release that then finds its pin gone
   counts an orphan instead of raising. *)
let test_ttl_sweep_during_open_window () =
  let record, dump = recorder () in
  let reg = Registry.create () in
  let cfg =
    {
      Config.default with
      Config.compaction = Some Config.default_compaction;
      ewt_ttl = Some { Config.ttl = 100.0; sweep_interval = 50.0 };
    }
  in
  let core =
    Core.create ~registry:reg ~on_decision:record ~cfg ~n_workers:2 ~n_partitions:4 ()
  in
  (match Core.admit_write core ~partition:1 ~now:0.0 ~pick:`Static with
  | Core.Admitted { worker = 1; fresh = true } -> ()
  | _ -> Alcotest.fail "expected a fresh pin at worker 1");
  ignore (Core.open_window core ~worker:1 ~key:42 ~now:0.0 ~arrival:0.0 ~mean_service:100.0);
  Core.absorb core ~worker:1 ~key:42 ~id:10 ~now:0.0;
  Core.absorb core ~worker:1 ~key:42 ~id:11 ~now:1.0;
  Core.absorb core ~worker:1 ~key:42 ~id:12 ~now:2.0;
  (* The sweep fires mid-window and reclaims the idle pin. *)
  Alcotest.(check (list int)) "pin evicted" [ 1 ] (Core.sweep_stale core ~now:1000.0);
  Alcotest.(check int) "table empty" 0 (Core.ewt_occupancy core);
  Alcotest.(check bool) "window survives the sweep" true
    (Core.window_is_open core ~worker:1);
  Alcotest.(check int) "nothing lost" 3 (Core.window_buffered core ~worker:1);
  (match Core.close_window core ~worker:1 ~now:1000.0 with
  | None -> Alcotest.fail "expected a closed window"
  | Some closed ->
    Alcotest.(check (list int)) "all absorbed writes answered" [ 10; 11; 12 ]
      (List.map
         (fun (p : C4_kvs.Compaction_log.pending) -> p.C4_kvs.Compaction_log.request_id)
         closed.C4_kvs.Compaction_log.writes));
  (* The deferred releases find no pin: orphans, not protocol errors. *)
  for _ = 1 to 3 do
    Core.write_done ~strict:false core ~partition:1
  done;
  Alcotest.(check int) "orphan releases counted" 3
    (Registry.counter_value (Registry.counter reg "ewt.orphan_release"));
  Alcotest.(check int) "route back at durable owner" 1
    (Core.route_owner core ~partition:1);
  Alcotest.(check (list decision)) "decision order"
    [
      Decision.Pin { partition = 1; worker = 1 };
      Decision.Window_open { worker = 1; key = 42 };
      Decision.Stale_evict { partition = 1 };
      Decision.Window_close { worker = 1; key = 42; absorbed = 3 };
    ]
    (dump ())

(* ---------------- differential engine parity ---------------- *)

(* One recorded trace, two engines, one policy core: the discrete-event
   model (simulated ns) and the multicore runtime (wall clock, real
   domains) must emit identical decision sequences. The trace has a
   sequential phase (each write completes before the next arrives:
   pin/unpin parity) and a burst phase (K same-key writes queued behind
   a warm write on the pinned worker: window-lifecycle parity). On the
   runtime side the queue build-up is made deterministic by parking the
   owning worker on a gate while the burst is submitted. *)
let test_engine_parity () =
  let crew =
    {
      Config.queued with
      Config.pin_fallback = Config.Static;
      compaction =
        Some { Config.default_compaction with Config.adaptive_close = true };
    }
  in
  let n_workers = 2 and n_partitions = 8 in
  (* --- runtime side --- *)
  let record_rt, dump_rt = recorder () in
  let rt =
    RServer.start
      {
        RServer.default_config with
        RServer.n_workers;
        n_buckets = 512;
        n_partitions;
        crew;
        recovery = false;
        on_decision = Some record_rt;
      }
  in
  (* The trace must carry the partitions the runtime's store hash will
     compute, so probe for the keys first: a warm/burst pair sharing a
     partition, plus distinct keys for the sequential phase. *)
  let partition_of k = RServer.partition_of_key rt k in
  let key_a, key_b =
    let rec find a =
      let rec scan b =
        if b > 256 then None
        else if partition_of b = partition_of a then Some b
        else scan (b + 1)
      in
      match scan (a + 1) with
      | Some b -> (a, b)
      | None -> find (a + 1)
    in
    find 1
  in
  let burst_partition = partition_of key_a in
  let owner = burst_partition mod n_workers in
  let seq_keys = [ 301; 302; 303; 304; 305 ] in
  let value = Bytes.of_string "v" in
  List.iter (fun key -> RServer.set rt ~key ~value) seq_keys;
  (* Burst: park the owner, preload its channel with the warm write and
     K same-key writes, then release — the worker applies the warm
     write, then harvests the rest into one compaction window. *)
  let k = 4 in
  let release = RServer.pause_worker rt ~worker:owner in
  let warm = RServer.set_async rt ~key:key_a ~value in
  let burst = List.init k (fun _ -> RServer.set_async rt ~key:key_b ~value) in
  release ();
  Promise.await warm;
  List.iter Promise.await burst;
  Alcotest.(check (option bytes)) "burst write applied" (Some value)
    (RServer.get rt ~key:key_b);
  RServer.stop rt;
  let runtime_decisions = dump_rt () in
  (* --- model side: the same arrivals as a recorded trace --- *)
  let record_m, dump_m = recorder () in
  let mk id key arrival =
    {
      Request.id;
      op = Request.Write;
      key;
      partition = partition_of key;
      arrival;
      value_size = 512;
    }
  in
  let seq_reqs =
    List.mapi (fun i key -> mk i key (float_of_int i *. 1.0e6)) seq_keys
  in
  let t0 = 1.0e7 in
  let burst_reqs =
    mk 100 key_a t0
    :: List.init k (fun i -> mk (101 + i) key_b (t0 +. float_of_int (i + 1)))
  in
  let trace = Wtrace.of_array (Array.of_list (seq_reqs @ burst_reqs)) in
  let cfg =
    {
      MServer.default_config with
      MServer.n_workers;
      policy = C4_model.Policy.Dcrew;
      crew;
      on_decision = Some record_m;
    }
  in
  ignore (MServer.run_trace cfg ~trace ~n_partitions);
  let model_decisions = dump_m () in
  (* Guard against degenerate agreement: the burst must actually have
     exercised the window lifecycle on both engines. *)
  Alcotest.(check decision) "burst compacted"
    (Decision.Window_close { worker = owner; key = key_b; absorbed = k })
    (List.find
       (function Decision.Window_close _ -> true | _ -> false)
       runtime_decisions);
  Alcotest.(check int) "decision count"
    (List.length model_decisions)
    (List.length runtime_decisions);
  Alcotest.(check (list decision)) "identical decision sequences" model_decisions
    runtime_decisions

let tests =
  [
    Alcotest.test_case "config validation" `Quick test_config_validate;
    Alcotest.test_case "pin/route/unpin lifecycle" `Quick test_pin_route_unpin;
    Alcotest.test_case "admission rejects" `Quick test_rejects;
    Alcotest.test_case "pin fallback" `Quick test_pin_fallback;
    Alcotest.test_case "crash-recovery reassign" `Quick test_reassign;
    Alcotest.test_case "window lifecycle" `Quick test_window_lifecycle;
    Alcotest.test_case "shed levels" `Quick test_shed_levels;
    Alcotest.test_case "ttl sweep during open window" `Quick
      test_ttl_sweep_during_open_window;
    Alcotest.test_case "model/runtime decision parity" `Quick test_engine_parity;
  ]
