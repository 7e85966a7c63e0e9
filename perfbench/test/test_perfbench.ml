(* The benchmark's own checks: the load generator must count every
   kind of wrong answer a server can give, and the open loop must time
   requests from when they were due.

   The wrong answers come from a scripted fake server on loopback that
   speaks the real wire protocol and misbehaves on cue. *)

open Perfbench
module Wire = C4_net.Wire

let value_size = 64

type action =
  | Answer  (** answer correctly *)
  | Status of Wire.status  (** answer with this status, no value *)
  | Drop  (** never answer *)
  | Swap  (** answer after the next request's answer *)
  | Ignore_set  (** acknowledge a SET without storing it *)

(* Serve one connection on an ephemeral loopback port; [script i req]
   decides the fate of the connection's [i]th request. *)
let fake_server script =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen sock 4;
  let port =
    match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  let serve () =
    let fd, _ = Unix.accept sock in
    let wire = Wire.create () in
    let dec = Wire.Decoder.create wire in
    let store = Hashtbl.create 16 in
    let held = ref None in
    let n = ref 0 in
    let out b = ignore (Unix.write fd b 0 (Bytes.length b)) in
    let respond (req : Wire.request) status value =
      Wire.encode_response wire
        { Wire.resp_id = req.Wire.id; status; timing_ns = 1000; resp_value = value }
    in
    let correct (req : Wire.request) ~store_set =
      match req.Wire.op with
      | Wire.Set ->
        if store_set then Hashtbl.replace store req.Wire.key req.Wire.value;
        respond req Wire.Ok Bytes.empty
      | _ ->
        let v =
          match Hashtbl.find_opt store req.Wire.key with
          | Some v -> v
          | None -> Spec.make_value ~size:value_size ~key:req.Wire.key ~stamp:0
        in
        respond req Wire.Ok v
    in
    let answer b =
      out b;
      Option.iter out !held;
      held := None
    in
    let handle req =
      let i = !n in
      incr n;
      match script i req with
      | Answer -> answer (correct req ~store_set:true)
      | Status s -> answer (respond req s Bytes.empty)
      | Drop -> ignore (correct req ~store_set:true)
      | Swap -> held := Some (correct req ~store_set:true)
      | Ignore_set -> answer (correct req ~store_set:false)
    in
    let buf = Bytes.create 65536 in
    let rec loop () =
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 | (exception Unix.Unix_error _) -> ()
      | k ->
        Wire.Decoder.feed dec buf ~off:0 ~len:k;
        let rec frames () =
          match Wire.Decoder.next_frame dec with
          | `Frame body -> (
            match Wire.decode_request wire body with
            | Ok req -> handle req; frames ()
            | Error _ -> ())
          | `Awaiting | `Corrupt _ -> ()
        in
        frames ();
        loop ()
    in
    (try loop () with Unix.Unix_error _ -> ());
    Unix.close fd;
    Unix.close sock
  in
  (port, Thread.create serve ())

let with_fake script f =
  let port, th = fake_server script in
  let drv = Load.connect ~port ~conns:1 ~value_size in
  Fun.protect
    ~finally:(fun () ->
      Load.close drv;
      Thread.join th)
    (fun () -> f drv)

let failures drv name = List.assoc name (Load.failures drv)

(* 20 pipelined SETs, four in flight at a time. *)
let preload drv =
  Load.preload drv ~n_keys:20 ~depth:4 ~deadline:(Clock.s () +. 2.0)

let at i action = fun j _ -> if i = j then action else Answer

let test_clean () =
  with_fake (fun _ _ -> Answer) (fun drv ->
      preload drv;
      Load.readback drv ~keys:[ 1; 2; 3 ] ~op_timeout:1.0;
      Alcotest.(check int) "attempted" 26 (Load.attempted drv);
      Alcotest.(check int) "failed" 0 (Load.failed_total drv))

let test_err () =
  with_fake (at 5 (Status Wire.Err)) (fun drv ->
      preload drv;
      Alcotest.(check int) "err counted" 1 (failures drv "err");
      Alcotest.(check int) "only that one" 1 (Load.failed_total drv))

let test_not_found_get () =
  with_fake
    (fun _ req -> if req.Wire.op = Wire.Get then Status Wire.Not_found else Answer)
    (fun drv ->
      ignore (Load.send drv 0 Spec.Get 7);
      Load.drain drv ~deadline:(Clock.s () +. 1.0);
      Alcotest.(check int) "preloaded key not found" 1 (failures drv "bad_status"))

let test_drop () =
  with_fake (at 5 Drop) (fun drv ->
      preload drv;
      Alcotest.(check bool) "out of order" true (failures drv "out_of_order" > 0);
      Alcotest.(check bool) "failed" true (Load.failed_total drv > 0))

let test_drop_last () =
  with_fake (at 19 Drop) (fun drv ->
      preload drv;
      Alcotest.(check int) "unanswered at the deadline" 1 (failures drv "deadline"))

let test_reorder () =
  with_fake (at 5 Swap) (fun drv ->
      preload drv;
      Alcotest.(check bool) "out of order" true (failures drv "out_of_order" > 0))

let test_wrong_readback () =
  with_fake
    (fun _ req -> if req.Wire.op = Wire.Set then Ignore_set else Answer)
    (fun drv ->
      Load.readback drv ~keys:[ 1; 2; 3 ] ~op_timeout:1.0;
      Alcotest.(check int) "every read-back mismatches" 3 (failures drv "readback_mismatch"))

let test_torn_value () =
  let v = Spec.make_value ~size:value_size ~key:9 ~stamp:4 in
  Alcotest.(check bool) "intact" true (Spec.value_ok ~size:value_size ~key:9 v);
  Alcotest.(check bool) "wrong key" false (Spec.value_ok ~size:value_size ~key:8 v);
  let w = Spec.make_value ~size:value_size ~key:9 ~stamp:5 in
  Bytes.blit w 0 v 0 16;
  Alcotest.(check bool) "torn" false (Spec.value_ok ~size:value_size ~key:9 v)

(* Due-time accounting against a fixed send schedule. *)
let test_due_time_sample () =
  (* due at 0, 10, 20, 30 ms; the generator stalls and sends the second
     and third request together at 25 ms *)
  let due = [ 0.; 10.; 20.; 30. ] and sent = [ 0.; 25.; 25.; 30. ] in
  let recv = [ 5.; 30.; 31.; 35. ] in
  let got =
    List.map2 (fun (d, s) r -> Account.open_loop_sample ~due:d ~sent:s ~recv:r)
      (List.combine due sent) recv
  in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "latency from due, lateness from due"
    [ (5., 0.); (20., 15.); (11., 5.); (5., 0.) ]
    got

(* The open loop itself: every request of the schedule fell due 50 ms
   before the loop could send it, so each one's latency must include
   that wait, and so must its lateness; timed from its send it would
   look fast. *)
let test_open_loop_counts_the_wait () =
  with_fake (fun _ _ -> Answer) (fun drv ->
      let schedule =
        Array.init 10 (fun i ->
            { Spec.due_ns = float_of_int i *. 1e6; op = Spec.Get; key = i })
      in
      let start = Clock.s () -. 0.05 in
      let lat = ref [] in
      drv.Load.sink <-
        (fun r _ ~recv ->
          lat := (r.Load.due, Account.open_loop_sample ~due:r.Load.due ~sent:r.Load.sent ~recv) :: !lat);
      Load.open_loop drv ~start ~schedule ~seconds:1.0 ~drain_s:1.0 ~max_inflight:64;
      Alcotest.(check int) "all answered" 10 (List.length !lat);
      Alcotest.(check int) "no failures" 0 (Load.failed_total drv);
      List.iter
        (fun (due, (latency, late)) ->
          let owed = start +. 0.05 -. due in
          Alcotest.(check bool) "late by the stall" true (late >= owed);
          Alcotest.(check bool) "latency covers lateness" true (latency >= late))
        !lat)

(* A server that never answers: the open loop stops at the in-flight
   cap, and every request, sent or not, fails. *)
let test_open_loop_cap () =
  with_fake (fun _ _ -> Drop) (fun drv ->
      let schedule =
        Array.init 50 (fun i -> { Spec.due_ns = 0.0; op = Spec.Get; key = i })
      in
      Load.open_loop drv ~start:(Clock.s ()) ~schedule ~seconds:0.2 ~drain_s:0.2
        ~max_inflight:8;
      Alcotest.(check int) "attempted" 50 (Load.attempted drv);
      Alcotest.(check int) "all unanswered" 50 (failures drv "deadline"))

let test_windowed () =
  let w = Account.windowed ~seconds:1.0 ~windows:4 in
  (* window 2 holds one slow sample among fast ones *)
  List.iter
    (fun (at, v) -> Account.add_at w ~at_ns:(at *. 1e9) v)
    [ (0.1, 1.); (0.1, 2.); (0.3, 2.); (0.3, 3.); (0.6, 2.); (0.6, 100.); (0.9, 1.); (0.9, 2.) ];
  Alcotest.(check (float 1e-9)) "median of window maxima" 2.0 (Account.windowed_quantile w 1.0);
  Alcotest.(check (float 1e-9)) "rate" 8.0 (Account.windowed_rate w);
  (* windows 1 and 2 lost CPU time; only 0 and 3 stay *)
  let calm = Account.calmest w ~disturbance:(fun i -> [| 0; 3; 1; 0 |].(i)) in
  Alcotest.(check (float 1e-9)) "calm windows only" 2.0 (Account.windowed_quantile calm 1.0);
  Alcotest.(check int) "kept" 2 (Array.length calm.Account.wins)

(* The declared metrics of each mode come from the benchmark definition,
   and a metric reported in another unit than declared is not correct. *)
let test_declared () =
  let path = Filename.temp_file "perfbench" ".json" in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        {|{"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
           "per_layer": [{"name": "a_ns", "unit": "ns", "better": "lower"},
                         {"name": "b", "unit": "ratio", "better": "higher"}]}|});
  let e2e = Report.declared_of_file path ~trace:false in
  let layers = Report.declared_of_file path ~trace:true in
  Sys.remove path;
  Alcotest.(check (list (pair string string))) "end_to_end" [ ("setup_s", "s") ] e2e;
  Alcotest.(check (list (pair string string)))
    "per_layer" [ ("a_ns", "ns"); ("b", "ratio") ] layers;
  let report = Report.create ~fingerprint:C4_obs.Json.Null ~declared:e2e in
  report.Report.complete <- true;
  Report.metric report "setup_s" "ms" 1.0;
  Alcotest.(check bool) "wrong unit" false (Report.correct report);
  Report.metric report "setup_s" "s" 1.0;
  Alcotest.(check bool) "declared unit" true (Report.correct report)

let () =
  (* the load generator closes poisoned connections under the fake's writes *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "perfbench"
    [
      ( "fake server",
        [
          Alcotest.test_case "clean run has no failures" `Quick test_clean;
          Alcotest.test_case "Err status is a failure" `Quick test_err;
          Alcotest.test_case "GET Not_found is a failure" `Quick test_not_found_get;
          Alcotest.test_case "dropped response is a failure" `Quick test_drop;
          Alcotest.test_case "unanswered at deadline is a failure" `Quick test_drop_last;
          Alcotest.test_case "reordered responses are a failure" `Quick test_reorder;
          Alcotest.test_case "wrong read-back value is a failure" `Quick test_wrong_readback;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "torn value is detected" `Quick test_torn_value;
          Alcotest.test_case "due-time latency and lateness" `Quick test_due_time_sample;
          Alcotest.test_case "open loop counts the generator's wait" `Quick
            test_open_loop_counts_the_wait;
          Alcotest.test_case "open loop caps requests in flight" `Quick test_open_loop_cap;
          Alcotest.test_case "windowed medians" `Quick test_windowed;
          Alcotest.test_case "declared metrics and units" `Quick test_declared;
        ] );
    ]
