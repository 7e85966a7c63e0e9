(* Network serving tests: wire codec round-trips (qcheck), torn-frame
   and corruption handling, NIC header interop, and live loopback
   integration — pipelining order, concurrent-client linearizability,
   crash recovery observed through real sockets, graceful drain. *)

module Wire = C4_net.Wire
module NetServer = C4_net.Server
module NetClient = C4_net.Client
module Loadgen = C4_net.Loadgen
module Header = C4_nic.Header
module Runtime = C4_runtime.Server
module History = C4_consistency.History
module Lin = C4_consistency.Linearizability

let wire = Wire.create ()

(* ---------------- codec: round trips ---------------- *)

let request_equal (a : Wire.request) (b : Wire.request) =
  a.Wire.id = b.Wire.id && a.Wire.op = b.Wire.op && a.Wire.key = b.Wire.key
  && a.Wire.token = b.Wire.token && a.Wire.trace = b.Wire.trace
  && Bytes.equal a.Wire.value b.Wire.value

(* Body = frame minus length prefix and version byte, as the decoder
   would yield it. *)
let body_of_frame frame = Bytes.sub frame 5 (Bytes.length frame - 5)

let prop_request_roundtrip =
  QCheck.Test.make ~name:"wire request encode/decode round-trips" ~count:300
    QCheck.(
      pair
        (quad (int_bound 2)
           (int_bound ((1 lsl 40) - 1))
           (int_bound ((1 lsl 40) - 1))
           (option (int_bound ((1 lsl 40) - 1))))
        (string_of_size Gen.(int_bound 600)))
    (fun ((op_i, id, key, token), value) ->
      let op = match op_i with 0 -> Wire.Get | 1 -> Wire.Set | _ -> Wire.Delete in
      let value = if op = Wire.Set then Bytes.of_string value else Bytes.empty in
      let req = { Wire.id; op; key; token; trace = None; value } in
      match Wire.decode_request wire (body_of_frame (Wire.encode_request wire req)) with
      | Ok req' -> request_equal req req'
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

let prop_traced_request_roundtrip =
  QCheck.Test.make ~name:"wire trace-context encode/decode round-trips"
    ~count:300
    QCheck.(
      pair
        (quad (int_bound 2)
           (int_bound ((1 lsl 40) - 1))
           (option (int_bound ((1 lsl 40) - 1)))
           (pair (int_bound max_int) (int_bound max_int)))
        (string_of_size Gen.(int_bound 600)))
    (fun ((op_i, id, token, (trace_id, parent_span)), value) ->
      let op = match op_i with 0 -> Wire.Get | 1 -> Wire.Set | _ -> Wire.Delete in
      let value = if op = Wire.Set then Bytes.of_string value else Bytes.empty in
      let req =
        { Wire.id; op; key = id * 3; token;
          trace = Some { Wire.trace_id; parent_span }; value }
      in
      let frame = Wire.encode_request wire req in
      (* Trace context needs the v2 layout. *)
      if Bytes.get_uint8 frame 4 <> 2 then
        QCheck.Test.fail_reportf "traced frame stamped v%d" (Bytes.get_uint8 frame 4);
      match Wire.decode_request wire (body_of_frame frame) with
      | Ok req' -> request_equal req req'
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

let prop_response_roundtrip =
  QCheck.Test.make ~name:"wire response encode/decode round-trips" ~count:300
    QCheck.(
      quad (int_bound 2)
        (int_bound ((1 lsl 40) - 1))
        (int_bound ((1 lsl 40) - 1))
        (string_of_size Gen.(int_bound 600)))
    (fun (st_i, resp_id, timing_ns, value) ->
      let status =
        match st_i with 0 -> Wire.Ok | 1 -> Wire.Not_found | _ -> Wire.Err
      in
      let resp =
        { Wire.resp_id; status; timing_ns; resp_value = Bytes.of_string value }
      in
      match
        Wire.decode_response wire (body_of_frame (Wire.encode_response wire resp))
      with
      | Ok r ->
        r.Wire.resp_id = resp_id && r.Wire.status = status
        && r.Wire.timing_ns = timing_ns
        && Bytes.equal r.Wire.resp_value resp.Wire.resp_value
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

(* ---------------- codec: decoder resilience ---------------- *)

let test_torn_frames () =
  let reqs =
    List.init 20 (fun i ->
        {
          Wire.id = i;
          op = (match i mod 3 with 0 -> Wire.Get | 1 -> Wire.Set | _ -> Wire.Delete);
          key = i * 17;
          token = (if i mod 4 = 0 then Some (1000 + i) else None);
          trace =
            (* Mix v1 (ctx-free) and v2 (traced) frames in one stream. *)
            (if i mod 5 = 0 then
               Some { Wire.trace_id = (i * 7) + 1; parent_span = (i * 11) + 2 }
             else None);
          value = (if i mod 3 = 1 then Bytes.make (i * 13) 'x' else Bytes.empty);
        })
  in
  let stream =
    Bytes.concat Bytes.empty (List.map (Wire.encode_request wire) reqs)
  in
  let d = Wire.Decoder.create wire in
  let decoded = ref [] in
  (* One byte at a time: every frame arrives torn in every position. *)
  for i = 0 to Bytes.length stream - 1 do
    Wire.Decoder.feed d stream ~off:i ~len:1;
    let rec pull () =
      match Wire.Decoder.next_frame d with
      | `Awaiting -> ()
      | `Corrupt msg -> Alcotest.failf "corrupt at byte %d: %s" i msg
      | `Frame body ->
        (match Wire.decode_request wire body with
        | Ok r -> decoded := r :: !decoded
        | Error e -> Alcotest.failf "decode at byte %d: %s" i e);
        pull ()
    in
    pull ()
  done;
  Alcotest.(check int) "all frames recovered" (List.length reqs)
    (List.length !decoded);
  Alcotest.(check bool) "frames identical and in order" true
    (List.for_all2 request_equal reqs (List.rev !decoded));
  Alcotest.(check int) "no residue" 0 (Wire.Decoder.buffered d)

let test_oversized_frame_rejected () =
  let small = Wire.create ~max_frame:64 () in
  let d = Wire.Decoder.create small in
  let b = Bytes.make 8 '\000' in
  Bytes.set b 0 '\xff';
  Bytes.set b 1 '\xff';
  (* length prefix 0xffff > 64 *)
  Wire.Decoder.feed d b ~off:0 ~len:8;
  (match Wire.Decoder.next_frame d with
  | `Corrupt _ -> ()
  | `Frame _ | `Awaiting -> Alcotest.fail "oversized frame accepted");
  (* Corruption is sticky: the stream cannot be resynchronised. *)
  let good =
    Wire.encode_request small
      { Wire.id = 1; op = Wire.Get; key = 2; token = None; trace = None;
        value = Bytes.empty }
  in
  Wire.Decoder.feed d good ~off:0 ~len:(Bytes.length good);
  match Wire.Decoder.next_frame d with
  | `Corrupt _ -> ()
  | `Frame _ | `Awaiting -> Alcotest.fail "decoder resynchronised after corruption"

let test_bad_version_rejected () =
  let frame =
    Wire.encode_request wire
      { Wire.id = 7; op = Wire.Get; key = 3; token = None; trace = None;
        value = Bytes.empty }
  in
  Bytes.set frame 4 '\042';
  let d = Wire.Decoder.create wire in
  Wire.Decoder.feed d frame ~off:0 ~len:(Bytes.length frame);
  match Wire.Decoder.next_frame d with
  | `Corrupt _ -> ()
  | `Frame _ | `Awaiting -> Alcotest.fail "unknown version accepted"

let test_strict_request_decode () =
  Alcotest.check_raises "value on GET rejected at encode"
    (Invalid_argument "Wire.encode_request: GET/DELETE carry no value")
    (fun () ->
      ignore
        (Wire.encode_request wire
           { Wire.id = 1; op = Wire.Get; key = 2; token = None; trace = None;
             value = Bytes.of_string "x" }));
  (* Unknown flag bits are rejected, not ignored. *)
  let hdr =
    Header.register ~layout:(Wire.layout wire) ~n_buckets:64 ~n_partitions:4
  in
  let body =
    body_of_frame
      (Wire.encode_request wire
         { Wire.id = 1; op = Wire.Set; key = 2; token = None; trace = None;
           value = Bytes.of_string "v" })
  in
  Bytes.set body (Header.header_size hdr + 8) '\x80';
  (match Wire.decode_request wire body with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown flag bits accepted");
  (* A GET whose body has trailing bytes after the flags is rejected. *)
  let get_body =
    body_of_frame
      (Wire.encode_request wire
         { Wire.id = 1; op = Wire.Get; key = 2; token = None; trace = None;
           value = Bytes.empty })
  in
  let padded = Bytes.cat get_body (Bytes.of_string "junk") in
  match Wire.decode_request wire padded with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "GET with trailing value accepted"

(* ---------------- codec: NIC header interop ---------------- *)

let test_nic_header_interop () =
  let hdr =
    Header.register ~layout:(Wire.layout wire) ~n_buckets:1024 ~n_partitions:16
  in
  List.iter
    (fun (op, key, value) ->
      let frame =
        Wire.encode_request wire
          { Wire.id = 99; op; key; token = Some 5; trace = None; value }
      in
      match Header.parse hdr (body_of_frame frame) with
      | Error e -> Alcotest.failf "NIC failed to parse wire body: %s" e
      | Ok parsed ->
        Alcotest.(check bool) "op agrees" true
          (parsed.Header.op = Wire.header_op op);
        Alcotest.(check int) "key agrees" key parsed.Header.key;
        Alcotest.(check int) "partition agrees"
          (C4_kvs.Hash.partition_of_key ~n_buckets:1024 ~n_partitions:16 key)
          parsed.Header.partition)
    [
      (Wire.Get, 12345, Bytes.empty);
      (Wire.Set, 777, Bytes.make 32 'v');
      (Wire.Delete, 31, Bytes.empty);
    ]

(* ---------------- loopback integration ---------------- *)

(* Serving runs the runtime without worker domains: the server's event
   loops drive its workers. *)
let served cfg = { cfg with Runtime.worker_domains = false }

let with_net ?(runtime_cfg = { Runtime.default_config with Runtime.n_workers = 2 })
    ?(server_cfg = NetServer.default_config) f =
  let runtime = Runtime.start (served runtime_cfg) in
  let srv = NetServer.start server_cfg ~runtime in
  let client =
    NetClient.create
      (NetClient.default_config ~hosts:[ ("127.0.0.1", NetServer.port srv) ])
  in
  Fun.protect
    ~finally:(fun () ->
      NetClient.close client;
      NetServer.stop srv;
      Runtime.stop runtime)
    (fun () -> f runtime srv client)

let test_loopback_ops () =
  with_net (fun _ _ client ->
      Alcotest.(check bool) "get missing" true (NetClient.get client ~key:1 = Ok None);
      Alcotest.(check bool) "set" true
        (NetClient.set client ~key:1 ~value:(Bytes.of_string "alpha") = Ok ());
      Alcotest.(check bool) "get back" true
        (NetClient.get client ~key:1 = Ok (Some (Bytes.of_string "alpha")));
      Alcotest.(check bool) "delete present" true
        (NetClient.delete client ~key:1 = Ok true);
      Alcotest.(check bool) "delete absent" true
        (NetClient.delete client ~key:1 = Ok false);
      Alcotest.(check bool) "gone" true (NetClient.get client ~key:1 = Ok None))

let test_pipelining_order () =
  with_net (fun _ _ client ->
      let n = 500 in
      let order = ref [] in
      let lock = Mutex.create () in
      let remaining = Atomic.make n in
      for i = 0 to n - 1 do
        let op = if i mod 2 = 0 then Wire.Set else Wire.Get in
        let value = if op = Wire.Set then Bytes.of_string "v" else Bytes.empty in
        ignore
          (NetClient.dispatch client ~op ~key:7 ~value
             ~on_response:(fun r ->
               C4_runtime.Sync.with_lock lock (fun () ->
                   order := r.Wire.resp_id :: !order);
               Atomic.decr remaining)
             ())
      done;
      let deadline = Unix.gettimeofday () +. 10.0 in
      while Atomic.get remaining > 0 && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.001
      done;
      Alcotest.(check int) "all answered" 0 (Atomic.get remaining);
      (* One connection, one key: responses must arrive in dispatch
         order — the per-connection pipelining guarantee. *)
      Alcotest.(check (list int)) "responses in dispatch order"
        (List.init n (fun i -> i))
        (List.rev !order))

let test_concurrent_clients_linearizable () =
  with_net (fun _ srv _ ->
      let key = 42 in
      let now () = Unix.gettimeofday () *. 1e6 in
      let n_clients = 4 and per_client = 12 in
      let results = Array.make n_clients [] in
      let run_client c =
        Thread.create
          (fun () ->
            (* Each thread gets its own connection = its own client in
               the recorded history. *)
            let cl =
              NetClient.create
                (NetClient.default_config
                   ~hosts:[ ("127.0.0.1", NetServer.port srv) ])
            in
            results.(c) <-
              List.init per_client (fun i ->
                  let invoked = now () in
                  if (i + c) mod 3 = 0 then begin
                    let v = (c * 100) + i + 1 in
                    (match
                       NetClient.set cl ~key
                         ~value:(Bytes.of_string (string_of_int v))
                     with
                    | Ok () -> ()
                    | Error e -> Alcotest.failf "set failed: %s" e);
                    History.set ~client:(string_of_int c) ~value:v ~invoked
                      ~responded:(now ())
                  end
                  else begin
                    let seen =
                      match NetClient.get cl ~key with
                      | Ok (Some b) -> int_of_string (Bytes.to_string b)
                      | Ok None -> 0
                      | Error e -> Alcotest.failf "get failed: %s" e
                    in
                    History.get ~client:(string_of_int c) ~value:seen ~invoked
                      ~responded:(now ())
                  end);
            NetClient.close cl)
          ()
      in
      let threads = List.init n_clients run_client in
      List.iter Thread.join threads;
      let history = History.of_ops (List.concat (Array.to_list results)) in
      Alcotest.(check int) "history complete" (n_clients * per_client)
        (History.length history);
      match Lin.check ~initial:0 history with
      | Lin.Linearizable _ -> ()
      | Lin.Not_linearizable ->
        Alcotest.failf "networked execution not linearizable:@.%a" History.pp
          history)

let test_crash_recovery_over_network () =
  let runtime_cfg =
    { Runtime.default_config with Runtime.n_workers = 4; monitor_interval = 0.001 }
  in
  with_net ~runtime_cfg (fun runtime _ client ->
      let value_of k = Bytes.of_string (Printf.sprintf "net%d" k) in
      for key = 0 to 199 do
        match NetClient.set client ~key ~value:(value_of key) with
        | Ok () -> ()
        | Error e -> Alcotest.failf "set %d failed: %s" key e
      done;
      Runtime.inject_crash runtime ~worker:(Runtime.owner_of_key runtime 0);
      (* Write through the crash window too. *)
      for key = 200 to 399 do
        match NetClient.set client ~key ~value:(value_of key) with
        | Ok () -> ()
        | Error e -> Alcotest.failf "set %d (crash window) failed: %s" key e
      done;
      let rec await tries =
        if tries = 0 then Alcotest.fail "recovery did not complete"
        else if
          Runtime.alive_workers runtime = 4
          && (Runtime.stats runtime).Runtime.recoveries > 0
        then ()
        else begin
          Unix.sleepf 0.001;
          await (tries - 1)
        end
      in
      await 5_000;
      (* Every acknowledged write is readable through the network. *)
      for key = 0 to 399 do
        Alcotest.(check (option string))
          (Printf.sprintf "key %d survives worker crash" key)
          (Some (Bytes.to_string (value_of key)))
          (match NetClient.get client ~key with
          | Ok v -> Option.map Bytes.to_string v
          | Error e -> Alcotest.failf "get %d failed: %s" key e)
      done)

let test_graceful_drain () =
  let runtime = Runtime.start (served { Runtime.default_config with Runtime.n_workers = 2 }) in
  let srv = NetServer.start NetServer.default_config ~runtime in
  let client =
    NetClient.create
      (NetClient.default_config ~hosts:[ ("127.0.0.1", NetServer.port srv) ])
  in
  let n = 300 in
  let ok = Atomic.make 0 and answered = Atomic.make 0 in
  for i = 0 to n - 1 do
    ignore
      (NetClient.dispatch client ~op:Wire.Set ~key:i ~value:(Bytes.of_string "d")
         ~on_response:(fun r ->
           if r.Wire.status = Wire.Ok then Atomic.incr ok;
           Atomic.incr answered)
         ())
  done;
  (* Wait until the server has decoded every frame, then stop: the
     drain must answer all of them before tearing anything down. *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  while
    (NetServer.stats srv).NetServer.requests < n
    && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.001
  done;
  Alcotest.(check int) "all requests reached the server" n
    (NetServer.stats srv).NetServer.requests;
  NetServer.stop srv;
  Runtime.stop runtime;
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Atomic.get answered < n && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  NetClient.close client;
  Alcotest.(check int) "every accepted request answered" n (Atomic.get answered);
  Alcotest.(check int) "every answer is OK (no drops during drain)" n
    (Atomic.get ok)

let test_loadgen_smoke () =
  with_net (fun _ srv client ->
      let workload =
        {
          C4_workload.Generator.default with
          C4_workload.Generator.theta = 0.99;
          write_fraction = 0.4;
          rate = 20_000.0 *. 1e-9;
        }
      in
      let cfg =
        {
          (Loadgen.default_config ~workload ~seed:7) with
          Loadgen.n_ops = 2_000;
          warmup = 100;
          delete_fraction = 0.05;
        }
      in
      let r = Loadgen.run client cfg in
      Alcotest.(check int) "all completed" 2_000 r.Loadgen.completed;
      Alcotest.(check int) "no errors" 0 r.Loadgen.errors;
      Alcotest.(check bool) "nonzero throughput" true (r.Loadgen.throughput > 0.0);
      Alcotest.(check int) "no protocol errors" 0
        (NetServer.stats srv).NetServer.protocol_errors;
      Alcotest.(check bool) "latency recorded" true
        (C4_stats.Histogram.count r.Loadgen.all_ns > 0))

(* Regression: with retries configured, a SET must carry its idempotency
   token (the first attempt's request id) from the very first attempt —
   a tokenless original cannot be deduplicated against its retry — and
   every retry must repeat that same token under a fresh request id. *)
let test_set_token_from_first_attempt () =
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listen_fd 1;
  let port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  (* (id, op, token) per decoded request, newest first. *)
  let seen = ref [] in
  let lock = Mutex.create () in
  let failures = ref 1 in
  (* Raw single-connection server: record every request, answer the
     first SET with Err to force one retry, everything else Ok. *)
  let server =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept listen_fd in
        let d = Wire.Decoder.create wire in
        let chunk = Bytes.create 4096 in
        let rec serve () =
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | exception Unix.Unix_error _ -> ()
          | n ->
            Wire.Decoder.feed d chunk ~off:0 ~len:n;
            let rec pull () =
              match Wire.Decoder.next_frame d with
              | `Awaiting -> ()
              | `Corrupt _ -> ()
              | `Frame body ->
                (match Wire.decode_request wire body with
                | Error _ -> ()
                | Ok req ->
                  C4_runtime.Sync.with_lock lock (fun () ->
                      seen := (req.Wire.id, req.Wire.op, req.Wire.token) :: !seen);
                  let status =
                    if req.Wire.op = Wire.Set && !failures > 0 then begin
                      decr failures;
                      Wire.Err
                    end
                    else Wire.Ok
                  in
                  let frame =
                    Wire.encode_response wire
                      { Wire.resp_id = req.Wire.id; status; timing_ns = 0;
                        resp_value = Bytes.empty }
                  in
                  ignore (Unix.write fd frame 0 (Bytes.length frame)));
                pull ()
            in
            pull ();
            serve ()
        in
        serve ();
        try Unix.close fd with Unix.Unix_error _ -> ())
      ()
  in
  let client =
    NetClient.create
      {
        (NetClient.default_config ~hosts:[ ("127.0.0.1", port) ]) with
        NetClient.retry =
          Some
            {
              C4_resilience.Retry.default with
              C4_resilience.Retry.max_attempts = 3;
              deadline = 0.0;
            };
      }
  in
  Alcotest.(check bool) "set succeeds after one retry" true
    (NetClient.set client ~key:9 ~value:(Bytes.of_string "tok") = Ok ());
  NetClient.close client;
  Unix.close listen_fd;
  Thread.join server;
  match List.rev !seen with
  | [ (id1, Wire.Set, tok1); (id2, Wire.Set, tok2) ] ->
    Alcotest.(check bool) "first attempt already carries a token" true
      (tok1 <> None);
    (* The token mixes a per-instance nonce with the first attempt's id,
       so it is NOT the bare id — that made tokens collide across client
       instances sharing a server. *)
    Alcotest.(check (option int)) "retry repeats the original token" tok1 tok2;
    Alcotest.(check bool) "retry uses a fresh request id" true (id2 <> id1)
  | l -> Alcotest.failf "expected exactly 2 SET attempts, saw %d" (List.length l)

(* ---------------- versioning compatibility ---------------- *)

(* A context-free request must still go out as a version-1 frame,
   byte-compatible with pre-trace decoders: the encoder stamps the
   lowest version that can represent the content. *)
let test_ctx_free_frames_stay_v1 () =
  let frame =
    Wire.encode_request wire
      { Wire.id = 11; op = Wire.Set; key = 4; token = Some 8; trace = None;
        value = Bytes.of_string "v1" }
  in
  Alcotest.(check int) "ctx-free frame stamped v1" 1 (Bytes.get_uint8 frame 4);
  let traced =
    Wire.encode_request wire
      { Wire.id = 11; op = Wire.Set; key = 4; token = Some 8;
        trace = Some { Wire.trace_id = 5; parent_span = 6 };
        value = Bytes.of_string "v2" }
  in
  Alcotest.(check int) "traced frame stamped v2" 2 (Bytes.get_uint8 traced 4);
  (* Responses never carry context: always v1. *)
  let resp =
    Wire.encode_response wire
      { Wire.resp_id = 11; status = Wire.Ok; timing_ns = 1;
        resp_value = Bytes.empty }
  in
  Alcotest.(check int) "responses stamped v1" 1 (Bytes.get_uint8 resp 4);
  (* The decoder accepts both versions in one stream. *)
  let d = Wire.Decoder.create wire in
  Wire.Decoder.feed d frame ~off:0 ~len:(Bytes.length frame);
  Wire.Decoder.feed d traced ~off:0 ~len:(Bytes.length traced);
  let next () =
    match Wire.Decoder.next_frame d with
    | `Frame body -> (
      match Wire.decode_request wire body with
      | Ok r -> r
      | Error e -> Alcotest.failf "decode: %s" e)
    | `Awaiting | `Corrupt _ -> Alcotest.fail "frame not yielded"
  in
  Alcotest.(check bool) "v1 frame decodes ctx-free" true ((next ()).Wire.trace = None);
  Alcotest.(check bool) "v2 frame decodes with ctx" true
    ((next ()).Wire.trace = Some { Wire.trace_id = 5; parent_span = 6 })

(* ---------------- distributed tracing ---------------- *)

(* One traced request must yield one connected span chain across both
   processes: client.dispatch -> server.recv -> server.apply ->
   server.respond, all in one trace, with the crew admission decision
   stamped on the recv span. *)
let test_stitched_span_chain () =
  let module Span = C4_obs.Span in
  let client_buf = Span.create ~process:"client" () in
  let server_buf = Span.create ~process:"server" () in
  let runtime_cfg =
    {
      Runtime.default_config with
      Runtime.n_workers = 2;
      on_decision =
        Some
          (fun d ->
            ignore
              (Span.annotate_current server_buf ~key:"crew"
                 ~value:(C4_crew.Decision.to_string d)));
    }
  in
  let runtime = Runtime.start (served runtime_cfg) in
  let srv =
    NetServer.start
      { NetServer.default_config with NetServer.spans = Some server_buf }
      ~runtime
  in
  let client =
    NetClient.create
      {
        (NetClient.default_config ~hosts:[ ("127.0.0.1", NetServer.port srv) ])
        with
        NetClient.spans = Some client_buf;
      }
  in
  Fun.protect
    ~finally:(fun () ->
      NetClient.close client;
      NetServer.stop srv;
      Runtime.stop runtime)
    (fun () ->
      Alcotest.(check bool) "set ok" true
        (NetClient.set client ~key:5 ~value:(Bytes.of_string "traced") = Ok ());
      (* The respond span closes in the server's writer thread after the
         response bytes go out — strictly after the client's callback
         fired, so give it a moment. *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      let all_finished () =
        let spans = Span.spans server_buf in
        List.length spans = 3 && List.for_all Span.finished spans
      in
      while (not (all_finished ())) && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.001
      done;
      let dispatch =
        match Span.spans client_buf with
        | [ s ] -> s
        | l -> Alcotest.failf "expected 1 client span, got %d" (List.length l)
      in
      Alcotest.(check string) "client span name" "client.dispatch"
        (Span.name dispatch);
      Alcotest.(check bool) "client span is the root" true
        (Span.parent_id dispatch = None);
      let find_server name =
        match
          List.find_opt (fun s -> Span.name s = name) (Span.spans server_buf)
        with
        | Some s -> s
        | None -> Alcotest.failf "server span %s missing" name
      in
      let recv = find_server "server.recv" in
      let apply = find_server "server.apply" in
      let respond = find_server "server.respond" in
      (* Walk the parent links back across the process boundary. *)
      Alcotest.(check (option int)) "respond parented on apply"
        (Some (Span.span_id apply))
        (Span.parent_id respond);
      Alcotest.(check (option int)) "apply parented on recv"
        (Some (Span.span_id recv))
        (Span.parent_id apply);
      Alcotest.(check (option int)) "recv parented on the client dispatch"
        (Some (Span.span_id dispatch))
        (Span.parent_id recv);
      List.iter
        (fun s ->
          Alcotest.(check int) "one trace id end to end"
            (Span.trace_id dispatch) (Span.trace_id s);
          Alcotest.(check bool) "span finished" true (Span.finished s))
        [ dispatch; recv; apply; respond ];
      (* The admission decision the policy core took while the reader
         submitted this write landed on the recv span. *)
      Alcotest.(check bool) "crew decision stamped on recv" true
        (List.mem_assoc "crew" (Span.annotations recv));
      (* The merged Chrome export contains both process rows. *)
      let chrome = Span.to_chrome ~extra:[ server_buf ] client_buf in
      let contains needle =
        let nl = String.length needle and hl = String.length chrome in
        let rec scan i =
          i + nl <= hl && (String.sub chrome i nl = needle || scan (i + 1))
        in
        scan 0
      in
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "chrome export mentions %s" needle)
            true (contains needle))
        [ "client.dispatch"; "server.recv"; "server.respond" ])

(* ---------------- metric migration on recovery ---------------- *)

let counter_value reg name =
  match List.assoc_opt name (C4_obs.Registry.snapshot reg) with
  | Some (C4_obs.Registry.Counter_reading n) -> n
  | Some _ -> Alcotest.failf "%s is not a counter" name
  | None -> Alcotest.failf "counter %s not registered" name

(* Routed-write counts say where writes ran. A write to an unpinned
   partition pins it at the decoding loop's worker and runs there, so a
   client's sequential writes (each released before its ack) all count
   on its connection's loop, whatever the partition's fixed owner. A
   crash still remaps the durable ownership, and the census shows it. *)
let test_routed_counter_migration () =
  let runtime_cfg =
    { Runtime.default_config with Runtime.n_workers = 4; monitor_interval = 0.001 }
  in
  with_net ~runtime_cfg (fun runtime srv client ->
      let reg = NetServer.registry srv in
      let routed w = counter_value reg (Printf.sprintf "net.routed_w%d" w) in
      let total () = List.fold_left (fun acc w -> acc + routed w) 0 [ 0; 1; 2; 3 ] in
      (* Eager registration: every worker's counter is scrapable before
         any traffic reaches it. *)
      for w = 0 to 3 do
        Alcotest.(check int) (Printf.sprintf "routed_w%d starts at 0" w) 0 (routed w)
      done;
      (* The client's one connection is the first accepted: loop 0. The
         key's fixed owner is another worker. *)
      let key = List.find (fun k -> Runtime.owner_of_key runtime k <> 0) (List.init 64 Fun.id) in
      let owner = Runtime.owner_of_key runtime key in
      let set () =
        match NetClient.set client ~key ~value:(Bytes.of_string "m") with
        | Ok () -> ()
        | Error e -> Alcotest.failf "set failed: %s" e
      in
      for _ = 1 to 25 do set () done;
      Alcotest.(check int) "the counts sum to the writes sent" 25 (total ());
      Alcotest.(check int) "unpinned writes count on the connection's loop" 25 (routed 0);
      Alcotest.(check int) "nothing counts on the fixed owner" 0 (routed owner);
      Runtime.inject_crash runtime ~worker:owner;
      let rec await tries =
        if tries = 0 then Alcotest.fail "recovery did not complete"
        else if (Runtime.stats runtime).Runtime.recoveries > 0 then ()
        else begin
          Unix.sleepf 0.001;
          await (tries - 1)
        end
      in
      await 5_000;
      for _ = 1 to 25 do set () done;
      Alcotest.(check int) "post-recovery counts still sum to the writes sent" 50 (total ());
      Alcotest.(check int) "post-recovery writes still run on the connection's loop" 50
        (routed 0);
      (* The ownership census shows the remap: the crashed worker holds
         no partition, the survivors hold them all. *)
      let counts = Runtime.ownership_counts runtime in
      Alcotest.(check int) "crashed worker owns nothing" 0 counts.(owner);
      Alcotest.(check int) "census sums to the partition count"
        (Runtime.n_partitions runtime)
        (Array.fold_left ( + ) 0 counts);
      Alcotest.(check bool) "the key's partition moved" true
        (Runtime.owner_of_key runtime key <> owner))

let test_client_routing_matches_cluster () =
  for key = 0 to 999 do
    Alcotest.(check int)
      (Printf.sprintf "key %d routes identically" key)
      (C4_cluster.Cluster.node_of_key ~n_nodes:5 key)
      (C4_kvs.Hash.node_of_key ~n_nodes:5 key)
  done

(* ---------------- event-engine edge cases ---------------- *)

(* Raw blocking socket straight at the server, no NetClient. *)
let raw_connect srv =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_loopback, NetServer.port srv));
  fd

let write_all fd b =
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

(* The wire decoder promises byte-at-a-time reassembly; this drives the
   same promise through the real serving stack: a client that dribbles
   one byte per write(2) — every frame torn across hundreds of loop
   wakeups — and then reads one byte per read(2) must still get every
   pipelined GET/SET/DELETE response, in order. *)
let test_one_byte_dribble () =
  with_net (fun _ srv _ ->
      let fd = raw_connect srv in
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let key = 77 in
          let req i op value =
            { Wire.id = i; op; key; token = None; trace = None; value }
          in
          let reqs =
            [
              req 0 Wire.Set (Bytes.of_string "dribble");
              req 1 Wire.Get Bytes.empty;
              req 2 Wire.Delete Bytes.empty;
              req 3 Wire.Set (Bytes.of_string "again");
              req 4 Wire.Get Bytes.empty;
              req 5 Wire.Delete Bytes.empty;
            ]
          in
          let out = Buffer.create 256 in
          List.iter
            (fun r -> Buffer.add_bytes out (Wire.encode_request wire r))
            reqs;
          let out = Buffer.to_bytes out in
          let one = Bytes.create 1 in
          Bytes.iter
            (fun ch ->
              Bytes.set one 0 ch;
              let n = Unix.write fd one 0 1 in
              Alcotest.(check int) "wrote the byte" 1 n)
            out;
          let dec = Wire.Decoder.create wire in
          let got = ref [] in
          let deadline = Unix.gettimeofday () +. 10.0 in
          while List.length !got < List.length reqs do
            if Unix.gettimeofday () > deadline then
              Alcotest.fail "timed out awaiting dribbled responses";
            (match Unix.read fd one 0 1 with
            | 0 -> Alcotest.fail "server closed mid-dribble"
            | _ -> Wire.Decoder.feed dec one ~off:0 ~len:1);
            let rec drain () =
              match Wire.Decoder.next_frame dec with
              | `Frame body -> (
                match Wire.decode_response wire body with
                | Ok r -> got := r :: !got; drain ()
                | Error e -> Alcotest.failf "bad response: %s" e)
              | `Awaiting -> ()
              | `Corrupt e -> Alcotest.failf "corrupt response stream: %s" e
            in
            drain ()
          done;
          let got = List.rev !got in
          Alcotest.(check (list int)) "responses in pipeline order"
            [ 0; 1; 2; 3; 4; 5 ]
            (List.map (fun r -> r.Wire.resp_id) got);
          List.iter
            (fun r ->
              match (r.Wire.resp_id, r.Wire.status) with
              | (0 | 3), Wire.Ok -> ()
              | (0 | 3), _ -> Alcotest.failf "SET %d not Ok" r.Wire.resp_id
              | _, (Wire.Ok | Wire.Not_found) -> ()
              | _, _ -> Alcotest.failf "response %d errored" r.Wire.resp_id)
            got))

(* A client that pipelines requests with large responses and never reads
   must be dropped once its unflushed output passes the byte bound
   (counted in net.slow_client_drops), with the server still serving
   everyone else — not buffer the abandoned output without bound. The
   pending bound only throttles how far ahead of its output the
   connection is decoded. *)
let test_slow_client_dropped () =
  with_net (fun _ srv client ->
      let key = 9 in
      let big = Bytes.make (512 * 1024) 'x' in
      (match NetClient.set client ~key ~value:big with
      | Ok () -> ()
      | Error e -> Alcotest.failf "priming set failed: %s" e);
      let fd = raw_connect srv in
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* Pipelined GETs of a 512 KiB value worth twice the bound,
             never reading: no socket buffer holds the excess, so the
             unflushed output must pass the bound. The server may drop
             us while we are still writing: a reset of our own write is
             fine. *)
          let n_gets = 2 * C4_net.Evloop.max_unflushed / Bytes.length big in
          (try
             for i = 0 to n_gets - 1 do
               write_all fd
                 (Wire.encode_request wire
                    { Wire.id = i; op = Wire.Get; key; token = None;
                      trace = None; value = Bytes.empty })
             done
           with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
      let reg = NetServer.registry srv in
          let drops () = counter_value reg "net.slow_client_drops" in
          let deadline = Unix.gettimeofday () +. 10.0 in
          while drops () = 0 && Unix.gettimeofday () < deadline do
            Unix.sleepf 0.005
          done;
          Alcotest.(check bool) "slow client dropped" true (drops () >= 1);
          (* The drop closes the connection: reading drains whatever was
             already in flight, then hits EOF or a reset. *)
          let buf = Bytes.create 65536 in
          let closed = ref false in
          let deadline = Unix.gettimeofday () +. 10.0 in
          while (not !closed) && Unix.gettimeofday () < deadline do
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 -> closed := true
            | _ -> ()
            | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _)
              -> closed := true
          done;
          Alcotest.(check bool) "connection closed after drop" true !closed);
      (* The server survives its slow client: a well-behaved client
         still gets answers. *)
      Alcotest.(check bool) "server still serves" true
        (NetClient.get client ~key = Ok (Some big)))

(* Run-to-completion hand-offs. On one connection, pipeline a SET whose
   partition the other loop's worker owns — held back by parking that
   worker — then a GET and a SET that run inline on this connection's
   own loop. The inline answers must wait behind the forwarded one:
   responses leave in request order. *)
(* Read [n] responses off a raw connection, in arrival order. *)
let read_responses fd n =
  let buf = Bytes.create 4096 in
  let dec = Wire.Decoder.create wire in
  let got = ref [] in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while List.length !got < n do
    if Unix.gettimeofday () > deadline then Alcotest.fail "timed out";
    let k = Unix.read fd buf 0 (Bytes.length buf) in
    if k = 0 then Alcotest.fail "server closed";
    Wire.Decoder.feed dec buf ~off:0 ~len:k;
    let rec drain () =
      match Wire.Decoder.next_frame dec with
      | `Frame body -> (
        match Wire.decode_response wire body with
        | Ok r ->
          got := r :: !got;
          drain ()
        | Error e -> Alcotest.failf "bad response: %s" e)
      | `Awaiting -> ()
      | `Corrupt e -> Alcotest.failf "corrupt: %s" e
    in
    drain ()
  done;
  List.rev !got

(* Park worker 1, and pin [key] (fixed owner: worker 1) there with a
   non-loop write ([set_async] pins at the durable assignment) that
   waits on the parked worker. Writes to [key] from a loop-0
   connection then depend on that one: admission forwards them to
   worker 1. [f] gets the raw connection (the first accepted, so on
   loop 0), the key and the release; the parked worker is released
   and the pinning write awaited on the way out. *)
let with_pinned_on_parked_worker f =
  with_net (fun runtime srv client ->
      let fd = raw_connect srv in
      let key =
        List.find (fun k -> Runtime.owner_of_key runtime k = 1) (List.init 64 Fun.id)
      in
      let release = Runtime.pause_worker runtime ~worker:1 in
      let released = ref false in
      let release () = if not !released then (released := true; release ()) in
      let pin = Runtime.set_async runtime ~key ~value:(Bytes.of_string "pin") in
      Fun.protect
        ~finally:(fun () ->
          (* A parked loop would hang the server's drain. *)
          release ();
          C4_runtime.Promise.await pin;
          try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> f runtime srv client fd key release))

let request i op key value = { Wire.id = i; op; key; token = None; trace = None; value }

let test_forwarded_write_keeps_order () =
  with_pinned_on_parked_worker (fun _ srv client fd key release ->
      List.iter
        (fun r -> write_all fd (Wire.encode_request wire r))
        [
          request 0 Wire.Set key (Bytes.of_string "fwd");
          request 1 Wire.Get key Bytes.empty;
          request 2 Wire.Set key (Bytes.of_string "last");
        ];
      (* The GET ran inline on loop 0 long ago, but nothing may leave
         before the forwarded SET's answer. *)
      (match Unix.select [ fd ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ -> Alcotest.fail "a response overtook the forwarded SET");
      Alcotest.(check int) "both SETs forwarded to the pinned worker" 2
        (counter_value (NetServer.registry srv) "net.routed_w1");
      release ();
      let got = read_responses fd 3 in
      Alcotest.(check (list int)) "responses in request order" [ 0; 1; 2 ]
        (List.map (fun r -> r.Wire.resp_id) got);
      Alcotest.(check bool) "both SETs acked" true
        (List.for_all
           (fun r -> r.Wire.resp_id = 1 || r.Wire.status = Wire.Ok)
           got);
      Alcotest.(check (option string)) "the last write wins" (Some "last")
        (match NetClient.get client ~key with
        | Ok v -> Option.map Bytes.to_string v
        | Error e -> Alcotest.failf "get failed: %s" e))

(* Dependent writes that queue behind a pinned partition are the
   compaction harvest's input: a backlog of SETs to one key, forwarded
   while the pinned worker is parked, closes as ONE window when the
   worker resumes (the pinning write opens it and harvests the rest). *)
let test_dependent_backlog_one_window () =
  with_pinned_on_parked_worker (fun runtime srv client fd key release ->
      let n = 20 in
      let batches0 = (Runtime.stats runtime).Runtime.batches in
      List.iter
        (fun i ->
          write_all fd
            (Wire.encode_request wire
               (request i Wire.Set key (Bytes.of_string (Printf.sprintf "v%d" i)))))
        (List.init n Fun.id);
      (* Every SET must sit in the parked worker's inbox before it
         resumes: admission counts it as it forwards it. *)
      let deadline = Unix.gettimeofday () +. 10.0 in
      while counter_value (NetServer.registry srv) "net.routed_w1" < n do
        if Unix.gettimeofday () > deadline then Alcotest.fail "SETs not forwarded";
        Unix.sleepf 0.001
      done;
      release ();
      let got = read_responses fd n in
      Alcotest.(check (list int)) "every SET answered, in order" (List.init n Fun.id)
        (List.map (fun r -> r.Wire.resp_id) got);
      Alcotest.(check bool) "every SET acked" true
        (List.for_all (fun r -> r.Wire.status = Wire.Ok) got);
      let stats = Runtime.stats runtime in
      Alcotest.(check int) "one compaction window" 1 (stats.Runtime.batches - batches0);
      Alcotest.(check int) "the window absorbed the pin and the backlog" (n + 1)
        stats.Runtime.batched_writes;
      Alcotest.(check (option string)) "a read returns the last value"
        (Some (Printf.sprintf "v%d" (n - 1)))
        (match NetClient.get client ~key with
        | Ok v -> Option.map Bytes.to_string v
        | Error e -> Alcotest.failf "get failed: %s" e))

(* A caller that is not a loop (replica apply, tests) queues for the
   owner's loop and wakes it: 200 sequential round trips finish at wake
   latency, where waiting on the 250 ms poll timeout would take 50 s. *)
let test_non_loop_submit_wakes_owner () =
  with_net (fun runtime _ _ ->
      let t0 = Unix.gettimeofday () in
      for key = 0 to 199 do
        C4_runtime.Promise.await
          (Runtime.set_async runtime ~key ~value:(Bytes.of_string "x"))
      done;
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) (Printf.sprintf "200 sets in %.3f s < 1 s" dt) true (dt < 1.0);
      Alcotest.(check (option string)) "applied" (Some "x")
        (Option.map Bytes.to_string (Runtime.get runtime ~key:199)))

(* Threads created on a loop's domain share its domain-local state, but
   are not the loop: a completion from one of them must wake the loop
   (blocked in poll). 10 sequential round trips answered by such a
   thread finish at wake latency, where waiting on the 250 ms poll
   timeout would take 2.5 s. *)
let test_loop_domain_thread_wakes_loop () =
  let handle ~loop:_ (req : Wire.request) reply =
    (* Runs on the loop's domain, so the thread is created there too. *)
    ignore
      (Thread.create
         (fun () ->
           Unix.sleepf 0.005;
           reply
             { Wire.resp_id = req.Wire.id; status = Wire.Ok; timing_ns = 0;
               resp_value = Bytes.empty }
             ~written:ignore)
         ())
  in
  let cb =
    { C4_net.Evloop.handle; on_bytes_in = ignore; on_bytes_out = ignore;
      on_protocol_error = ignore; on_closed = ignore }
  in
  let ev =
    C4_net.Evloop.create ~wire ~loops:1 ~max_pending:16 ~on_slow_drop:ignore
      ~drive:ignore ()
  in
  let mine, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  C4_net.Evloop.add ev ~fd:theirs cb;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close mine with Unix.Unix_error _ -> ());
      C4_net.Evloop.stop ev)
    (fun () ->
      let dec = Wire.Decoder.create wire in
      let buf = Bytes.create 4096 in
      let t0 = Unix.gettimeofday () in
      for i = 0 to 9 do
        write_all mine
          (Wire.encode_request wire
             { Wire.id = i; op = Wire.Get; key = i; token = None; trace = None;
               value = Bytes.empty });
        let rec await () =
          match Wire.Decoder.next_frame dec with
          | `Frame body -> (
            match Wire.decode_response wire body with
            | Ok r -> Alcotest.(check int) "response id" i r.Wire.resp_id
            | Error e -> Alcotest.failf "bad response: %s" e)
          | `Corrupt e -> Alcotest.failf "corrupt: %s" e
          | `Awaiting ->
            (match Unix.select [ mine ] [] [] 5.0 with
            | [], _, _ -> Alcotest.fail "timed out"
            | _ -> ());
            let n = Unix.read mine buf 0 (Bytes.length buf) in
            if n = 0 then Alcotest.fail "loop closed the connection";
            Wire.Decoder.feed dec buf ~off:0 ~len:n;
            await ()
        in
        await ()
      done;
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) (Printf.sprintf "10 round trips in %.3f s < 1 s" dt) true
        (dt < 1.0))

(* Past the pending bound a connection is throttled, not dropped: a
   client pipelining far more than [max_pending] requests, and reading
   its answers, gets every one of them in order. *)
let test_pending_bound_backpressures () =
  let server_cfg = { NetServer.default_config with NetServer.max_pending = 4 } in
  with_net ~server_cfg (fun _ srv client ->
      let n = 300 in
      let order = ref [] and lock = Mutex.create () and remaining = Atomic.make n in
      let dispatched =
        List.init n (fun i ->
            let op = if i mod 2 = 0 then Wire.Set else Wire.Get in
            let value = if op = Wire.Set then Bytes.of_string "v" else Bytes.empty in
            NetClient.dispatch client ~op ~key:(i mod 17) ~value
              ~on_response:(fun r ->
                C4_runtime.Sync.with_lock lock (fun () -> order := r.Wire.resp_id :: !order);
                Atomic.decr remaining)
              ())
      in
      let deadline = Unix.gettimeofday () +. 10.0 in
      while Atomic.get remaining > 0 && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.001
      done;
      Alcotest.(check int) "all answered" 0 (Atomic.get remaining);
      Alcotest.(check (list int)) "in dispatch order" dispatched (List.rev !order);
      let st = NetServer.stats srv in
      Alcotest.(check int) "no drops" 0 st.NetServer.slow_client_drops;
      Alcotest.(check int) "no protocol errors" 0 st.NetServer.protocol_errors)

let tests =
  [
    QCheck_alcotest.to_alcotest prop_request_roundtrip;
    QCheck_alcotest.to_alcotest prop_traced_request_roundtrip;
    QCheck_alcotest.to_alcotest prop_response_roundtrip;
    Alcotest.test_case "torn frames reassemble byte-by-byte" `Quick test_torn_frames;
    Alcotest.test_case "oversized frame is sticky-fatal" `Quick
      test_oversized_frame_rejected;
    Alcotest.test_case "unknown version rejected" `Quick test_bad_version_rejected;
    Alcotest.test_case "strict request decoding" `Quick test_strict_request_decode;
    Alcotest.test_case "NIC parses wire request bodies" `Quick test_nic_header_interop;
    Alcotest.test_case "loopback set/get/delete" `Quick test_loopback_ops;
    Alcotest.test_case "per-connection pipelining order" `Quick test_pipelining_order;
    Alcotest.test_case "concurrent clients linearizable" `Quick
      test_concurrent_clients_linearizable;
    Alcotest.test_case "crash recovery over the network" `Quick
      test_crash_recovery_over_network;
    Alcotest.test_case "graceful drain answers everything" `Quick test_graceful_drain;
    Alcotest.test_case "loadgen loopback smoke" `Quick test_loadgen_smoke;
    Alcotest.test_case "SET idempotency token from first attempt" `Quick
      test_set_token_from_first_attempt;
    Alcotest.test_case "client sharding matches cluster routing" `Quick
      test_client_routing_matches_cluster;
    Alcotest.test_case "ctx-free frames stay version 1" `Quick
      test_ctx_free_frames_stay_v1;
    Alcotest.test_case "one request, one stitched span chain" `Quick
      test_stitched_span_chain;
    Alcotest.test_case "routed counters migrate on recovery" `Quick
      test_routed_counter_migration;
    Alcotest.test_case "one-byte dribble completes in order" `Quick
      test_one_byte_dribble;
    Alcotest.test_case "slow client dropped at the pending bound" `Quick
      test_slow_client_dropped;
    Alcotest.test_case "forwarded write keeps response order" `Quick
      test_forwarded_write_keeps_order;
    Alcotest.test_case "dependent backlog closes as one window" `Quick
      test_dependent_backlog_one_window;
    Alcotest.test_case "non-loop submit wakes the owner loop" `Quick
      test_non_loop_submit_wakes_owner;
    Alcotest.test_case "pending bound backpressures, never drops" `Quick
      test_pending_bound_backpressures;
    Alcotest.test_case "loop-domain thread completion wakes the loop" `Quick
      test_loop_domain_thread_wakes_loop;
  ]
