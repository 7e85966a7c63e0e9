(* Durability tier tests: the CRC32C codec (round-trips plus
   adversarial torn/corrupt vectors), the segmented per-partition WAL
   (append, rotate, group commit, recovery truncation), the runtime
   integration (crash-restart replay, token dedup across restarts,
   clean shutdown leaving no torn tail), and the real kill -9 chaos
   harness driven through the built binary. *)

module Crc32c = C4_wal.Crc32c
module Record = C4_wal.Record
module Wal = C4_wal.Wal
module Registry = C4_obs.Registry
module Server = C4_runtime.Server
module Promise = C4_runtime.Promise

(* ---------------- scratch directories ---------------- *)

let dir_counter = ref 0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Tests run in the build sandbox, so a relative scratch dir is private
   to the run. *)
let fresh_dir () =
  incr dir_counter;
  let d = Printf.sprintf "wal_scratch_%d_%d" (Unix.getpid ()) !dir_counter in
  rm_rf d;
  d

(* ---------------- codec helpers ---------------- *)

let encode_bytes r =
  let buf = Buffer.create 64 in
  Record.encode buf r;
  Buffer.to_bytes buf

let set_rec ?token ~seqno ~key value =
  { Record.seqno; op = Record.Set { key; value = Bytes.of_string value; token } }

let del_rec ~seqno ~key = { Record.seqno; op = Record.Delete { key } }

let check_roundtrip r =
  let b = encode_bytes r in
  match Record.decode b ~pos:0 with
  | Record.Ok (r', next) ->
    Alcotest.(check bool) "roundtrip equal" true (Record.equal r r');
    Alcotest.(check int) "next is frame end" (Bytes.length b) next;
    Alcotest.(check int) "encoded_size agrees" (Bytes.length b)
      (Record.encoded_size r)
  | Record.Torn -> Alcotest.fail "roundtrip decoded Torn"
  | Record.Corrupt m -> Alcotest.fail ("roundtrip decoded Corrupt: " ^ m)

(* ---------------- codec tests ---------------- *)

let test_crc32c_check_value () =
  (* The CRC-32C (Castagnoli) reference check value. *)
  Alcotest.(check int) "digest(123456789)" 0xE3069283
    (Crc32c.digest_string "123456789");
  Alcotest.(check int) "digest_string = digest"
    (Crc32c.digest_string "hello")
    (Crc32c.digest (Bytes.of_string "xhellox") ~pos:1 ~len:5)

let test_codec_roundtrip () =
  check_roundtrip (set_rec ~seqno:0 ~key:0 "");
  check_roundtrip (set_rec ~seqno:1 ~key:42 "value");
  check_roundtrip (set_rec ~token:7 ~seqno:2 ~key:max_int "v");
  check_roundtrip (set_rec ~token:min_int ~seqno:max_int ~key:1 (String.make 4096 'x'));
  check_roundtrip (del_rec ~seqno:3 ~key:0);
  check_roundtrip (del_rec ~seqno:4 ~key:max_int)

let test_codec_oversize_refused () =
  let v = Bytes.create (Record.max_value_len + 1) in
  Alcotest.check_raises "oversized value refused"
    (Invalid_argument "Record.encode: value too large") (fun () ->
      ignore (encode_bytes { Record.seqno = 0; op = Record.Set { key = 1; value = v; token = None } }))

let test_all_prefixes_torn () =
  let b = encode_bytes (set_rec ~token:9 ~seqno:5 ~key:17 "payload") in
  for len = 0 to Bytes.length b - 1 do
    match Record.decode (Bytes.sub b 0 len) ~pos:0 with
    | Record.Torn -> ()
    | Record.Ok _ -> Alcotest.failf "prefix %d decoded Ok" len
    | Record.Corrupt m -> Alcotest.failf "prefix %d decoded Corrupt (%s)" len m
  done

let test_garbage_suffix_detected () =
  (* A valid frame followed by garbage: the first decode succeeds, the
     decode at [next] must NOT succeed (it sees torn or corrupt data). *)
  let b = encode_bytes (set_rec ~seqno:0 ~key:1 "v") in
  let garbage = Bytes.of_string "\xde\xad\xbe\xef\x00\x01\x02\x03\x04\x05\x06\x07" in
  let all = Bytes.cat b garbage in
  match Record.decode all ~pos:0 with
  | Record.Ok (_, next) -> (
    Alcotest.(check int) "first frame intact" (Bytes.length b) next;
    match Record.decode all ~pos:next with
    | Record.Ok _ -> Alcotest.fail "garbage suffix decoded Ok"
    | Record.Torn | Record.Corrupt _ -> ())
  | _ -> Alcotest.fail "valid frame failed to decode"

let prop_codec_roundtrip =
  let gen =
    QCheck.Gen.(
      let* key = int_range 0 1_000_000 in
      let* seqno = int_range 0 1_000_000 in
      let* tok = opt (int_range 0 1_000_000) in
      let* del = bool in
      let* v = string_size (int_range 0 200) in
      return
        (if del then del_rec ~seqno ~key
         else { Record.seqno; op = Record.Set { key; value = Bytes.of_string v; token = tok } }))
  in
  QCheck.Test.make ~name:"codec roundtrips arbitrary records" ~count:300
    (QCheck.make gen) (fun r ->
      let b = encode_bytes r in
      match Record.decode b ~pos:0 with
      | Record.Ok (r', next) -> Record.equal r r' && next = Bytes.length b
      | _ -> false)

let prop_bitflip_never_ok =
  let gen =
    QCheck.Gen.(
      let* v = string_size (int_range 0 64) in
      let* tok = opt (int_range 0 1000) in
      let* bit = int_range 0 10_000 in
      return (v, tok, bit))
  in
  QCheck.Test.make ~name:"any single bit flip is detected" ~count:300
    (QCheck.make gen) (fun (v, token, bit) ->
      let r = { Record.seqno = 3; op = Record.Set { key = 12; value = Bytes.of_string v; token } } in
      let b = encode_bytes r in
      let i = bit mod (Bytes.length b * 8) in
      Bytes.set b (i / 8)
        (Char.chr (Char.code (Bytes.get b (i / 8)) lxor (1 lsl (i mod 8))));
      match Record.decode b ~pos:0 with
      | Record.Ok _ -> false (* a flipped frame must never decode *)
      | Record.Torn | Record.Corrupt _ -> true)

(* ---------------- WAL manager tests ---------------- *)

let wal_config ?(fsync = Wal.Never) ?(segment_bytes = 8 * 1024 * 1024) ~dir
    ~n_partitions () =
  { (Wal.default_config ~dir ~n_partitions) with Wal.fsync; segment_bytes }

let replay_collect acc ~partition r = acc := (partition, r) :: !acc

let test_wal_append_replay () =
  let dir = fresh_dir () in
  let cfg = wal_config ~dir ~n_partitions:4 () in
  let w, st = Wal.open_ ~replay:(fun ~partition:_ _ -> ()) cfg in
  Alcotest.(check int) "fresh log replays nothing" 0 st.Wal.replayed;
  let s0 = Wal.append w ~partition:0 ~op:(Record.Set { key = 1; value = Bytes.of_string "a"; token = None }) in
  let s1 = Wal.append w ~partition:0 ~op:(Record.Set { key = 1; value = Bytes.of_string "b"; token = Some 99 }) in
  let s2 = Wal.append w ~partition:3 ~op:(Record.Delete { key = 7 }) in
  Alcotest.(check (list int)) "seqnos per partition" [ 1; 2; 1 ] [ s0; s1; s2 ];
  Wal.close w;
  let acc = ref [] in
  let w2, st2 = Wal.open_ ~replay:(replay_collect acc) cfg in
  Wal.close w2;
  Alcotest.(check int) "replayed all" 3 st2.Wal.replayed;
  Alcotest.(check int) "no truncations" 0 st2.Wal.truncations;
  Alcotest.(check int) "two partitions touched" 2 st2.Wal.recovered_partitions;
  let p0 = List.rev (List.filter (fun (p, _) -> p = 0) !acc) in
  (match p0 with
  | [ (_, a); (_, b) ] ->
    Alcotest.(check bool) "p0 order" true
      (Record.equal a (set_rec ~seqno:1 ~key:1 "a")
      && Record.equal b (set_rec ~token:99 ~seqno:2 ~key:1 "b"))
  | _ -> Alcotest.fail "partition 0 replay shape");
  rm_rf dir

(* Segment numbering starts at 1 (seqno 0 is "nothing recovered"). *)
let seg_path dir ~partition ~seg =
  Filename.concat dir (Filename.concat (Printf.sprintf "p%04d" partition) (Printf.sprintf "%06d.seg" seg))

let append_n w ~partition n =
  for i = 0 to n - 1 do
    ignore
      (Wal.append w ~partition
         ~op:(Record.Set { key = partition; value = Bytes.of_string (string_of_int i); token = None }))
  done

let test_wal_torn_tail_truncated () =
  let dir = fresh_dir () in
  let cfg = wal_config ~dir ~n_partitions:2 () in
  let w, _ = Wal.open_ ~replay:(fun ~partition:_ _ -> ()) cfg in
  append_n w ~partition:0 5;
  Wal.close w;
  (* Tear the tail: chop the last 3 bytes of the segment, as a crash
     mid-append would. *)
  let path = seg_path dir ~partition:0 ~seg:1 in
  let size = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd (size - 3);
  Unix.close fd;
  let acc = ref [] in
  let w2, st = Wal.open_ ~replay:(replay_collect acc) cfg in
  Wal.close w2;
  Alcotest.(check int) "last record dropped" 4 st.Wal.replayed;
  Alcotest.(check int) "one truncation" 1 st.Wal.truncations;
  Alcotest.(check bool) "file cut back to the valid prefix" true
    ((Unix.stat path).Unix.st_size < size - 3);
  (* Recovery is idempotent: the truncated log now ends cleanly. *)
  let w3, st3 = Wal.open_ ~replay:(fun ~partition:_ _ -> ()) cfg in
  Wal.close w3;
  Alcotest.(check int) "second recovery clean" 0 st3.Wal.truncations;
  Alcotest.(check int) "second recovery same prefix" 4 st3.Wal.replayed;
  rm_rf dir

let test_wal_corrupt_middle_stops_replay () =
  let dir = fresh_dir () in
  let cfg = wal_config ~dir ~n_partitions:1 () in
  let w, _ = Wal.open_ ~replay:(fun ~partition:_ _ -> ()) cfg in
  append_n w ~partition:0 6;
  Wal.close w;
  (* Flip one byte in the middle of the segment: everything from the
     damaged record on must be discarded, even the valid tail after it. *)
  let path = seg_path dir ~partition:0 ~seg:1 in
  let size = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd (size / 2) Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  ignore (Unix.lseek fd (size / 2) Unix.SEEK_SET);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
  ignore (Unix.write fd b 0 1);
  Unix.close fd;
  let acc = ref [] in
  let w2, st = Wal.open_ ~replay:(replay_collect acc) cfg in
  Wal.close w2;
  Alcotest.(check bool) "stops at the damaged record" true (st.Wal.replayed < 6);
  Alcotest.(check int) "one truncation" 1 st.Wal.truncations;
  (* The replayed prefix is exactly records 0..replayed-1, in order. *)
  List.iteri
    (fun i (_, r) -> Alcotest.(check int) "prefix in order" (i + 1) r.Record.seqno)
    (List.rev !acc);
  (* And the truncated file re-recovers cleanly to the same prefix. *)
  let w3, st3 = Wal.open_ ~replay:(fun ~partition:_ _ -> ()) cfg in
  Wal.close w3;
  Alcotest.(check int) "re-recovery clean" 0 st3.Wal.truncations;
  Alcotest.(check int) "same prefix" st.Wal.replayed st3.Wal.replayed;
  rm_rf dir

let test_wal_garbage_and_empty_segments () =
  let dir = fresh_dir () in
  let cfg = wal_config ~dir ~n_partitions:2 () in
  let w, _ = Wal.open_ ~replay:(fun ~partition:_ _ -> ()) cfg in
  append_n w ~partition:1 2;
  Wal.close w;
  (* Partition 0's segment: pure garbage. Partition 1: valid, then an
     empty later segment (rotation that never received a record). *)
  let g = open_out_bin (seg_path dir ~partition:0 ~seg:1) in
  output_string g "this is not a wal segment at all";
  close_out g;
  let e = open_out_bin (seg_path dir ~partition:1 ~seg:2) in
  close_out e;
  let w2, st = Wal.open_ ~replay:(fun ~partition:_ _ -> ()) cfg in
  Wal.close w2;
  Alcotest.(check int) "only the valid records replay" 2 st.Wal.replayed;
  Alcotest.(check bool) "garbage counted as truncation" true (st.Wal.truncations >= 1);
  rm_rf dir

let test_wal_rotation () =
  let dir = fresh_dir () in
  (* Tiny segments force rotation every couple of records. *)
  let cfg = wal_config ~segment_bytes:64 ~dir ~n_partitions:1 () in
  let w, _ = Wal.open_ ~replay:(fun ~partition:_ _ -> ()) cfg in
  append_n w ~partition:0 20;
  Wal.close w;
  let segs = Sys.readdir (Filename.concat dir "p0000") in
  Alcotest.(check bool) "rotated into several segments" true (Array.length segs > 1);
  let acc = ref [] in
  let w2, st = Wal.open_ ~replay:(replay_collect acc) cfg in
  Wal.close w2;
  Alcotest.(check int) "all records replay across segments" 20 st.Wal.replayed;
  List.iteri
    (fun i (_, r) -> Alcotest.(check int) "seqno order across segments" (i + 1) r.Record.seqno)
    (List.rev !acc);
  rm_rf dir

let test_wal_group_commit () =
  let dir = fresh_dir () in
  let registry = Registry.create ~thread_safe:true () in
  let cfg = wal_config ~fsync:Wal.Always ~dir ~n_partitions:2 () in
  let w, _ = Wal.open_ ~registry ~replay:(fun ~partition:_ _ -> ()) cfg in
  let acked = Atomic.make 0 in
  let order = ref [] and order_lock = Mutex.create () in
  for i = 0 to 9 do
    let partition = i mod 2 in
    ignore
      (Wal.append w ~partition
         ~op:(Record.Set { key = i; value = Bytes.of_string "v"; token = None }));
    Wal.commit w ~partition ~group:(i >= 5) (fun () ->
        Mutex.lock order_lock;
        order := i :: !order;
        Mutex.unlock order_lock;
        Atomic.incr acked)
  done;
  (* Acks land on the sync domain; wait for all of them. *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Atomic.get acked < 10 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.002
  done;
  Alcotest.(check int) "every commit acknowledged" 10 (Atomic.get acked);
  (* Per-partition callback order is submission order. *)
  let per p = List.filter (fun i -> i mod 2 = p) (List.rev !order) in
  Alcotest.(check (list int)) "p0 order" [ 0; 2; 4; 6; 8 ] (per 0);
  Alcotest.(check (list int)) "p1 order" [ 1; 3; 5; 7; 9 ] (per 1);
  Wal.close w;
  let fsyncs = match Registry.read registry "wal.fsyncs" with Some f -> int_of_float f | None -> 0 in
  Alcotest.(check bool) "fsyncs happened" true (fsyncs > 0);
  Alcotest.(check bool) "group commit coalesced (fewer fsyncs than acks)" true
    (fsyncs <= 10 + 2 (* + per-partition close fsyncs *));
  rm_rf dir

let test_wal_interval_policy_fsyncs () =
  let dir = fresh_dir () in
  let registry = Registry.create ~thread_safe:true () in
  let cfg = wal_config ~fsync:(Wal.Interval 0.005) ~dir ~n_partitions:1 () in
  let w, _ = Wal.open_ ~registry ~replay:(fun ~partition:_ _ -> ()) cfg in
  let acked = ref false in
  append_n w ~partition:0 3;
  (* Interval policy never defers acks. *)
  Wal.commit w ~partition:0 ~group:true (fun () -> acked := true);
  Alcotest.(check bool) "ack immediate under interval policy" true !acked;
  let deadline = Unix.gettimeofday () +. 5.0 in
  let fsyncs () =
    match Registry.read registry "wal.fsyncs" with Some f -> int_of_float f | None -> 0
  in
  while fsyncs () = 0 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  Alcotest.(check bool) "background sweep fsynced" true (fsyncs () > 0);
  Wal.close w;
  rm_rf dir

let test_wal_partition_count_guard () =
  let dir = fresh_dir () in
  let cfg = wal_config ~dir ~n_partitions:4 () in
  let w, _ = Wal.open_ ~replay:(fun ~partition:_ _ -> ()) cfg in
  Wal.close w;
  Alcotest.(check bool) "mismatched partition count refused" true
    (match Wal.open_ ~replay:(fun ~partition:_ _ -> ()) { cfg with Wal.n_partitions = 8 } with
    | exception Invalid_argument _ -> true
    | w2, _ ->
      Wal.close w2;
      false);
  rm_rf dir

(* ---------------- runtime integration ---------------- *)

let server_config ~dir ~fsync =
  let n_partitions = Server.default_config.Server.n_partitions in
  {
    Server.default_config with
    Server.n_workers = 2;
    wal = Some { (Wal.default_config ~dir ~n_partitions) with Wal.fsync };
  }

let test_runtime_restart_replays () =
  let dir = fresh_dir () in
  let cfg = server_config ~dir ~fsync:Wal.Window in
  let t = Server.start cfg in
  for k = 0 to 49 do
    Server.set t ~key:k ~value:(Bytes.of_string (Printf.sprintf "v%d" k))
  done;
  Alcotest.(check bool) "delete present" true (Server.delete t ~key:10);
  Server.stop t;
  (* Same directory, fresh server: state must come back. *)
  let t2 = Server.start cfg in
  let st = Server.stats t2 in
  Alcotest.(check bool) "records replayed" true (st.Server.wal_replayed >= 51);
  for k = 0 to 49 do
    let expect = if k = 10 then None else Some (Printf.sprintf "v%d" k) in
    Alcotest.(check (option string)) (Printf.sprintf "key %d survives" k) expect
      (Option.map Bytes.to_string (Server.get t2 ~key:k))
  done;
  Server.stop t2;
  rm_rf dir

let test_runtime_token_dedup_across_restart () =
  let dir = fresh_dir () in
  let cfg = server_config ~dir ~fsync:Wal.Window in
  let t = Server.start cfg in
  Promise.await (Server.set_async ~token:4242 t ~key:5 ~value:(Bytes.of_string "first"));
  Server.stop t;
  let t2 = Server.start cfg in
  (* The client retry of the persisted-but-unacked write arrives after
     the restart: the replayed token must still suppress it. *)
  Promise.await (Server.set_async ~token:4242 t2 ~key:5 ~value:(Bytes.of_string "retry"));
  Alcotest.(check (option string)) "duplicate suppressed across restart"
    (Some "first")
    (Option.map Bytes.to_string (Server.get t2 ~key:5));
  Alcotest.(check int) "counted as duplicate" 1 (Server.stats t2).Server.duplicate_writes;
  Server.stop t2;
  rm_rf dir

let test_runtime_compaction_batch_replay () =
  let dir = fresh_dir () in
  let cfg = server_config ~dir ~fsync:Wal.Window in
  let t = Server.start cfg in
  (* Hammer one key from several domains so compaction windows form;
     every absorbed write is logged individually. *)
  let writers =
    List.init 3 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to 99 do
              Server.set t ~key:7 ~value:(Bytes.of_string (Printf.sprintf "%d-%d" d i))
            done))
  in
  List.iter Domain.join writers;
  Server.set t ~key:7 ~value:(Bytes.of_string "final");
  Server.stop t;
  let t2 = Server.start cfg in
  Alcotest.(check (option string)) "replay converges on the last write"
    (Some "final")
    (Option.map Bytes.to_string (Server.get t2 ~key:7));
  Alcotest.(check bool) "all writes were logged" true
    ((Server.stats t2).Server.wal_replayed >= 301);
  Server.stop t2;
  rm_rf dir

(* An apply that raises must fail its caller, never strand it: with the
   runtime's WAL closed under it, the next set's append raises, and the
   set must surface that instead of hanging on a worker that died
   silently. Twice, so the worker is shown to survive the failure. *)
let test_runtime_closed_wal_fails_set () =
  let dir = fresh_dir () in
  let t = Server.start (server_config ~dir ~fsync:Wal.Window) in
  Server.set t ~key:1 ~value:(Bytes.of_string "before");
  Wal.close (Option.get (Server.wal_handle t));
  for i = 1 to 2 do
    match Server.set t ~key:1 ~value:(Bytes.of_string "after") with
    | () -> Alcotest.failf "set %d on a closed WAL succeeded" i
    | exception Invalid_argument _ -> ()
  done;
  Alcotest.(check int) "no worker died" 2 (Server.alive_workers t);
  Server.stop t;
  rm_rf dir

let test_runtime_clean_shutdown_no_torn_tail () =
  let dir = fresh_dir () in
  let cfg = server_config ~dir ~fsync:Wal.Always in
  let t = Server.start cfg in
  for k = 0 to 19 do
    Server.set t ~key:k ~value:(Bytes.of_string "x")
  done;
  Server.stop t;
  (* A clean stop flushed and closed every segment: recovery finds no
     torn tail and replays everything. *)
  let acc = ref [] in
  let wcfg = Option.get cfg.Server.wal in
  let w, st = Wal.open_ ~replay:(replay_collect acc) wcfg in
  Wal.close w;
  Alcotest.(check int) "no torn tail after clean shutdown" 0 st.Wal.truncations;
  Alcotest.(check int) "every write present" 20 st.Wal.replayed;
  rm_rf dir

(* ---------------- kill -9 chaos (the real thing) ---------------- *)

let test_kill_chaos () =
  let dir = fresh_dir () in
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "../bin/c4_sim.exe" in
  let exe = if Sys.file_exists exe then exe else "../bin/c4_sim.exe" in
  let cmd =
    Printf.sprintf "%s chaos --kill-server --wal-dir %s --fault-seed 11 --kill-after 5 > kill_chaos.log 2>&1"
      (Filename.quote exe) (Filename.quote dir)
  in
  let rc = Sys.command cmd in
  if rc <> 0 then begin
    let ic = open_in "kill_chaos.log" in
    let n = in_channel_length ic in
    let out = really_input_string ic n in
    close_in ic;
    Alcotest.failf "kill-chaos exited %d:\n%s" rc out
  end;
  rm_rf dir

let tests =
  [
    Alcotest.test_case "crc32c reference check value" `Quick test_crc32c_check_value;
    Alcotest.test_case "codec roundtrip vectors" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec refuses oversized values" `Quick test_codec_oversize_refused;
    Alcotest.test_case "every strict prefix decodes Torn" `Quick test_all_prefixes_torn;
    Alcotest.test_case "garbage suffix never decodes" `Quick test_garbage_suffix_detected;
    QCheck_alcotest.to_alcotest prop_codec_roundtrip;
    QCheck_alcotest.to_alcotest prop_bitflip_never_ok;
    Alcotest.test_case "append / close / replay" `Quick test_wal_append_replay;
    Alcotest.test_case "torn tail truncated, recovery idempotent" `Quick test_wal_torn_tail_truncated;
    Alcotest.test_case "corrupt middle stops replay at the prefix" `Quick test_wal_corrupt_middle_stops_replay;
    Alcotest.test_case "garbage and empty segments survived" `Quick test_wal_garbage_and_empty_segments;
    Alcotest.test_case "segment rotation replays across files" `Quick test_wal_rotation;
    Alcotest.test_case "group commit acks in order, coalesces fsyncs" `Quick test_wal_group_commit;
    Alcotest.test_case "interval policy fsyncs in background" `Quick test_wal_interval_policy_fsyncs;
    Alcotest.test_case "partition-count mismatch refused" `Quick test_wal_partition_count_guard;
    Alcotest.test_case "runtime restart replays the log" `Quick test_runtime_restart_replays;
    Alcotest.test_case "token dedup survives restart" `Quick test_runtime_token_dedup_across_restart;
    Alcotest.test_case "compaction batches replay to the final value" `Quick test_runtime_compaction_batch_replay;
    Alcotest.test_case "clean shutdown leaves no torn tail" `Quick test_runtime_clean_shutdown_no_torn_tail;
    Alcotest.test_case "closed WAL fails a set, never hangs it" `Quick
      test_runtime_closed_wal_fails_set;
    Alcotest.test_case "kill -9 chaos harness passes" `Slow test_kill_chaos;
  ]
