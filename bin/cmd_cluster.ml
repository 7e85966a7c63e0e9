(* Multi-node cluster driver: generate an epoch-1 shard map, fork one
   `c4_sim serve --cluster-map` child per node, and run the in-process
   supervisor over them.

   Three modes:
   - default: serve until --duration / SIGINT (the README quickstart —
     kill a node and watch the supervisor promote);
   - --chaos: the failover linearizability proof — judged load on one
     key while the leader of its shard is SIGKILLed mid-load, the
     supervisor promotes within one epoch bump, every acknowledged
     write must survive, and the merged multi-client history must pass
     the Wing–Gong checker. Prints CLUSTER CHAOS OK / exits 1.
   - --bench: closed-loop routed load over the cluster, optionally
     appended to the perf-trajectory log (--bench-json). *)

open Cmdliner
open Cmd_common
module Proc = C4_resilience.Proc
module Retry = C4_resilience.Retry
module Shardmap = C4_clusterd.Shardmap
module Routing = C4_clusterd.Routing
module Supervisor = C4_clusterd.Supervisor
module History = C4_consistency.History
module Lin = C4_consistency.Linearizability
module Json = C4_obs.Json
module Histogram = C4_stats.Histogram

let now () = Unix.gettimeofday ()
let int_value v = Bytes.of_string (string_of_int v)
let value_int b = try int_of_string (Bytes.to_string b) with _ -> -1

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("c4_sim: " ^ m); exit 2) fmt

(* Same long-haul retry policy as the kill -9 chaos harness: ops in
   flight at the kill must ride out detection + promotion + refetch. *)
let failover_retry =
  {
    Retry.max_attempts = 500;
    base_backoff = 2e6;
    max_backoff = 1e8;
    deadline = 20e9;
    budget_ratio = 10.0;
    budget_burst = 1e4;
  }

(* Reserve an ephemeral loopback port by binding and releasing it. *)
let alloc_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, port) -> port
      | Unix.ADDR_UNIX _ -> assert false)

let make_map ~n_nodes ~n_shards ~base_port =
  let port i slot =
    if base_port = 0 then alloc_port () else base_port + (3 * i) + slot
  in
  let nodes =
    List.init n_nodes (fun i ->
        {
          Shardmap.id = i;
          host = "127.0.0.1";
          port = port i 0;
          repl_port = port i 1;
          telemetry_port = port i 2;
        })
  in
  Shardmap.initial ~nodes ~n_shards

(* SIGTERM lets a node drain and close its WAL; one that has not exited
   within the grace period is killed, so no node outlives clusterd. *)
let term_grace_s = 10.0

let term_node child =
  Proc.kill ~signal:Sys.sigterm child;
  if Proc.wait ~timeout:term_grace_s child = None then begin
    Proc.kill ~signal:Sys.sigkill child;
    ignore (Proc.wait ~timeout:term_grace_s child)
  end

let write_map_file ~path map =
  let oc = open_out_bin path in
  output_bytes oc (Shardmap.encode map);
  output_char oc '\n';
  close_out oc

(* Fork one member and handshake over its stdout until the listening
   line (the wal + cluster lines come first and are informational). *)
let spawn_node ~map_file ~wal_root ~workers ~partitions ~fsync_policy ~ack i =
  let args =
    [
      "serve"; "--cluster-map"; map_file;
      "--node-id"; string_of_int i;
      "--wal-dir"; Filename.concat wal_root (Printf.sprintf "node%d" i);
      "--workers"; string_of_int workers;
      "--partitions"; string_of_int partitions;
      "--fsync-policy"; C4_wal.Wal.fsync_policy_to_string fsync_policy;
      "--repl-ack"; C4_clusterd.Member.ack_mode_to_string ack;
    ]
  in
  let child = Proc.spawn ~prog:Sys.executable_name ~args in
  let rec handshake () =
    match Proc.await_line ~timeout:30.0 child with
    | None ->
      term_node child;
      Error (Printf.sprintf "node %d never printed its listening line" i)
    | Some line ->
      if
        String.length line >= 21
        && String.sub line 0 21 = "c4 server listening o"
      then Ok child
      else handshake ()
  in
  handshake ()

(* Tries at spawning the whole cluster when its ports are drawn at
   random: another process can take a drawn port between [alloc_port]
   releasing it and the node binding it. *)
let spawn_attempts = 3

(* Start every node of [map], or none: a failed spawn terminates the
   nodes already started. With [base_port = 0] the ports are redrawn
   and the spawn retried, so the map in use is returned. *)
let spawn_cluster ~base_port ~map ~map_file ~wal_root ~workers ~partitions ~fsync_policy
    ~ack =
  let rec attempt n map =
    write_map_file ~path:map_file map;
    let rec start i started =
      if i = Shardmap.n_nodes map then Ok (List.rev started)
      else
        match spawn_node ~map_file ~wal_root ~workers ~partitions ~fsync_policy ~ack i with
        | Ok child -> start (i + 1) (child :: started)
        | Error e ->
          List.iter term_node started;
          Error e
    in
    match start 0 [] with
    | Ok children -> (map, children)
    | Error e when base_port = 0 && n < spawn_attempts ->
      prerr_endline ("c4_sim: spawn: " ^ e ^ "; redrawing ports");
      attempt (n + 1)
        (make_map ~n_nodes:(Shardmap.n_nodes map) ~n_shards:(Shardmap.n_shards map)
           ~base_port)
    | Error e -> fail "spawn: %s" e
  in
  attempt 1 map

let make_routing map =
  Routing.create (Routing.default_config ~retry:failover_retry) ~map

let supervisor_config ~verbose =
  {
    Supervisor.default_config with
    Supervisor.on_event =
      (fun ev ->
        if verbose then
          match ev with
          | Supervisor.Probe_failed { node; consecutive } ->
            Printf.printf "supervisor: node %d probe failed (%d consecutive)\n%!"
              node consecutive
          | Supervisor.Node_dead n ->
            Printf.printf "supervisor: node %d dead, failing over\n%!" n
          | Supervisor.Promoted { epoch; dead; new_leaders } ->
            Printf.printf "supervisor: epoch %d, node %d replaced by [%s]\n%!"
              epoch dead
              (String.concat "; "
                 (List.map
                    (fun (s, l) -> Printf.sprintf "shard %d -> node %d" s l)
                    new_leaders))
          | Supervisor.Published { epoch; node } ->
            Printf.printf "supervisor: epoch %d installed on node %d\n%!" epoch node
          | Supervisor.Publish_failed { node; reason } ->
            Printf.printf "supervisor: publish to node %d failed: %s\n%!" node reason
          | Supervisor.Shard_stranded s ->
            Printf.printf "supervisor: shard %d stranded (no live replica)\n%!" s);
  }

(* ---------------- judged load (mirrors cmd_chaos) ---------------- *)

type recorded = {
  client : string;
  kind : [ `Set of int | `Get of int ];
  invoked : float;
  responded : float option;  (* None = ambiguous (ack eaten by the kill) *)
}

let judged_writer ~map ~client ~first ~count ~pace ~key () =
  let rt = make_routing map in
  let ops = ref [] in
  for i = 0 to count - 1 do
    let v = first + i in
    let invoked = now () in
    let responded =
      match Routing.set rt ~key ~value:(int_value v) with
      | Ok () -> Some (now ())
      | Error _ -> None
    in
    ops := { client; kind = `Set v; invoked; responded } :: !ops;
    Unix.sleepf pace
  done;
  Routing.close rt;
  List.rev !ops

let judged_reader ~map ~client ~count ~pace ~key () =
  let rt = make_routing map in
  let ops = ref [] in
  for _ = 1 to count do
    let invoked = now () in
    (match Routing.get rt ~key with
    | Ok v ->
      let v = match v with Some b -> value_int b | None -> 0 in
      ops := { client; kind = `Get v; invoked; responded = Some (now ()) } :: !ops
    | Error _ -> ());
    Unix.sleepf pace
  done;
  Routing.close rt;
  List.rev !ops

(* ---------------- chaos mode ---------------- *)

let chaos_run ~base_port ~map ~map_file ~wal_root ~workers ~partitions ~fsync_policy ~ack
    ~kill_after =
  Printf.printf
    "cluster-chaos: %d nodes, %d shards, ack %s, fsync %s, SIGKILL leader after \
     %d sealed acks\n%!"
    (Shardmap.n_nodes map) (Shardmap.n_shards map)
    (C4_clusterd.Member.ack_mode_to_string ack)
    (C4_wal.Wal.fsync_policy_to_string fsync_policy)
    kill_after;
  let map, children =
    spawn_cluster ~base_port ~map ~map_file ~wal_root ~workers ~partitions ~fsync_policy
      ~ack
  in
  let sup = Supervisor.start (supervisor_config ~verbose:true) ~map in
  (* Concurrent judged load on one key whose leader is about to die:
     two writers with disjoint value ranges and a reader, all riding
     the failover retry policy. *)
  let judged_key = 0 in
  let victim = Shardmap.leader_of_key map judged_key in
  let wa =
    Domain.spawn
      (judged_writer ~map ~client:"A" ~first:1 ~count:8 ~pace:0.08 ~key:judged_key)
  and wb =
    Domain.spawn
      (judged_writer ~map ~client:"B" ~first:101 ~count:8 ~pace:0.08 ~key:judged_key)
  and rr =
    Domain.spawn
      (judged_reader ~map ~client:"R" ~count:10 ~pace:0.07 ~key:judged_key)
  in
  (* Sealed writes: acknowledged (under the ack mode on trial) before
     the kill, spread over every shard — the set that MUST survive. *)
  let sealed_base = 10_000 in
  let sealed_value i = 77_000 + i in
  let sealer = make_routing map in
  for i = 0 to kill_after - 1 do
    match Routing.set sealer ~key:(sealed_base + i) ~value:(int_value (sealed_value i)) with
    | Ok () -> ()
    | Error e -> fail "sealed write %d not acknowledged pre-kill: %s" i e
  done;
  Routing.close sealer;
  (* The crash: SIGKILL the judged key's leader, no warning, mid-load. *)
  let dead_child = List.nth children victim in
  Proc.kill dead_child;
  (match Proc.wait dead_child with
  | Some (Unix.WSIGNALED s) when s = Sys.sigkill ->
    Printf.printf "cluster-chaos: leader node %d (pid %d) SIGKILLed\n%!" victim
      (Proc.pid dead_child)
  | Some _ | None -> fail "victim did not die by SIGKILL");
  (* Failover: the supervisor must bump the epoch exactly once. *)
  let deadline = now () +. 30.0 in
  while Shardmap.epoch (Supervisor.current_map sup) < 2 && now () < deadline do
    Unix.sleepf 0.05
  done;
  let new_map = Supervisor.current_map sup in
  if Shardmap.epoch new_map < 2 then fail "supervisor never promoted";
  Printf.printf "cluster-chaos: promoted at epoch %d\n%!" (Shardmap.epoch new_map);
  (* Collect the concurrent clients (tails retried into the new leader). *)
  let ops_a = Domain.join wa and ops_b = Domain.join wb and ops_r = Domain.join rr in
  (* Post-failover observations on the judged key, via a client seeded
     with the STALE epoch-1 map: its first request hits the dead node,
     and the WRONG_SHARD/refetch path must converge it. *)
  let post = make_routing map in
  let post_ops = ref [] in
  for _ = 1 to 4 do
    let invoked = now () in
    match Routing.get post ~key:judged_key with
    | Ok v ->
      let v = match v with Some b -> value_int b | None -> 0 in
      post_ops :=
        { client = "M"; kind = `Get v; invoked; responded = Some (now ()) }
        :: !post_ops
    | Error e -> fail "post-failover read failed: %s" e
  done;
  (* Durability: every acknowledged sealed write must read back. *)
  let lost = ref 0 in
  for i = 0 to kill_after - 1 do
    match Routing.get post ~key:(sealed_base + i) with
    | Ok (Some b) when value_int b = sealed_value i -> ()
    | Ok (Some b) ->
      incr lost;
      Printf.printf "LOST: sealed key %d read %d, wanted %d\n" (sealed_base + i)
        (value_int b) (sealed_value i)
    | Ok None ->
      incr lost;
      Printf.printf "LOST: sealed key %d missing after failover\n" (sealed_base + i)
    | Error e ->
      incr lost;
      Printf.printf "LOST: sealed key %d unreadable after failover: %s\n"
        (sealed_base + i) e
  done;
  let post_stats = Routing.stats post in
  Routing.close post;
  Printf.printf
    "cluster-chaos: stale client converged via %d redirects + %d refetches (%d \
     installs)\n%!"
    post_stats.Routing.wrong_shard_redirects post_stats.Routing.map_refetches
    post_stats.Routing.map_installs;
  let epoch = Shardmap.epoch new_map in
  Supervisor.stop sup;
  List.iteri (fun i child -> if i <> victim then term_node child) children;
  (* Judge the merged cross-failover history. *)
  let end_time = now () +. 1e-6 in
  let to_history_op { client; kind; invoked; responded } =
    let responded = Option.value responded ~default:end_time in
    match kind with
    | `Set v -> History.set ~client ~value:v ~invoked ~responded
    | `Get v -> History.get ~client ~value:v ~invoked ~responded
  in
  let all = ops_a @ ops_b @ ops_r @ List.rev !post_ops in
  let history = History.of_ops (List.map to_history_op all) in
  let ambiguous = List.length (List.filter (fun o -> o.responded = None) all) in
  Printf.printf
    "cluster-chaos: judging %d ops (%d ambiguous at the kill) across the failover\n%!"
    (History.length history) ambiguous;
  let linearizable =
    match Lin.check history with
    | Lin.Linearizable _ -> true
    | Lin.Not_linearizable -> false
  in
  if (not linearizable) || !lost > 0 || epoch <> 2 then begin
    if not linearizable then begin
      Printf.printf "history NOT linearizable:\n";
      List.iter
        (fun { client; kind; invoked; responded } ->
          let k, v = match kind with `Set v -> ("set", v) | `Get v -> ("get", v) in
          Printf.printf "  %s %s %d [%.6f, %s]\n" client k v invoked
            (match responded with
            | Some r -> Printf.sprintf "%.6f" r
            | None -> "?"))
        all
    end;
    if epoch <> 2 then Printf.printf "expected exactly one epoch bump, got epoch %d\n" epoch;
    Printf.printf "CLUSTER CHAOS FAILED (%d sealed writes lost)\n" !lost;
    exit 1
  end;
  Printf.printf
    "CLUSTER CHAOS OK: leader killed, promoted in one epoch bump, %d sealed \
     writes survived, %d-op merged history linearizable\n"
    kill_after (History.length history)

(* ---------------- bench mode ---------------- *)

let bench_run ~base_port ~map ~map_file ~wal_root ~workers ~partitions ~fsync_policy ~ack
    ~n_ops ~write_frac ~threads ~bench_json =
  let map, children =
    spawn_cluster ~base_port ~map ~map_file ~wal_root ~workers ~partitions ~fsync_policy
      ~ack
  in
  let per_thread = max 1 (n_ops / threads) in
  let t0 = now () in
  let worker seed () =
    let rt = make_routing map in
    let hist = Histogram.create () in
    let errors = ref 0 in
    let state = ref (Hashtbl.hash (seed, 0x9E3779B9)) in
    let next () =
      state := (!state * 25214903917) + 11;
      (!state lsr 11) land max_int
    in
    for _ = 1 to per_thread do
      let r = next () in
      let key = r mod 10_000 in
      let t = now () in
      let res =
        if r mod 100 < write_frac then
          Result.map ignore (Routing.set rt ~key ~value:(int_value r))
        else Result.map ignore (Routing.get rt ~key)
      in
      (match res with Ok () -> () | Error _ -> incr errors);
      Histogram.add hist ((now () -. t) *. 1e9)
    done;
    Routing.close rt;
    (hist, !errors)
  in
  let domains = List.init threads (fun i -> Domain.spawn (worker (i + 1))) in
  let results = List.map Domain.join domains in
  let duration = now () -. t0 in
  List.iter (fun child -> term_node child) children;
  let total = per_thread * threads in
  let errors = List.fold_left (fun acc (_, e) -> acc + e) 0 results in
  (* Histograms have no merge; report the max per-thread tail — the
     conservative bound — alongside aggregate throughput. *)
  let p99 =
    List.fold_left (fun acc (h, _) -> Float.max acc (Histogram.p99 h)) 0.0 results
  in
  let p50 =
    List.fold_left (fun acc (h, _) -> Float.max acc (Histogram.median h)) 0.0 results
  in
  let throughput = float_of_int (total - errors) /. duration in
  Printf.printf
    "cluster-bench: %d nodes, %d ops, %d errors, %.0f ops/s, p50 %.0f ns, p99 \
     %.0f ns (max across %d client threads)\n%!"
    (Shardmap.n_nodes map) total errors throughput p50 p99 threads;
  (match bench_json with
  | None -> ()
  | Some path ->
    C4_obs.Benchlog.append ~path
      (C4_obs.Benchlog.record ~kind:"netbench"
         ~config:
           [
             ("cluster_nodes", Json.Int (Shardmap.n_nodes map));
             ("shards", Json.Int (Shardmap.n_shards map));
             ("repl_ack", Json.Str (C4_clusterd.Member.ack_mode_to_string ack));
             ("workers", Json.Int workers);
             ("partitions", Json.Int partitions);
             ("write_frac_pct", Json.Float (float_of_int write_frac));
             ("n_ops", Json.Int total);
             ("threads", Json.Int threads);
             ("wal", Json.Bool true);
             ( "fsync_policy",
               Json.Str (C4_wal.Wal.fsync_policy_to_string fsync_policy) );
           ]
         ~results:
           [
             ("throughput_ops_s", Json.Float throughput);
             ("completed", Json.Int (total - errors));
             ("errors", Json.Int errors);
             ("duration_s", Json.Float duration);
             ("p50_ns", Json.Float p50);
             ("p99_ns", Json.Float p99);
           ]);
    Printf.printf "appended run to %s\n" path);
  if errors > 0 || total - errors = 0 then begin
    Printf.printf "CLUSTER BENCH FAILED\n";
    exit 1
  end

(* ---------------- run mode ---------------- *)

let serve_run ~base_port ~map ~map_file ~wal_root ~workers ~partitions ~fsync_policy ~ack
    ~duration =
  let map, children =
    spawn_cluster ~base_port ~map ~map_file ~wal_root ~workers ~partitions ~fsync_policy
      ~ack
  in
  let sup = Supervisor.start (supervisor_config ~verbose:true) ~map in
  List.iteri
    (fun i _ ->
      let nd = Shardmap.node map i in
      Printf.printf
        "cluster: node %d on 127.0.0.1:%d (repl %d, telemetry http://127.0.0.1:%d)\n%!"
        i nd.Shardmap.port nd.Shardmap.repl_port nd.Shardmap.telemetry_port)
    children;
  Printf.printf "cluster: %d shards, map %s — kill a node to watch failover\n%!"
    (Shardmap.n_shards map) map_file;
  (match duration with
  | Some s -> (try Unix.sleepf s with Unix.Unix_error (Unix.EINTR, _, _) -> ())
  | None ->
    let stop_flag = Atomic.make false in
    let on_sig _ = Atomic.set stop_flag true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_sig);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_sig);
    while not (Atomic.get stop_flag) do
      try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done);
  Supervisor.stop sup;
  let dead = Supervisor.dead_nodes sup in
  List.iteri (fun i child -> if not (List.mem i dead) then term_node child) children

(* ---------------- command ---------------- *)

let cluster_run nodes shards base_port workers partitions fsync_policy ack
    wal_root duration chaos bench kill_after n_ops write_frac threads bench_json
    =
  if nodes < 2 then fail "--nodes must be at least 2";
  let wal_root =
    match wal_root with
    | Some d -> d
    | None ->
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "c4-cluster-%d" (Unix.getpid ()))
  in
  (if not (Sys.file_exists wal_root) then
     try Unix.mkdir wal_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let map = make_map ~n_nodes:nodes ~n_shards:shards ~base_port in
  let map_file = Filename.concat wal_root "map.json" in
  if chaos then
    chaos_run ~base_port ~map ~map_file ~wal_root ~workers ~partitions ~fsync_policy ~ack
      ~kill_after
  else if bench then
    bench_run ~base_port ~map ~map_file ~wal_root ~workers ~partitions ~fsync_policy ~ack
      ~n_ops ~write_frac ~threads ~bench_json
  else
    serve_run ~base_port ~map ~map_file ~wal_root ~workers ~partitions ~fsync_policy ~ack
      ~duration

let cmd =
  let nodes =
    Arg.(value & opt int 3 & info [ "nodes" ] ~docv:"N" ~doc:"Cluster size.")
  in
  let shards =
    Arg.(value & opt int 8 & info [ "shards" ] ~docv:"N"
           ~doc:"Shards in the routing map (fixed for the cluster's life).")
  in
  let base_port =
    Arg.(value & opt int 0 & info [ "base-port" ] ~docv:"PORT"
           ~doc:"Node i listens on $(docv)+3i (repl +1, telemetry +2); 0 = \
                 allocate ephemeral ports.")
  in
  let ack =
    let ack_conv =
      Arg.conv
        ( (fun s ->
            Result.map_error
              (fun m -> `Msg m)
              (C4_clusterd.Member.ack_mode_of_string s)),
          fun ppf m ->
            Format.pp_print_string ppf (C4_clusterd.Member.ack_mode_to_string m) )
    in
    Arg.(value & opt ack_conv C4_clusterd.Member.Quorum & info [ "repl-ack" ]
           ~docv:"MODE" ~doc:"Replication ack mode (quorum|leader).")
  in
  let wal_root =
    Arg.(value & opt (some string) None & info [ "wal-root" ] ~docv:"DIR"
           ~doc:"Root for per-node WAL directories and the map file \
                 (default: a fresh temp directory).")
  in
  let duration =
    Arg.(value & opt (some float) None & info [ "duration" ] ~docv:"SECONDS"
           ~doc:"Run mode: serve for $(docv) then drain (default: until SIGINT).")
  in
  let chaos =
    Arg.(value & flag & info [ "chaos" ]
           ~doc:"Kill-the-leader failover proof: judged concurrent load, \
                 SIGKILL the judged key's leader, require promotion in one \
                 epoch bump, zero acknowledged-write loss, and a \
                 linearizable merged history.")
  in
  let bench =
    Arg.(value & flag & info [ "bench" ]
           ~doc:"Closed-loop routed load over the cluster; exits nonzero on \
                 any error.")
  in
  let kill_after =
    Arg.(value & opt int 5 & info [ "kill-after" ] ~docv:"N"
           ~doc:"Chaos mode: sealed acknowledged writes before the SIGKILL.")
  in
  let n_ops =
    Arg.(value & opt int 3000 & info [ "ops" ] ~docv:"N"
           ~doc:"Bench mode: total requests.")
  in
  let write_frac =
    Arg.(value & opt int 30 & info [ "write-frac" ] ~docv:"PCT"
           ~doc:"Bench mode: write percentage.")
  in
  let threads =
    Arg.(value & opt int 4 & info [ "threads" ] ~docv:"N"
           ~doc:"Bench mode: concurrent client threads.")
  in
  let bench_json =
    Arg.(value & opt (some string) None & info [ "bench-json" ] ~docv:"FILE"
           ~doc:"Bench mode: append the run to $(docv) (perf trajectory log).")
  in
  Cmd.v
    (Cmd.info "clusterd"
       ~doc:"Run a multi-node replicated cluster on loopback: epoch-versioned \
             shard map, leader-based replication, supervisor-driven failover. \
             --chaos proves an acknowledged write survives its leader's kill \
             -9 without breaking linearizability.")
    Term.(
      const cluster_run $ nodes $ shards $ base_port $ workers_arg
      $ partitions_arg $ fsync_policy_arg $ ack $ wal_root $ duration $ chaos
      $ bench $ kill_after $ n_ops $ write_frac $ threads $ bench_json)
