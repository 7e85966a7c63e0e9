(* c4_perfbench: the repository's benchmark program.

     c4_perfbench --workload wi_uni|rw_sk --seed N --seconds S
                  --trace 0|1 --benchmark BENCHMARK.json
                  --server PATH/c4_sim.exe --workdir DIR [--trace-out FILE]

   With --trace 0 it runs the end-to-end measurement (the server as a
   child process, driven over TCP) and reports the end-to-end metrics.
   With --trace 1 it runs the same TCP measurement for the net-layer
   numbers, then a traced in-process replay and isolated
   microbenchmarks, and reports the per-layer metrics. Which metrics
   each mode reports, in which unit, is read from --benchmark. Either
   way the last stdout line is the JSON result; the exit code is 0 only
   when every output check passed. [perfbench/run.py] builds and invokes it. *)

open Perfbench
module Json = C4_obs.Json

let usage () =
  prerr_endline
    "usage: c4_perfbench --workload NAME --seed N --seconds S --trace 0|1 \
     --benchmark BENCHMARK.json --server PATH --workdir DIR";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = parse [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let spec =
    match Spec.find (get "workload") with
    | Some s -> s
    | None ->
      Printf.eprintf "unknown workload %S\n" (get "workload");
      exit 2
  in
  let seed = int "seed" and seconds = float_of_int (int "seconds") in
  let trace = int "trace" <> 0 in
  let server = get "server" and workdir = get "workdir" in
  let trace_out =
    Option.value (List.assoc_opt "trace-out" kv)
      ~default:(Filename.concat workdir (Printf.sprintf "trace-%s.json" spec.Spec.name))
  in
  if seconds < 1.0 then usage ();
  let fingerprint =
    Json.Obj
      [
        ("nproc", Json.Int (Domain.recommended_domain_count ()));
        ("git_rev", Json.Str (C4_obs.Benchlog.git_rev ()));
        ( "source_sha256",
          Json.Str (Option.value (Sys.getenv_opt "PERFBENCH_SOURCE_SHA256") ~default:"unknown") );
        ("ocaml", Json.Str Sys.ocaml_version);
        ("seed", Json.Int seed);
        ("seconds", Json.Float seconds);
        ("trace", Json.Bool trace);
        ("config", Spec.to_json spec);
      ]
  in
  let declared =
    try Report.declared_of_file (get "benchmark") ~trace with
    | Failure e | Sys_error e | Json.Parse_error e ->
      Printf.eprintf "c4_perfbench: cannot read the declared metrics: %s\n" e;
      exit 2
  in
  let report = Report.create ~fingerprint ~declared in
  (* Hard stop well inside the 180 s budget: whatever is unfinished
     counts as failed, every metric reached so far is still printed. *)
  let budget = 165.0 in
  let t_start = Unix.gettimeofday () in
  ignore
    (Thread.create
       (fun () ->
         while Unix.gettimeofday () -. t_start < budget do Unix.sleepf 0.2 done;
         Report.note report "perfbench: watchdog fired, run incomplete";
         Report.count report ~attempted:0 ~failed:1;
         Report.emit report;
         Child.kill_all ();
         Stdlib.exit 1)
       ());
  let on_signal _ =
    Child.kill_all ();
    Stdlib.exit 1
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try
     Stages.run report ~server ~spec ~seed ~seconds ~workdir ~trace ~trace_out;
     report.Report.complete <- true
   with e ->
     Report.note report ("perfbench: run aborted: " ^ Printexc.to_string e));
  Child.kill_all ();
  Report.emit report;
  exit (if Report.correct report then 0 else 1)
