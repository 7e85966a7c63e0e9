(* c4_analyze [--json] [--baseline FILE] [--fail-stale] DIR...  — run
   the typed-AST analyzer over every .cmt and .ml beneath the given
   directories (default: lib bin) and exit non-zero on findings not covered
   by the baseline — and, with --fail-stale, on baseline entries that no
   longer match anything (so the baseline can only shrink as code is
   fixed). Wired to `dune build @analyze`. *)

let () =
  let json = ref false in
  let baseline_file = ref "" in
  let fail_stale = ref false in
  let dirs = ref [] in
  Arg.parse
    [
      ("--json", Arg.Set json, "emit the report as JSON");
      ( "--baseline",
        Arg.Set_string baseline_file,
        "FILE known findings; only fresh ones fail the run" );
      ( "--fail-stale",
        Arg.Set fail_stale,
        "also fail when the baseline holds entries matching nothing" );
    ]
    (fun d -> dirs := d :: !dirs)
    "c4_analyze [--json] [--baseline FILE] [--fail-stale] DIR...";
  let dirs = if !dirs = [] then [ "lib"; "bin" ] else List.rev !dirs in
  let baseline =
    if !baseline_file = "" then []
    else C4_check.Staticcheck.load_baseline !baseline_file
  in
  let r = C4_check.Staticcheck.analyze ~baseline dirs in
  print_string
    (if !json then C4_check.Staticcheck.to_json r ^ "\n"
     else C4_check.Staticcheck.to_text r);
  let failed =
    r.C4_check.Staticcheck.fresh <> []
    || (!fail_stale && r.C4_check.Staticcheck.stale <> [])
  in
  exit (if failed then 1 else 0)
