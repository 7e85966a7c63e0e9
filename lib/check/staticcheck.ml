(* Driver for the typed-AST analyzer: discovers [.cmt] files under the
   build tree, extracts facts, runs {!Rules}, walks the source trees for
   [mli-required], filters through source pragmas, and diffs against
   the checked-in baseline so CI fails only on findings that are new. *)

module Json = C4_obs.Json

type violation = Rules.violation = {
  file : string;
  line : int;
  rule : string;
  message : string;
}

type report = {
  violations : violation list;  (** everything found, post-pragma *)
  fresh : violation list;  (** not covered by the baseline *)
  baselined : violation list;
  stale : string list;  (** baseline keys matching nothing — prunable *)
  units : int;  (** compilation units analyzed *)
}

(* ---------------- discovery ---------------- *)

let rec walk acc path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    (* dune hides object dirs as [.libname.objs] — do NOT skip
       dot-directories here, unlike the source walk below *)
    Array.fold_left
      (fun acc entry -> walk acc (Filename.concat path entry))
      acc
      (let es = Sys.readdir path in Array.sort compare es; es)
  | Unix.S_REG when Filename.check_suffix path ".cmt" -> path :: acc
  | _ -> acc
  | exception Unix.Unix_error _ -> acc

let find_cmts dirs =
  List.sort_uniq compare (List.fold_left walk [] dirs)

let load_units cmts =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun cmt ->
      match Tast_facts.load cmt with
      | None -> None
      | Some uf ->
        (* skip dune-generated library alias modules and duplicates *)
        if Filename.check_suffix uf.Tast_facts.uf_source ".ml-gen"
           || Hashtbl.mem seen uf.Tast_facts.uf_unit
        then None
        else begin
          Hashtbl.replace seen uf.Tast_facts.uf_unit ();
          Some uf
        end)
    cmts

(* ---------------- mli-required ---------------- *)

let mli_exempt_dirs = [ "bin"; "test"; "tests"; "examples"; "bench" ]

let rec source_files path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.filter (fun f -> f.[0] <> '.')
    |> List.concat_map (fun f -> source_files (Filename.concat path f))
  else if Filename.check_suffix path ".ml" then [ path ]
  else []

let mli_required dirs =
  List.concat_map source_files dirs
  |> List.filter_map (fun ml ->
         let exempt =
           List.exists
             (fun c -> List.mem c mli_exempt_dirs)
             (String.split_on_char '/' ml)
         in
         if exempt || Sys.file_exists (ml ^ "i") then None
         else
           Some
             {
               file = ml;
               line = 1;
               rule = "mli-required";
               message =
                 "library module has no interface file (" ^ Filename.basename ml ^ "i)";
             })

(* ---------------- pragmas ---------------- *)

let read_file path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Some s
  with Sys_error _ -> None

let pragma_tag = "c4-lint: allow"

(* File-level exemptions: [(* c4-lint: allow rule-a rule-b *)] anywhere
   in the source; the rule names are the words after the tag, up to the
   first thing that is not one. *)
let pragmas src =
  let n = String.length src and m = String.length pragma_tag in
  let is_word = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' | '-' -> true
    | _ -> false
  in
  let rec words i acc =
    let i = ref i in
    while !i < n && (src.[!i] = ' ' || src.[!i] = '\t') do incr i done;
    let start = !i in
    while !i < n && is_word src.[!i] do incr i done;
    if !i > start then words !i (String.sub src start (!i - start) :: acc)
    else (!i, acc)
  in
  let rec find from acc =
    if from + m > n then List.rev acc
    else if String.sub src from m = pragma_tag then
      let next, acc = words (from + m) acc in
      find next acc
    else find (from + 1) acc
  in
  find 0 []

let apply_pragmas ~src_root vs =
  let allowed = Hashtbl.create 8 in
  let allowed_for file =
    match Hashtbl.find_opt allowed file with
    | Some rules -> rules
    | None ->
      let path =
        if Filename.is_relative file then Filename.concat src_root file else file
      in
      let rules = match read_file path with Some src -> pragmas src | None -> [] in
      Hashtbl.replace allowed file rules;
      rules
  in
  List.filter (fun v -> not (List.mem v.rule (allowed_for v.file))) vs

let run ?is_crew_core ?is_lib ?(src_root = Filename.current_dir_name) units =
  apply_pragmas ~src_root (Rules.run ?is_crew_core ?is_lib units)

(* ---------------- baseline ---------------- *)

(* Stable line-free key: messages are deterministic and carry the
   function/lock/primitive names, so this survives line drift. *)
let key v = Printf.sprintf "%s|%s|%s" v.rule v.file v.message

(* Baseline document: {"findings": [{"rule","file","message","note"?}]}.
   Raises [Json.Parse_error] or [Failure] on a malformed file. *)
let load_baseline path =
  match read_file path with
  | None -> []
  | Some src ->
    let j = Json.of_string src in
    (match Json.member "findings" j with
    | Some (Json.List items) ->
      List.map
        (fun item ->
          let field k =
            match Option.bind (Json.member k item) Json.to_string_opt with
            | Some s -> s
            | None -> failwith (Printf.sprintf "baseline finding missing %S" k)
          in
          Printf.sprintf "%s|%s|%s" (field "rule") (field "file")
            (field "message"))
        items
    | _ -> failwith "baseline: expected top-level {\"findings\": [...]}")

(* ---------------- analysis ---------------- *)

let analyze ?(baseline = []) dirs =
  let units = load_units (find_cmts dirs) in
  let vs =
    apply_pragmas ~src_root:Filename.current_dir_name
      (Rules.run units @ mli_required dirs)
    |> List.sort Rules.compare_violation
  in
  let fresh, baselined =
    List.partition (fun v -> not (List.mem (key v) baseline)) vs
  in
  let live = List.map key vs in
  let stale = List.filter (fun k -> not (List.mem k live)) baseline in
  { violations = vs; fresh; baselined; stale = List.sort_uniq compare stale;
    units = List.length units }

(* ---------------- rendering ---------------- *)

let to_text r =
  let buf = Buffer.create 256 in
  List.iter
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "%s:%d: [%s] %s%s\n" v.file v.line v.rule v.message
           (if List.memq v r.baselined then " (baselined)" else "")))
    r.violations;
  Buffer.add_string buf
    (Printf.sprintf "%d finding%s (%d fresh, %d baselined) in %d units\n"
       (List.length r.violations)
       (if List.length r.violations = 1 then "" else "s")
       (List.length r.fresh) (List.length r.baselined) r.units);
  List.iter
    (fun k ->
      Buffer.add_string buf (Printf.sprintf "stale baseline entry: %s\n" k))
    r.stale;
  Buffer.contents buf

let violation_json v =
  Json.Obj
    [
      ("file", Json.Str v.file);
      ("line", Json.Int v.line);
      ("rule", Json.Str v.rule);
      ("message", Json.Str v.message);
    ]

let to_json r =
  Json.to_string
    (Json.Obj
       [
         ("violations", Json.List (List.map violation_json r.violations));
         ("fresh", Json.List (List.map violation_json r.fresh));
         ("baselined", Json.Int (List.length r.baselined));
         ("stale_baseline", Json.List (List.map (fun k -> Json.Str k) r.stale));
         ("units", Json.Int r.units);
       ])
