(* Typed-AST fact extraction — the front half of the static analyzer.
   Loads the .cmt files dune already produces (compiled with -bin-annot)
   and walks them with [Tast_iterator], flattening each structure-level
   value binding into one [func] fact: the identifiers it references
   (the call-graph edges), the [with_lock] acquisition sites with their
   lexical nesting, the [Domain.spawn] / [Thread.create] sites, and the
   mutable-state writes with the innermost lock held at each. Per unit
   it also records the record types declared with a [mutable] field and
   every polymorphic comparison typed at a named type, so the
   [poly-compare-mutable] rule can match the two across units.

   Identity conventions (all heuristic, all deterministic):
   - Function names are [Unit.path], e.g. [C4_runtime.Server.stop];
     dune's name mangling ([C4_runtime__Server]) is normalized to dots.
   - A lock is named by the record field or identifier passed to
     [with_lock], qualified by the defining unit: [t.route_lock] inside
     [C4_runtime.Server] becomes [C4_runtime.Server.route_lock]. Two
     distinct mutexes stored in same-named fields of one module
     collapse into one node — a sound over-approximation for
     lock-ORDER purposes (it can only add edges, never hide them),
     though the collapsed self-edge case is reported specially.
   - Any call to a function whose last path component is [with_lock]
     and whose first two positional arguments are present counts as an
     acquisition: this matches [Runtime.Sync.with_lock] and the local
     clones in layers below the runtime (lib/wal). *)

type call = {
  callee : string;  (** normalized target path, e.g. [Unix.fsync] *)
  c_line : int;
  c_under : string option;  (** innermost lock held at the call site *)
}

type acq = {
  a_lock : string;  (** qualified lock name *)
  a_line : int;
  a_under : string option;  (** innermost lock already held, if any *)
}

type mutation = {
  m_what : string;  (** [field f] or [ref r] *)
  m_line : int;
  m_under : string option;
}

type spawn_kind = Domain_spawn | Thread_create

type spawn = {
  s_kind : spawn_kind;
  s_line : int;
  s_target : string;  (** function name (or synthetic closure name) *)
}

type func = {
  fn_name : string;
  fn_line : int;
  fn_spawn_body : bool;
      (** synthetic node for a literal closure passed to [Domain.spawn] *)
  calls : call list;
  acquires : acq list;
  mutations : mutation list;
  spawns : spawn list;
}

type compare = {
  cmp_fn : string;  (** enclosing function *)
  cmp_op : string;  (** [=], [<>] or [compare] *)
  cmp_type : string;  (** qualified constructor of the compared type *)
  cmp_line : int;
}

type unit_facts = {
  uf_unit : string;  (** normalized module name, e.g. [C4_runtime.Server] *)
  uf_source : string;  (** source path as recorded by the compiler *)
  uf_funcs : func list;
  uf_aliases : (string * string) list;
      (** local [module M = Other.Path] renamings, alias -> target;
          needed to resolve [M.f] call targets across units *)
  uf_lazies : (string * int) list;
      (** module-level [lazy] bindings, (qualified name, line) *)
  uf_mutable_records : string list;
      (** qualified names of the record types declared here with a
          [mutable] field *)
  uf_compares : compare list;
      (** polymorphic [=] / [<>] / [compare] uses whose operand type is
          a named type constructor *)
}

(* [C4_runtime__Server] -> [C4_runtime.Server]; a trailing [__] alias
   unit ([C4_runtime__]) normalizes to its bare library name. *)
let normalize_name s =
  let parts = String.split_on_char '.' s in
  let parts =
    List.concat_map
      (fun p ->
        (* split on "__" *)
        let out = ref [] and buf = Buffer.create (String.length p) in
        let i = ref 0 in
        let n = String.length p in
        while !i < n do
          if !i + 1 < n && p.[!i] = '_' && p.[!i + 1] = '_' then begin
            out := Buffer.contents buf :: !out;
            Buffer.clear buf;
            i := !i + 2
          end
          else begin
            Buffer.add_char buf p.[!i];
            incr i
          end
        done;
        out := Buffer.contents buf :: !out;
        List.rev !out)
      parts
  in
  String.concat "." (List.filter (fun p -> p <> "") parts)

let last_component s =
  match List.rev (String.split_on_char '.' s) with x :: _ -> x | [] -> s

(* ---------------- traversal state ---------------- *)

type frame = {
  f_name : string;
  f_line : int;
  f_spawn_body : bool;
  mutable f_calls : call list;
  mutable f_acquires : acq list;
  mutable f_mutations : mutation list;
  mutable f_spawns : spawn list;
  f_bound : (string, unit) Hashtbl.t;
      (* identifiers bound inside this frame (params, lets): a [:=] to a
         ref NOT in here is a captured-ref mutation *)
}

type state = {
  unit_name : string;
  mutable modpath : string list;  (* submodule nesting, outermost first *)
  mutable frames : frame list;  (* innermost first *)
  mutable locks : string list;  (* innermost first *)
  mutable funcs : func list;
  mutable aliases : (string * string) list;
  mutable lazies : (string * int) list;
  mutable mutable_records : string list;
  mutable compares : compare list;
  local_paths : (string, string) Hashtbl.t;
      (* [Ident.unique_name] of a type or module declared in this unit
         -> its qualified name, so a [Pident] type path resolves to the
         same name other units see *)
  mutable anon : int;  (* synthetic closure counter *)
}

let line_of (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

let cur_frame st = match st.frames with f :: _ -> Some f | [] -> None
let cur_lock st = match st.locks with l :: _ -> Some l | [] -> None

let push_frame st ~name ~line ~spawn_body =
  let f =
    {
      f_name = name;
      f_line = line;
      f_spawn_body = spawn_body;
      f_calls = [];
      f_acquires = [];
      f_mutations = [];
      f_spawns = [];
      f_bound = Hashtbl.create 16;
    }
  in
  st.frames <- f :: st.frames;
  f

let pop_frame st =
  match st.frames with
  | f :: rest ->
    st.frames <- rest;
    st.funcs <-
      {
        fn_name = f.f_name;
        fn_line = f.f_line;
        fn_spawn_body = f.f_spawn_body;
        calls = List.rev f.f_calls;
        acquires = List.rev f.f_acquires;
        mutations = List.rev f.f_mutations;
        spawns = List.rev f.f_spawns;
      }
      :: st.funcs
  | [] -> ()

let record_call st ~callee ~line =
  match cur_frame st with
  | None -> ()
  | Some f -> f.f_calls <- { callee; c_line = line; c_under = cur_lock st } :: f.f_calls

let record_acq st ~lock ~line =
  match cur_frame st with
  | None -> ()
  | Some f ->
    f.f_acquires <- { a_lock = lock; a_line = line; a_under = cur_lock st } :: f.f_acquires

let record_mutation st ~what ~line =
  match cur_frame st with
  | None -> ()
  | Some f ->
    f.f_mutations <- { m_what = what; m_line = line; m_under = cur_lock st } :: f.f_mutations

let record_spawn st ~kind ~line ~target =
  match cur_frame st with
  | None -> ()
  | Some f ->
    f.f_spawns <- { s_kind = kind; s_line = line; s_target = target } :: f.f_spawns

let qualified st name =
  String.concat "." ((st.unit_name :: List.rev st.modpath) @ [ name ])

(* Qualified name of a type path: heads declared in this unit resolve
   through [local_paths]; other units' paths are normalized. *)
let rec type_path_name st (p : Path.t) =
  match p with
  | Path.Pident id -> (
    match Hashtbl.find_opt st.local_paths (Ident.unique_name id) with
    | Some q -> q
    | None -> normalize_name (Ident.name id))
  | Path.Pdot (q, s) -> type_path_name st q ^ "." ^ s
  | _ -> normalize_name (Path.name p)

let poly_compares = [ ("Stdlib.=", "="); ("Stdlib.<>", "<>"); ("Stdlib.compare", "compare") ]

(* A use of a polymorphic comparison, typed at its instance: the
   operand type is the first parameter of the ident's arrow type, so
   [a = b], [compare a b] and [List.sort compare xs] all record it. *)
let record_compare st ~callee ~line (ty : Types.type_expr) =
  match List.assoc_opt callee poly_compares with
  | None -> ()
  | Some op -> (
    match Types.get_desc ty with
    | Types.Tarrow (_, arg, _, _) -> (
      match Types.get_desc arg with
      | Types.Tconstr (p, _, _) ->
        st.compares <-
          {
            cmp_fn =
              (match cur_frame st with Some f -> f.f_name | None -> qualified st "<top>");
            cmp_op = op;
            cmp_type = type_path_name st p;
            cmp_line = line;
          }
          :: st.compares
      | _ -> ())
    | _ -> ())

(* Name of the mutex expression at a [with_lock] site. *)
let lock_name_of_expr st (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_field (_, _, lbl) -> qualified st lbl.Types.lbl_name
  | Typedtree.Texp_ident (p, _, _) -> qualified st (last_component (Path.name p))
  | _ -> qualified st (Printf.sprintf "<lock@%d>" (line_of e.Typedtree.exp_loc))

let is_with_lock name = last_component name = "with_lock"

let ends_with ~suffix name =
  name = suffix
  || String.length name > String.length suffix + 1
     && String.sub name (String.length name - String.length suffix - 1)
          (String.length suffix + 1)
        = "." ^ suffix

let is_domain_spawn name = ends_with ~suffix:"Domain.spawn" name
let is_thread_create name = ends_with ~suffix:"Thread.create" name

let ref_assign_ops = [ ":="; "incr"; "decr" ]

let is_ref_assign name =
  List.exists
    (fun op -> name = op || name = "Stdlib." ^ op || ends_with ~suffix:("Stdlib." ^ op) name)
    ref_assign_ops

(* ---------------- the iterator ---------------- *)

let iterate st (str : Typedtree.structure) =
  let super = Tast_iterator.default_iterator in
  (* [pat_bound_idents] rather than matching [Tpat_var] directly: the
     constructor's arity changed in 5.2 (it gained a Uid.t), the
     helper's signature did not. Re-recording in subpatterns is
     harmless — [f_bound] is a set. *)
  let pat : 'k. Tast_iterator.iterator -> 'k Typedtree.general_pattern -> unit =
   fun (type k) it (p : k Typedtree.general_pattern) ->
    (match cur_frame st with
    | Some f ->
      List.iter
        (fun id -> Hashtbl.replace f.f_bound (Ident.name id) ())
        (Typedtree.pat_bound_idents p)
    | None -> ());
    super.Tast_iterator.pat it p
  in
  let structure_item it (si : Typedtree.structure_item) =
    match si.Typedtree.str_desc with
    | Typedtree.Tstr_eval (e, _) when st.frames = [] ->
      (* A module-level [;;] expression: a frame of its own, so its
         calls are recorded like a binding's. *)
      let line = line_of si.Typedtree.str_loc in
      let name = qualified st (Printf.sprintf "<eval:%d>" line) in
      let _f = push_frame st ~name ~line ~spawn_body:false in
      it.Tast_iterator.expr it e;
      pop_frame st
    | Typedtree.Tstr_type (_, decls) ->
      List.iter
        (fun (d : Typedtree.type_declaration) ->
          let name = qualified st (Ident.name d.Typedtree.typ_id) in
          Hashtbl.replace st.local_paths (Ident.unique_name d.Typedtree.typ_id) name;
          match d.Typedtree.typ_kind with
          | Typedtree.Ttype_record lds
            when List.exists
                   (fun (ld : Typedtree.label_declaration) ->
                     ld.Typedtree.ld_mutable = Asttypes.Mutable)
                   lds ->
            st.mutable_records <- name :: st.mutable_records
          | _ -> ())
        decls;
      super.Tast_iterator.structure_item it si
    | Typedtree.Tstr_value (_, vbs) ->
      List.iter
        (fun (vb : Typedtree.value_binding) ->
          (* Binding name via [pat_bound_idents] (version-stable, see
             [pat] above); a module-level binding pattern is almost
             always a single variable. *)
          let name, line =
            match Typedtree.pat_bound_idents vb.Typedtree.vb_pat with
            | [ id ] -> (Ident.name id, line_of vb.Typedtree.vb_pat.Typedtree.pat_loc)
            | _ -> ("<pat>", line_of vb.Typedtree.vb_loc)
          in
          (* Only open a fresh frame for module-level bindings: nested
             [Tstr_value] (inside a local module in a function) keeps
             attributing to the enclosing function. *)
          if st.frames = [] then begin
            (match vb.Typedtree.vb_expr.Typedtree.exp_desc with
            | Typedtree.Texp_lazy _ -> st.lazies <- (qualified st name, line) :: st.lazies
            | _ -> ());
            let _f = push_frame st ~name:(qualified st name) ~line ~spawn_body:false in
            it.Tast_iterator.expr it vb.Typedtree.vb_expr;
            pop_frame st
          end
          else it.Tast_iterator.expr it vb.Typedtree.vb_expr)
        vbs
    | Typedtree.Tstr_module mb -> (
      let name =
        match mb.Typedtree.mb_id with
        | Some id -> Ident.name id
        | None -> "_"
      in
      let local target =
        Option.iter
          (fun id -> Hashtbl.replace st.local_paths (Ident.unique_name id) target)
          mb.Typedtree.mb_id
      in
      match mb.Typedtree.mb_expr.Typedtree.mod_desc with
      | Typedtree.Tmod_ident (p, _) ->
        (* [module M = Other.Path] — record the renaming so call targets
           through the alias resolve to the real unit. *)
        local (type_path_name st p);
        st.aliases <- (name, normalize_name (Path.name p)) :: st.aliases
      | _ ->
        local (qualified st name);
        st.modpath <- name :: st.modpath;
        super.Tast_iterator.structure_item it si;
        st.modpath <- List.tl st.modpath)
    | _ -> super.Tast_iterator.structure_item it si
  in
  let expr it (e : Typedtree.expression) =
    let line = line_of e.Typedtree.exp_loc in
    match e.Typedtree.exp_desc with
    | Typedtree.Texp_ident (p, _, _) ->
      let callee = normalize_name (Path.name p) in
      record_call st ~callee ~line;
      record_compare st ~callee ~line e.Typedtree.exp_type
    | Typedtree.Texp_setfield (r, _, lbl, v) ->
      record_mutation st ~what:("field " ^ lbl.Types.lbl_name) ~line;
      it.Tast_iterator.expr it r;
      it.Tast_iterator.expr it v
    | Typedtree.Texp_apply (fexp, args) -> (
      let fname =
        match fexp.Typedtree.exp_desc with
        | Typedtree.Texp_ident (p, _, _) -> Some (normalize_name (Path.name p))
        | _ -> None
      in
      let positional =
        List.filter_map
          (function Asttypes.Nolabel, Some a -> Some a | _ -> None)
          args
      in
      match fname with
      | Some name when is_with_lock name -> (
        record_call st ~callee:name ~line;
        match positional with
        | lock_e :: body :: rest ->
          let lock = lock_name_of_expr st lock_e in
          record_acq st ~lock ~line;
          it.Tast_iterator.expr it lock_e;
          st.locks <- lock :: st.locks;
          it.Tast_iterator.expr it body;
          st.locks <- List.tl st.locks;
          List.iter (it.Tast_iterator.expr it) rest
        | _ -> List.iter (fun (_, a) -> Option.iter (it.Tast_iterator.expr it) a) args)
      | Some name when is_domain_spawn name || is_thread_create name -> (
        let kind = if is_domain_spawn name then Domain_spawn else Thread_create in
        record_call st ~callee:name ~line;
        match positional with
        | body :: rest ->
          (let enclosing =
             match cur_frame st with Some f -> f.f_name | None -> qualified st "<top>"
           in
           match body.Typedtree.exp_desc with
           | Typedtree.Texp_function _ ->
             (* Literal closure: give it a synthetic node of its own so
                the rules can treat it as a worker entry point. *)
             st.anon <- st.anon + 1;
             let sname = Printf.sprintf "%s.<spawn:%d>" enclosing line in
             record_spawn st ~kind ~line ~target:sname;
             push_frame st ~name:sname ~line ~spawn_body:(kind = Domain_spawn)
             |> ignore;
             it.Tast_iterator.expr it body;
             pop_frame st
           | Typedtree.Texp_ident (p, _, _) ->
             record_spawn st ~kind ~line ~target:(normalize_name (Path.name p))
           | Typedtree.Texp_apply (g, gargs) ->
             (* Partial application: [Domain.spawn (run_worker t w)].
                The spawned computation is [g]; its closure arguments
                are evaluated here. Deliberately NOT recorded as a call
                edge — the body runs on the new domain/thread, so lock
                contexts must not propagate into it. *)
             (match g.Typedtree.exp_desc with
             | Typedtree.Texp_ident (p, _, _) ->
               record_spawn st ~kind ~line ~target:(normalize_name (Path.name p))
             | _ ->
               record_spawn st ~kind ~line ~target:"<unknown>";
               it.Tast_iterator.expr it g);
             List.iter (fun (_, a) -> Option.iter (it.Tast_iterator.expr it) a) gargs
           | _ ->
             record_spawn st ~kind ~line ~target:"<unknown>";
             it.Tast_iterator.expr it body);
          List.iter (it.Tast_iterator.expr it) rest
        | [] -> ())
      | Some name when is_ref_assign name ->
        record_call st ~callee:name ~line;
        (match positional with
        | { Typedtree.exp_desc = Typedtree.Texp_ident (p, _, _); _ } :: _ ->
          let r = last_component (Path.name p) in
          let bound =
            match cur_frame st with
            | Some f -> Hashtbl.mem f.f_bound r
            | None -> true
          in
          if not bound then record_mutation st ~what:("ref " ^ r) ~line
        | _ -> ());
        List.iter (fun (_, a) -> Option.iter (it.Tast_iterator.expr it) a) args
      | _ ->
        it.Tast_iterator.expr it fexp;
        List.iter (fun (_, a) -> Option.iter (it.Tast_iterator.expr it) a) args)
    | _ -> super.Tast_iterator.expr it e
  in
  let it = { super with Tast_iterator.structure_item; expr; pat } in
  it.Tast_iterator.structure it str

(* ---------------- entry point ---------------- *)

let of_structure ~unit_name ~source str =
  let st =
    {
      unit_name;
      modpath = [];
      frames = [];
      locks = [];
      funcs = [];
      aliases = [];
      lazies = [];
      mutable_records = [];
      compares = [];
      local_paths = Hashtbl.create 16;
      anon = 0;
    }
  in
  iterate st str;
  {
    uf_unit = unit_name;
    uf_source = source;
    uf_funcs = List.rev st.funcs;
    uf_aliases = List.rev st.aliases;
    uf_lazies = List.rev st.lazies;
    uf_mutable_records = List.rev st.mutable_records;
    uf_compares = List.rev st.compares;
  }

let load path =
  match Cmt_format.read_cmt path with
  | exception _ -> None
  | infos -> (
    match infos.Cmt_format.cmt_annots with
    | Cmt_format.Implementation str ->
      let unit_name = normalize_name infos.Cmt_format.cmt_modname in
      let source =
        match infos.Cmt_format.cmt_sourcefile with Some s -> s | None -> path
      in
      Some (of_structure ~unit_name ~source str)
    | _ -> None)
