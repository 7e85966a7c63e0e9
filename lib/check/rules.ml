(* The rule passes over the typed-AST fact base: six
   concurrency-discipline passes over library code and four repo rules
   over every unit ([mli-required], the fifth repo rule, is a source
   walk in {!Staticcheck}). Each emits
   violations whose [message] is line-free and deterministic, so
   [rule ^ file ^ message] is a stable baseline key that survives
   unrelated edits shifting line numbers. *)

module F = Tast_facts

type violation = { file : string; line : int; rule : string; message : string }

(* ---------------- blocking-primitive classification ---------------- *)

(* Calls that can park the calling systhread/domain. Whitelist, not
   module-prefix: most of Unix is non-blocking (getters, conversions)
   and flagging those would bury the signal. *)
let blocking_set =
  [
    "Unix.sleep"; "Unix.sleepf"; "Unix.select"; "Unix.connect";
    "Unix.accept"; "Unix.read"; "Unix.write"; "Unix.single_write";
    "Unix.fsync"; "Unix.fdatasync"; "Unix.openfile"; "Unix.recv";
    "Unix.send"; "Unix.recvfrom"; "Unix.sendto"; "Unix.waitpid";
    "Unix.wait"; "Unix.system"; "Unix.lockf";
    "Thread.join"; "Thread.delay"; "Domain.join";
    "Condition.wait"; "Mutex.lock";
  ]

(* OCaml 5 records [Domain] / [Condition] / [Mutex] references as
   [Stdlib.Domain.join] etc. — compare modulo that prefix. *)
let strip_stdlib name =
  if String.starts_with ~prefix:"Stdlib." name then
    String.sub name 7 (String.length name - 7)
  else name

let is_blocking name = List.mem (strip_stdlib name) blocking_set

(* Blocking reached transitively. [with_lock] helpers are excluded at
   the source: their [Mutex.lock] is the modelled acquisition itself,
   and propagating it would tag every locking function as blocking. *)
let transitive_blocking cg =
  Callgraph.transitive cg ~direct:(fun (fc : F.func) ->
      if F.last_component fc.F.fn_name = "with_lock" then []
      else
        List.filter_map
          (fun (c : F.call) ->
            if is_blocking c.F.callee then Some (c.F.callee, c.F.c_line)
            else None)
          fc.F.calls)

let via_suffix = function
  | [] -> ""
  | chain -> Printf.sprintf " (via %s)" (String.concat " -> " chain)

let v ~file ~line ~rule message = { file; line; rule; message }

(* ---------------- 1. lock-order ---------------- *)

let lock_order_pass lg =
  List.map
    (fun cycle ->
      let locks = List.map (fun e -> e.Lockgraph.e_from) cycle in
      let ring = String.concat " -> " (locks @ [ List.hd locks ]) in
      let detail =
        List.map
          (fun (e : Lockgraph.edge) ->
            Printf.sprintf "%s acquired under %s%s" e.Lockgraph.e_to
              e.Lockgraph.e_from
              (via_suffix e.Lockgraph.e_via))
          cycle
        |> String.concat "; "
      in
      let e0 = List.hd cycle in
      v ~file:e0.Lockgraph.e_file ~line:e0.Lockgraph.e_line ~rule:"lock-order"
        (Printf.sprintf "potential deadlock cycle %s: %s" ring detail))
    (Lockgraph.cycles lg)

(* ---------------- 2. blocking-in-worker ---------------- *)

(* Roots: every resolved [Domain.spawn] / [Thread.create] target plus
   the synthetic frames for literal spawn closures. These are the
   entry points of sync/worker domains; anything blocking reachable
   from one stalls a whole scheduling unit. *)
let spawn_roots cg =
  let roots = ref [] in
  Callgraph.iter_funcs cg (fun fn (fc : F.func) uf ->
      if fc.F.fn_spawn_body then roots := fn :: !roots;
      List.iter
        (fun (s : F.spawn) ->
          List.iter
            (fun r -> roots := r :: !roots)
            (Callgraph.resolve cg ~caller_unit:uf.F.uf_unit s.F.s_target))
        fc.F.spawns);
  List.sort_uniq compare !roots

let blocking_in_worker_pass cg =
  let blocking_of = transitive_blocking cg in
  List.concat_map
    (fun root ->
      let file = Callgraph.source_of cg root in
      List.filter_map
        (fun (w : Callgraph.witnessed) ->
          (* Mutex.lock only ever appears inside with_lock helpers
             (enforced by bare-mutex-lock); acquisitions under workers
             are the lock-order pass's business. *)
          if strip_stdlib w.Callgraph.w_item = "Mutex.lock" then None
          else
            Some
              (v ~file ~line:w.Callgraph.w_line ~rule:"blocking-in-worker"
                 (Printf.sprintf "worker entry %s reaches blocking %s%s" root
                    (strip_stdlib w.Callgraph.w_item)
                    (via_suffix w.Callgraph.w_chain))))
        (blocking_of root))
    (spawn_roots cg)

(* ---------------- 3. blocking-under-lock ---------------- *)

(* [Condition.wait] atomically releases the mutex it is given, so it
   is not "blocking while holding" that lock. It could still hold an
   *outer* lock, but the fact base records only the innermost — accept
   the false-negative rather than flag every condition loop. *)
let blocking_under_lock_pass cg =
  let blocking_of = transitive_blocking cg in
  let acc = ref [] in
  Callgraph.iter_funcs cg (fun fn (fc : F.func) uf ->
      let file = uf.F.uf_source in
      (* direct blocking calls made with a lock held *)
      List.iter
        (fun (c : F.call) ->
          let callee = strip_stdlib c.F.callee in
          match c.F.c_under with
          | Some lock when is_blocking callee && callee <> "Condition.wait"
                           && callee <> "Mutex.lock" ->
            acc :=
              v ~file ~line:c.F.c_line ~rule:"blocking-under-lock"
                (Printf.sprintf "%s calls blocking %s while holding %s" fn
                   callee lock)
              :: !acc
          | _ -> ())
        fc.F.calls;
      (* calls under a lock into functions that transitively block *)
      List.iter
        (fun (rc : Callgraph.resolved_call) ->
          match rc.Callgraph.rc_under with
          | None -> ()
          | Some lock ->
            List.iter
              (fun (w : Callgraph.witnessed) ->
                let item = strip_stdlib w.Callgraph.w_item in
                if item <> "Condition.wait" && item <> "Mutex.lock" then
                  acc :=
                    v ~file ~line:rc.Callgraph.rc_line ~rule:"blocking-under-lock"
                      (Printf.sprintf
                         "%s calls blocking %s while holding %s%s" fn
                         item lock
                         (via_suffix
                            (rc.Callgraph.rc_callee :: w.Callgraph.w_chain)))
                    :: !acc)
              (blocking_of rc.Callgraph.rc_callee))
        (Callgraph.callees cg fn))
    ;
  List.rev !acc

(* ---------------- 4. crew-core-purity ---------------- *)

(* The d-CREW policy core must stay engine-agnostic: no clocks, no
   I/O, no environment — effects arrive only through its ENGINE
   signature. Flag any call into the impure world. *)
let impure_roots = [ "Unix"; "Sys"; "Printf"; "Format"; "Scanf";
                     "In_channel"; "Out_channel"; "Random" ]

let impure_stdlib =
  [ "Stdlib.print_string"; "Stdlib.print_endline"; "Stdlib.print_newline";
    "Stdlib.prerr_string"; "Stdlib.prerr_endline"; "Stdlib.read_line";
    "Stdlib.open_in"; "Stdlib.open_out"; "Stdlib.exit" ]

let is_impure callee =
  match String.index_opt callee '.' with
  | None -> false
  | Some i -> List.mem (String.sub callee 0 i) impure_roots
              || List.mem callee impure_stdlib

let default_is_crew_core (uf : F.unit_facts) =
  uf.F.uf_unit = "C4_crew" || String.starts_with ~prefix:"C4_crew." uf.F.uf_unit

let crew_purity_pass ~is_crew_core cg =
  let acc = ref [] in
  Callgraph.iter_funcs cg (fun fn (fc : F.func) uf ->
      if is_crew_core uf then
        List.iter
          (fun (c : F.call) ->
            if is_impure c.F.callee then
              acc :=
                v ~file:uf.F.uf_source ~line:c.F.c_line ~rule:"crew-core-purity"
                  (Printf.sprintf
                     "%s calls %s; the crew core takes effects only through ENGINE"
                     fn c.F.callee)
                :: !acc)
          fc.F.calls);
  List.rev !acc

(* ---------------- 5. shared-mutable-escape ---------------- *)

(* From every spawn root, walk same-unit call edges; a call made under
   a lock guards its whole subtree. Any mutation reached unguarded and
   itself outside a lock is a write to state shared with the spawning
   domain without synchronisation. (Ref mutations are only recorded by
   {!Tast_facts} when the ref is captured, i.e. not bound locally.) *)
let mutable_escape_pass cg =
  let acc = ref [] in
  let flagged = Hashtbl.create 32 in
  let roots = spawn_roots cg in
  List.iter
    (fun root ->
      let unit = Callgraph.unit_of_fn root in
      let seen = Hashtbl.create 16 in
      let rec walk fn path =
        if not (Hashtbl.mem seen fn) then begin
          Hashtbl.replace seen fn ();
          (match Callgraph.find cg fn with
          | None -> ()
          | Some fc ->
            List.iter
              (fun (m : F.mutation) ->
                let k = (fn, m.F.m_what) in
                if m.F.m_under = None && not (Hashtbl.mem flagged k) then begin
                  Hashtbl.replace flagged k ();
                  acc :=
                    v ~file:(Callgraph.source_of cg fn) ~line:m.F.m_line
                      ~rule:"shared-mutable-escape"
                      (Printf.sprintf
                         "%s writes %s without a lock, reachable from spawn of %s%s"
                         fn m.F.m_what root
                         (via_suffix (List.rev path)))
                    :: !acc
                end)
              fc.F.mutations);
          List.iter
            (fun (rc : Callgraph.resolved_call) ->
              (* stay in the spawn's unit; a guarded call protects its
                 subtree *)
              if rc.Callgraph.rc_under = None
                 && Callgraph.unit_of_fn rc.Callgraph.rc_callee = unit then
                walk rc.Callgraph.rc_callee (rc.Callgraph.rc_callee :: path))
            (Callgraph.callees cg fn)
        end
      in
      walk root [])
    roots;
  List.rev !acc

(* ---------------- 6. top-level-lazy ---------------- *)

(* A module-level [lazy] is global state every domain may force, and
   OCaml 5 raises [CamlinternalLazy.Undefined] in a domain that forces
   it while another is mid-force. Build such values eagerly at module
   init (or guard them explicitly). *)
let toplevel_lazy_pass (units : F.unit_facts list) =
  List.concat_map
    (fun (uf : F.unit_facts) ->
      List.map
        (fun (name, line) ->
          v ~file:uf.F.uf_source ~line ~rule:"top-level-lazy"
            (Printf.sprintf
               "%s is a top-level lazy: forcing it from two domains at once raises \
                CamlinternalLazy.Undefined"
               name))
        uf.F.uf_lazies)
    units

(* ---------------- 7. repo rules over references ---------------- *)

(* Every identifier a unit references, calls and spawn targets alike,
   with a leading local module alias expanded ([module M = Mutex] makes
   [M.lock] read [Stdlib.Mutex.lock]) and the [Stdlib.] prefix dropped. *)
let references (uf : F.unit_facts) =
  let expand name =
    match String.index_opt name '.' with
    | None -> name
    | Some i -> (
      match List.assoc_opt (String.sub name 0 i) uf.F.uf_aliases with
      | Some target -> target ^ String.sub name i (String.length name - i)
      | None -> name)
  in
  List.concat_map
    (fun (fc : F.func) ->
      List.map (fun (c : F.call) -> (fc.F.fn_name, c.F.callee, c.F.c_line)) fc.F.calls
      @ List.map
          (fun (s : F.spawn) -> (fc.F.fn_name, s.F.s_target, s.F.s_line))
          fc.F.spawns)
    uf.F.uf_funcs
  |> List.map (fun (fn, name, line) -> (fn, strip_stdlib (expand name), line))

let stdout_printers =
  [ "Printf.printf"; "Format.printf"; "print_endline"; "print_string";
    "print_newline"; "print_char"; "print_int"; "print_float" ]

(* [bare-mutex-lock]: everything outside Runtime.Sync goes through the
   exception-safe [Sync.with_lock]. [no-obj-magic]: no [Obj.magic].
   [no-stdout-print]: library code takes an out_channel or formatter. *)
let reference_pass ~is_lib (units : F.unit_facts list) =
  List.concat_map
    (fun (uf : F.unit_facts) ->
      let file = uf.F.uf_source in
      List.filter_map
        (fun (fn, name, line) ->
          match name with
          | ("Mutex.lock" | "Mutex.unlock") when uf.F.uf_unit <> "C4_runtime.Sync" ->
            Some
              (v ~file ~line ~rule:"bare-mutex-lock"
                 (Printf.sprintf
                    "%s calls %s outside Runtime.Sync: use Sync.with_lock so \
                     exceptions cannot leak a held lock"
                    fn name))
          | "Obj.magic" ->
            Some
              (v ~file ~line ~rule:"no-obj-magic"
                 (Printf.sprintf
                    "%s uses Obj.magic, which defeats the type system; restructure \
                     instead"
                    fn))
          | _ when is_lib uf && List.mem name stdout_printers ->
            Some
              (v ~file ~line ~rule:"no-stdout-print"
                 (Printf.sprintf
                    "%s calls %s: library code writes to stdout; take an \
                     out_channel or a Format formatter instead"
                    fn name))
          | _ -> None)
        (references uf))
    units

(* [poly-compare-mutable]: a polymorphic comparison typed at a record
   type that has a mutable field, wherever that type is declared. Such
   a compare reads every field without synchronisation, so it can see
   a half-updated record; write a typed equal/compare instead. *)
let poly_compare_pass (units : F.unit_facts list) =
  let mutable_records = Hashtbl.create 64 in
  List.iter
    (fun (uf : F.unit_facts) ->
      List.iter (fun t -> Hashtbl.replace mutable_records t ()) uf.F.uf_mutable_records)
    units;
  List.concat_map
    (fun (uf : F.unit_facts) ->
      List.filter_map
        (fun (c : F.compare) ->
          if Hashtbl.mem mutable_records c.F.cmp_type then
            Some
              (v ~file:uf.F.uf_source ~line:c.F.cmp_line ~rule:"poly-compare-mutable"
                 (Printf.sprintf
                    "%s applies polymorphic %s to mutable record %s; write a typed \
                     equal/compare"
                    c.F.cmp_fn c.F.cmp_op c.F.cmp_type))
          else None)
        uf.F.uf_compares)
    units

(* ---------------- driver ---------------- *)

let default_is_lib (uf : F.unit_facts) =
  List.mem "lib" (String.split_on_char '/' uf.F.uf_source)

let compare_violation a b =
  compare (a.file, a.line, a.rule, a.message) (b.file, b.line, b.rule, b.message)

let run ?(is_crew_core = default_is_crew_core) ?(is_lib = default_is_lib)
    (units : F.unit_facts list) =
  (* The concurrency passes judge library code only: an executable's
     own threads (a CLI harness sleeping between judged ops) are not
     the serving path. *)
  let lib_units = List.filter is_lib units in
  let cg = Callgraph.build lib_units in
  let lg = Lockgraph.build cg in
  let vs =
    lock_order_pass lg
    @ blocking_in_worker_pass cg
    @ blocking_under_lock_pass cg
    @ crew_purity_pass ~is_crew_core cg
    @ mutable_escape_pass cg
    @ toplevel_lazy_pass lib_units
    @ reference_pass ~is_lib units
    @ poly_compare_pass units
  in
  (* Deduplicate on the stable key, keeping the smallest line; order by
     (file, line, rule, message) for stable output. *)
  let key x = (x.rule, x.file, x.message) in
  let best = Hashtbl.create 64 in
  List.iter
    (fun x ->
      match Hashtbl.find_opt best (key x) with
      | Some y when y.line <= x.line -> ()
      | _ -> Hashtbl.replace best (key x) x)
    vs;
  Hashtbl.fold (fun _ x acc -> x :: acc) best [] |> List.sort compare_violation
