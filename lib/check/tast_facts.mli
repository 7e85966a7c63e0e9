(** Typed-AST fact extraction over [.cmt] files — the front half of the
    static analyzer ({!Staticcheck}).

    Each compilation unit is flattened into per-function fact records:
    referenced identifiers (call-graph edges), [with_lock] acquisition
    sites with lexical nesting, [Domain.spawn] / [Thread.create] sites,
    and mutable-state writes with the innermost lock held at each.
    Module-level [;;] expressions get a frame of their own. Per unit it
    also records the record types declared with a [mutable] field and
    each polymorphic [=] / [<>] / [compare] typed at a named type.

    All names are heuristic but deterministic:
    - functions: [Unit.path] ([C4_runtime.Server.stop]);
    - locks: the field/identifier passed to [with_lock], qualified by
      the defining unit ([C4_runtime.Server.route_lock]). Same-named
      mutex fields within one unit collapse to one node — an
      over-approximation that can only add lock-order edges, never
      hide them. *)

type call = {
  callee : string;  (** normalized target path, e.g. [Unix.fsync] *)
  c_line : int;
  c_under : string option;  (** innermost lock held at the call site *)
}

type acq = {
  a_lock : string;
  a_line : int;
  a_under : string option;  (** innermost lock already held, if any *)
}

type mutation = {
  m_what : string;  (** [field f] or [ref r] *)
  m_line : int;
  m_under : string option;
}

type spawn_kind = Domain_spawn | Thread_create

type spawn = { s_kind : spawn_kind; s_line : int; s_target : string }

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
  cmp_type : string;
      (** qualified constructor of the compared type, e.g.
          [C4_kvs.Store.t] *)
  cmp_line : int;
}

type unit_facts = {
  uf_unit : string;  (** normalized unit name, e.g. [C4_runtime.Server] *)
  uf_source : string;  (** source path as recorded by the compiler *)
  uf_funcs : func list;
  uf_aliases : (string * string) list;
      (** local [module M = Other.Path] renamings, alias -> target *)
  uf_lazies : (string * int) list;
      (** module-level [lazy] bindings (submodules included), as
          (qualified name, line) *)
  uf_mutable_records : string list;
      (** qualified names of the record types declared here with a
          [mutable] field *)
  uf_compares : compare list;
      (** polymorphic comparisons whose operand type is a named type
          constructor, typed at their use site *)
}

(** [C4_runtime__Server] -> [C4_runtime.Server]. *)
val normalize_name : string -> string

val last_component : string -> string

(** Extract facts from an already-typed structure (used by tests that
    compile fixture sources in memory). *)
val of_structure :
  unit_name:string -> source:string -> Typedtree.structure -> unit_facts

(** Read one [.cmt]; [None] if it is unreadable or not an
    implementation (e.g. a [.cmti] or a packed module). *)
val load : string -> unit_facts option
