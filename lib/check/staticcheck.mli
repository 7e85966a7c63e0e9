(** Driver for the typed-AST analyzer: [.cmt] discovery under the dune
    build tree, {!Rules} execution, the [mli-required] source walk,
    [c4-lint: allow] pragma filtering, and baseline diffing.

    The baseline (checked in as [analysis-baseline.json]) lists known,
    reviewed findings by their stable line-free key; the analyzer then
    fails only on {e fresh} findings, so pre-existing design-intended
    blocking (a WAL syncer calling [fsync], workers parking on their
    channel) does not wedge CI while still catching regressions. *)

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

(** Recursively collect [.cmt] files (descends into dot-directories —
    dune object dirs are [.libname.objs]). *)
val find_cmts : string list -> string list

(** Load facts, skipping dune-generated alias modules and duplicate
    unit names. *)
val load_units : string list -> Tast_facts.unit_facts list

(** [mli-required]: every [.ml] beneath the given directories (dot
    directories skipped) that has no sibling [.mli], unless a path
    component is [bin], [test], [tests], [examples] or [bench]. *)
val mli_required : string list -> violation list

(** Rules a source opts out of: the words after each
    [c4-lint: allow] tag, e.g. [(* c4-lint: allow no-obj-magic *)].
    The pragma is file-level. *)
val pragmas : string -> string list

(** {!Rules.run}, then drop every finding whose file opts out of its
    rule. Relative source paths are read beneath [src_root] (default:
    the current directory). *)
val run :
  ?is_crew_core:(Tast_facts.unit_facts -> bool) ->
  ?is_lib:(Tast_facts.unit_facts -> bool) ->
  ?src_root:string ->
  Tast_facts.unit_facts list ->
  violation list

(** Stable baseline key of a finding: [rule|file|message] (messages
    are line-free by construction in {!Rules}). *)
val key : violation -> string

(** Keys from a baseline document
    [{"findings": [{"rule","file","message","note"?}]}]. Missing file
    = empty baseline; malformed file raises. *)
val load_baseline : string -> string list

(** Run every rule over the [.cmt]s and [.ml] sources beneath the given
    directories; source paths resolve from the current directory. *)
val analyze : ?baseline:string list -> string list -> report

val to_text : report -> string

(** Compact JSON via {!C4_obs.Json}. *)
val to_json : report -> string
