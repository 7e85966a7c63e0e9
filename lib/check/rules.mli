(** The rule passes over {!Tast_facts} fact bases.

    Six concurrency-discipline passes judge library units only (see
    [is_lib] on {!run}):

    - [lock-order]: cycle in the lock-acquisition-order graph
      ({!Lockgraph}), reported with one witness call chain per edge.
    - [blocking-in-worker]: a blocking primitive (parking [Unix] call,
      [Thread.join], [Domain.join], [Condition.wait], ...) reachable
      from a [Domain.spawn] / [Thread.create] entry point.
    - [blocking-under-lock]: a blocking primitive called — directly or
      transitively — while a [with_lock] lock is held.
      [Condition.wait] is exempt (it releases the mutex it is given).
    - [crew-core-purity]: a crew-core unit calls into [Unix] / [Sys] /
      I/O / [Random]; the d-CREW policy core takes effects only
      through its ENGINE signature.
    - [shared-mutable-escape]: a mutable field or captured ref written
      without a lock in code reachable (same unit, never under a lock)
      from a spawn entry point.
    - [top-level-lazy]: a module-level [lazy] value. Forcing one from
      two domains at once raises [CamlinternalLazy.Undefined] in OCaml
      5; build it eagerly instead.

    Four repo rules judge every unit. "Reference" means any identifier
    {!Tast_facts} records, calls and spawn targets alike, with a local
    module alias expanded and the [Stdlib.] prefix dropped:

    - [bare-mutex-lock]: a reference to [Mutex.lock] / [Mutex.unlock]
      outside [C4_runtime.Sync]; everything else goes through the
      exception-safe [Sync.with_lock].
    - [no-obj-magic]: a reference to [Obj.magic].
    - [no-stdout-print]: a reference to one of the stdout printers
      ([Printf.printf], [Format.printf], [print_endline] and the other
      [print_*]) in a library unit; libraries take an [out_channel] or
      a formatter.
    - [poly-compare-mutable]: a polymorphic [=], [<>] or [compare]
      typed at a record type that has a [mutable] field, declared in
      any loaded unit.

    The fifth repo rule, [mli-required], is a source-directory walk in
    {!Staticcheck}. Violation [message]s are line-free and
    deterministic, so [(rule, file, message)] is a stable baseline key. *)

type violation = { file : string; line : int; rule : string; message : string }

val is_blocking : string -> bool

(** Order by (file, line, rule, message). *)
val compare_violation : violation -> violation -> int

(** [is_crew_core] defaults to units named [C4_crew] / [C4_crew.*];
    [is_lib] (library code: the concurrency passes and
    [no-stdout-print] apply) defaults to a source path with a [lib]
    component. Tests override both to point at fixture units. Result is
    sorted by {!compare_violation} and deduplicated on the stable key. *)
val run :
  ?is_crew_core:(Tast_facts.unit_facts -> bool) ->
  ?is_lib:(Tast_facts.unit_facts -> bool) ->
  Tast_facts.unit_facts list -> violation list
