(** The concurrency-discipline passes over {!Tast_facts} fact
    bases, emitting {!Lint.violation}s:

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

    Violation [message]s are line-free and deterministic, so
    [(rule, file, message)] is a stable baseline key. *)

val all_rules : string list

val is_blocking : string -> bool

(** [is_crew_core] defaults to units named [C4_crew] / [C4_crew.*];
    tests override it to point at fixture units. Result is sorted by
    (file, line, rule, message) and deduplicated on the stable key. *)
val run :
  ?is_crew_core:(Tast_facts.unit_facts -> bool) ->
  Tast_facts.unit_facts list -> Lint.violation list
