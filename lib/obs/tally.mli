(** An exact event count bumped from many domains at once.

    One atomic cell per domain slot ([Domain.self] modulo the slot
    count): concurrent bumps from different domains land in different
    cells, so they rarely contend and never lose an update, and {!get}
    sums the cells. For counters on paths every serving domain runs
    (store reads, admission arrivals), where a plain [mutable int]
    loses updates and a registry mutex would serialise the domains. *)

type t

val create : unit -> t

(** Add [n] (may be negative) to the calling domain's cell. *)
val add : t -> int -> unit

val incr : t -> unit

(** Sum of every cell: exact once the bumping domains are quiescent,
    and never below any total they had completed before the call. *)
val get : t -> int

(** Zero every cell. Only exact when no domain is bumping. *)
val reset : t -> unit
