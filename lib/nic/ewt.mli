(** Exclusive Writer Table (Sec. 5.2).

    A small exact-match table (the hardware uses a CAM for the partition
    id and direct-mapped RAM for the payload) holding one entry per
    partition currently in exclusive-write mode:

    {v  partition id (30b) -> { thread id (6b); outstanding writes (6b) }  v}

    - On a write to an unmapped partition: allocate an entry, pin the
      partition to the chosen thread, count = 1.
    - On a write to a mapped partition: route to the mapped thread,
      count += 1 (saturating at [max_outstanding], after which the NIC
      must apply flow control).
    - On a write response: count -= 1; at zero the entry is freed and
      the partition becomes balanceable again.

    Occupancy statistics are first-class because the paper sizes the
    hardware from them (avg 30 / max 64 entries at f_wr = 50 %,
    avg 52 / max 90 at 85 %, Sec. 7.1.1). *)

type t

(** [create ()] builds an empty table.
    @param registry observability registry receiving the table's
    counters ([ewt.hit], [ewt.miss], [ewt.insert], [ewt.evict],
    [ewt.reject_full], [ewt.reject_saturated]); a private registry is
    used when omitted.
    @param capacity number of entries (default 128, the paper's sizing).
    @param max_outstanding per-entry write counter limit (default 64,
    the 6-bit field). *)
val create :
  ?registry:C4_obs.Registry.t -> ?capacity:int -> ?max_outstanding:int -> unit -> t

val capacity : t -> int

(** Thread currently holding [partition] exclusively, if any. O(1). *)
val lookup : t -> partition:int -> int option

(** Record the dispatch of a write to [partition] on [thread].
    [`Ok] — entry created or counter bumped;
    [`Full] — table exhausted (caller must fall back: static hash or
    flow control);
    [`Counter_saturated] — entry exists but its counter is at max.
    [now] stamps the entry for {!expire_stale} (default 0.0, i.e. no
    staleness tracking). *)
val note_write :
  ?now:float -> t -> partition:int -> thread:int -> [ `Ok | `Full | `Counter_saturated ]

(** Record a write response for [partition]; frees the entry at zero.
    Raises [Invalid_argument] if the partition has no entry (protocol
    violation). *)
val note_response : t -> partition:int -> unit

(** Tolerant {!note_response}: if the partition has no entry (its
    mapping was stale-evicted after a response leak, or never existed),
    count an [ewt.orphan_release] and return [false] instead of
    raising. *)
val try_note_response : t -> partition:int -> bool

(** Evict every entry whose last write is older than [ttl] (ns before
    [now]), returning the number evicted and counting each as
    [ewt.stale_evict]. A leaked response (a write whose completion never
    decremented the counter) would otherwise pin its partition to one
    worker forever; the sweep bounds that blast radius. Requires
    [ttl > 0]. *)
val expire_stale : t -> now:float -> ttl:float -> int

(** Like {!expire_stale} but returns the evicted partitions in
    ascending order — callers that log or act per partition (the crew
    policy core's staleness decisions) need the identities, not just
    the count. *)
val expire_stale_partitions : t -> now:float -> ttl:float -> int list

(** Re-pin every entry pinned to [from_thread] on [to_thread], keeping
    its outstanding count; returns the moved partitions (ascending).
    Crash recovery uses this: a dead worker's pins must not keep routing
    writes to its channel once its partitions are re-owned elsewhere,
    yet the writes they count still hold their partitions — now at
    [to_thread] — and their releases still find the entry. *)
val move_thread : t -> from_thread:int -> to_thread:int -> int list

(** Total stale evictions / orphan releases so far. *)
val stale_evictions : t -> int

val orphan_releases : t -> int

(** Live entries. *)
val occupancy : t -> int

(** Outstanding-write count for a mapped partition. *)
val outstanding : t -> partition:int -> int

(** Occupancy sampled at every mutation: time-average and peak. *)
type occupancy_stats = { average : float; peak : int; samples : int }

val occupancy_stats : t -> occupancy_stats
val reset_stats : t -> unit
