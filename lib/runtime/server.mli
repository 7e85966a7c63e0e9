(** A real, multicore in-process KVS server: workers serving the
    {!C4_kvs.Store} under the shared d-CREW policy core
    ([C4_crew.Core]), with optional write compaction and crash
    recovery.

    Since the policy extraction this module is a {e wall-clock driver}
    around the same core the discrete-event model drives: the core
    decides (pins, routes, window opens/closes, shed levels, stale
    evictions), and this driver turns those decisions into mechanism —
    per-worker channels, completions, crash recovery. The differential
    parity test replays one recorded trace through both drivers and
    holds their decision streams equal.

    Each worker runs ops through one step function, driven one of two
    ways ({!config.worker_domains}):
    - {e worker domains} (the default): one domain per worker blocks on
      its channel — the standalone mode tests, examples and
      benchmarks use;
    - {e externally driven}: no worker domains. The caller (the TCP
      front-end's event loops, loop [i] driving worker [i]) calls
      {!run_queued} for its worker and passes [~self] on submission, so
      an op whose worker is the caller's own runs to completion inline,
      with no cross-domain hop.

    - writes are admitted through [Core.admit_write] (d-CREW): a write
      to a partition with a write outstanding rides the EWT pin to the
      pinned worker; a write to an unpinned partition pins it — at the
      caller's own worker when the caller drives one ([~self]), else at
      the durable assignment — and the pin is released when the
      partition's last outstanding write is acknowledged. Pins change
      only under the routing lock, so a partition has one writer at a
      time and the store's per-partition seqlocks, token tables and WAL
      appends never see two — the invariant the NIC enforces in C-4;
    - reads run on the calling driver ([~self]) or are sprayed across
      live workers round-robin, and run the seqlock's optimistic
      protocol against concurrent in-place updates;
    - with compaction enabled (via {!config.crew}), a worker that runs
      a write drains every queued write to the same key from its
      channel (the dependent-write harvest), runs the core's window
      lifecycle (open / absorb / close), applies ONE batched update,
      and only then answers all of them — C-4's deferred-response rule,
      so recorded histories remain linearizable, which the test suite
      verifies on real executions;
    - writes may carry an idempotency token: a retried write whose first
      attempt was applied (only the ack was lost) is detected in the
      store and NOT applied twice;
    - crash recovery (see {!inject_crash}) hands the dead worker's EWT
      pins, with their outstanding counts, and its durable partitions
      to a survivor through [Core.reassign], and requeues the dead channel's backlog on the
      survivor — no acknowledged write is lost, no partition gains a
      second writer, and the recorded
      history stays linearizable. A monitor domain does this for a dead
      worker domain and restarts it; a driven worker is recovered
      inline by its driver;
    - with a WAL configured ({!config.wal}), every mutation is appended
      to its partition's log BEFORE the ack, and the ack is routed
      through the WAL's group-commit machinery ([C4_wal.Wal.commit]) so
      fsync-gated policies acknowledge from the WAL's sync domain —
      workers never block on fsync. A compaction window's deferred
      responses form one group-commit batch (one fsync covers the whole
      window). On {!start} the log is replayed into the store before
      any worker exists; tokened records go back through
      [Store.set_idempotent], so client retries still dedup across a
      restart;
    - an op whose apply raises (a closed WAL, an I/O error) completes
      with that exception instead of leaving its caller waiting.

    On a many-core machine this is a usable (if minimal) concurrent KVS;
    on a single core it still exercises every synchronisation path via
    preemptive interleaving. *)

type t

(** Raised by every operation once {!stop} has begun (or won the race
    against an in-flight submission). Distinct from the store/channel
    [Invalid_argument]s so callers can retry-or-abandon cleanly. *)
exception Stopped

type config = {
  n_workers : int;
  n_buckets : int;
  n_partitions : int;
  crew : C4_crew.Config.t;
      (** the shared d-CREW policy configuration — the same record type
          the model server takes, so the two engines cannot drift on
          thresholds. Compaction on/off and the batch cap now live
          here. At start the EWT capacity is raised to [n_partitions]
          if smaller and its per-partition counter made unbounded: the
          runtime's table is bookkeeping, not a scarce CAM, and it
          never refuses a write (a refused write holds no pin, so it
          could run nowhere without risking a second writer) *)
  worker_domains : bool;
      (** [true] (default): spawn one domain per worker. [false]: spawn
          none — the caller drives worker [i] with {!run_queued} and
          wakes through {!set_waker}; crashes are recovered inline and
          no monitor runs *)
  recovery : bool;
      (** run the crash-monitor domain (default true; worker domains
          only) *)
  monitor_interval : float;  (** seconds between monitor sweeps *)
  clock : unit -> float;
      (** the time source fed to the policy core, in ns. Defaults to
          wall clock; the parity test injects a logical clock so both
          engines see the same timestamps *)
  on_decision : (C4_crew.Decision.t -> unit) option;
      (** called with every policy decision the core takes, in decision
          order — the differential parity test's recorder, and the
          tracing hook that stamps admission decisions onto request
          spans ([C4_obs.Span.annotate_current]: admission decisions
          fire synchronously on the submitting thread). Called with
          [route_lock] held for routing decisions; keep it cheap *)
  registry : C4_obs.Registry.t option;
      (** receives the policy core's crew.* / EWT / compaction metrics.
          Must be thread-safe when supplied (worker domains bump it);
          a private thread-safe registry is used when [None]. Share one
          registry with [C4_net.Server] and the telemetry endpoint to
          expose the whole stack in one scrape *)
  wal : C4_wal.Wal.config option;
      (** durability tier: [None] (default) keeps the in-memory-only
          behaviour; [Some cfg] opens (and, on restart, replays) a
          per-partition write-ahead log under [cfg.dir] before serving.
          [cfg.n_partitions] must equal [n_partitions] — the key→
          partition map fixes per-key replay order, so it may not drift
          across restarts of the same log directory *)
}

(** 4 worker domains, {!C4_crew.Config.queued} policy profile
    (compaction on, effectively unbounded outstanding-write counters —
    the channels provide the backpressure), recovery on, wall clock. *)
val default_config : config

(** Start the worker domains (plus the monitor when [recovery]), or
    none when [worker_domains] is [false]. *)
val start : config -> t

(** Blocking operations (thread-safe, callable from any domain). *)
val get : t -> key:int -> bytes option

val set : t -> key:int -> value:bytes -> unit

(** Remove a key (admitted like a write, since it mutates partition
    state); [true] if the key was present. *)
val delete : t -> key:int -> bool

(** Nonblocking variants returning promises (a promise whose op failed
    re-raises on await). [token] is an idempotency key: two sets
    carrying the same token apply at most once — pass the same token on
    a client retry and the duplicate is suppressed. *)
val get_async : t -> key:int -> bytes option Promise.t

val set_async : ?token:int -> t -> key:int -> value:bytes -> unit Promise.t

val delete_async : t -> key:int -> bool Promise.t

(** {2 Continuation-passing submission}

    The primitive the promise variants adapt. The completion runs
    exactly once: inline when the op ran on the calling thread, else on
    the driver that ran it (or on the WAL's sync domain, for
    fsync-gated acks), so it must be cheap and thread-safe.

    [self] names the worker the calling thread drives; only an
    externally driven runtime honours it. There, a read runs inline
    (no routing lock), and a write or delete to an unpinned partition
    pins it at [self] and runs inline; a write to a partition pinned
    at another worker (it depends on a write still outstanding there)
    is queued for that worker and its driver woken. Without [self] a
    write pins at the durable assignment. [set_k] and [delete_k]
    return the worker admission chose — the one that runs the write.
    Raises {!Stopped} once {!stop} began. *)
val get_k : ?self:int -> t -> key:int -> ((bytes option, exn) result -> unit) -> unit

val set_k :
  ?self:int -> ?token:int -> t -> key:int -> value:bytes -> ((unit, exn) result -> unit) -> int

val delete_k : ?self:int -> t -> key:int -> ((bool, exn) result -> unit) -> int

(** {2 External drivers} ([worker_domains = false]) *)

(** Run every op queued for [worker] at entry, on the calling thread,
    without blocking. Call it only from [worker]'s one driver. Raises
    [Invalid_argument] on a runtime with worker domains. *)
val run_queued : t -> worker:int -> unit

(** Install how a submitter wakes worker [w]'s driver after queueing
    for it (default: no-op). Called on the submitting thread. *)
val set_waker : t -> (int -> unit) -> unit

(** [config.worker_domains]. *)
val worker_domains : t -> bool

(** Simulated fail-stop of one worker: the worker dies between
    operations (never mid-write — acks are sent only after the store
    apply, so acknowledged writes survive by construction) and is
    recovered as described above. *)
val inject_crash : t -> worker:int -> unit

(** Park a worker: the call blocks until the worker has entered the
    gate, then returns a release closure. While parked the worker pops
    nothing, so ops submitted to it queue in its channel — the
    deterministic-replay hook the parity test uses to force a harvest
    batch. The caller MUST invoke the release before {!stop} (a parked
    worker never drains its backlog). On an externally driven runtime
    the gate parks the driver itself (e.g. a serving loop). *)
val pause_worker : t -> worker:int -> unit -> unit

val shed_level : t -> int

(** Drain queues, join the domains. Two-phase: [stop] first rejects new
    submissions (they raise {!Stopped}), then lets the still-running
    workers drain every queued backlog op before tearing the domains
    down (an externally driven runtime has its backlogs applied by
    [stop] itself, so its drivers must have stopped first) — so a front-end (e.g. [C4_net.Server]) that flushes its
    connection backlogs before calling [stop] never has an
    accepted-but-unanswered request dropped. Idempotent, and safe to
    race with in-flight operations: every promise issued before [stop]
    resolves (including the backlog of a worker that crashed in the stop
    window, which [stop] applies itself). With a WAL, [stop] finishes by
    flushing and fsyncing every partition's log and closing it — a clean
    shutdown leaves no torn tail. Concurrent [stop]s serialise; the
    loser returns after shutdown completes. *)
val stop : t -> unit

(** [true] once {!stop} has begun: submissions will raise {!Stopped}.
    Front-ends poll this to fail fast instead of catching. *)
val is_stopping : t -> bool

type stats = {
  ops_completed : int;
  writes : int;
  batches : int;  (** batched updates applied (compaction only) *)
  batched_writes : int;  (** writes answered from a batch *)
  read_retries : int;  (** seqlock retries observed by readers *)
  per_worker_ops : int array;
  recoveries : int;  (** worker crashes recovered *)
  requeued_ops : int;  (** backlog ops requeued by recoveries *)
  duplicate_writes : int;  (** tokened writes suppressed as duplicates *)
  wal_replayed : int;  (** records replayed from the WAL at {!start} *)
  tokens_evicted : int;
      (** idempotency tokens dropped by the store's FIFO retention bound *)
}

val stats : t -> stats

(** Workers currently marked alive (exposed for tests). *)
val alive_workers : t -> int

(** The worker that owns a key's partition — the core's pin-aware
    ownership view ([Core.route_owner]): the pinned worker while a
    write is outstanding, else the durable assignment. After a recovery
    this reflects the re-owned map. *)
val owner_of_key : t -> int -> int

(** {2 Client-side routing helpers}

    The key→partition mapping this server computes, exported so network
    clients can shard the memcached way: [C4_net.Client] uses
    {!C4_kvs.Hash.node_of_key} to pick an endpoint and can use these to
    reason about per-server partition placement. *)

(** The partition a key hashes to (same f() as the store and the NIC). *)
val partition_of_key : t -> int -> int

val n_partitions : t -> int
val n_workers : t -> int

(** The runtime's WAL, when {!config.wal} enabled one — exposed so the
    cluster runtime ([C4_clusterd.Member]) can install its replication
    tap ({!C4_wal.Wal.set_append_hook}) and quorum ack gate
    ({!C4_wal.Wal.set_ack_gate}) before serving traffic. Owned by the
    runtime: do not close it. *)
val wal_handle : t -> C4_wal.Wal.t option

(** Per-worker durable partition-ownership census
    ([C4_crew.Core.ownership_counts] under the routing lock, so it
    never interleaves with a recovery remap): [counts.(w)] partitions
    currently assigned to worker [w]. The health-document view of who
    owns how much — uniform at start, visibly skewed after a crash
    moves a dead worker's partitions to a survivor. *)
val ownership_counts : t -> int array
