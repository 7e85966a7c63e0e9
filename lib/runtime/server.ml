module Store = C4_kvs.Store
module Crew_config = C4_crew.Config
module Core = C4_crew.Core
module Registry = C4_obs.Registry
module Wal = C4_wal.Wal
module Record = C4_wal.Record

exception Stopped

(* Poison value used by [inject_crash]: popping it kills the worker loop
   mid-stream, as an abrupt domain death would, except between (not
   inside) store operations — OCaml gives us no way to kill a domain
   mid-instruction, and the store's seqlock would be irrecoverable if we
   could. Acknowledged writes are still the interesting invariant: an
   ack is only sent after the store apply, so a crash never loses one. *)
exception Crash_injected

(* A completion: called exactly once, with the result after the store
   apply (and, with a WAL, after the append and the durability policy),
   or with the exception that made the apply fail. *)
type 'a k = ('a, exn) result -> unit

type op =
  | Get of int * bytes option k
  | Set of int * bytes * int option * unit k  (** key, value, idempotency token *)
  | Delete of int * bool k
  | Gate of unit Promise.t * unit Promise.t
      (** park the worker: fulfil [entered], block on [release] —
          deterministic-replay support (see [pause_worker]) *)
  | Crash

(* The counters are bumped only by the worker's driver (its domain, or
   the event loop driving it), so they need no lock; [stats] reads them
   from other domains, which can lag but never loses an update. *)
type worker_state = {
  id : int;
  channel : op Channel.t;
  alive : bool Atomic.t;
  mutable domain : unit Domain.t option;
  mutable ops : int;
  mutable writes_n : int;
  mutable batches : int;
  mutable batched_writes : int;
  mutable retries : int;
  mutable dups : int;
}

type config = {
  n_workers : int;
  n_buckets : int;
  n_partitions : int;
  crew : Crew_config.t;
  worker_domains : bool;
  recovery : bool;
  monitor_interval : float;
  clock : unit -> float;
  on_decision : (C4_crew.Decision.t -> unit) option;
  registry : Registry.t option;
  wal : Wal.config option;
}

let default_config =
  {
    n_workers = 4;
    n_buckets = 4096;
    n_partitions = 256;
    crew = Crew_config.queued;
    worker_domains = true;
    recovery = true;
    monitor_interval = 0.0005;
    (* ns, to match the policy core's time unit across both engines *)
    clock = (fun () -> Unix.gettimeofday () *. 1e9);
    on_decision = None;
    registry = None;
    wal = None;
  }

(* The multicore driver around the crew policy core (the runtime's half
   of the {!C4_crew.Core.ENGINE} contract): the core decides, drivers
   and channels execute. All core transitions that touch shared routing
   state (admission, releases, recovery remaps) run under
   [route_lock]; per-worker window transitions are worker-private and
   rely on the thread-safe registry for their counters. *)
type t = {
  cfg : config;
  store : Store.t;
  workers : worker_state array;
  core : Core.t;
  (* Routing state — the core's ownership view, the reader cursor, and
     every channel push — is guarded by [route_lock], so a recovery that
     remaps ownership can never race a producer pushing along a stale
     route (the classic two-writers-after-failover bug). *)
  route_lock : Mutex.t;
  mutable next_reader : int;
  (* Externally driven workers: how a producer wakes the driver of a
     worker whose channel it just pushed to. Worker domains block in
     [Channel.pop] and need no waker. *)
  waker : (int -> unit) Atomic.t;
  stopped : bool Atomic.t;
  stop_lock : Mutex.t;
  mutable monitor : unit Domain.t option;
  mutable recoveries_n : int;
  mutable requeued_n : int;
  (* Durability tier: [None] keeps the pre-WAL behaviour (everything
     dies with the process). With a WAL, every mutation is appended
     BEFORE its completion runs, and the completion itself is routed
     through [Wal.commit] so an ack can additionally wait for the
     group-commit fsync — on the WAL's sync domain, never a worker. *)
  wal : Wal.t option;
  wal_replayed_n : int;
}

let owner_of_key t key =
  Sync.with_lock t.route_lock (fun () ->
      Core.route_owner t.core ~partition:(Store.partition_of_key t.store key))

(* The write's response left: hand the release to the policy core; the
   partition's last release unpins it. Every write holds its pin until
   here (nothing sweeps the runtime's pins, and recovery moves them
   rather than evicting), so a missing pin would be a protocol bug; it
   is counted as an orphan ([~strict:false]) rather than allowed to
   kill the driver. *)
let release_write t key =
  Sync.with_lock t.route_lock (fun () ->
      Core.write_done ~strict:false t.core
        ~partition:(Store.partition_of_key t.store key))

(* Append a mutation to its partition's log (when a WAL is configured),
   on the worker, before any acknowledgement exists. *)
let log t ~key op =
  match t.wal with
  | None -> ()
  | Some wal -> ignore (Wal.append wal ~partition:(Store.partition_of_key t.store key) ~op)

(* Route [ack] — the release + completion step — through the durability
   policy: inline without a WAL, through [Wal.commit] with one, so
   fsync-gated policies complete from the WAL's sync domain after the
   group commit. [group] marks a compaction-window close (the window's
   deferred responses are the natural group-commit batch). *)
let ack t ~key ~group f =
  match t.wal with
  | None -> f ()
  | Some wal -> Wal.commit wal ~partition:(Store.partition_of_key t.store key) ~group f

(* A mutation that raised before its ack existed (a closed WAL, an I/O
   error) fails its completion instead of leaving the caller waiting
   forever, and still releases its admission. *)
let fail_write t key (k : _ k) e =
  release_write t key;
  k (Error e)

(* Only token-free writes are harvested into a compaction batch: a
   tokened (retried) write must go through [Store.set_idempotent]'s
   check-and-record, which a combined batched update would bypass. *)
let is_plain_set_to key = function
  | Set (k, _, None, _) -> k = key
  | Set _ | Get _ | Delete _ | Gate _ | Crash -> false

let count (w : worker_state) ~writes n =
  w.ops <- w.ops + n;
  if writes then w.writes_n <- w.writes_n + n

let apply_set t (w : worker_state) key value token (k : unit k) =
  match
    let applied =
      match token with
      | None ->
        Store.set t.store ~key ~value;
        true
      | Some token -> (
        match Store.set_idempotent t.store ~key ~value ~token with
        | `Applied -> true
        | `Duplicate ->
          w.dups <- w.dups + 1;
          false)
    in
    count w ~writes:true 1;
    (* A suppressed duplicate logs nothing: its original is in the log. *)
    if applied then log t ~key (Record.Set { key; value; token })
  with
  | () ->
    ack t ~key ~group:false (fun () ->
        release_write t key;
        k (Ok ()))
  | exception e -> fail_write t key k e

(* Every queued plain write to [key], harvested from [w]'s channel and
   bounded by the core's batch cap. *)
let harvest t (w : worker_state) key =
  let dependents = Channel.drain_matching w.channel ~f:(is_plain_set_to key) in
  let max_batch = Core.max_batch t.core in
  let dependents =
    if List.length dependents > max_batch - 1 then begin
      (* Put the overflow back in order; rare, but the window must stay
         bounded. If the channel closed under us (shutdown), fold the
         stragglers into this batch instead of losing their
         completions. *)
      let keep = List.filteri (fun i _ -> i < max_batch - 1) dependents
      and overflow = List.filteri (fun i _ -> i >= max_batch - 1) dependents in
      keep @ List.filter (fun op -> not (Channel.try_push w.channel op)) overflow
    end
    else dependents
  in
  List.map
    (function
      | Set (_, v, _, k) -> (v, k)
      | Get _ | Delete _ | Gate _ | Crash -> assert false)
    dependents

(* The harvest found dependent writes: a compaction window in core
   terms. Wall-clock engines hold no SLO budget, so the window's deadline
   is "now" and it closes as soon as the harvest is absorbed — the
   adaptive-close limit of the model's policy (the queue IS empty: we
   just drained it). One batched update, then the deferred responses:
   nothing is acknowledged before the combined update hit the store,
   nothing released before the window closed (nor, with a WAL, before
   the group commit). *)
let apply_window t (w : worker_state) key (writes : (bytes * unit k) list) =
  let now = t.cfg.clock () in
  ignore (Core.open_window t.core ~worker:w.id ~key ~now ~arrival:now ~mean_service:0.0);
  List.iteri (fun i _ -> Core.absorb t.core ~worker:w.id ~key ~id:i ~now) writes;
  let values = List.map fst writes in
  let outcome =
    match
      Store.set_batched t.store ~key ~values;
      (* Every absorbed write is logged individually: replay re-applies
         them in order and converges on the same final value the
         combined update produced. *)
      List.iter (fun value -> log t ~key (Record.Set { key; value; token = None })) values
    with
    | () -> Ok ()
    | exception e -> Error e
  in
  ignore (Core.close_window t.core ~worker:w.id ~now:(t.cfg.clock ()));
  match outcome with
  | Error e -> List.iter (fun (_, k) -> fail_write t key k e) writes
  | Ok () ->
    let n = List.length values in
    count w ~writes:true n;
    w.batches <- w.batches + 1;
    w.batched_writes <- w.batched_writes + n;
    (* The window's deferred responses form ONE group-commit batch. *)
    ack t ~key ~group:true (fun () ->
        List.iter
          (fun (_, k) ->
            release_write t key;
            k (Ok ()))
          writes)

let wake_all t = Array.iter (fun w -> (Atomic.get t.waker) w.id) t.workers

(* ---------------- crash recovery ---------------- *)

(* Called with [route_lock] HELD and producers therefore blocked, once
   the dead worker provably runs no more store operations. Move its EWT
   pins (with their counts) and durable partitions to a survivor
   through the core, then requeue its backlog on the survivor: every
   queued write is counted by a pin that now lives there, so no second
   writer can be pinned beside it. Ownership stays with the
   survivor — handing partitions back would reopen the stale-route
   window; the restarted worker rejoins as read capacity and as a
   future failover target. *)
let remap_locked t (w : worker_state) =
  let survivor =
    let rec find i =
      if i >= t.cfg.n_workers then w.id
      else if i <> w.id && Atomic.get t.workers.(i).alive then i
      else find (i + 1)
    in
    find 0
  in
  ignore (Core.reassign t.core ~from_worker:w.id ~to_worker:survivor);
  List.iter
    (function
      | Crash ->
        (* A queued crash targeted the worker that already died; do not
           let it chase the backlog onto the survivor. *)
        ()
      | (Get _ | Gate _ | Set _ | Delete _) as op ->
        ignore (Channel.try_push t.workers.(survivor).channel op);
        t.requeued_n <- t.requeued_n + 1)
    (Channel.drain_matching w.channel ~f:(fun _ -> true));
  t.recoveries_n <- t.recoveries_n + 1

(* ---------------- the worker step ---------------- *)

(* Run one popped op to completion: CREW writes for owned partitions,
   reads, and the compaction fast path — a plain write harvests every
   queued write to the same key and drives the core's window lifecycle
   (see [apply_window]). The one body both drivers share: the blocking
   [worker_loop] of a worker domain, and [run_queued] on an event loop
   that drives the worker. A Crash kills a worker domain (the monitor
   recovers it); a driven worker cannot die, so its driver recovers it
   inline — the same remap and requeue, minus the join and respawn. *)
let step t (w : worker_state) op =
  match op with
  | Crash ->
    if t.cfg.worker_domains then raise Crash_injected;
    Sync.with_lock t.route_lock (fun () ->
        if not (Atomic.get t.stopped) then remap_locked t w);
    wake_all t
  | Gate (entered, release) ->
    Promise.fulfil entered ();
    Promise.await release
  | Get (key, k) ->
    let value, retries = Store.get t.store ~key in
    w.retries <- w.retries + retries;
    count w ~writes:false 1;
    k (Ok value)
  | Delete (key, k) -> (
    match
      let present = Store.remove t.store ~key in
      count w ~writes:true 1;
      log t ~key (Record.Delete { key });
      present
    with
    | present ->
      ack t ~key ~group:false (fun () ->
          release_write t key;
          k (Ok present))
    | exception e -> fail_write t key k e)
  | Set (key, value, None, k) when Core.compaction_enabled t.core -> (
    match harvest t w key with
    | [] -> apply_set t w key value None k
    | dependents -> apply_window t w key ((value, k) :: dependents))
  | Set (key, value, token, k) -> apply_set t w key value token k

(* The standalone driver: a worker domain blocks on its channel. *)
let rec worker_loop t (w : worker_state) =
  match Channel.pop w.channel with
  | None -> ()
  | Some op ->
    step t w op;
    worker_loop t w

(* Run [worker_loop] and always publish death through [alive] — the
   signal the monitor (crash) and [stop] (clean exit, ignored because
   [stopped] is set first) both read. Any exception counts as a death:
   a worker that died silently while marked alive would strand every
   op routed to it. *)
let run_worker t (w : worker_state) () =
  (try worker_loop t w with _ -> ());
  Atomic.set w.alive false

let spawn_worker t w =
  Atomic.set w.alive true;
  w.domain <- Some (Domain.spawn (run_worker t w))

let run_queued t ~worker =
  if t.cfg.worker_domains then invalid_arg "Server.run_queued: worker domains drive themselves";
  let w = t.workers.(worker) in
  (* Bounded by the backlog at entry, so producers that keep pushing
     cannot starve the driver's other work. *)
  for _ = 1 to Channel.length w.channel do
    match Channel.try_pop w.channel with Some op -> step t w op | None -> ()
  done

let set_waker t f = Atomic.set t.waker f

(* The crash monitor of worker domains: join a dead worker's domain (so
   the old writer provably runs no more store operations), remap and
   requeue, and restart it — all under [route_lock], producers blocked. *)
let rec monitor_loop t =
  if not (Atomic.get t.stopped) then begin
    Array.iter
      (fun w ->
        if not (Atomic.get w.alive) then
          Sync.with_lock t.route_lock (fun () ->
              (* Re-check under the lock: [stop] may have won the race, in
                 which case it owns the backlog (see [stop]'s final drain). *)
              if (not (Atomic.get t.stopped)) && not (Atomic.get w.alive) then begin
                Option.iter Domain.join w.domain;
                w.domain <- None;
                remap_locked t w;
                spawn_worker t w
              end))
      t.workers;
    Unix.sleepf t.cfg.monitor_interval;
    monitor_loop t
  end

(* ---------------- lifecycle ---------------- *)

let start cfg =
  if cfg.n_workers < 1 then invalid_arg "Server.start: n_workers";
  let registry =
    (* A caller-supplied registry must be thread-safe (workers on
       several domains bump the crew counters); the private fallback
       always is. Sharing one registry with the network front-end is
       what lets a single telemetry scrape expose crew.*, wal.* and
       net.* metrics together. *)
    match cfg.registry with
    | Some r -> r
    | None -> Registry.create ~thread_safe:true ()
  in
  let store =
    Store.create ~n_buckets:cfg.n_buckets ~n_partitions:cfg.n_partitions ~registry ()
  in
  (* Durability: open (and recover) the WAL before any worker exists.
     Replay is single-threaded here, so it trivially satisfies CREW;
     records carrying an idempotency token go back through
     [Store.set_idempotent], re-installing the token so a client retry
     of a persisted-but-unacked write is still suppressed after the
     restart. Serving counters are reset afterwards so replay traffic
     never pollutes them. *)
  let wal, wal_replayed =
    match cfg.wal with
    | None -> (None, 0)
    | Some wcfg ->
      if wcfg.Wal.n_partitions <> cfg.n_partitions then
        invalid_arg "Server.start: wal.n_partitions must match n_partitions";
      let replay ~partition:_ (r : Record.t) =
        match r.Record.op with
        | Record.Set { key; value; token = None } -> Store.set store ~key ~value
        | Record.Set { key; value; token = Some token } ->
          ignore (Store.set_idempotent store ~key ~value ~token)
        | Record.Delete { key } -> ignore (Store.remove store ~key)
      in
      let w, rstats = Wal.open_ ~registry ~replay wcfg in
      Store.reset_stats store;
      (Some w, rstats.Wal.replayed)
  in
  let workers =
    Array.init cfg.n_workers (fun id ->
        {
          id;
          channel = Channel.create ();
          alive = Atomic.make (not cfg.worker_domains);
          domain = None;
          ops = 0;
          writes_n = 0;
          batches = 0;
          batched_writes = 0;
          retries = 0;
          dups = 0;
        })
  in
  (* The model's EWT is a scarce CAM; the runtime's is bookkeeping (its
     channels hold the backlog), so size it to never refuse: a slot for
     every partition and an unbounded counter. A refused write could
     run nowhere safely — see [pick_writer]. *)
  let crew_cfg =
    {
      cfg.crew with
      Crew_config.ewt_capacity =
        max cfg.crew.Crew_config.ewt_capacity cfg.n_partitions;
      ewt_max_outstanding = max_int;
    }
  in
  let core =
    Core.create ~registry ?on_decision:cfg.on_decision
      ~cfg:crew_cfg ~n_workers:cfg.n_workers ~n_partitions:cfg.n_partitions ()
  in
  let t =
    {
      cfg;
      store;
      workers;
      core;
      route_lock = Mutex.create ();
      next_reader = 0;
      waker = Atomic.make ignore;
      stopped = Atomic.make false;
      stop_lock = Mutex.create ();
      monitor = None;
      recoveries_n = 0;
      requeued_n = 0;
      wal;
      wal_replayed_n = wal_replayed;
    }
  in
  if cfg.worker_domains then begin
    Array.iter (fun w -> spawn_worker t w) workers;
    if cfg.recovery then t.monitor <- Some (Domain.spawn (fun () -> monitor_loop t))
  end;
  t

(* d-CREW admission through the policy core. A partition with a write
   outstanding is pinned: the new write depends on that one and rides
   the pin to its worker. An unpinned partition is pinned by this
   write — at the caller's own worker when the caller drives one
   ([self], an event loop), so the write runs where it was decoded; at
   the durable assignment otherwise ([`Static]). The runtime's channels
   do their own queue accounting, so no JBSQ charge.

   [start] sizes the EWT to never refuse. A refused write holds no
   credit, so wherever it ran it would not hold its partition: once the
   pin's counted writes released, admission could pin a second writer
   while it still waited (the crew-dynamic-pin model finds this for a
   reject routed to the pin's worker and to the fixed owner alike). *)
let pick_writer t key ~self =
  let partition = Store.partition_of_key t.store key in
  Core.note_arrival t.core;
  let pick = if self >= 0 then `Worker self else `Static in
  match
    Core.admit_write t.core ~charge:false ~partition ~now:(t.cfg.clock ()) ~pick
  with
  | Core.Admitted { worker; _ } -> worker
  | Core.Rejected _ | Core.No_slot -> assert false

(* Round-robin over live workers; if none is live (every worker crashed
   at once, pre-recovery) any channel works — the monitor requeues. Read
   spray is engine mechanism, not a policy decision: the model balances
   reads through JBSQ slots, the runtime through this cursor. *)
let pick_reader t ~self:_ =
  Core.note_arrival t.core;
  let n = t.cfg.n_workers in
  let rec find i tries =
    if tries = 0 then i
    else if Atomic.get t.workers.(i).alive then i
    else find ((i + 1) mod n) (tries - 1)
  in
  let r = find t.next_reader n in
  t.next_reader <- (r + 1) mod n;
  r

(* The worker the caller drives, when it drives one: only externally
   driven runtimes honour [self]. *)
let driven_by t self =
  match self with
  | Some w when not t.cfg.worker_domains ->
    if w < 0 || w >= t.cfg.n_workers then invalid_arg "Server: self";
    Some t.workers.(w)
  | Some _ | None -> None

(* Route + push as one atomic step under [route_lock], so a recovery can
   never interleave between the routing decision and the push. [pick]
   gets the worker the caller drives ([-1] for none). When the chosen
   worker is that one, the op instead runs to completion right here,
   after the lock is released. Returns the chosen worker. [try_push]
   maps a closed channel (stop won the race) to [Stopped] rather than a
   raw [Invalid_argument] escaping from the channel layer. *)
let submit t ?self pick op =
  let self = match driven_by t self with Some w -> w.id | None -> -1 in
  let target =
    Sync.with_lock t.route_lock (fun () ->
        if Atomic.get t.stopped then None
        else
          let dst = pick ~self in
          if Int.equal dst self then Some (`Here dst)
          else if Channel.try_push t.workers.(dst).channel op then Some (`Queued dst)
          else None)
  in
  match target with
  | None -> raise Stopped
  | Some (`Here dst) ->
    step t t.workers.(dst) op;
    dst
  | Some (`Queued dst) ->
    (Atomic.get t.waker) dst;
    dst

(* Reads on a driver run inline: [Store.get] is a seqlock reader, safe on
   any domain beside the partition's writer, and the arrival count is a
   lock-free tally — so a driven read takes no [route_lock]. *)
let get_k ?self t ~key k =
  match driven_by t self with
  | Some w ->
    if Atomic.get t.stopped then raise Stopped;
    Core.note_arrival t.core;
    step t w (Get (key, k))
  | None -> ignore (submit t (pick_reader t) (Get (key, k)))

(* CREW: only the partition's pinned worker writes it. *)
let set_k ?self ?token t ~key ~value k =
  submit t ?self (pick_writer t key) (Set (key, value, token, k))

(* Deletes mutate the partition, so CREW admits them like writes. *)
let delete_k ?self t ~key k = submit t ?self (pick_writer t key) (Delete (key, k))

let promise_k p = function Ok v -> Promise.fulfil p v | Error e -> Promise.fail p e

let async f =
  let p = Promise.create () in
  ignore (f (promise_k p));
  p

let get_async t ~key = async (get_k t ~key)
let set_async ?token t ~key ~value = async (set_k ?token t ~key ~value)
let delete_async t ~key = async (delete_k t ~key)
let get t ~key = Promise.await (get_async t ~key)
let set t ~key ~value = Promise.await (set_async t ~key ~value)
let delete t ~key = Promise.await (delete_async t ~key)

let inject_crash t ~worker =
  if worker < 0 || worker >= t.cfg.n_workers then invalid_arg "Server.inject_crash";
  ignore (submit t (fun ~self:_ -> worker) Crash)

let pause_worker t ~worker =
  if worker < 0 || worker >= t.cfg.n_workers then invalid_arg "Server.pause_worker";
  let entered = Promise.create () in
  let release = Promise.create () in
  ignore (submit t (fun ~self:_ -> worker) (Gate (entered, release)));
  Promise.await entered;
  fun () -> Promise.fulfil release ()

let shed_level t = Core.shed_level t.core
let is_stopping t = Atomic.get t.stopped

(* Phase 2 of [stop] for worker domains: with new submissions already
   rejected, wait for the still-running workers to drain their queued
   backlogs before any channel is closed. A dead worker's backlog cannot
   drain (the monitor skips recovery once [stopped] is set), so it is
   excluded here and applied by [stop]'s final sweep. *)
let await_backlogs_drained t =
  let drained () =
    Array.for_all
      (fun w -> Channel.length w.channel = 0 || not (Atomic.get w.alive))
      t.workers
  in
  while not (drained ()) do
    Domain.cpu_relax ()
  done

let stop t =
  (* [stop_lock] serialises concurrent stops end-to-end: the loser
     blocks until the winner has fully shut down, then returns. *)
  Sync.with_lock t.stop_lock (fun () ->
      if not (Atomic.get t.stopped) then begin
        Atomic.set t.stopped true;
        (* Reject-new is now in force; worker domains drain in-flight
           backlogs while still up, then tear down. Driven workers have
           no driver left by contract, so their backlogs all fall to the
           final sweep. *)
        if t.cfg.worker_domains then await_backlogs_drained t;
        (* Taking route_lock serialises with any in-flight recovery, so
           the domain handles we join below are final. *)
        Sync.with_lock t.route_lock (fun () ->
            Array.iter (fun w -> Channel.close w.channel) t.workers);
        Array.iter (fun w -> Option.iter Domain.join w.domain) t.workers;
        Option.iter Domain.join t.monitor;
        t.monitor <- None;
        (* Every completion issued before [stop] must still run: apply
           the leftovers here — a worker that crashed in the stop window,
           or a driven worker's backlog. This is the only thread left, so
           CREW holds trivially; a crash has no one left to kill and a
           gate no worker left to park. *)
        Array.iter
          (fun w ->
            List.iter
              (function
                | Crash -> ()
                | Gate (entered, _) ->
                  if Promise.peek entered = None then Promise.fulfil entered ()
                | (Get _ | Set _ | Delete _) as op -> step t w op)
              (Channel.drain_matching w.channel ~f:(fun _ -> true)))
          t.workers;
        (* Durability epilogue: drain the sync domain's pending acks,
           fsync every partition, close the segment fds. After this a
           restart replays the full log with no torn tail. *)
        Option.iter Wal.close t.wal
      end)

(* ---------------- stats ---------------- *)

type stats = {
  ops_completed : int;
  writes : int;
  batches : int;
  batched_writes : int;
  read_retries : int;
  per_worker_ops : int array;
  recoveries : int;
  requeued_ops : int;
  duplicate_writes : int;
  wal_replayed : int;
  tokens_evicted : int;
}

let stats t =
  let sum f = Array.fold_left (fun acc w -> acc + f w) 0 t.workers in
  let recoveries, requeued_ops =
    Sync.with_lock t.route_lock (fun () -> (t.recoveries_n, t.requeued_n))
  in
  {
    ops_completed = sum (fun w -> w.ops);
    writes = sum (fun w -> w.writes_n);
    batches = sum (fun w -> w.batches);
    batched_writes = sum (fun w -> w.batched_writes);
    read_retries = sum (fun w -> w.retries);
    per_worker_ops = Array.map (fun w -> w.ops) t.workers;
    recoveries;
    requeued_ops;
    duplicate_writes = sum (fun w -> w.dups);
    wal_replayed = t.wal_replayed_n;
    tokens_evicted = (Store.stats t.store).Store.tokens_evicted;
  }

let alive_workers t =
  Array.fold_left (fun acc w -> if Atomic.get w.alive then acc + 1 else acc) 0 t.workers

let partition_of_key t key = Store.partition_of_key t.store key
let n_partitions t = t.cfg.n_partitions
let n_workers t = t.cfg.n_workers
let worker_domains t = t.cfg.worker_domains
let wal_handle t = t.wal

let ownership_counts t =
  Sync.with_lock t.route_lock (fun () -> Core.ownership_counts t.core)
