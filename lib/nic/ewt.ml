module Registry = C4_obs.Registry

type entry = { mutable thread : int; mutable count : int; mutable last_write : float }

type t = {
  cap : int;
  max_outstanding : int;
  table : (int, entry) Hashtbl.t;
  mutable occ_sum : int;
  mutable sample_n : int;
  mutable peak_n : int;
  hit_c : Registry.counter;
  miss_c : Registry.counter;
  insert_c : Registry.counter;
  evict_c : Registry.counter;
  reject_full_c : Registry.counter;
  reject_saturated_c : Registry.counter;
  stale_evict_c : Registry.counter;
  orphan_release_c : Registry.counter;
}

let create ?registry ?(capacity = 128) ?(max_outstanding = 64) () =
  if capacity <= 0 || max_outstanding <= 0 then invalid_arg "Ewt.create";
  (* Without a caller-supplied registry the counters live in a private
     one: instrumentation stays branch-free either way. *)
  let reg = match registry with Some r -> r | None -> Registry.create () in
  let hit_c = Registry.counter reg "ewt.hit" in
  let miss_c = Registry.counter reg "ewt.miss" in
  let insert_c = Registry.counter reg "ewt.insert" in
  let evict_c = Registry.counter reg "ewt.evict" in
  let reject_full_c = Registry.counter reg "ewt.reject_full" in
  let reject_saturated_c = Registry.counter reg "ewt.reject_saturated" in
  let stale_evict_c = Registry.counter reg "ewt.stale_evict" in
  let orphan_release_c = Registry.counter reg "ewt.orphan_release" in
  {
    cap = capacity;
    max_outstanding;
    table = Hashtbl.create capacity;
    occ_sum = 0;
    sample_n = 0;
    peak_n = 0;
    hit_c;
    miss_c;
    insert_c;
    evict_c;
    reject_full_c;
    reject_saturated_c;
    stale_evict_c;
    orphan_release_c;
  }

let capacity t = t.cap
let occupancy t = Hashtbl.length t.table

let sample t =
  let occ = occupancy t in
  t.occ_sum <- t.occ_sum + occ;
  t.sample_n <- t.sample_n + 1;
  if occ > t.peak_n then t.peak_n <- occ

let lookup t ~partition =
  match Hashtbl.find_opt t.table partition with
  | Some e ->
    Registry.incr t.hit_c;
    Some e.thread
  | None ->
    Registry.incr t.miss_c;
    None

let note_write ?(now = 0.0) t ~partition ~thread =
  match Hashtbl.find_opt t.table partition with
  | Some e ->
    if e.count >= t.max_outstanding then begin
      Registry.incr t.reject_saturated_c;
      `Counter_saturated
    end
    else begin
      e.count <- e.count + 1;
      e.last_write <- now;
      sample t;
      `Ok
    end
  | None ->
    if Hashtbl.length t.table >= t.cap then begin
      Registry.incr t.reject_full_c;
      `Full
    end
    else begin
      Hashtbl.replace t.table partition { thread; count = 1; last_write = now };
      Registry.incr t.insert_c;
      sample t;
      `Ok
    end

let note_response t ~partition =
  match Hashtbl.find_opt t.table partition with
  | None -> invalid_arg "Ewt.note_response: partition not mapped"
  | Some e ->
    e.count <- e.count - 1;
    if e.count <= 0 then begin
      Hashtbl.remove t.table partition;
      Registry.incr t.evict_c
    end;
    sample t

let try_note_response t ~partition =
  match Hashtbl.find_opt t.table partition with
  | None ->
    (* The mapping was already reclaimed (stale-evicted after a leak, or
       never created): count the orphan instead of tearing down the run. *)
    Registry.incr t.orphan_release_c;
    false
  | Some _ ->
    note_response t ~partition;
    true

let expire_stale_partitions t ~now ~ttl =
  if ttl <= 0.0 then invalid_arg "Ewt.expire_stale: ttl must be positive";
  let stale =
    Hashtbl.fold
      (fun partition e acc -> if now -. e.last_write > ttl then partition :: acc else acc)
      t.table []
  in
  let stale = List.sort compare stale in
  List.iter
    (fun partition ->
      Hashtbl.remove t.table partition;
      Registry.incr t.stale_evict_c;
      sample t)
    stale;
  stale

let expire_stale t ~now ~ttl = List.length (expire_stale_partitions t ~now ~ttl)

let move_thread t ~from_thread ~to_thread =
  Hashtbl.fold
    (fun partition e acc ->
      if e.thread = from_thread then begin
        e.thread <- to_thread;
        partition :: acc
      end
      else acc)
    t.table []
  |> List.sort Int.compare

let stale_evictions t = Registry.counter_value t.stale_evict_c
let orphan_releases t = Registry.counter_value t.orphan_release_c

let outstanding t ~partition =
  match Hashtbl.find_opt t.table partition with Some e -> e.count | None -> 0

type occupancy_stats = { average : float; peak : int; samples : int }

let occupancy_stats t =
  {
    average =
      (if t.sample_n = 0 then 0.0
       else float_of_int t.occ_sum /. float_of_int t.sample_n);
    peak = t.peak_n;
    samples = t.sample_n;
  }

let reset_stats t =
  t.occ_sum <- 0;
  t.sample_n <- 0;
  t.peak_n <- 0
