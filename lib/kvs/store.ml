module Tally = C4_obs.Tally

type entry = { key : int; mutable value : bytes }

type t = {
  buckets : entry list ref array;
  locks : Seqlock.t array;
  (* Per-partition idempotency-token sets. A token lives in its key's
     partition, so under CREW it is only ever touched by the partition's
     single writer — no extra synchronisation needed. Retention is
     bounded: [token_order] remembers arrival order and once a
     partition holds [token_capacity] tokens the oldest is evicted per
     new one, so a long-lived server's memory stays flat. The dedup
     guarantee this implies: a retry is suppressed as long as fewer
     than [token_capacity] newer tokened writes have hit its partition
     since the original applied — far beyond any client's retry
     deadline at the default capacity. *)
  applied_tokens : (int, unit) Hashtbl.t array;
  token_order : int Queue.t array;
  token_capacity : int;
  n_partitions : int;
  (* Tallies, not plain ints: readers on every domain bump the read
     counts, and each partition's writer bumps the shared write counts. *)
  count : Tally.t;
  reads_n : Tally.t;
  writes_n : Tally.t;
  retries_n : Tally.t;
  dup_writes_n : Tally.t;
  tokens_evicted_n : Tally.t;
  evicted_c : C4_obs.Registry.counter option;
}

let default_token_capacity = 8192

let create ?(n_buckets = 65536) ?(n_partitions = 1024)
    ?(token_capacity = default_token_capacity) ?registry () =
  if n_buckets <= 0 || n_partitions <= 0 || token_capacity <= 0 then
    invalid_arg "Store.create";
  {
    buckets = Array.init n_buckets (fun _ -> ref []);
    locks = Array.init n_partitions (fun _ -> Seqlock.create ());
    applied_tokens = Array.init n_partitions (fun _ -> Hashtbl.create 16);
    token_order = Array.init n_partitions (fun _ -> Queue.create ());
    token_capacity;
    n_partitions;
    count = Tally.create ();
    reads_n = Tally.create ();
    writes_n = Tally.create ();
    retries_n = Tally.create ();
    dup_writes_n = Tally.create ();
    tokens_evicted_n = Tally.create ();
    evicted_c =
      Option.map (fun reg -> C4_obs.Registry.counter reg "store.tokens_evicted") registry;
  }

let n_buckets t = Array.length t.buckets
let n_partitions t = t.n_partitions

let partition_of_key t key =
  Hash.partition_of_key ~n_buckets:(n_buckets t) ~n_partitions:t.n_partitions key

let bucket_of_key t key = Hash.bucket_of_key ~n_buckets:(n_buckets t) key

let find_entry chain key = List.find_opt (fun e -> e.key = key) chain

(* Write [value] into [entry] in place when sizes match (the common case
   for fixed-size KVS items), otherwise swap the buffer. *)
let update_entry entry value =
  if Bytes.length entry.value = Bytes.length value then
    Bytes.blit value 0 entry.value 0 (Bytes.length value)
  else entry.value <- Bytes.copy value

let set_locked t ~key ~value =
  let bucket = t.buckets.(bucket_of_key t key) in
  (match find_entry !bucket key with
  | Some entry -> update_entry entry value
  | None ->
    bucket := { key; value = Bytes.copy value } :: !bucket;
    Tally.incr t.count);
  Tally.incr t.writes_n

let set t ~key ~value =
  let lock = t.locks.(partition_of_key t key) in
  Seqlock.write_begin lock;
  set_locked t ~key ~value;
  Seqlock.write_end lock

(* Idempotent write: a retried write whose first attempt was actually
   applied (the ack was lost, not the write) must not be applied twice.
   The token set is checked and updated inside the partition's write
   section, so a duplicate can never slip between check and apply. *)
let set_idempotent t ~key ~value ~token =
  let partition = partition_of_key t key in
  let tokens = t.applied_tokens.(partition) in
  let lock = t.locks.(partition) in
  if Hashtbl.mem tokens token then begin
    Tally.incr t.dup_writes_n;
    `Duplicate
  end
  else begin
    Seqlock.write_begin lock;
    (* FIFO retention bound: make room before recording the new token,
       inside the write section so the CREW single writer sees an exact
       record at every instant. *)
    let order = t.token_order.(partition) in
    if Queue.length order >= t.token_capacity then begin
      Hashtbl.remove tokens (Queue.pop order);
      Tally.incr t.tokens_evicted_n;
      Option.iter C4_obs.Registry.incr t.evicted_c
    end;
    Hashtbl.replace tokens token ();
    Queue.push token order;
    set_locked t ~key ~value;
    Seqlock.write_end lock;
    `Applied
  end

let set_batched t ~key ~values =
  match List.rev values with
  | [] -> ()
  | final :: _earlier ->
    let lock = t.locks.(partition_of_key t key) in
    Seqlock.write_begin lock;
    (* The batch counts as one combined update: one version bump, one
       data-store write, regardless of how many writes were compacted. *)
    set_locked t ~key ~value:final;
    Seqlock.write_end lock

let get t ~key =
  let lock = t.locks.(partition_of_key t key) in
  let result, retries =
    Seqlock.read lock (fun () ->
        let bucket = t.buckets.(bucket_of_key t key) in
        match find_entry !bucket key with
        | Some entry -> Some (Bytes.copy entry.value)
        | None -> None)
  in
  Tally.incr t.reads_n;
  if retries > 0 then Tally.add t.retries_n retries;
  (result, retries)

let mem t ~key =
  let bucket = t.buckets.(bucket_of_key t key) in
  find_entry !bucket key <> None

let remove t ~key =
  let lock = t.locks.(partition_of_key t key) in
  Seqlock.write_begin lock;
  let bucket = t.buckets.(bucket_of_key t key) in
  let present = find_entry !bucket key <> None in
  if present then begin
    bucket := List.filter (fun e -> e.key <> key) !bucket;
    Tally.add t.count (-1)
  end;
  Seqlock.write_end lock;
  present

let size t = Tally.get t.count
let partition_version t ~partition = Seqlock.version t.locks.(partition)

type stats = {
  reads : int;
  writes : int;
  read_retries : int;
  duplicate_writes : int;
  tokens_evicted : int;
}

let stats t =
  {
    reads = Tally.get t.reads_n;
    writes = Tally.get t.writes_n;
    read_retries = Tally.get t.retries_n;
    duplicate_writes = Tally.get t.dup_writes_n;
    tokens_evicted = Tally.get t.tokens_evicted_n;
  }

let reset_stats t =
  List.iter Tally.reset [ t.reads_n; t.writes_n; t.retries_n; t.dup_writes_n ]
