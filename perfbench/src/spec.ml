(* Workload definitions, the value format every value the benchmark writes
   follows, and the request streams derived from a seed.

   Every value the benchmark writes encodes its own key and a write
   stamp, so a GET answer can be checked without knowing which of the
   concurrent writes to that key won:

     [key : 8 B LE] [stamp : 8 B LE] [filler] [key xor stamp xor magic : 8 B LE]

   A torn value (bytes from two different writes) fails the trailer
   check; a value answered for the wrong key fails the header check. *)

module Json = C4_obs.Json
module Generator = C4_workload.Generator
module Request = C4_workload.Request

type t = {
  name : string;
  theta : float;  (** Zipf skew of key popularity; 0 = uniform *)
  write_frac : float;
  rate : float;  (** open-loop offered load, ops/s *)
  n_keys : int;  (** preloaded key population: keys [0, n_keys) *)
  value_size : int;
  n_workers : int;
  n_partitions : int;
  conns : int;  (** TCP connections the load generator multiplexes *)
  depth : int;  (** closed-loop requests outstanding per connection *)
  max_inflight : int;
      (** open-loop cap on requests outstanding per connection; like
          [depth], well below the server's 1024 submitted-but-unflushed
          responses, past which it drops a connection as a slow client *)
}

let base =
  {
    name = "";
    theta = 0.0;
    write_frac = 0.5;
    rate = 25_000.0;
    n_keys = 100_000;
    value_size = 512;
    n_workers = 2;
    n_partitions = 64;
    conns = 2;
    depth = 32;
    max_inflight = 256;
  }

let all =
  [
    { base with name = "wi_uni" };
    { base with name = "rw_sk"; theta = 0.99 };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let to_json w =
  Json.Obj
    [
      ("workload", Json.Str w.name);
      ("theta", Json.Float w.theta);
      ("write_frac", Json.Float w.write_frac);
      ("open_loop_rate_ops_s", Json.Float w.rate);
      ("n_keys", Json.Int w.n_keys);
      ("value_size", Json.Int w.value_size);
      ("workers", Json.Int w.n_workers);
      ("partitions", Json.Int w.n_partitions);
      ("compaction", Json.Bool true);
      ("conns", Json.Int w.conns);
      ("closed_loop_depth_per_conn", Json.Int w.depth);
      ("open_loop_max_inflight_per_conn", Json.Int w.max_inflight);
    ]

(* ------------------------------------------------------------------ *)
(* Values *)

let magic = 0x5eedc4c4

let make_value ~size ~key ~stamp =
  let b = Bytes.make size 'v' in
  Bytes.set_int64_le b 0 (Int64.of_int key);
  Bytes.set_int64_le b 8 (Int64.of_int stamp);
  Bytes.set_int64_le b (size - 8) (Int64.of_int (key lxor stamp lxor magic));
  b

let get_int b off = Int64.to_int (Bytes.get_int64_le b off)

(* Does [b] look like a value some write to [key] produced? *)
let value_ok ~size ~key b =
  Bytes.length b = size
  && get_int b 0 = key
  && get_int b (size - 8) = key lxor get_int b 8 lxor magic

(* ------------------------------------------------------------------ *)
(* Request streams *)

type op = Get | Set

type req = {
  due_ns : float;  (** offset from the phase start (open loop only) *)
  op : op;
  key : int;
}

(* A Poisson-arrival, Zipf-keyed stream at the workload's open-loop
   rate. Distinct [salt]s give independent streams from one seed. *)
let stream w ~seed ~salt =
  let g =
    Generator.create
      {
        Generator.default with
        Generator.n_keys = w.n_keys;
        n_partitions = w.n_partitions;
        theta = w.theta;
        write_fraction = w.write_frac;
        rate = w.rate /. 1e9;
        value_size = w.value_size;
      }
      ~seed:((seed * 7919) + salt)
  in
  fun () ->
    let r = Generator.next g in
    {
      due_ns = r.Request.arrival;
      op = (if Request.is_write r then Set else Get);
      key = r.Request.key;
    }

(* Every request due within [seconds] of the phase start. *)
let schedule w ~seed ~salt ~seconds =
  let next = stream w ~seed ~salt in
  let limit = seconds *. 1e9 in
  let rec go acc =
    let r = next () in
    if r.due_ns >= limit then Array.of_list (List.rev acc) else go (r :: acc)
  in
  go []

(* [n] distinct keys for the read-after-ack check: the hottest few
   (where writes pile up under skew) plus a seeded spread of the rest. *)
let readback_keys w ~seed ~n =
  let rng = C4_dsim.Rng.create ((seed * 104729) + 17) in
  let seen = Hashtbl.create n in
  let rec pick acc k =
    if k = n then List.rev acc
    else
      let key =
        if k < n / 4 then k else C4_dsim.Rng.int rng w.n_keys
      in
      if Hashtbl.mem seen key then pick acc k
      else begin
        Hashtbl.add seen key ();
        pick (key :: acc) (k + 1)
      end
  in
  pick [] 0
