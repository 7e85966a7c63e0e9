let mask62 = (1 lsl 62) - 1

let mix_int key =
  let z = Int64.of_int key in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int z land mask62

let bucket_of_key ~n_buckets key = mix_int key mod n_buckets

let partition_of_bucket ~n_buckets ~n_partitions bucket =
  if n_partitions >= n_buckets then bucket mod n_partitions
  else bucket * n_partitions / n_buckets

let partition_of_key ~n_buckets ~n_partitions key =
  partition_of_bucket ~n_buckets ~n_partitions (bucket_of_key ~n_buckets key)

(* The xor constant decorrelates the node stream from the bucket stream:
   keys sharing a partition spread over all nodes and vice versa. *)
let node_of_key ~n_nodes key = mix_int (key lxor 0x5DEECE66D) mod n_nodes
