(* CLOCK_MONOTONIC, read without allocation. *)

let ns () = Int64.to_float (Monotonic_clock.now ())
let s () = ns () /. 1e9
