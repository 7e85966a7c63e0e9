let slots = 16

type t = int Atomic.t array

let create () = Array.init slots (fun _ -> Atomic.make 0)

let add t n =
  ignore (Atomic.fetch_and_add t.((Domain.self () :> int) land (slots - 1)) n)

let incr t = add t 1
let get t = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 t
let reset t = Array.iter (fun c -> Atomic.set c 0) t
