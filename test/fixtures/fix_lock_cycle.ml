(* Seeded lock-order cycle for the analyzer tests: [ab] nests
   lock_a -> lock_b lexically; [ba] takes lock_b then calls [grab_a],
   which acquires lock_a — closing the cycle interprocedurally, so the
   report must carry a witness call chain through [grab_a]. *)
(* c4-lint: allow bare-mutex-lock — [with_lock] is a local clone *)
type t = { lock_a : Mutex.t; lock_b : Mutex.t }

let with_lock m f =
  Mutex.lock m;
  match f () with
  | v ->
    Mutex.unlock m;
    v
  | exception e ->
    Mutex.unlock m;
    raise e

let grab_a t = with_lock t.lock_a (fun () -> ())

let ab t = with_lock t.lock_a (fun () -> with_lock t.lock_b (fun () -> ()))

let ba t = with_lock t.lock_b (fun () -> grab_a t)
