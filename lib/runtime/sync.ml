(* The one sanctioned way to take a mutex in this repo. A bare
   [Mutex.lock]/[Mutex.unlock] pair leaks the lock if the critical
   section raises — a raising promise callback or [Queue] op inside a
   worker wedges the whole server. The analyzer rejects bare [Mutex.lock]
   outside this module. *)

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f
