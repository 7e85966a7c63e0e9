(* CPU time the hypervisor took from this machine while it wanted to run
   ("steal" in /proc/stat, summed over CPUs, in 10 ms ticks), sampled by
   a background thread so that each measurement window can be told how
   much of it the machine lost. On a bare-metal host, or where
   /proc/stat is unreadable, every window reads as undisturbed. *)

let period_s = 0.02

let read () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> None
  | ic ->
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    (* "cpu  user nice system idle iowait irq softirq steal ..." *)
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ -> int_of_string_opt steal
    | _ -> None

type t = {
  mutable samples : (float * int) list;  (* newest first *)
  stop : bool Atomic.t;
  lock : Mutex.t;
  mutable thread : Thread.t option;
}

let start () =
  let t = { samples = []; stop = Atomic.make false; lock = Mutex.create (); thread = None } in
  let sample () =
    match read () with
    | Some v ->
      let now = Clock.s () in
      Mutex.lock t.lock;
      t.samples <- (now, v) :: t.samples;
      Mutex.unlock t.lock
    | None -> ()
  in
  sample ();
  let loop () =
    while not (Atomic.get t.stop) do
      Thread.delay period_s;
      sample ()
    done
  in
  t.thread <- Some (Thread.create loop ());
  t

let stop t =
  Atomic.set t.stop true;
  Option.iter Thread.join t.thread

(* Steal ticks between [a] and [b] (s, on {!Clock.s}), widened to the
   samples that bracket the interval. *)
let between t a b =
  Mutex.lock t.lock;
  let s = t.samples in
  Mutex.unlock t.lock;
  let at_or_before x = List.find_opt (fun (ts, _) -> ts <= x) s in
  let first_after x = List.fold_left (fun acc (ts, v) -> if ts >= x then Some (ts, v) else acc) None s in
  match (at_or_before a, first_after b) with
  | Some (_, va), Some (_, vb) -> vb - va
  | _ -> 0
