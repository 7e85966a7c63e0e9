(* Latency bookkeeping: growable sample sets, exact quantiles, and the
   open-loop accounting rule.

   Open loop: a request is timed from when it was {e due}, not from
   when the generator got round to sending it. If the generator (or a
   stalled server that backs up the socket) delays a send, that delay
   is the wait a real user arriving on schedule would see, so it counts
   in the latency; how late the generator itself ran is reported
   separately as lateness. Timing from the send instead is coordinated
   omission: a stall then hides behind the requests it delayed. *)

type samples = { mutable a : float array; mutable n : int }

let samples () = { a = Array.make 1024 0.0; n = 0 }

let add s v =
  if s.n = Array.length s.a then begin
    let a = Array.make (2 * s.n) 0.0 in
    Array.blit s.a 0 a 0 s.n;
    s.a <- a
  end;
  s.a.(s.n) <- v;
  s.n <- s.n + 1

let sorted s =
  let a = Array.sub s.a 0 s.n in
  Array.sort Float.compare a;
  a

(* Nearest-rank quantile of a sorted array; nan when empty. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let r = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) r))

let quantile s q = quantile_sorted (sorted s) q

let median_of l =
  match List.filter (fun x -> not (Float.is_nan x)) l with
  | [] -> Float.nan
  | l -> quantile_sorted (Array.of_list (List.sort Float.compare l)) 0.5

(* Samples split into consecutive time windows of the phase. A tail
   percentile reported as the median over windows is steadier than one
   taken over the whole phase: one multi-millisecond stall moves one
   window's p99, not the reported figure. *)
type windowed = { width_ns : float; wins : samples array }

let windowed ~seconds ~windows =
  {
    width_ns = seconds *. 1e9 /. float_of_int windows;
    wins = Array.init windows (fun _ -> samples ());
  }

(* [at_ns] is the sample's offset from the phase start. *)
let add_at w ~at_ns v =
  let i = int_of_float (at_ns /. w.width_ns) in
  add w.wins.(max 0 (min (Array.length w.wins - 1) i)) v

(* Median over windows of each window's [q] quantile. *)
let windowed_quantile w q =
  median_of (Array.to_list (Array.map (fun s -> quantile s q) w.wins))

(* Median over windows of the samples per second. *)
let windowed_rate w =
  median_of
    (Array.to_list (Array.map (fun s -> float_of_int s.n /. (w.width_ns /. 1e9)) w.wins))

(* The windows whose [disturbance] is at most the median window's: on a
   machine that loses CPU time to its hypervisor in bursts, the windows
   the machine was not robbed in. At least half of the windows stay. *)
let calmest w ~disturbance =
  let n = Array.length w.wins in
  let d = Array.init n disturbance in
  let sorted = Array.copy d in
  Array.sort compare sorted;
  let cut = if n = 0 then 0 else sorted.((n - 1) / 2) in
  let keep = List.filter (fun i -> d.(i) <= cut) (List.init n Fun.id) in
  { w with wins = Array.of_list (List.map (fun i -> w.wins.(i)) keep) }

(* One open-loop completion, all times in ns on one clock: latency is
   due-to-response, lateness is due-to-send. *)
let open_loop_sample ~due ~sent ~recv = (recv -. due, sent -. due)
