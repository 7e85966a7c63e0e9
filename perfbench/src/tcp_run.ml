(* The end-to-end run: the server as a child process, driven over TCP.

   The run is split over [instances] server processes, one after the
   other, and each gets the same sequence:

   1. Set-up: spawn the server, preload every key, and time
      spawn-to-last-ack.
   2. Open loop: Poisson arrivals at the workload's rate, each request
      timed from its due time (see {!Account}).
   3. Closed loop: [depth] requests outstanding per connection; the
      completion rate after a short warm-up is the peak throughput.
   4. Read-after-ack on a sample of keys.

   Both load phases are cut into short windows, pooled over the
   instances, and rates and percentiles are reported as medians over
   windows. On a small virtual machine one server process can land in a
   slow state for its whole life, and the hypervisor takes CPU time in
   bursts (steal) that stall every thread at once; medians over windows
   from several processes, taken over the windows that lost the least
   CPU time to steal ({!Steal}, {!Account.calmest}), keep neither from
   owning the reported figure. Each process also times one set-up, and
   [setup_s] is their median.

   Each server is scraped after its preload and after its closed loop;
   per-layer ratios come from the summed differences. *)

let instances = 6

(* Target window width for both load phases (s). *)
let window_s = 0.25

type phase_times = { open_s : float; closed_s : float; warmup_s : float }

(* Per instance: 60% open loop, 40% closed loop (incl. warm-up). *)
let phase_times ~seconds =
  let per = seconds /. float_of_int instances in
  let open_s = 0.6 *. per in
  let closed_s = per -. open_s in
  { open_s; closed_s; warmup_s = Float.min 0.25 (0.2 *. closed_s) }

let windows seconds = max 1 (int_of_float (Float.round (seconds /. window_s)))

type result = {
  setup_s : float list;
  (* open loop, µs, windowed by due time *)
  get_lat : Account.windowed;
  set_lat : Account.windowed;
  late : Account.samples;
  server : Account.samples;
  outside : Account.samples;
  (* closed loop, µs, windowed by completion time *)
  peak_lat : Account.windowed;
  open_steal : int array;  (* steal ticks per open-loop window *)
  closed_steal : int array;  (* ... per closed-loop window *)
  rss_mib : float list;
  deltas : (string -> float) list;  (* per instance: preload -> end *)
  attempted : int;
  failures : (string * int) list;
  failed : int;
}

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

let run ~server ~(spec : Spec.t) ~seed ~seconds =
  let pt = phase_times ~seconds in
  let now = Clock.s in
  let preload_deadline = 15.0 and drain_s = 5.0 in
  (* measured seconds per instance, and windows per instance *)
  let open_m = pt.open_s and closed_m = pt.closed_s -. pt.warmup_s in
  let open_w = windows open_m and closed_w = windows closed_m in
  let pooled m w =
    Account.windowed ~seconds:(m *. float_of_int instances) ~windows:(w * instances)
  in
  let get_lat = pooled open_m open_w and set_lat = pooled open_m open_w in
  let peak_lat = pooled closed_m closed_w in
  let late = Account.samples () and server_t = Account.samples () in
  let outside = Account.samples () in
  let attempted = ref 0 in
  let failed = Array.make (List.length Load.reasons) 0 in
  (* each instance's first open-loop and first measured closed-loop
     window start (s) *)
  let open_at = Array.make instances 0.0 and closed_at = Array.make instances 0.0 in
  let steal = Steal.start () in
  let one i =
    let t0 = now () in
    let child = Child.spawn ~server ~spec ~timeout:20.0 in
    Fun.protect ~finally:(fun () -> Child.kill child) @@ fun () ->
    let drv =
      Load.connect ~port:child.Child.port ~conns:spec.Spec.conns
        ~value_size:spec.Spec.value_size
    in
    Fun.protect
      ~finally:(fun () ->
        Load.close drv;
        attempted := !attempted + Load.attempted drv;
        List.iteri (fun k (_, n) -> failed.(k) <- failed.(k) + n) (Load.failures drv))
    @@ fun () ->
    (* A stalled preload is a result, not an abort: its requests fail
       at the deadline and the phases still run. *)
    Load.preload drv ~n_keys:spec.Spec.n_keys ~depth:spec.Spec.depth
      ~deadline:(t0 +. preload_deadline);
    let setup = now () -. t0 in
    log "perfbench: server %d set up in %.3f s (%d failed)" (i + 1) setup
      (Load.failed_total drv);
    let scrape () = Scrape.metrics ~port:child.Child.telemetry_port in
    let s_pre = scrape () in
    (* Open loop *)
    let offset_ns = float_of_int i *. open_m *. 1e9 in
    let schedule = Spec.schedule spec ~seed ~salt:((10 * i) + 1) ~seconds:pt.open_s in
    let start = now () +. 0.005 in
    open_at.(i) <- start;
    drv.Load.sink <-
      (fun r resp ~recv ->
        let lat, lateness =
          Account.open_loop_sample ~due:r.Load.due ~sent:r.Load.sent ~recv
        in
        let at_ns = offset_ns +. ((r.Load.due -. start) *. 1e9) in
        Account.add_at (if r.Load.op = Spec.Get then get_lat else set_lat) ~at_ns (lat *. 1e6);
        Account.add late (lateness *. 1e6);
        let srv_us = float_of_int resp.C4_net.Wire.timing_ns /. 1e3 in
        Account.add server_t srv_us;
        Account.add outside (((recv -. r.Load.sent) *. 1e6) -. srv_us));
    Load.open_loop drv ~start ~schedule ~seconds:pt.open_s ~drain_s
      ~max_inflight:spec.Spec.max_inflight;
    (* Closed loop *)
    let offset_ns = float_of_int i *. closed_m *. 1e9 in
    let next = Spec.stream spec ~seed ~salt:((10 * i) + 2) in
    let t0 = now () in
    let t_meas = t0 +. pt.warmup_s and t_end = t0 +. pt.closed_s in
    closed_at.(i) <- t_meas;
    drv.Load.sink <-
      (fun r _ ~recv ->
        if recv >= t_meas && recv < t_end then
          Account.add_at peak_lat
            ~at_ns:(offset_ns +. ((recv -. t_meas) *. 1e9))
            ((recv -. r.Load.sent) *. 1e6));
    Load.closed_loop drv ~depth:spec.Spec.depth
      ~more:(fun () -> now () < t_end)
      ~next:(fun ci ->
        let r = next () in
        Load.send drv ci r.Spec.op r.Spec.key)
      ~deadline:(t_end +. drain_s);
    let s_end = scrape () in
    (* Read-after-ack *)
    drv.Load.sink <- Load.ignore_sink;
    Load.readback drv ~keys:(Spec.readback_keys spec ~seed:(seed + i) ~n:100) ~op_timeout:2.0;
    (setup, Child.peak_rss_mib child, Scrape.delta ~before:s_pre ~after:s_end)
  in
  let per = Fun.protect ~finally:(fun () -> Steal.stop steal) (fun () -> List.init instances one) in
  let steal_of at m w j =
    let width = m /. float_of_int w in
    let a = at.(j / w) +. (float_of_int (j mod w) *. width) in
    Steal.between steal a (a +. width)
  in
  let open_steal = Array.init (open_w * instances) (steal_of open_at open_m open_w) in
  let closed_steal = Array.init (closed_w * instances) (steal_of closed_at closed_m closed_w) in
  let failures = List.mapi (fun k r -> (Load.reason_name r, failed.(k))) Load.reasons in
  {
    setup_s = List.map (fun (s, _, _) -> s) per;
    get_lat;
    set_lat;
    late;
    server = server_t;
    outside;
    peak_lat;
    open_steal;
    closed_steal;
    rss_mib = List.map (fun (_, r, _) -> r) per;
    deltas = List.map (fun (_, _, d) -> d) per;
    attempted = !attempted;
    failures;
    failed = Array.fold_left ( + ) 0 failed;
  }
