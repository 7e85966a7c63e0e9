(* Turn the runs into the reported metrics: end-to-end from the TCP
   run; with tracing on, also per-layer from the TCP run's server
   timings and scrapes, the traced in-process replay and the isolated
   microbenchmarks. *)

(* Windowed figures come from the windows the machine lost the least CPU
   time in (see {!Account.calmest}). *)
let e2e report (r : Tcp_run.result) =
  let m = Report.metric report in
  let calm w steal = Account.calmest w ~disturbance:(Array.get steal) in
  let get_lat = calm r.Tcp_run.get_lat r.Tcp_run.open_steal in
  let set_lat = calm r.Tcp_run.set_lat r.Tcp_run.open_steal in
  let peak_lat = calm r.Tcp_run.peak_lat r.Tcp_run.closed_steal in
  m "setup_s" "s" (Account.median_of r.Tcp_run.setup_s);
  m "peak_ops_s" "ops/s" (Account.windowed_rate peak_lat);
  m "peak_p99_us" "us" (Account.windowed_quantile peak_lat 0.99);
  m "get_p50_us" "us" (Account.windowed_quantile get_lat 0.5);
  m "get_p99_us" "us" (Account.windowed_quantile get_lat 0.99);
  m "set_p50_us" "us" (Account.windowed_quantile set_lat 0.5);
  m "set_p99_us" "us" (Account.windowed_quantile set_lat 0.99);
  m "server_rss_mib" "MiB" (Account.median_of r.Tcp_run.rss_mib)

let ratio a b = if b > 0.0 then a /. b else 0.0

(* Per-layer numbers the TCP run yields: server-reported timings and the
   scrape differences over both load phases. *)
let net_layer report (r : Tcp_run.result) =
  let m = Report.metric report in
  m "net.server_p50_us" "us" (Account.quantile r.Tcp_run.server 0.5);
  m "net.server_p99_us" "us" (Account.quantile r.Tcp_run.server 0.99);
  m "net.outside_p50_us" "us" (Account.quantile r.Tcp_run.outside 0.5);
  m "loadgen.late_p50_us" "us" (Account.quantile r.Tcp_run.late 0.5);
  m "loadgen.late_p99_us" "us" (Account.quantile r.Tcp_run.late 0.99);
  let d name = List.fold_left (fun a delta -> a +. delta name) 0.0 r.Tcp_run.deltas in
  let writes = d "net_set_ns_count" in
  m "net.bytes_per_op" "B" (ratio (d "net_bytes_in" +. d "net_bytes_out") (d "net_requests"));
  m "ewt.hit_frac" "ratio" (ratio (d "ewt_hit") (d "ewt_hit" +. d "ewt_miss"));
  m "compaction.windows_per_kwrite" "count" (1000.0 *. ratio (d "compaction_windows") writes);
  m "compaction.absorbed_frac" "ratio" (ratio (d "compaction_absorbed") writes);
  m "compaction.window_size_mean" "count"
    (ratio (d "compaction_window_size_sum") (d "compaction_window_size_count"))

let run report ~server ~(spec : Spec.t) ~seed ~seconds ~workdir ~trace ~trace_out =
  let r = Tcp_run.run ~server ~spec ~seed ~seconds in
  Report.count report ~attempted:r.Tcp_run.attempted ~failed:r.Tcp_run.failed;
  let fails =
    String.concat ", "
      (List.map (fun (n, c) -> Printf.sprintf "%s %d" n c) r.Tcp_run.failures)
  in
  Report.note report
    (Printf.sprintf "tcp run: %d attempted, %d failed (%s)" r.Tcp_run.attempted
       r.Tcp_run.failed fails);
  Report.metric report "failed_frac" "ratio"
    (ratio (float_of_int r.Tcp_run.failed) (float_of_int r.Tcp_run.attempted));
  e2e report r;
  if trace then begin
    net_layer report r;
    Layers.run report ~spec ~seed ~workdir ~trace_out ~server_p50_us:(Account.quantile r.Tcp_run.server 0.5)
  end
