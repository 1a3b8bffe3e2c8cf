(* E20: watch overhead, determinism and detection on the serving fabric.

     dune exec bench/watch_bench.exe              # full sweep, writes BENCH_e20.json
     dune exec bench/watch_bench.exe -- --quick   # reduced sweep for CI

   A monitoring layer earns its keep only if watching costs almost
   nothing and changes nothing.  Three claims are gated here, at the same
   e16 scale the recovery bench uses (16 shards, 12800 req/s, 1 s):

     1. Overhead: scraping + sketch feeds + rule evaluation tax the
        watched run by <5% wall time (full mode), and, beside that
        relative gate, a scrape tick stays inside absolute budgets of
        wall time and allocated words.
     2. Nothing changes: the watched run's served log / SLO verdicts /
        summary are byte-identical to the unwatched same-seed run, and
        two watched runs render byte-identical dashboards.
     3. It actually detects: a capacity cliff (all but one shard killed
        mid-run) must trip the CUSUM latency alert, while the clean run
        must raise zero alerts — sensitivity without false positives. *)

module Srv = Everest_serving
module Res = Everest_resilience
module Tel = Everest_telemetry
module W = Everest_watch
module Json = Everest_telemetry.Json

(* Same rationale as E19: a <5% effect cannot be resolved by A/B-timing
   separate runs on a shared host (±15-30% drift), so the gated number is
   ATTRIBUTED — the watch clocks its own code paths (scrape ticks, rule
   evaluation, sketch observes) into [Watch.work_s], and the fraction
   work/(total-work) comes out of a single run where the host's noise
   multiplier cancels.

   The fraction cannot see garbage collection: words a tick allocates are
   collected later, inside whatever code runs next, and a faster fabric
   shrinks the denominator.  So each row also records the absolute cost of
   a tick — attributed wall us per tick, and the minor-heap words one tick
   allocates once the registry is steady (counted, so deterministic) — and
   both are gated against fixed budgets. *)

type row = {
  r_interval_s : float;
  r_run_s : float;  (* best watched run wall time *)
  r_overhead : float;  (* median attributed work/(total-work) fraction *)
  r_ticks : int;
  r_us_per_tick : float;  (* median attributed wall us per scrape tick *)
  r_words_per_tick : float;  (* minor words per tick on a steady registry *)
  r_series : int;
  r_sketch_samples : int;
  r_log_identical : bool;  (* watched fabric output == unwatched *)
  r_dash_identical : bool;  (* two watched runs render the same dashboard *)
}

let row_json r =
  Json.Obj
    [ ("interval_s", Json.Num r.r_interval_s); ("run_s", Json.Num r.r_run_s);
      ("overhead_frac", Json.Num r.r_overhead); ("ticks", Json.int r.r_ticks);
      ("us_per_tick", Json.Num r.r_us_per_tick);
      ("words_per_tick", Json.Num r.r_words_per_tick);
      ("series", Json.int r.r_series);
      ("sketch_samples", Json.int r.r_sketch_samples);
      ("log_identical", Json.Bool r.r_log_identical);
      ("dashboard_identical", Json.Bool r.r_dash_identical) ]

let () =
  let quick = Util.quick in
  (* e16 scale in full mode, for the same reason as E19: per-request
     fabric work grows with fleet size and load while a scrape tick costs
     the same, so this is the configuration the <5% budget is defined
     against. *)
  let shards = if quick then 2 else 16 in
  let rate = if quick then 2000.0 else 12800.0 in
  let horizon = if quick then 0.3 else 1.0 in
  let reps = if quick then 2 else 3 in
  (* no interval below the fabric's 10 ms control tick: scrapes ride on
     it, and the fabric rejects a shorter interval *)
  let intervals = if quick then [ 0.01; 0.05 ] else [ 0.01; 0.02; 0.05 ] in
  let seed = 20 in
  let tenants = Util.e16_tenants ~rate in
  let config ~faults =
    { (Srv.Fabric.default_config ~n_shards:shards) with Srv.Fabric.seed; faults }
  in
  let rules ~n_shards () =
    let p99 =
      W.Rules.Quantile_over ("latency", [ ("tenant", "acme") ], 0.99, 0.2)
    in
    [ W.Rules.record "latency:p99" p99;
      W.Rules.alert "latency-step" p99
        (W.Rules.Detector (W.Detect.cusum ~drift:0.5 ~threshold:5.0 ()));
      W.Rules.alert "fleet-degraded"
        (W.Rules.Last ("fabric:alive_shards", []))
        (W.Rules.Below (float_of_int n_shards)) ]
  in
  let mk_watch interval =
    W.Watch.create ~interval_s:interval ~rules:(rules ~n_shards:shards ()) ()
  in
  let run ?watch ?(tenants = tenants) ~faults () =
    Srv.Fabric.run ~registry:(Tel.Metrics.create_registry ()) ?watch
      (config ~faults) ~deploy:(Srv.Fabric.demo_deploy ()) ~tenants ~horizon
  in

  Printf.printf
    "E20: watch overhead + determinism + detection (%d shards, %.0f req/s, \
     %.1fs horizon%s)\n\n\
     %!"
    shards rate horizon
    (if quick then ", quick" else "");

  (* ---- baseline reference output (also warms the process) ---- *)
  let plain_r = run ~faults:Res.Faults.none () in
  let plain = Util.render plain_r in
  Printf.printf "unwatched run: %d requests\n%!"
    (List.length plain_r.Srv.Fabric.f_log);

  (* ---- sweep: watched run per scrape interval ---- *)
  let rows =
    List.map
      (fun interval ->
        let best = ref infinity and attrs = ref [] and per_tick = ref [] in
        let last = ref None in
        for _ = 1 to reps do
          let w = mk_watch interval in
          let t, r = Util.time_one (fun () -> run ~watch:w ~faults:Res.Faults.none ()) in
          if t < !best then best := t;
          let work = W.Watch.work_s w in
          attrs := (work /. Float.max 1e-9 (t -. work)) :: !attrs;
          per_tick :=
            (1e6 *. work /. float_of_int (max 1 (W.Watch.ticks w))) :: !per_tick;
          last := Some (r, w)
        done;
        let r1, w1 = Option.get !last in
        (* a second watched run: same-seed dashboards must render
           byte-identically *)
        let w2 = mk_watch interval in
        ignore (run ~watch:w2 ~faults:Res.Faults.none ());
        let dash w = W.Live.render w ~now:horizon ^ W.Live.render_json w ~now:horizon in
        let dash1 = dash w1 and dash2 = dash w2 in
        (* steady-state allocation: tick the second run's watch on past its
           horizon, where no metric is registered any more, until its raw
           rings are full (256 points), then count 1000 ticks (the coarse
           rings still double into their capacity inside that span) *)
        let tick_at k =
          ignore (W.Watch.tick w2 ~now:(horizon +. (interval *. float_of_int k)))
        in
        for k = 1 to 300 do tick_at k done;
        let before = Gc.minor_words () in
        for k = 301 to 1300 do tick_at k done;
        let words = (Gc.minor_words () -. before) /. 1000.0 in
        let row =
          { r_interval_s = interval;
            r_run_s = !best;
            r_overhead = Util.median !attrs;
            r_ticks = W.Watch.ticks w1;
            r_us_per_tick = Util.median !per_tick;
            r_words_per_tick = words;
            r_series = W.Series.Store.size (W.Watch.store w1);
            r_sketch_samples = W.Watch.samples w1;
            r_log_identical = String.equal plain (Util.render r1);
            r_dash_identical = String.equal dash1 dash2 }
        in
        Printf.printf
          "  every %.3fs: run %s, attributed %+.2f%%, %d ticks (%.1f us, \
           %.0f words each), %d series, %d sketch samples, \
           log_identical=%b dash_identical=%b\n\
           %!"
          interval (Util.time_str row.r_run_s)
          (100.0 *. row.r_overhead)
          row.r_ticks row.r_us_per_tick row.r_words_per_tick row.r_series
          row.r_sketch_samples row.r_log_identical
          row.r_dash_identical;
        row)
      intervals
  in

  (* ---- detection: capacity cliff must trip CUSUM, clean run must not ---- *)
  (* This half of the bench asks a correctness question, not a scale one,
     so it always runs the same moderate configuration as the CLI [top]
     drill: 4 shards at 400 req/s with a stationary arrival process.  At
     the saturated e16 sweep scale above the p99 genuinely drifts with
     load (a real signal a drift detector should see), which would make
     "the clean run trips nothing" a statement about the workload rather
     than about the detector. *)
  let d_shards = 4 and d_rate = 400.0 and d_horizon = 0.4 in
  let detect_tenants =
    [ Srv.Workload.open_tenant ~name:"acme" ~kernel:"mm" ~rate_rps:d_rate
        ~features:(fun seq ->
          [ ("size", float_of_int (1024 + (64 * (seq mod 4)))) ])
        () ]
  in
  let detect_run ~watch ~faults =
    let config =
      { (Srv.Fabric.default_config ~n_shards:d_shards) with
        Srv.Fabric.seed;
        faults }
    in
    ignore
      (Srv.Fabric.run ~registry:(Tel.Metrics.create_registry ()) ~watch config
         ~deploy:(Srv.Fabric.demo_deploy ()) ~tenants:detect_tenants
         ~horizon:d_horizon)
  in
  let kill_faults =
    Res.Faults.of_failures
      (List.init (d_shards - 1) (fun i ->
           (Printf.sprintf "shard%d" (i + 1), 0.5 *. d_horizon)))
  in
  let mk_detect_watch () =
    W.Watch.create ~interval_s:0.01 ~rules:(rules ~n_shards:d_shards ()) ()
  in
  let w_clean = mk_detect_watch () in
  detect_run ~watch:w_clean ~faults:Res.Faults.none;
  let w_fault = mk_detect_watch () in
  detect_run ~watch:w_fault ~faults:kill_faults;
  let edges w name =
    List.fold_left
      (fun acc (a : W.Rules.alert_state) ->
        if String.equal a.W.Rules.as_name name then acc + a.W.Rules.as_edges
        else acc)
      0
      (W.Watch.alert_states w)
  in
  let clean_edges = W.Watch.alerts_total w_clean in
  let fault_cusum = edges w_fault "latency-step" in
  Printf.printf
    "\ndetection: clean run %d alert edges, capacity-cliff run CUSUM edges \
     %d (fleet-degraded %d)\n\
     %!"
    clean_edges fault_cusum
    (edges w_fault "fleet-degraded");

  print_newline ();
  Util.table
    ~cols:
      [ "interval"; "run"; "overhead"; "ticks"; "us/tick"; "words/tick";
        "series"; "sketch obs"; "log id"; "dash id" ]
    (List.map
       (fun r ->
         [ Printf.sprintf "%.3fs" r.r_interval_s; Util.time_str r.r_run_s;
           Printf.sprintf "%+.2f%%" (100.0 *. r.r_overhead);
           string_of_int r.r_ticks;
           Printf.sprintf "%.1f" r.r_us_per_tick;
           Printf.sprintf "%.0f" r.r_words_per_tick;
           string_of_int r.r_series;
           string_of_int r.r_sketch_samples;
           string_of_bool r.r_log_identical;
           string_of_bool r.r_dash_identical ])
       rows);

  (* ---- verdict ---- *)
  (* The gate reads the densest interval: that is where scraping costs
     the most, i.e. the worst tax a watched fault-free run pays.  Quick
     CI runs far below e16 scale, where the fabric baseline is much
     lighter per tick, so they only sanity-bound the fraction. *)
  let overhead_budget = if quick then 0.5 else 0.05 in
  let densest =
    List.fold_left
      (fun acc r -> if r.r_interval_s < acc.r_interval_s then r else acc)
      (List.hd rows) rows
  in
  let overhead_ok = densest.r_overhead < overhead_budget in
  (* Absolute budgets beside it.  Wall us per tick is read at the densest
     interval too: [work_s] also holds the per-request sketch feeds, which
     sparser rows spread over fewer ticks (quick runs, on hosts of unknown
     speed, get a loose bound).  Words per tick are counted, so every row
     must stay within 10 words per series. *)
  let us_per_tick_budget = if quick then 200.0 else 80.0 in
  let words_per_series_budget = 10.0 in
  let tick_ok =
    densest.r_us_per_tick <= us_per_tick_budget
    && List.for_all
         (fun r ->
           r.r_words_per_tick
           <= words_per_series_budget *. float_of_int r.r_series)
         rows
  in
  let identity_ok =
    List.for_all (fun r -> r.r_log_identical && r.r_dash_identical) rows
  in
  let detect_ok = clean_edges = 0 && fault_cusum > 0 in
  let passed = overhead_ok && tick_ok && identity_ok && detect_ok in
  let json =
    Json.Obj
      [ ("shards", Json.int shards); ("rate_rps", Json.Num rate);
        ("horizon_s", Json.Num horizon);
        ("sweep", Json.Arr (List.map row_json rows));
        ("densest_overhead_frac", Json.Num densest.r_overhead);
        ("overhead_budget", Json.Num overhead_budget);
        ("us_per_tick_budget", Json.Num us_per_tick_budget);
        ("words_per_series_tick_budget", Json.Num words_per_series_budget);
        ("byte_identity", Json.Bool identity_ok);
        ("clean_alert_edges", Json.int clean_edges);
        ("cliff_cusum_edges", Json.int fault_cusum); ("quick", Json.Bool quick);
        ("passed", Json.Bool passed) ]
  in
  Util.write_bench ~file:"BENCH_e20.json" ~passed json
    ~expected:
      (Printf.sprintf
         "Expected shape: watching taxes the fault-free run by well under\n\
          %.0f%% even at the densest scrape interval, where a tick costs at\n\
          most %.0f us; a steady tick allocates at most %.0f words per series;\n\
          the watched run's output and two watched runs' dashboards are\n\
          byte-identical, the capacity cliff trips the CUSUM latency alert\n\
          and the clean run trips nothing.\n"
         (100.0 *. overhead_budget) us_per_tick_budget words_per_series_budget)
    "E20 FAILED: overhead_ok=%b (%.3f at %.3fs interval) tick_ok=%b (%.1f \
     us) identity_ok=%b detect_ok=%b (clean=%d cliff=%d)"
    overhead_ok densest.r_overhead densest.r_interval_s tick_ok
    densest.r_us_per_tick identity_ok detect_ok clean_edges fault_cusum
