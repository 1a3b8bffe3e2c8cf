(* The serving workloads: serve-burst and serve-durable.

   serve-burst (open loop, 2 shards, least-outstanding, default batcher and
   autoscale): acme sends 8000 req/s with a diurnal swing and MMPP bursts,
   globex sends 2000 req/s into a 1600 req/s token bucket.  Each tenant's
   0.5 s SLO slow window holds thousands of events, so the SLO monitor and
   the admission burn gate dominate the run; bursts over capacity drive
   batching, autoscale spawns/retires, shedding and in-shard retries.
   Recovery, watch and closed-loop users are off: this is the workload on
   which ROADMAP item 1 (SLO ring) should show, and item 3 (recovery by
   replay) should not.

   serve-durable (closed loop, 16 tenants x 125 users, 1 s think time,
   16 shards, tenant affinity, no batching): each tenant's window holds
   only ~70 events, so SLO and admission cost little; every request is one
   orchestrator call and one journal record.  Recovery journals into a
   fresh store with a snapshot every 0.5 s, a watch with the E20 rules is
   attached, and a second journaled run is killed halfway and finished
   with [Fabric.resume].  This is the workload on which item 3 and the
   orchestrator's per-batch path should show, and item 1 should not. *)

module Srv = Everest_serving
module F = Srv.Fabric
module W = Srv.Workload
module Adm = Srv.Admission
module Rec = Everest_recovery
module Watch = Everest_watch.Watch
module Rules = Everest_watch.Rules
module Detect = Everest_watch.Detect
module Metrics = Everest_telemetry.Metrics
module Faults = Everest_resilience.Faults

type kind = Burst | Durable

let burst_horizon_s = 1.0
let durable_horizon_s = 4.0
let durable_tenants = 16
let durable_users = 125

(* [scale] multiplies the offered load (rates, or users per tenant); the
   traced run's scaling probe uses 1/4 and 1/2. *)
let tenants kind ~scale =
  match kind with
  | Burst ->
      [ W.open_tenant ~name:"acme" ~kernel:"mm" ~rate_rps:(8000.0 *. scale)
          ~diurnal_amplitude:0.3 ~diurnal_period_s:1.0
          ~burst:{ W.burst_factor = 4.0; mean_calm_s = 0.2; mean_burst_s = 0.05 }
          ();
        W.open_tenant ~name:"globex" ~kernel:"mm" ~rate_rps:(2000.0 *. scale) () ]
  | Durable ->
      let users = max 1 (int_of_float (float_of_int durable_users *. scale)) in
      List.init durable_tenants (fun i ->
          W.closed_tenant ~name:(Printf.sprintf "t%02d" i) ~kernel:"mm" ~users
            ~think_s:1.0 ())

let config kind ~seed =
  match kind with
  | Burst ->
      { (F.default_config ~n_shards:2) with
        admission =
          { Adm.default_config with
            Adm.buckets = [ ("globex", { Adm.rate_rps = 1600.0; burst = 50.0 }) ] };
        faults = Faults.plan ~seed ~transient_prob:0.02 ~fpga_transient_prob:0.05 () }
  | Durable ->
      { (F.default_config ~n_shards:16) with
        F.seed;
        balancer = Srv.Balancer.Tenant_affinity { vnodes = 64 };
        batcher = { Srv.Batcher.default_config with Srv.Batcher.max_batch = 1 } }

let horizon = function Burst -> burst_horizon_s | Durable -> durable_horizon_s

(* The E20 rule set, keyed on the first tenant. *)
let watch kind =
  let p99 = Rules.Quantile_over ("latency", [ ("tenant", "t00") ], 0.99, 0.2) in
  let shards = (config kind ~seed:1).F.n_shards in
  Watch.create
    ~rules:
      [ Rules.record "latency:p99" p99;
        Rules.alert "latency-step" p99
          (Rules.Detector (Detect.cusum ~drift:0.5 ~threshold:5.0 ()));
        Rules.alert "fleet-degraded"
          (Rules.Last ("fabric:alive_shards", []))
          (Rules.Below (float_of_int shards)) ]
    ()

let render r = F.render_log r ^ F.render_slos r ^ F.render_summary r

(* Everything before the measured call: tenants, config, deploy closure,
   registry, and for serve-durable the watch and a fresh journal store. *)
type inputs = {
  i_kind : kind;
  i_cfg : F.config;
  i_tenants : W.tenant list;
  i_deploy : Everest_runtime.Orchestrator.t -> unit;
  i_registry : Metrics.registry;
  i_watch : Watch.t option;
  i_store : Rec.Store.t option;
  i_dir : string;
}

let recovery store = { F.rv_store = store; rv_snapshot_every_s = 0.5 }

let fingerprint (i : inputs) =
  F.fingerprint i.i_cfg ~tenants:i.i_tenants ~horizon:(horizon i.i_kind)

let setup kind ~seed ~dir =
  let cfg = config kind ~seed in
  let tenants = tenants kind ~scale:1.0 in
  let i =
    { i_kind = kind; i_cfg = cfg; i_tenants = tenants;
      i_deploy = F.demo_deploy (); i_registry = Metrics.create_registry ();
      i_watch = None; i_store = None; i_dir = dir }
  in
  match kind with
  | Burst -> i
  | Durable ->
      let store =
        Rec.Store.open_store ~fresh:true ~dir ~fingerprint:(fingerprint i) ()
      in
      { i with i_watch = Some (watch kind); i_store = Some store }

let run ?recovery ?watch ?(scale = 1.0) (i : inputs) =
  let tenants =
    if scale = 1.0 then i.i_tenants else tenants i.i_kind ~scale
  in
  F.run ~registry:(Metrics.create_registry ()) ?recovery ?watch i.i_cfg
    ~deploy:i.i_deploy ~tenants ~horizon:(horizon i.i_kind)

let measured (i : inputs) =
  F.run ~registry:i.i_registry
    ?recovery:(Option.map recovery i.i_store)
    ?watch:i.i_watch i.i_cfg ~deploy:i.i_deploy ~tenants:i.i_tenants
    ~horizon:(horizon i.i_kind)

(* Kill a second journaled run at half its journal records. *)
let crash (i : inputs) ~records =
  let store =
    Rec.Store.open_store ~fresh:true ~dir:i.i_dir ~fingerprint:(fingerprint i) ()
  in
  Rec.Store.arm_crash store ~after_records:(max 1 (records / 2));
  (try ignore (run ~recovery:(recovery store) ~watch:(watch i.i_kind) i)
   with Rec.Journal.Crashed -> ());
  Rec.Store.close store

(* Finish the crashed run with [Fabric.resume]. *)
let resume (i : inputs) =
  let store = Rec.Store.open_store ~dir:i.i_dir ~fingerprint:(fingerprint i) () in
  Fun.protect
    ~finally:(fun () -> Rec.Store.close store)
    (fun () ->
      F.resume ~registry:(Metrics.create_registry ()) ~watch:(watch i.i_kind)
        ~recovery:(recovery store) i.i_cfg ~deploy:i.i_deploy
        ~tenants:i.i_tenants ~horizon:(horizon i.i_kind))

(* Every generated request resolves exactly once: open arrivals are the
   ids [0, n_open) with their generated tenant and arrival time, closed-loop
   requests take the following ids densely, and served + failed + shed
   covers the whole log. *)
let check_log (i : inputs) (r : F.result) =
  let open_rq =
    W.generate ~seed:i.i_cfg.F.seed ~horizon:(horizon i.i_kind) i.i_tenants
  in
  let log = Array.of_list r.F.f_log in
  let n = Array.length log in
  let dense = ref true in
  Array.iteri (fun k x -> if x.F.sr_id <> k then dense := false) log;
  let open_ok =
    List.for_all
      (fun (rq : W.request) ->
        rq.W.rq_id < n
        && String.equal log.(rq.W.rq_id).F.sr_tenant rq.W.rq_tenant
        && log.(rq.W.rq_id).F.sr_arrival_s = rq.W.rq_arrival_s)
      open_rq
  in
  let requests =
    List.fold_left (fun acc t -> acc + t.F.tr_requests) 0 r.F.f_tenants
  in
  !dense && open_ok && requests = n
  && F.served_ok r + F.failed r + F.shed r = n

let sim_metrics (r : F.result) =
  [ ("sim_p50_ms", "ms", 1e3 *. F.latency_quantile r 0.5);
    ("sim_p99_ms", "ms", 1e3 *. F.latency_quantile r 0.99) ]

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* The count the sim_p99 needs: at least 5k served requests per run. *)
let min_served = 5000

let discard i = Option.iter Rec.Store.close i.i_store

let measure kind ~seed ~dir =
  let i, setup_s = Harness.setup ~discard (fun () -> setup kind ~seed ~dir) in
  let r, m = Harness.measure (fun () -> measured i) in
  let n = List.length r.F.f_log in
  let ok = ref (check_log i r && F.served_ok r >= min_served) in
  let host_times = ref [] in
  (match i.i_store with
  | None -> ()
  | Some store ->
      let records = store.Rec.Store.records_written in
      Rec.Store.close store;
      crash i ~records;
      let c0 = Harness.cpu () in
      let resumed, _ = resume i in
      let resume_s = Harness.cpu () -. c0 in
      if not (String.equal (render r) (render resumed)) then ok := false;
      host_times := [ ("resume_s", "s", resume_s) ]);
  remove_tree dir;
  { Harness.setup_s; m; units = n; unit_name = "req";
    attempted = n; failed = (if !ok then F.failed r else n);
    correct = !ok; digest = Digest.to_hex (Digest.string (render r));
    sim = sim_metrics r; host_times = !host_times }

(* [Fabric.run] at the given load scale, and its wall seconds. *)
let timed_run i ~scale = Prof.timed (fun () -> run ~scale i)

(* What the journaled + watched run left in the store's and the watch's
   public counters. *)
type counters = {
  c_records : int;
  c_work_s : float;
  c_journal_bytes : int;
  c_snapshot_bytes : int;
  c_snapshots : int;
  c_watch_s : float;
  c_ticks : int;
  c_samples : int;
}

(* serve-durable's measured phase, on a fresh store and watch. *)
let journaled (i : inputs) =
  let store =
    Rec.Store.open_store ~fresh:true ~dir:i.i_dir ~fingerprint:(fingerprint i) ()
  in
  let w = watch i.i_kind in
  let r = run ~recovery:(recovery store) ~watch:w i in
  let c =
    { c_records = store.Rec.Store.records_written;
      c_work_s = store.Rec.Store.work_s;
      c_journal_bytes = store.Rec.Store.journal_bytes;
      c_snapshot_bytes = store.Rec.Store.snapshot_bytes;
      c_snapshots = store.Rec.Store.snapshots_written;
      c_watch_s = Watch.work_s w; c_ticks = Watch.ticks w;
      c_samples = Watch.samples w }
  in
  Rec.Store.close store;
  (r, Some c)

let trace kind ~seed ~dir =
  let i = setup kind ~seed ~dir in
  Option.iter Rec.Store.close i.i_store;
  (* rounds of: the untraced measured phase, then the run's request stream
     replayed through fresh layers with the profiler off and on; one
     round of serve-burst already takes about a minute *)
  let reference () =
    match kind with Burst -> (run i, None) | Durable -> journaled i
  in
  let replay () =
    Replay.run i.i_cfg ~deploy:i.i_deploy ~tenants:i.i_tenants
      ~horizon:(horizon kind)
  in
  let rounds =
    Prof.rounds (match kind with Burst -> 1 | Durable -> 3) ~reference
      ~layers:replay
  in
  let (r, counters), o = rounds.Prof.result in
  let untraced_s = rounds.Prof.reference_s in
  let traced_s = rounds.Prof.on_s in
  let n = List.length r.F.f_log in
  let per_req s = 1e6 *. s /. float_of_int n in
  let ok = ref (check_log i r) in
  let exact = Replay.fidelity r o in
  (* serve-durable: the journaled + watched run must render as the plain
     run does, and a crashed run must resume to the same output *)
  let plain_s, resume, optional_layers, optional_us =
    match counters with
    | None -> (untraced_s, [], [], 0.0)
    | Some c ->
        let plain, plain_s = timed_run i ~scale:1.0 in
        if not (String.equal (render plain) (render r)) then ok := false;
        crash i ~records:c.c_records;
        let (resumed, report), resume_s = Prof.timed (fun () -> resume i) in
        if not (String.equal (render r) (render resumed)) then ok := false;
        ( plain_s,
          [ ("resume_s", "s", resume_s) ],
          [ ("recovery.us_per_req", per_req c.c_work_s);
            ("recovery.work_frac", c.c_work_s /. untraced_s);
            ("recovery.journal_bytes_per_req",
             float_of_int c.c_journal_bytes /. float_of_int n);
            ("recovery.snapshot_bytes", float_of_int c.c_snapshot_bytes);
            ("recovery.snapshots", float_of_int c.c_snapshots);
            ("recovery.replayed_records", float_of_int report.F.rr_replayed);
            ("recovery.resume_s", resume_s);
            ("recovery.resume_frac", resume_s /. plain_s);
            ("watch.us_per_req", per_req c.c_watch_s);
            ("watch.us_per_tick",
             if c.c_ticks = 0 then 0.0
             else 1e6 *. c.c_watch_s /. float_of_int c.c_ticks);
            ("watch.work_frac", c.c_watch_s /. untraced_s);
            ("watch.ticks", float_of_int c.c_ticks);
            ("watch.samples", float_of_int c.c_samples) ],
          per_req (c.c_work_s +. c.c_watch_s) )
  in
  (* scaling probe: host time of the run at 1/4, 1/2 and 1x load *)
  let probe =
    List.map
      (fun scale ->
        if scale = 1.0 then (float_of_int n, plain_s)
        else
          let r, s = timed_run i ~scale in
          (float_of_int (List.length r.F.f_log), s))
      [ 0.25; 0.5; 1.0 ]
  in
  remove_tree dir;
  let layer_us l = per_req (Prof.seconds l) in
  let replayed =
    [ Replay.l_workload; Replay.l_admission; Replay.l_slo; Replay.l_balancer;
      Replay.l_batcher; Replay.l_orch; Replay.l_autoscale ]
  in
  let attributed =
    List.fold_left (fun acc l -> acc +. layer_us l) optional_us replayed
  in
  let shed reason =
    List.fold_left
      (fun acc (_, by) -> acc + Option.value ~default:0 (List.assoc_opt reason by))
      0 o.Replay.o_shed
  in
  let frac k = float_of_int k /. float_of_int n in
  let layers =
    [ ("workload.us_per_req", layer_us Replay.l_workload);
      ("workload.words_per_req", Prof.words Replay.l_workload /. float_of_int n);
      ("admission.us_per_call", Prof.us_per_call Replay.l_admission);
      ("admission.words_per_call", Prof.words_per_call Replay.l_admission);
      ("admission.rejected_frac.rate_limited", frac (shed Adm.Rate_limited));
      ("admission.rejected_frac.slo_burning", frac (shed Adm.Slo_burning));
      ("admission.rejected_frac.overloaded", frac (shed Adm.Overloaded));
      ("admission.rejected_frac.unavailable", frac (shed Adm.Unavailable));
      ("slo.us_per_observe", Prof.us_per_call Replay.l_slo);
      ("slo.words_per_observe", Prof.words_per_call Replay.l_slo);
      ("slo.window_events", o.Replay.o_window_events);
      ("balancer.us_per_route", Prof.us_per_call Replay.l_balancer);
      ("batcher.us_per_call", Prof.us_per_call Replay.l_batcher);
      ("batcher.mean_batch_size",
       float_of_int o.Replay.o_members /. float_of_int (max 1 o.Replay.o_batches));
      ("autoscale.ticks", float_of_int o.Replay.o_ticks);
      ("autoscale.spawned", float_of_int o.Replay.o_spawned);
      ("autoscale.retired", float_of_int o.Replay.o_retired);
      ("orchestrator.us_per_serve", Prof.us_per_call Replay.l_orch);
      ("orchestrator.words_per_serve", Prof.words_per_call Replay.l_orch);
      ("orchestrator.calls_per_req", frac o.Replay.o_orch_calls);
      ("orchestrator.attempts_per_call",
       float_of_int o.Replay.o_orch_attempts
       /. float_of_int (max 1 o.Replay.o_orch_calls));
      ("fabric.self_us_per_req", per_req untraced_s -. attributed);
      ("trace.remainder_us_per_unit", per_req untraced_s -. attributed);
      ("fabric.cost_slope", Harness.loglog_slope probe) ]
    @ optional_layers
  in
  { Harness.t_layers = layers; t_exact = exact;
    t_untraced_us = per_req untraced_s; t_traced_us = per_req traced_s;
    t_overhead_us = per_req (traced_s -. rounds.Prof.off_s);
    t_units = n; t_attempted = n; t_correct = !ok;
    t_digest = Digest.to_hex (Digest.string (render r));
    t_figures =
      (("sim_req_per_s", "req/s", float_of_int n /. untraced_s) :: sim_metrics r)
      @ resume }
