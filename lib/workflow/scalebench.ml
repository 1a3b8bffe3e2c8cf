(* Estee-style scheduler scale harness (experiment e17).

   Beránek et al.'s Estee benchmarks task schedulers by generating DAG
   families at increasing scale and measuring scheduled-tasks/second and
   the makespan-quality-vs-decision-time frontier.  This module is the
   repository's equivalent: seeded generators for three DAG families
   (layered, fork-join, ensemble), wall-clock-timed planning and simulated
   execution on the demonstrator cluster, the naive pre-memoization HEFT as
   the quadratic baseline, delta-vs-full rescheduling after node death, and
   the cost of forcing the telemetry report on million-span logs.

   Everything here measures the production code paths in [Scheduler],
   [Executor], [Dag] and [Everest_telemetry.Trace]; the harness itself adds
   only clock reads. *)

open Everest_platform

type family = Layered | Fork_join | Ensemble

let family_name = function
  | Layered -> "layered"
  | Fork_join -> "fork-join"
  | Ensemble -> "ensemble"

let family_of_string = function
  | "layered" -> Some Layered
  | "fork-join" | "fork_join" | "forkjoin" -> Some Fork_join
  | "ensemble" -> Some Ensemble
  | _ -> None

(* A family instance of approximately [tasks] tasks (exact size depends on
   the family shape; read it back from the DAG). *)
let make_dag ?(seed = 17) family ~tasks =
  let tasks = max 4 tasks in
  match family with
  | Layered ->
      let width = max 2 (int_of_float (sqrt (float_of_int tasks))) in
      let layers = max 2 (tasks / width) in
      Dag.layered ~seed ~layers ~width ~flops:2e9 ~bytes:1e6 ()
  | Fork_join ->
      Dag.fork_join ~width:(tasks - 2) ~worker_flops:2e9 ~worker_bytes:1e6
        ~chunk_bytes:65536 ()
  | Ensemble ->
      let stages = 8 in
      let members = max 1 ((tasks - 2) / stages) in
      Dag.ensemble ~seed ~members ~stages ~stage_flops:2e9 ~stage_bytes:1e5 ()

(* The planners under measurement: [Scheduler.by_name] plus the quadratic
   pre-PR reference kept for speedup baselines. *)
let planner_of_string = function
  | "heft-reference" ->
      Some (fun c dag -> Scheduler.heft_reference ~locality_aware:false c dag)
  | name -> Scheduler.by_name name

type sample = {
  sb_family : string;
  sb_tasks : int;  (* actual task count of the generated DAG *)
  sb_policy : string;
  sb_plan_wall_s : float;  (* wall-clock planning time *)
  sb_tasks_per_s : float;  (* sb_tasks / sb_plan_wall_s *)
  sb_exec_wall_s : float;  (* wall-clock of simulated execution; <0 if skipped *)
  sb_makespan_s : float;  (* simulated makespan; <0 if execution skipped *)
}

let wall = Unix.gettimeofday

(* Plan (and optionally execute) one family instance under [policy] on a
   fresh demonstrator cluster. *)
let run_policy ?(seed = 17) ?(execute = false) family ~tasks ~policy =
  let planner =
    match planner_of_string policy with
    | Some p -> p
    | None -> invalid_arg ("scalebench: unknown policy " ^ policy)
  in
  let dag = make_dag ~seed family ~tasks in
  let n = Dag.size dag in
  let c = Cluster.everest_demonstrator () in
  let t0 = wall () in
  let plan = planner c dag in
  let t1 = wall () in
  let plan_wall = Float.max 1e-9 (t1 -. t0) in
  let exec_wall, makespan =
    if not execute then (-1.0, -1.0)
    else begin
      let t2 = wall () in
      let stats = Executor.execute c plan in
      (Float.max 1e-9 (wall () -. t2), stats.Executor.makespan)
    end
  in
  { sb_family = family_name family;
    sb_tasks = n;
    sb_policy = policy;
    sb_plan_wall_s = plan_wall;
    sb_tasks_per_s = float_of_int n /. plan_wall;
    sb_exec_wall_s = exec_wall;
    sb_makespan_s = makespan }

(* ---- delta vs full reschedule --------------------------------------------------- *)

type delta_sample = {
  ds_tasks : int;
  ds_dead : string;
  ds_moved_frac : float;  (* affected cone / tasks *)
  ds_full_wall_s : float;  (* full reschedule over survivors *)
  ds_delta_wall_s : float;  (* cone-local repair *)
  ds_full_makespan_s : float;  (* simulated, replanned plan *)
  ds_delta_makespan_s : float;  (* simulated, repaired plan *)
}

let run_delta ?(seed = 17) ?(execute = true) family ~tasks ~dead =
  let dag = make_dag ~seed family ~tasks in
  let n = Dag.size dag in
  let c = Cluster.everest_demonstrator () in
  let base = Scheduler.heft c dag in
  let t0 = wall () in
  let full = Scheduler.heft ~exclude:[ dead ] c dag in
  let t1 = wall () in
  let delta = Scheduler.heft_delta c base ~dead:[ dead ] in
  let t2 = wall () in
  let moved = ref 0 in
  Array.iteri
    (fun i (a : Scheduler.assignment) ->
      if
        not
          (String.equal a.Scheduler.node
             base.Scheduler.assignments.(i).Scheduler.node)
      then incr moved)
    delta.Scheduler.assignments;
  let simulate plan =
    if not execute then -1.0
    else
      let c' = Cluster.everest_demonstrator () in
      (Executor.execute c' plan).Executor.makespan
  in
  { ds_tasks = n;
    ds_dead = dead;
    ds_moved_frac = float_of_int !moved /. float_of_int n;
    ds_full_wall_s = Float.max 1e-9 (t1 -. t0);
    ds_delta_wall_s = Float.max 1e-9 (t2 -. t1);
    ds_full_makespan_s = simulate full;
    ds_delta_makespan_s = simulate delta }

(* ---- telemetry forcing cost ------------------------------------------------------ *)

type telemetry_sample = {
  ts_tasks : int;
  ts_spans : int;  (* spans recorded by the traced run *)
  ts_run_wall_s : float;  (* plan + simulated execution, tracing on *)
  ts_report_wall_s : float;  (* forcing the lazy Observe report *)
  ts_report_frac : float;  (* ts_report_wall_s / ts_run_wall_s *)
}

(* Execute a layered instance with tracing on and force the full report.
   The sink capacity is sized to the run so nothing is dropped — the point
   is to price the report on a maximal log.

   The whole pipeline runs [repeats] times and each wall is the minimum
   across repeats: on a shared machine single-shot walls vary by 2-3x from
   GC pacing and scheduler noise, and min-of-N is the standard low-noise
   estimator for deterministic work (both phases replay identical events,
   so the minimum is the run with the least interference). *)
let run_telemetry ?(seed = 17) ?(repeats = 3) ~tasks () =
  let min_run = ref infinity and min_report = ref infinity in
  let n_tasks = ref 0 and n_spans = ref 0 in
  for _ = 1 to max 1 repeats do
    let dag = make_dag ~seed Layered ~tasks in
    let n = Dag.size dag in
    let c = Cluster.everest_demonstrator () in
    let tracer =
      Everest_telemetry.Trace.create ~capacity:(8 * n)
        ~clock:(fun () -> Desim.now c.Cluster.sim)
        ()
    in
    let registry = Everest_telemetry.Metrics.create_registry () in
    let t0 = wall () in
    let plan = Scheduler.heft c dag in
    let stats = Executor.execute ~tracer ~registry c plan in
    let t1 = wall () in
    let report = Lazy.force stats.Executor.report in
    let t2 = wall () in
    ignore report;
    n_tasks := n;
    n_spans := Everest_telemetry.Trace.span_count tracer;
    if t1 -. t0 < !min_run then min_run := t1 -. t0;
    if t2 -. t1 < !min_report then min_report := t2 -. t1
  done;
  let run_wall = Float.max 1e-9 !min_run in
  let report_wall = Float.max 1e-9 !min_report in
  { ts_tasks = !n_tasks;
    ts_spans = !n_spans;
    ts_run_wall_s = run_wall;
    ts_report_wall_s = report_wall;
    ts_report_frac = report_wall /. run_wall }
