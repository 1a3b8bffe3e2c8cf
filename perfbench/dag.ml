(* The workflow-dag workload: a ~10^5-task layered DAG on the demonstrator
   cluster, planned with HEFT and run through the executor behind the
   default plan-lint gate, under a 2 % transient + 2 % FPGA-transient
   fault plan with the default recovery policy; the report is forced at
   the end.  It is the only workload for the dag, scheduler, planlint,
   executor (Desim) and resilience-retry layers, and touches no fabric
   layer. *)

module Wf = Everest_workflow
module Cluster = Everest_platform.Cluster
module Faults = Everest_resilience.Faults
module Policy = Everest_resilience.Policy
module Lint = Everest_analysis.Lint

let tasks = 100_000

let l_dag = Prof.layer "dag"
let l_scheduler = Prof.layer "scheduler"
let l_planlint = Prof.layer "planlint"
let l_executor = Prof.layer "executor"
let l_report = Prof.layer "report"

type inputs = {
  i_dag : Wf.Dag.t;
  i_cluster : Cluster.t;
  i_faults : Faults.t;
}

let setup ~seed ~tasks =
  { i_dag = Wf.Scalebench.make_dag ~seed Wf.Scalebench.Layered ~tasks;
    i_cluster = Cluster.everest_demonstrator ();
    i_faults = Faults.plan ~seed ~transient_prob:0.02 ~fpga_transient_prob:0.02 () }

let execute ?plan_lint (i : inputs) plan =
  Wf.Executor.execute ?plan_lint ~faults:i.i_faults ~policy:Policy.default
    i.i_cluster plan

(* The measured phase: plan, execute (lint-gated), force the report. *)
let measured (i : inputs) =
  let plan = Wf.Scheduler.heft i.i_cluster i.i_dag in
  match execute i plan with
  | stats ->
      ignore (Lazy.force stats.Wf.Executor.report);
      (plan, Some stats)
  | exception Wf.Executor.Execution_failed _ -> (plan, None)

let finished t = Float.is_finite t && t >= 0.0

(* Every task finished and the makespan is the latest finish. *)
let check (s : Wf.Executor.stats) =
  let fin = s.Wf.Executor.task_finish in
  Array.for_all finished fin
  && Array.fold_left Float.max 0.0 fin = s.Wf.Executor.makespan

let digest (s : Wf.Executor.stats) =
  let b = Buffer.create (16 * Array.length s.Wf.Executor.task_finish) in
  Printf.bprintf b "makespan=%.9f retries=%d transfers=%d bytes=%d\n"
    s.Wf.Executor.makespan s.Wf.Executor.retries s.Wf.Executor.transfers
    s.Wf.Executor.bytes_moved;
  Array.iter (Printf.bprintf b "%.9f\n") s.Wf.Executor.task_finish;
  Digest.to_hex (Digest.string (Buffer.contents b))

let no_lint_errors (i : inputs) plan =
  List.for_all
    (fun (d : Lint.diag) -> d.Lint.severity <> Lint.Error)
    (Wf.Planlint.check i.i_cluster plan)

(* A task fails when it never finishes; an execution failure or a failed
   check fails every task of the run. *)
let measure ~seed =
  let i, setup_s = Harness.setup (fun () -> setup ~seed ~tasks) in
  let n = Wf.Dag.size i.i_dag in
  let (plan, stats), m = Harness.measure (fun () -> measured i) in
  let base =
    { Harness.setup_s; m; units = n; unit_name = "task"; attempted = n;
      failed = n; correct = false; digest = "-"; sim = []; host_times = [] }
  in
  match stats with
  | None -> base
  | Some stats ->
      let ok = check stats && no_lint_errors i plan in
      let unfinished =
        Array.fold_left
          (fun acc t -> if finished t then acc else acc + 1)
          0 stats.Wf.Executor.task_finish
      in
      { base with
        failed = (if ok then unfinished else n); correct = ok;
        digest = digest stats;
        sim = [ ("sim_makespan_s", "s", stats.Wf.Executor.makespan) ] }

let trace ~seed =
  let i = Prof.call l_dag (fun () -> setup ~seed ~tasks) in
  let n = Wf.Dag.size i.i_dag in
  let per_task s = 1e6 *. s /. float_of_int n in
  let fresh () = { i with i_cluster = Cluster.everest_demonstrator () } in
  (* rounds of: the untraced measured phase, then each layer called on its
     own with the profiler off and on *)
  let layers () =
    let i = fresh () in
    let plan =
      Prof.call l_scheduler (fun () -> Wf.Scheduler.heft i.i_cluster i.i_dag)
    in
    Prof.call l_planlint (fun () -> Wf.Planlint.gate i.i_cluster plan);
    let stats = Prof.call l_executor (fun () -> execute ~plan_lint:false i plan) in
    ignore (Prof.call l_report (fun () -> Lazy.force stats.Wf.Executor.report));
    (i, plan, stats)
  in
  let dag_s = Prof.seconds l_dag in
  let rounds = Prof.rounds 3 ~reference:(fun () -> snd (measured (fresh ()))) ~layers in
  let reference, (i, plan, stats) = rounds.Prof.result in
  let ok =
    check stats && no_lint_errors i plan
    && Option.fold ~none:false
         ~some:(fun r -> String.equal (digest r) (digest stats))
         reference
  in
  (* scaling probe: executor host time at 1/4, 1/2 and 1x the task count *)
  let probe =
    List.map
      (fun scale ->
        let j = setup ~seed ~tasks:(int_of_float (scale *. float_of_int tasks)) in
        let plan = Wf.Scheduler.heft j.i_cluster j.i_dag in
        let (_ : Wf.Executor.stats), s = Prof.timed (fun () -> execute j plan) in
        (float_of_int (Wf.Dag.size j.i_dag), s))
      [ 0.25; 0.5; 1.0 ]
  in
  let untraced_s = rounds.Prof.reference_s in
  let layer_us l = per_task (Prof.seconds l) in
  let layers_us =
    List.fold_left
      (fun acc l -> acc +. layer_us l)
      0.0 [ l_scheduler; l_planlint; l_executor; l_report ]
  in
  { Harness.t_layers =
      [ ("dag.us_per_task", per_task dag_s);
        ("scheduler.us_per_task", layer_us l_scheduler);
        ("scheduler.words_per_task", Prof.words l_scheduler /. float_of_int n);
        ("planlint.us_per_task", layer_us l_planlint);
        ("executor.us_per_task", layer_us l_executor);
        ("executor.words_per_task", Prof.words l_executor /. float_of_int n);
        ("executor.retries", float_of_int stats.Wf.Executor.retries);
        ("executor.transfers", float_of_int stats.Wf.Executor.transfers);
        ("executor.cost_slope", Harness.loglog_slope probe);
        ("report.us_per_task", layer_us l_report);
        ("trace.remainder_us_per_unit", per_task untraced_s -. layers_us) ];
    t_exact = true; t_untraced_us = per_task untraced_s;
    t_traced_us = per_task rounds.Prof.on_s;
    t_overhead_us = per_task (rounds.Prof.on_s -. rounds.Prof.off_s);
    t_units = n; t_attempted = n; t_correct = ok; t_digest = digest stats;
    t_figures =
      [ ("tasks_per_s", "tasks/s", float_of_int n /. untraced_s);
        ("sim_makespan_s", "s", stats.Wf.Executor.makespan) ] }
