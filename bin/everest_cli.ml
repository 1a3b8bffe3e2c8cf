(* The EVEREST command-line tool.

     everest_cli compile [--size N] [--emit ir|sycl|rtl|variants]
         compile the demo tensor pipeline and print the requested artifact
     everest_cli run [--policy P] [--fpgas K] [--kill NODE:T]..
         compile and execute the demo workflow on the simulated
         demonstrator; exhausted recovery exits 1 with a structured error
     everest_cli serve [--requests N] [--goal time|energy]
         adaptively serve the hot kernel through the virtualized runtime
     everest_cli recover [--seed S] [--crash-after N] [--snapshot-every T]
         crash-recovery drill: run the journaled serving fabric and the
         checkpointed workflow executor, kill each at a seeded mid-run
         journal record, restore, and byte-compare the resumed reports
         against uninterrupted same-seed runs; exit 1 on any mismatch
     everest_cli recover --demo
         corrupt snapshots (bit-flip, truncation, version skew): each must
         be detected and fallen back over, an all-corrupt store must be
         refused with a typed error (exits 1)
     everest_cli hls [--unroll U] [--dift]
         synthesize the demo kernel and print the HLS report + RTL sketch
     everest_cli telemetry [--trace-out F] [--metrics-out F] [--format t|p]
         run the demonstrator workflow + adaptive serving fully
         instrumented; emit a Chrome trace-event JSON and a metrics dump
     everest_cli chaos [--seed S] [--fault-rate R] [--format text|json]
         deterministic fault-injection drill: run the example workflows
         under a seeded fault plan with the recovery policy on, twice,
         plus a circuit-breaker degradation demo; exit 1 on any failure
     everest_cli lint [FILE..] [--demo] [--examples] [--format text|json]
         run the static-analysis rules over textual IR modules (or the
         seeded-defect / lowered-example modules); exit 1 on errors
     everest_cli observe [--seed S] [--format text|json] [--out F]
         run the stress workflow traced under a seeded fault plan plus an
         SLO-monitored serving phase; print the analytics report (critical
         path, per-node utilization, SLO verdicts); exit 1 if any internal
         consistency check fails or an SLO is violated
     everest_cli observe --demo
         deliberately violate the availability SLO so the burn-rate alert
         fires (exercises the failure path; exits 1)
     everest_cli observe --diff A.json B.json
         diff two saved reports; exit 1 on regressions beyond tolerance
     everest_cli estee [--tasks N] [--family F] [--policy P] [--budget-s T]
         Estee-style scheduler scale smoke: plan (and optionally execute)
         one generated DAG family instance; exit 1 if the wall clock
         exceeds the budget — the CI guard against O(n^2) regressions
     everest_cli plan-lint [--examples] [--family F --tasks N --policy P]
                           [--demo] [--strict] [--format text|json]
         statically sanitize execution plans (EV1xx): structure,
         happens-before, placement capability and SLO feasibility; exit 1
         on errors, --demo seeds one defective plan per class
     everest_cli top [--seed S] [--interval T] [--follow] [--demo]
         watch a seeded serving run and render the live dashboard; the
         scrape interval may not be shorter than the 10 ms control tick

   The drills (serve, recover, chaos, observe, top) share their options
   and their report tail: --out FILE always writes the JSON report,
   --format picks what stdout shows, and a failed check exits 1.      *)

open Cmdliner
module Sdk = Everest.Sdk
module Dsl = Everest_dsl
module TE = Everest_dsl.Tensor_expr
module Tel = Everest_telemetry
module EIr = Everest_ir
module Lint = Everest_analysis.Lint
module Json = Everest_telemetry.Json

(* ---- shared options and report plumbing ------------------------------------ *)

(* One definition per option the drills share; each command passes its
   default and, where the meaning differs, its doc. *)
let seed_arg ?(doc = "Workload seed.") default =
  Arg.(value & opt int default & info [ "seed" ] ~docv:"S" ~doc)

let shards_arg default =
  Arg.(value & opt int default & info [ "shards" ] ~docv:"N" ~doc:"Shard count.")

let rate_arg default =
  Arg.(
    value & opt float default
    & info [ "rate" ] ~docv:"RPS" ~doc:"Open-loop tenant arrival rate.")

let horizon_arg default =
  Arg.(
    value & opt float default
    & info [ "horizon" ] ~docv:"T" ~doc:"Workload horizon in seconds.")

let format_arg ?(doc = "Report format: text, json.") () =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~doc)

let out_arg =
  Arg.(
    value & opt (some string) None
    & info [ "out" ] ~docv:"FILE" ~doc:"Write the JSON report to FILE.")

let demo_arg doc = Arg.(value & flag & info [ "demo" ] ~doc)

let strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ] ~doc:"Promote warnings to errors (exit 1 on any warning).")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let print_report ~format json text =
  match format with
  | `Json -> print_string (Json.to_string ~pretty:true json ^ "\n")
  | `Text -> text ()

(* A drill's named checks as its report's ["checks"] member. *)
let checks_json checks ~passed =
  Json.Obj
    (List.map (fun (n, ok) -> (n, Json.Bool ok)) checks
    @ [ ("passed", Json.Bool passed) ])

(* The tail every drill shares: [--out FILE] receives the JSON report;
   stdout gets it too under [--format json], otherwise [text ()], one line
   per check and, for a named [drill], the verdict; exit 1 unless
   [passed]. *)
let emit ~format ~out ?(checks = []) ?drill ~passed json text =
  Option.iter (fun f -> Json.write_file f json) out;
  print_report ~format json (fun () ->
      text ();
      let width =
        List.fold_left (fun w (n, _) -> max w (String.length n + 1)) 0 checks
      in
      List.iter
        (fun (n, ok) ->
          Printf.printf "check %-*s %s\n" width n (if ok then "ok" else "FAILED"))
        checks;
      Option.iter
        (fun d ->
          Printf.printf "%s drill %s\n" d (if passed then "passed" else "FAILED"))
        drill);
  if not passed then exit 1

(* The single-host breaker demo of the chaos and observe drills: kernel
   "k" (hardware variant plus software fallback) behind a breaker that
   opens after two failures. *)
let breaker_demo_orch ?registry () =
  let cluster =
    Sdk.Platform.Cluster.create [ Sdk.Platform.Cluster.power9_node "p9" ]
  in
  let orch = Sdk.Runtime.Orchestrator.create ?registry cluster ~host_name:"p9" in
  Everest_serving.Fabric.demo_deploy ~kernels:[ "k" ]
    ~breaker:
      { Everest_resilience.Breaker.failure_threshold = 2; cooldown_s = 0.01;
        half_open_probes = 1 }
    () orch;
  orch

let demo_graph n =
  let g = Sdk.workflow "demo" in
  let src = Dsl.Dataflow.source g "input" ~bytes:(8 * n * n) in
  let x = TE.input "x" [ n; n ] in
  let mm =
    Dsl.Dataflow.task g "mm" (Dsl.Dataflow.Tensor_kernel (TE.matmul x x))
      ~deps:[ src ]
  in
  let act =
    Dsl.Dataflow.task g "act"
      (Dsl.Dataflow.Tensor_kernel (TE.relu (TE.input "y" [ n; n ])))
      ~deps:[ mm ]
  in
  Dsl.Dataflow.sink g "out" act;
  g

(* ---- compile --------------------------------------------------------------- *)

let compile_cmd =
  let size =
    Arg.(value & opt int 64 & info [ "size" ] ~docv:"N" ~doc:"Tensor size N×N.")
  in
  let emit =
    Arg.(
      value
      & opt (enum [ ("ir", `Ir); ("sycl", `Sycl); ("variants", `Variants);
                    ("report", `Report) ])
          `Report
      & info [ "emit" ] ~doc:"Artifact to print: ir, sycl, variants, report.")
  in
  let run size emit =
    let app = Sdk.compile (demo_graph size) in
    match emit with
    | `Ir ->
        print_string
          (Everest_ir.Printer.module_to_string app.Everest_compiler.Pipeline.ir)
    | `Sycl ->
        List.iter
          (fun k -> print_string k.Everest_compiler.Pipeline.sycl)
          app.Everest_compiler.Pipeline.kernels
    | `Variants ->
        List.iter
          (fun k ->
            Format.printf "kernel %s:@." k.Everest_compiler.Pipeline.ck_name;
            List.iter
              (fun v -> Format.printf "  %a@." Everest_compiler.Variants.pp v)
              k.Everest_compiler.Pipeline.dse.Everest_compiler.Dse.variants)
          app.Everest_compiler.Pipeline.kernels
    | `Report -> Format.printf "%a" Everest_compiler.Pipeline.report app
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile the demo pipeline.")
    Term.(const run $ size $ emit)

(* ---- run ------------------------------------------------------------------- *)

(* NODE:TIME pairs for --kill, shared by run and telemetry. *)
let node_time_conv =
  let parse s =
    match String.rindex_opt s ':' with
    | Some i -> (
        let node = String.sub s 0 i
        and t = String.sub s (i + 1) (String.length s - i - 1) in
        match float_of_string_opt t with
        | Some t when node <> "" -> Ok (node, t)
        | _ -> Error (`Msg "expected NODE:TIME, e.g. cf0:0.0001"))
    | None -> Error (`Msg "expected NODE:TIME, e.g. cf0:0.0001")
  in
  let print ppf (n, t) = Format.fprintf ppf "%s:%g" n t in
  Cmdliner.Arg.conv (parse, print)

let run_cmd =
  let policy =
    Arg.(
      value & opt string "heft-locality"
      & info [ "policy" ] ~doc:"Scheduling policy.")
  in
  let fpgas =
    Arg.(value & opt int 4 & info [ "fpgas" ] ~doc:"Number of cloudFPGA nodes.")
  in
  let size =
    Arg.(value & opt int 128 & info [ "size" ] ~docv:"N" ~doc:"Tensor size.")
  in
  let kills =
    Arg.(
      value & opt_all node_time_conv []
      & info [ "kill" ] ~docv:"NODE:T"
          ~doc:"Fail node NODE permanently at simulated time T (repeatable).")
  in
  let retries =
    Arg.(
      value & opt int 3
      & info [ "retries" ] ~doc:"Per-task retry budget under --kill.")
  in
  let run policy fpgas size kills retries =
    let module Res = Everest_resilience in
    let module Wf = Sdk.Workflow in
    let app = Sdk.compile (demo_graph size) in
    let faults = Res.Faults.of_failures kills in
    let exec_policy = { Res.Policy.default with Res.Policy.max_retries = retries } in
    match Sdk.run ~policy ~cloud_fpgas:fpgas ~faults ~exec_policy app with
    | stats -> Format.printf "%a@." Sdk.pp_run stats
    | exception Wf.Executor.Execution_failed { reason; partial } ->
        let total = Array.length partial.Wf.Executor.task_finish in
        let completed =
          Array.fold_left
            (fun acc f -> if f >= 0.0 then acc + 1 else acc)
            0 partial.Wf.Executor.task_finish
        in
        Format.eprintf
          "error: execution failed: %s@.  completed %d/%d tasks, retries=%d \
           timeouts=%d recomputed=%d@."
          reason completed total partial.Wf.Executor.retries
          partial.Wf.Executor.timeouts partial.Wf.Executor.recomputed;
        exit 1
  in
  Cmd.v (Cmd.info "run" ~doc:"Run the demo workflow on the demonstrator.")
    Term.(const run $ policy $ fpgas $ size $ kills $ retries)

(* ---- serve ----------------------------------------------------------------- *)

(* Serving-fleet drill: a seeded multi-tenant workload through N
   orchestrator shards behind admission control, a balancer, batching and
   worker auto-allocation.  Built-in checks (exit 1 on failure): the run
   must serve, keep availability and the per-tenant SLOs, shed nothing,
   and a second same-seed run must produce a byte-identical request log
   and SLO outcomes.  [--demo] deliberately overloads a starved fleet so
   the checks fail. *)
let serve_cmd =
  let module Srv = Everest_serving in
  let module Res = Everest_resilience in
  let module Obs = Everest_observe in
  let balancer =
    Arg.(
      value & opt string "least-outstanding"
      & info [ "balancer" ] ~docv:"POLICY"
          ~doc:"Routing policy: rr, least-outstanding, affinity.")
  in
  let fault_rate =
    Arg.(
      value & opt float 0.0
      & info [ "fault-rate" ] ~docv:"R"
          ~doc:"Per-shard crash probability over the horizon.")
  in
  let demo =
    demo_arg
      "Overload a starved single-worker fleet so requests are shed and the \
       latency SLO burns (exits 1)."
  in
  let run shards seed balancer rate horizon fault_rate format out demo =
    let balancer =
      match Srv.Balancer.policy_of_string balancer with
      | Some p -> p
      | None ->
          Format.eprintf "error: unknown balancer policy %S@." balancer;
          exit 2
    in
    let tenants =
      [ Srv.Workload.open_tenant ~name:"acme" ~kernel:"mm"
          ~rate_rps:(if demo then 4000.0 else rate)
          ~diurnal_amplitude:0.3 ~diurnal_period_s:1.0
          ~burst:
            { Srv.Workload.burst_factor = 3.0; mean_calm_s = 0.1;
              mean_burst_s = 0.05 }
          ~features:(fun seq ->
            [ ("size", float_of_int (1024 + (64 * (seq mod 4)))) ])
          ();
        Srv.Workload.closed_tenant ~name:"globex" ~kernel:"mm" ~users:4
          ~think_s:0.05 () ]
    in
    let base = Srv.Fabric.default_config ~n_shards:shards in
    let faults =
      if fault_rate <= 0.0 then Res.Faults.none
      else
        Res.Faults.random_plan ~seed ~fault_rate
          ~mean_downtime:(0.25 *. horizon)
          ~nodes:(List.init shards (Printf.sprintf "shard%d"))
          ~horizon ()
    in
    let config =
      if demo then
        (* starved on purpose: one worker, no batching headroom, a tiny
           queue bound and a tight latency SLO *)
        { base with
          Srv.Fabric.seed; balancer; faults; max_queue = 16;
          autoscale = Srv.Autoscale.fixed 1;
          batcher =
            { Srv.Batcher.max_batch = 1; max_delay_s = 0.0;
              marginal_cost = 1.0 };
          tenant_slos =
            [ Obs.Slo.availability "availability" 0.99;
              Obs.Slo.latency "p99-latency" ~q:0.99 ~limit_s:0.002 ] }
      else { base with Srv.Fabric.seed; balancer; faults }
    in
    let once () =
      Srv.Fabric.run ~registry:(Tel.Metrics.create_registry ()) config
        ~deploy:(Srv.Fabric.demo_deploy ()) ~tenants ~horizon
    in
    let r = once () in
    let again = once () in
    let identical =
      String.equal (Srv.Fabric.render_log r) (Srv.Fabric.render_log again)
      && String.equal (Srv.Fabric.render_slos r)
           (Srv.Fabric.render_slos again)
    in
    let served = Srv.Fabric.served_ok r in
    let shed = Srv.Fabric.shed r in
    let availability = Srv.Fabric.availability r in
    let slos_met =
      List.for_all
        (fun tr ->
          List.for_all
            (fun (res : Obs.Slo.result) -> res.Obs.Slo.met)
            tr.Srv.Fabric.tr_slos)
        r.Srv.Fabric.f_tenants
    in
    let checks =
      [ ("served", served > 0);
        ("availability", availability >= 0.99);
        ("slos_met", slos_met);
        ("nothing_shed", shed = 0);
        ("deterministic", identical) ]
    in
    let passed = List.for_all snd checks in
    let json =
      Json.Obj
        [ ("shards", Json.int shards); ("seed", Json.int seed);
          ("balancer",
           Json.Str (Srv.Balancer.policy_name config.Srv.Fabric.balancer));
          ("horizon_s", Json.Num horizon);
          ("requests", Json.int (List.length r.Srv.Fabric.f_log));
          ("served", Json.int served);
          ("failed", Json.int (Srv.Fabric.failed r)); ("shed", Json.int shed);
          ("availability", Json.Num availability);
          ("throughput_rps", Json.Num (Srv.Fabric.throughput_rps r));
          ("p99_latency_s", Json.Num (Srv.Fabric.latency_quantile r 0.99));
          ("batched_requests", Json.int (Srv.Fabric.batched_requests r));
          ("workers_spawned", Json.int r.Srv.Fabric.f_spawned);
          ("workers_retired", Json.int r.Srv.Fabric.f_retired);
          ("reroutes", Json.int r.Srv.Fabric.f_reroutes);
          ("tenants",
           Json.Arr
             (List.map
                (fun tr ->
                  Json.Obj
                    [ ("tenant", Json.Str tr.Srv.Fabric.tr_tenant);
                      ("requests", Json.int tr.Srv.Fabric.tr_requests);
                      ("served", Json.int tr.Srv.Fabric.tr_served);
                      ("shed",
                       Json.int
                         (List.fold_left
                            (fun acc (_, n) -> acc + n)
                            0 tr.Srv.Fabric.tr_shed));
                      ("burn_alerts", Json.int tr.Srv.Fabric.tr_alerts);
                      ("slos",
                       Json.Arr
                         (List.map Obs.Slo.result_to_json
                            tr.Srv.Fabric.tr_slos)) ])
                r.Srv.Fabric.f_tenants));
          ("checks", checks_json checks ~passed) ]
    in
    emit ~format ~out ~checks ~drill:"serve" ~passed json (fun () ->
        print_string (Srv.Fabric.render_summary r))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serving-fleet drill: sharded multi-tenant serving with checks.")
    Term.(
      const run $ shards_arg 2 $ seed_arg 7 $ balancer $ rate_arg 150.0
      $ horizon_arg 0.3 $ fault_rate $ format_arg () $ out_arg $ demo)

(* ---- recover ---------------------------------------------------------------- *)

(* Crash-recovery drill: run the serving fabric with write-ahead
   journaling on, kill it at a seeded mid-run journal record, resume by
   re-executing from t=0 against the journal and the newest snapshot
   anchor, and byte-compare the resumed report against the uninterrupted
   same-seed run; then the same for the workflow executor, which resumes
   through the same replay module.  Exit 1 on any mismatch.  [--demo]
   corrupts the newest snapshot three ways (bit-flip, truncation, version
   skew): each must be detected and fallen back over, and a store with
   every snapshot damaged must be refused with a typed error — the demo
   exits 1 to prove the detection path fired. *)
let recover_cmd =
  let module Srv = Everest_serving in
  let module Res = Everest_resilience in
  let module Rec = Everest_recovery in
  let module Wf = Everest_workflow in
  let snapshot_every =
    Arg.(
      value & opt float 0.1
      & info [ "snapshot-every" ] ~docv:"T"
          ~doc:"Fabric anchor-snapshot interval in simulated seconds.")
  in
  let crash_after =
    Arg.(
      value & opt int 0
      & info [ "crash-after" ] ~docv:"N"
          ~doc:"Kill after N journal records (0: mid-run).")
  in
  let dir =
    Arg.(
      value
      & opt string (Filename.concat (Filename.get_temp_dir_name ()) "everest-recover")
      & info [ "dir" ] ~docv:"DIR" ~doc:"Recovery store directory.")
  in
  let dump_baseline =
    Arg.(
      value & opt (some string) None
      & info [ "dump-baseline" ] ~docv:"FILE"
          ~doc:"Write the uninterrupted run's report to FILE (for cmp).")
  in
  let dump_resumed =
    Arg.(
      value & opt (some string) None
      & info [ "dump-resumed" ] ~docv:"FILE"
          ~doc:"Write the crash-restart-resumed report to FILE (for cmp).")
  in
  let demo =
    demo_arg
      "Corrupt snapshots (bit-flip, truncation, version skew); the store \
       must detect each, fall back, and refuse an all-corrupt store with a \
       typed error (exits 1)."
  in
  let run seed shards rate horizon snapshot_every crash_after dir format out
      dump_baseline dump_resumed demo =
    let tenants =
      [ Srv.Workload.open_tenant ~name:"acme" ~kernel:"mm" ~rate_rps:rate
          ~diurnal_amplitude:0.3 ~diurnal_period_s:1.0
          ~features:(fun seq ->
            [ ("size", float_of_int (1024 + (64 * (seq mod 4)))) ])
          ();
        Srv.Workload.closed_tenant ~name:"globex" ~kernel:"mm" ~users:4
          ~think_s:0.05 () ]
    in
    let config =
      { (Srv.Fabric.default_config ~n_shards:shards) with
        Srv.Fabric.seed;
        faults =
          Res.Faults.plan ~seed ~transient_prob:0.05 ~fpga_transient_prob:0.1
            () }
    in
    let fp = Srv.Fabric.fingerprint config ~tenants ~horizon in
    let render r =
      Srv.Fabric.render_log r ^ "\n" ^ Srv.Fabric.render_slos r ^ "\n"
      ^ Srv.Fabric.render_summary r
    in
    let fab_run ?recovery () =
      Srv.Fabric.run ~registry:(Tel.Metrics.create_registry ()) ?recovery
        config ~deploy:(Srv.Fabric.demo_deploy ()) ~tenants ~horizon
    in
    (* uninterrupted journaled run: the reference report *)
    let base_store =
      Rec.Store.open_store ~fresh:true ~dir:(Filename.concat dir "baseline")
        ~fingerprint:fp ()
    in
    let baseline =
      render
        (fab_run
           ~recovery:
             { Srv.Fabric.rv_store = base_store;
               rv_snapshot_every_s = snapshot_every }
           ())
    in
    let records = base_store.Rec.Store.records_written in
    let snapshots = base_store.Rec.Store.snapshots_written in
    Rec.Store.close base_store;
    let after =
      if crash_after > 0 then min crash_after (max 1 (records - 1))
      else max 1 (records / 2)
    in
    (* crashed run: the armed record is flushed, then the process "dies" *)
    let crash_dir = Filename.concat dir "crash" in
    let store =
      Rec.Store.open_store ~fresh:true ~dir:crash_dir ~fingerprint:fp ()
    in
    Rec.Store.arm_crash store ~after_records:after;
    let recovery =
      { Srv.Fabric.rv_store = store; rv_snapshot_every_s = snapshot_every }
    in
    let crashed =
      try
        ignore (fab_run ~recovery ());
        false
      with Rec.Journal.Crashed -> true
    in
    Rec.Store.close store;
    if demo then begin
      (* corruption drills against the crashed store *)
      let newest_snap () =
        Sys.readdir crash_dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".esnap")
        |> List.sort compare |> List.rev |> List.hd
        |> Filename.concat crash_dir
      in
      let corruptions =
        [ ( "bit-flip",
            fun path ->
              let b = Bytes.of_string (read_file path) in
              let off = Bytes.length b - 7 in
              Bytes.set b off
                (Char.chr (Char.code (Bytes.get b off) lxor 0x01));
              write_file path (Bytes.to_string b) );
          ( "truncation",
            fun path ->
              let s = read_file path in
              write_file path (String.sub s 0 (String.length s / 2)) );
          ( "version-skew",
            fun path ->
              let s = read_file path in
              write_file path
                ("EVEREST-SNAP v9" ^ String.sub s 15 (String.length s - 15)) )
        ]
      in
      let all_detected =
        List.for_all
          (fun (kind, corrupt) ->
            let snap = newest_snap () in
            let pristine = read_file snap in
            corrupt snap;
            let store =
              Rec.Store.open_store ~dir:crash_dir ~fingerprint:fp ()
            in
            let recovery =
              { Srv.Fabric.rv_store = store;
                rv_snapshot_every_s = snapshot_every }
            in
            let resumed, report =
              Srv.Fabric.resume ~registry:(Tel.Metrics.create_registry ())
                ~recovery config ~deploy:(Srv.Fabric.demo_deploy ()) ~tenants
                ~horizon
            in
            Rec.Store.close store;
            let detected = report.Srv.Fabric.rr_fallbacks >= 1 in
            let identical = String.equal baseline (render resumed) in
            Printf.printf
              "recover demo: %-12s detected=%b fell back to snapshot %d, \
               report identical=%b\n"
              kind detected report.Srv.Fabric.rr_snapshot_index identical;
            write_file snap pristine;
            detected && identical)
          corruptions
      in
      (* every snapshot damaged: restore must refuse with a typed error *)
      Sys.readdir crash_dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".esnap")
      |> List.iter (fun f ->
             let path = Filename.concat crash_dir f in
             write_file path ("XX" ^ read_file path));
      let refused =
        let store = Rec.Store.open_store ~dir:crash_dir ~fingerprint:fp () in
        let recovery =
          { Srv.Fabric.rv_store = store; rv_snapshot_every_s = snapshot_every }
        in
        match
          Srv.Fabric.resume ~recovery config
            ~deploy:(Srv.Fabric.demo_deploy ()) ~tenants ~horizon
        with
        | _ ->
            Rec.Store.close store;
            false
        | exception Rec.Store.Recovery_error e ->
            Rec.Store.close store;
            Printf.printf "recover demo: all-corrupt store refused: %s\n"
              (Rec.Store.error_to_string e);
            true
      in
      print_endline
        (if all_detected && refused then
           "recover demo: corruption detected and contained (exiting 1)"
         else "recover demo: DETECTION FAILED");
      exit 1
    end;
    (* restore from the crashed store and finish the run *)
    let store = Rec.Store.open_store ~dir:crash_dir ~fingerprint:fp () in
    let recovery =
      { Srv.Fabric.rv_store = store; rv_snapshot_every_s = snapshot_every }
    in
    let t0 = Sys.time () in
    let resumed_r, report =
      Srv.Fabric.resume ~registry:(Tel.Metrics.create_registry ()) ~recovery
        config ~deploy:(Srv.Fabric.demo_deploy ()) ~tenants ~horizon
    in
    let recovery_s = Sys.time () -. t0 in
    Rec.Store.close store;
    let resumed = render resumed_r in
    let fab_identical = String.equal baseline resumed in
    (match dump_baseline with
    | Some f -> write_file f baseline
    | None -> ());
    (match dump_resumed with
    | Some f -> write_file f resumed
    | None -> ());
    (* executor drill: the same replay from t=0 *)
    let exec_digest (s : Wf.Executor.stats) =
      let buf = Buffer.create 1024 in
      Buffer.add_string buf
        (Printf.sprintf "makespan=%.9f retries=%d timeouts=%d recomp=%d\n"
           s.Wf.Executor.makespan s.Wf.Executor.retries s.Wf.Executor.timeouts
           s.Wf.Executor.recomputed);
      Array.iteri
        (fun i f -> Buffer.add_string buf (Printf.sprintf "%d=%.9f\n" i f))
        s.Wf.Executor.task_finish;
      List.iter
        (fun (n, k) -> Buffer.add_string buf (Printf.sprintf "%s:%d\n" n k))
        s.Wf.Executor.per_node_tasks;
      Buffer.contents buf
    in
    let exec_run ?checkpoint () =
      let d =
        Wf.Dag.layered ~seed ~layers:5 ~width:6 ~flops:1e9 ~bytes:1e6 ()
      in
      let c = Everest_platform.Cluster.everest_demonstrator () in
      let plan = Wf.Scheduler.heft c d in
      Wf.Executor.execute
        ~faults:(Res.Faults.plan ~seed ~transient_prob:0.02 ())
        ~registry:(Tel.Metrics.create_registry ()) ?checkpoint c plan
    in
    let exec_dir = Filename.concat dir "executor" in
    let store =
      Rec.Store.open_store ~fresh:true ~dir:exec_dir ~fingerprint:"executor" ()
    in
    let exec_base =
      exec_digest
        (exec_run ~checkpoint:(Wf.Checkpoint.create ~store ~every:7) ())
    in
    let exec_records = store.Rec.Store.records_written in
    Rec.Store.close store;
    let exec_after = max 1 (exec_records / 2) in
    let store =
      Rec.Store.open_store ~fresh:true ~dir:exec_dir ~fingerprint:"executor" ()
    in
    Rec.Store.arm_crash store ~after_records:exec_after;
    let exec_crashed =
      try
        ignore
          (exec_run ~checkpoint:(Wf.Checkpoint.create ~store ~every:7) ());
        false
      with Rec.Journal.Crashed -> true
    in
    Rec.Store.close store;
    let store =
      Rec.Store.open_store ~dir:exec_dir ~fingerprint:"executor" ()
    in
    let ck = Wf.Checkpoint.resume ~store ~every:7 in
    let exec_resumed = exec_digest (exec_run ~checkpoint:ck ()) in
    Rec.Store.close store;
    let exec_identical = String.equal exec_base exec_resumed in
    let checks =
      [ ("fabric_crashed", crashed);
        ("fabric_byte_identical", fab_identical);
        ("fabric_no_fallbacks", report.Srv.Fabric.rr_fallbacks = 0);
        ("executor_crashed", exec_crashed);
        ("executor_byte_identical", exec_identical) ]
    in
    let passed = List.for_all snd checks in
    let json =
      Json.Obj
        [ ("seed", Json.int seed); ("horizon_s", Json.Num horizon);
          ("snapshot_every_s", Json.Num snapshot_every);
          ("journal_records", Json.int records);
          ("snapshots", Json.int snapshots);
          ("crash_after_record", Json.int after);
          ("resume_snapshot", Json.int report.Srv.Fabric.rr_snapshot_index);
          ("replayed_records", Json.int report.Srv.Fabric.rr_replayed);
          ("recovery_time_s", Json.Num recovery_s);
          ("executor_records", Json.int exec_records);
          ("executor_crash_after", Json.int exec_after);
          ("checks", checks_json checks ~passed) ]
    in
    emit ~format ~out ~checks ~drill:"recover" ~passed json (fun () ->
        Printf.printf
          "fabric: %d journal records, %d snapshots; killed after record \
           %d, resumed by replay (anchor snapshot %d, %d records verified) \
           in %.3fs cpu\n"
          records snapshots after report.Srv.Fabric.rr_snapshot_index
          report.Srv.Fabric.rr_replayed recovery_s;
        Printf.printf
          "executor: %d journal records; killed after record %d, replayed \
           to completion\n"
          exec_records exec_after)
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Crash-recovery drill: kill mid-run, restore, byte-compare reports.")
    Term.(
      const run $ seed_arg 7 $ shards_arg 2 $ rate_arg 150.0 $ horizon_arg 0.5
      $ snapshot_every $ crash_after $ dir $ format_arg () $ out_arg
      $ dump_baseline $ dump_resumed $ demo)

(* ---- hls ------------------------------------------------------------------- *)

let hls_cmd =
  let unroll = Arg.(value & opt int 4 & info [ "unroll" ] ~doc:"Unroll factor.") in
  let dift = Arg.(value & flag & info [ "dift" ] ~doc:"Instrument with DIFT.") in
  let rtl = Arg.(value & flag & info [ "rtl" ] ~doc:"Print the RTL sketch.") in
  let run unroll dift rtl =
    let e = TE.matmul (TE.input "a" [ 64; 64 ]) (TE.input "b" [ 64; 64 ]) in
    let dfg = Everest_compiler.Hw_lower.dfg_of_expr ~unroll e in
    let c =
      { Everest_hls.Hls.default_constraints with
        Everest_hls.Hls.unroll; dift;
        trips = Everest_compiler.Hw_lower.trips e ~unroll;
        max_banks = max 16 unroll }
    in
    let d = Everest_hls.Hls.synthesize ~c ~name:"matmul64" dfg in
    Format.printf "%a" Everest_hls.Hls.report d;
    if rtl then print_string (Everest_hls.Rtl.to_string d.Everest_hls.Hls.rtl)
  in
  Cmd.v (Cmd.info "hls" ~doc:"Synthesize the demo kernel with the HLS flow.")
    Term.(const run $ unroll $ dift $ rtl)

(* ---- telemetry ------------------------------------------------------------- *)

(* Runs the full instrumented flow: compile (wall-clock spans), the
   demonstrator workflow under the executor (simulated-time spans, one track
   per node) and a closed-loop adaptive serving phase, then emits one Chrome
   trace with the three processes plus a metrics dump.  The headline
   executor numbers are printed from both stats and the metrics registry so
   the two accounts can be compared; they must agree exactly. *)
let telemetry_cmd =
  let size =
    Arg.(value & opt int 128 & info [ "size" ] ~docv:"N" ~doc:"Tensor size.")
  in
  let policy =
    Arg.(
      value & opt string "heft-locality"
      & info [ "policy" ] ~doc:"Scheduling policy for the workflow phase.")
  in
  let requests =
    Arg.(
      value & opt int 50
      & info [ "requests" ] ~doc:"Closed-loop requests in the serving phase.")
  in
  let kill =
    Arg.(
      value & opt (some node_time_conv) None
      & info [ "kill" ] ~docv:"NODE:T"
          ~doc:"Fail node NODE at simulated time T (exercises retries).")
  in
  let trace_out =
    Arg.(
      value & opt string "everest_trace.json"
      & info [ "trace-out" ] ~doc:"Chrome trace-event JSON output file.")
  in
  let metrics_out =
    Arg.(
      value & opt (some string) None
      & info [ "metrics-out" ] ~doc:"Metrics dump file (default: stdout).")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("prometheus", `Prom) ]) `Text
      & info [ "format" ] ~doc:"Metrics dump format: text, prometheus.")
  in
  let run size policy requests kill trace_out metrics_out format =
    let registry = Tel.Metrics.default in
    Tel.Metrics.reset registry;
    (* 1. compile, tracing the DSE stages on the wall clock *)
    let compile_tracer = Tel.Trace.create () in
    let app =
      Tel.Probe.with_tracer compile_tracer (fun () ->
          Sdk.compile (demo_graph size))
    in
    (* 2. demonstrator workflow under the executor, on simulated time *)
    let c = Sdk.Platform.Cluster.everest_demonstrator () in
    let exec_tracer = Sdk.Runtime.Orchestrator.sim_tracer c in
    let failures = match kill with None -> [] | Some f -> [ f ] in
    let plan =
      match Sdk.Workflow.Scheduler.by_name policy with
      | Some f -> f c app.Everest_compiler.Pipeline.dag
      | None -> invalid_arg ("unknown scheduling policy " ^ policy)
    in
    let stats =
      Sdk.Workflow.Executor.execute ~failures ~tracer:exec_tracer ~registry c
        plan
    in
    (* 3. adaptive serving phase (Fig. 2 loop), its own simulated clock *)
    let served = Sdk.serve ~n:requests ~telemetry:true app ~kernel:"mm" in
    (* 4. one Chrome trace, three processes *)
    Tel.Chrome_trace.write_processes trace_out
      [ Tel.Chrome_trace.of_tracer ~pid:1 ~process_name:"compile (wall)"
          compile_tracer;
        Tel.Chrome_trace.of_tracer ~pid:2 ~process_name:"executor (sim)"
          exec_tracer;
        Tel.Chrome_trace.of_spans ~pid:3 ~process_name:"orchestrator (sim)"
          served.Sdk.span_log ];
    (* 5. metrics dump *)
    let dump =
      match format with
      | `Text -> Tel.Metrics.render_text registry
      | `Prom -> Tel.Metrics.render_prometheus registry
    in
    (match metrics_out with
    | None -> print_string dump
    | Some f ->
        let oc = open_out f in
        output_string oc dump;
        close_out oc);
    (* 6. stats vs. telemetry agreement *)
    let counter name =
      match
        Tel.Metrics.find ~registry
          ~labels:[ ("workflow", "demo") ]
          name
      with
      | Some { Tel.Metrics.value = Tel.Metrics.Counter c; _ } ->
          int_of_float !c
      | _ -> -1
    in
    let spans = stats.Sdk.Workflow.Executor.span_log in
    Format.printf
      "@.workflow phase (policy=%s): makespan=%.4gs energy=%.4gJ@." policy
      stats.Sdk.Workflow.Executor.makespan
      stats.Sdk.Workflow.Executor.energy_j;
    let agree name from_stats from_metrics from_trace =
      Format.printf "  %-12s stats=%-10d metrics=%-10d trace=%-10d %s@." name
        from_stats from_metrics from_trace
        (if from_stats = from_metrics && from_metrics = from_trace then "agree"
         else "MISMATCH");
      from_stats = from_metrics && from_metrics = from_trace
    in
    let ok =
      List.for_all Fun.id
        [ agree "tasks"
            (Array.length stats.Sdk.Workflow.Executor.task_finish)
            (counter "workflow_tasks_completed_total")
            (Sdk.Workflow.Executor.trace_tasks_completed spans);
          agree "retries" stats.Sdk.Workflow.Executor.retries
            (counter "workflow_task_retries_total")
            (Sdk.Workflow.Executor.trace_retries spans);
          agree "bytes_moved" stats.Sdk.Workflow.Executor.bytes_moved
            (counter "workflow_bytes_moved_total")
            (Sdk.Workflow.Executor.trace_bytes_moved spans) ]
    in
    Format.printf
      "serving phase: %d requests, mean latency %.3gs, %d switches@."
      served.Sdk.requests served.Sdk.mean_latency_s served.Sdk.switches;
    Format.printf "trace: %s (open in chrome://tracing or ui.perfetto.dev)@."
      trace_out;
    if not ok then exit 1
  in
  Cmd.v
    (Cmd.info "telemetry"
       ~doc:"Run the instrumented demonstrator and emit trace + metrics.")
    Term.(
      const run $ size $ policy $ requests $ kill $ trace_out $ metrics_out
      $ format)

(* ---- example workflows ----------------------------------------------------- *)

(* Lowered example workflows (the shapes of examples/): linted by `lint
   --examples` (must be clean) and stressed by the `chaos` drill. *)
let example_graphs () =
  let quickstart =
    let g = Sdk.workflow "quickstart" in
    let src =
      Dsl.Dataflow.source g "sensor" ~bytes:(1 lsl 16)
        ~annots:[ Dsl.Annot.Access Dsl.Annot.Streaming ]
    in
    let x = TE.input "x" [ 64; 64 ] in
    let smooth =
      Dsl.Dataflow.task g "smooth"
        (Dsl.Dataflow.Tensor_kernel (TE.scale 0.25 (TE.add x x)))
        ~deps:[ src ]
    in
    let w = TE.input "w" [ 64; 64 ] in
    let project =
      Dsl.Dataflow.task g "project"
        (Dsl.Dataflow.Tensor_kernel (TE.relu (TE.matmul w w)))
        ~deps:[ smooth ]
        ~annots:[ Dsl.Annot.Security EIr.Dialect_sec.Confidential ]
    in
    Dsl.Dataflow.sink g "result" project;
    g
  in
  let forecast =
    let g = Sdk.workflow "forecast" in
    let src = Dsl.Dataflow.source g "meters" ~bytes:(1 lsl 20) in
    let x = TE.input "x" [ 128; 128 ] in
    let model =
      Dsl.Dataflow.task g "model"
        (Dsl.Dataflow.Tensor_kernel (TE.matmul x x))
        ~deps:[ src ]
        ~annots:[ Dsl.Annot.Locality "cloud" ]
    in
    Dsl.Dataflow.sink g "forecast" model;
    g
  in
  [ ("quickstart", quickstart); ("forecast", forecast);
    ("demo", demo_graph 64) ]

(* ---- chaos ----------------------------------------------------------------- *)

(* Fault-injection drill over the example workflows plus a breaker demo on
   the serving side.  Every verdict is derived from the seed, so the whole
   report is reproducible: the command runs each workflow twice and fails
   (exit 1) if the two runs disagree, if any workflow cannot complete, or if
   the breaker never recovers. *)
let chaos_cmd =
  let module Res = Everest_resilience in
  let module Wf = Sdk.Workflow in
  let fault_rate =
    Arg.(
      value & opt float 0.2
      & info [ "fault-rate" ] ~docv:"R"
          ~doc:"Per-node crash probability over the run.")
  in
  let mean_downtime =
    Arg.(
      value & opt float 0.25
      & info [ "mean-downtime" ] ~docv:"F"
          ~doc:
            "Mean downtime as a fraction of the clean makespan (0 = crashed \
             nodes never restart).")
  in
  let transient =
    Arg.(
      value & opt float 0.05
      & info [ "transient" ] ~docv:"P"
          ~doc:"Per-attempt transient task-failure probability.")
  in
  let fpga_transient =
    Arg.(
      value & opt float 0.02
      & info [ "fpga-transient" ] ~docv:"P"
          ~doc:"Extra transient probability for FPGA executions.")
  in
  let sched =
    Arg.(
      value & opt string "heft-locality"
      & info [ "policy" ] ~doc:"Scheduling policy for the workflows.")
  in
  let retries =
    Arg.(
      value & opt int 8
      & info [ "retries" ] ~docv:"N" ~doc:"Per-task retry budget.")
  in
  let run seed fault_rate mean_downtime transient fpga_transient sched retries
      format out =
    let exec_policy = { Res.Policy.chaos with Res.Policy.max_retries = retries } in
    let nodes =
      List.map
        (fun (n : Sdk.Platform.Node.t) -> n.Sdk.Platform.Node.name)
        (Sdk.Platform.Cluster.everest_demonstrator ()).Sdk.Platform.Cluster.nodes
    in
    let completed (s : Wf.Executor.stats) =
      Array.fold_left
        (fun acc f -> if f >= 0.0 then acc + 1 else acc)
        0 s.Wf.Executor.task_finish
    in
    let drill (name, dag) =
      let _, clean = Wf.Executor.run_on_demonstrator ~policy:sched dag in
      let clean_makespan = clean.Wf.Executor.makespan in
      let faults =
        Res.Faults.random_plan ~seed ~fault_rate
          ~mean_downtime:(mean_downtime *. clean_makespan)
          ~transient_prob:transient ~fpga_transient_prob:fpga_transient
          ~nodes ~horizon:clean_makespan ()
      in
      let once () =
        match
          Wf.Executor.run_on_demonstrator ~policy:sched ~faults ~exec_policy
            dag
        with
        | _, s -> Ok s
        | exception Wf.Executor.Execution_failed { reason; partial } ->
            Error (reason, partial)
      in
      let summary = function
        | Ok (s : Wf.Executor.stats) ->
            ( s.Wf.Executor.makespan, completed s, s.Wf.Executor.retries,
              s.Wf.Executor.timeouts, s.Wf.Executor.speculative,
              s.Wf.Executor.recomputed )
        | Error (_, (p : Wf.Executor.stats)) ->
            ( p.Wf.Executor.makespan, completed p, p.Wf.Executor.retries,
              p.Wf.Executor.timeouts, p.Wf.Executor.speculative,
              p.Wf.Executor.recomputed )
      in
      let a = once () in
      let b = once () in
      let reproducible = summary a = summary b in
      (name, Sdk.Workflow.Dag.size dag, clean_makespan, a, reproducible)
    in
    let dags =
      List.map
        (fun (name, g) -> (name, (Sdk.compile g).Everest_compiler.Pipeline.dag))
        (example_graphs ())
      (* the example graphs are tiny; a layered stress DAG long enough for
         crashes, stragglers and lost outputs to actually bite *)
      @ [ ("stress",
           Wf.Dag.layered ~seed ~layers:5 ~width:4 ~flops:2e9 ~bytes:1e6 ()) ]
    in
    let reports = List.map drill dags in
    (* breaker demo: the hw variant fails for a while, the breaker opens,
       requests degrade to sw, a half-open probe brings hw back *)
    let orch = breaker_demo_orch () in
    let dk = Sdk.Runtime.Orchestrator.find_kernel orch "k" in
    let hw_outage = 6 in
    let log =
      Sdk.Runtime.Orchestrator.serve orch ~kernel:"k" ~n:30
        ~policy:(Sdk.Runtime.Orchestrator.Fixed "hw")
        ~fail:(fun ~req ~variant ~attempt:_ ->
          req < hw_outage && String.equal variant "hw")
        ()
    in
    let breaker_opens =
      List.fold_left
        (fun acc (_, b) -> acc + Res.Breaker.opens b)
        0 dk.Sdk.Runtime.Orchestrator.breakers
    in
    let breaker_recovered =
      Sdk.Runtime.Orchestrator.breaker_state orch dk ~variant:"hw"
      = Some Res.Breaker.Closed
    in
    let degraded = Sdk.Runtime.Orchestrator.degraded_requests log in
    let availability = Sdk.Runtime.Orchestrator.availability log in
    let passed =
      List.for_all
        (fun (_, size, _, r, reproducible) ->
          reproducible
          && match r with Ok s -> Array.length s.Wf.Executor.task_finish = size
                                  && Array.for_all (fun f -> f >= 0.0) s.Wf.Executor.task_finish
                        | Error _ -> false)
        reports
      && breaker_opens >= 1 && breaker_recovered && degraded >= 1
    in
    let graph_json (name, size, clean_ms, r, reproducible) =
      Json.Obj
        (("graph", Json.Str name) :: ("tasks", Json.int size)
        ::
        (match r with
        | Ok (s : Wf.Executor.stats) ->
            [ ("completed", Json.int size);
              ("clean_makespan_s", Json.Num clean_ms);
              ("makespan_s", Json.Num s.Wf.Executor.makespan);
              ("retries", Json.int s.Wf.Executor.retries);
              ("timeouts", Json.int s.Wf.Executor.timeouts);
              ("speculative", Json.int s.Wf.Executor.speculative);
              ("recomputed", Json.int s.Wf.Executor.recomputed) ]
        | Error (reason, p) ->
            [ ("completed", Json.int (completed p)); ("error", Json.Str reason);
              ("retries", Json.int p.Wf.Executor.retries) ])
        @ [ ("reproducible", Json.Bool reproducible) ])
    in
    let json =
      Json.Obj
        [ ("seed", Json.int seed); ("fault_rate", Json.Num fault_rate);
          ("transient_prob", Json.Num transient); ("policy", Json.Str sched);
          ("workflows", Json.Arr (List.map graph_json reports));
          ("breaker_demo",
           Json.Obj
             [ ("requests", Json.int (List.length log));
               ("availability", Json.Num availability);
               ("degraded", Json.int degraded); ("opens", Json.int breaker_opens);
               ("recovered", Json.Bool breaker_recovered) ]);
          ("passed", Json.Bool passed) ]
    in
    emit ~format ~out ~drill:"chaos" ~passed json (fun () ->
        Printf.printf
          "chaos drill: seed=%d fault-rate=%g transient=%g policy=%s\n\n" seed
          fault_rate transient sched;
        List.iter
          (fun (name, size, clean_ms, r, reproducible) ->
            match r with
            | Ok (s : Wf.Executor.stats) ->
                Printf.printf
                  "  %-10s %d/%d tasks  makespan %.4gs (clean %.4gs, +%.0f%%)  \
                   retries=%d timeouts=%d speculative=%d recomputed=%d  %s\n"
                  name size size s.Wf.Executor.makespan clean_ms
                  ((s.Wf.Executor.makespan /. clean_ms -. 1.0) *. 100.0)
                  s.Wf.Executor.retries s.Wf.Executor.timeouts
                  s.Wf.Executor.speculative s.Wf.Executor.recomputed
                  (if reproducible then "reproducible" else "NON-DETERMINISTIC")
            | Error (reason, p) ->
                Printf.printf "  %-10s FAILED: %s (%d tasks done, retries=%d)\n"
                  name reason (completed p) p.Wf.Executor.retries)
          reports;
        Printf.printf
          "\nbreaker demo: %d requests, availability %.0f%%, %d degraded to \
           sw, breaker opened %d time(s), %s\n\n"
          (List.length log) (availability *. 100.0) degraded breaker_opens
          (if breaker_recovered then "recovered (closed)" else "NOT RECOVERED"))
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Deterministic fault-injection drill over the example workflows.")
    Term.(
      const run $ seed_arg ~doc:"Fault-plan seed." 7 $ fault_rate
      $ mean_downtime $ transient $ fpga_transient $ sched $ retries
      $ format_arg () $ out_arg)

(* ---- lint ------------------------------------------------------------------ *)

(* A module seeded with one instance of every defect family the lint rules
   cover, each op carrying a file location so diagnostics are clickable. *)
let seeded_module () =
  EIr.Registry.register_all ();
  let ctx = EIr.Ir.ctx () in
  let at l (o : EIr.Ir.op) =
    { o with EIr.Ir.loc = EIr.Loc.file "seeded.mlir" l }
  in
  let r = EIr.Ir.result in
  (* @k_proc: the kernel referenced by the placed task (kept alive) *)
  let karg = EIr.Ir.fresh_value ctx EIr.Types.f64 in
  let kret = at 3 (EIr.Dialect_func.return ctx [ karg ]) in
  let k_proc = EIr.Ir.func "k_proc" [ karg ] [ EIr.Types.f64 ] [ kret ] in
  (* @orphan: never referenced -> EV011 *)
  let oret = at 7 (EIr.Dialect_func.return ctx []) in
  let orphan = EIr.Ir.func "orphan" [] [] [ oret ] in
  (* @secrets: EV040 secret data reaches a public sink; EV041 secret task
     pinned to an edge node *)
  let src =
    at 11
      (EIr.Dialect_df.source ctx "patient_records"
         (EIr.Types.tensor EIr.Types.F64 [ 64 ]))
  in
  let cls =
    at 12 (EIr.Dialect_sec.classify ctx (r src) EIr.Dialect_sec.Secret)
  in
  let leak_sink = at 13 (EIr.Dialect_df.sink ctx "public_out" (r cls)) in
  let placed =
    at 14
      (EIr.Dialect_df.task ctx ~kernel:"k_proc"
         ~attrs:
           [ ("everest.security", EIr.Attr.str "secret");
             ("everest.locality", EIr.Attr.str "edge:0") ]
         [ r cls ]
         [ EIr.Types.tensor EIr.Types.F64 [ 64 ] ])
  in
  let sret = at 15 (EIr.Dialect_func.return ctx []) in
  let secrets =
    EIr.Ir.func "secrets" [] [] [ src; cls; leak_sink; placed; sret ]
  in
  (* @main: memref lifetime defects + a dead, constant-foldable op *)
  let buf = at 19 (EIr.Dialect_memref.alloc ctx EIr.Types.F64 [ 4; 4 ]) in
  let c0 = at 20 (EIr.Dialect_arith.const_index ctx 0) in
  let c9 = at 21 (EIr.Dialect_arith.const_index ctx 9) in
  let free1 = at 22 (EIr.Dialect_memref.dealloc ctx (r buf)) in
  (* use after dealloc (EV030) with a constant OOB index (EV033) *)
  let uaf = at 23 (EIr.Dialect_memref.load ctx (r buf) [ r c9; r c0 ]) in
  let free2 = at 24 (EIr.Dialect_memref.dealloc ctx (r buf)) in (* EV031 *)
  let leaked = at 25 (EIr.Dialect_memref.alloc ctx EIr.Types.F64 [ 8 ]) in
  let st =
    at 26 (EIr.Dialect_memref.store ctx (r uaf) (r leaked) [ r c0 ])
  in (* leaked is only loaded/stored and never freed -> EV032 *)
  let k2 = at 27 (EIr.Dialect_arith.const_i ctx 2) in
  let k3 = at 28 (EIr.Dialect_arith.const_i ctx 3) in
  let dead = at 29 (EIr.Dialect_arith.muli ctx (r k2) (r k3)) in
  (* ^ result unused -> EV010; operands constant -> EV013 *)
  let call = at 30 (EIr.Dialect_func.call ctx "secrets" [] []) in
  let mret = at 31 (EIr.Dialect_func.return ctx []) in
  let main =
    EIr.Ir.func "main" [] []
      [ buf; c0; c9; free1; uaf; free2; leaked; st; k2; k3; dead; call; mret ]
  in
  EIr.Ir.modul "seeded" [ k_proc; orphan; secrets; main ]

let lint_cmd =
  let files =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"FILE" ~doc:"Textual IR module to lint.")
  in
  let demo = demo_arg "Lint a module seeded with one defect per rule family." in
  let examples =
    Arg.(
      value & flag
      & info [ "examples" ]
          ~doc:"Lint the lowered example workflow modules (must be clean).")
  in
  let run files demo examples format strict =
    EIr.Registry.register_all ();
    let mods =
      List.map
        (fun f ->
          let ctx = EIr.Ir.ctx () in
          (f, EIr.Parser.parse_module ctx (read_file f)))
        files
      @ (if demo then [ ("seeded", seeded_module ()) ] else [])
      @
      if examples then
        List.map
          (fun (name, g) ->
            let ctx = EIr.Ir.ctx () in
            (name, Dsl.Lower.lower_graph ctx g))
          (example_graphs ())
      else []
    in
    if mods = [] then (
      prerr_endline
        "lint: nothing to check (pass FILE arguments, --demo or --examples)";
      exit 2);
    let results =
      List.map
        (fun (name, m) ->
          let ds = Lint.run m in
          (name, if strict then Lint.promote_warnings ds else ds))
        mods
    in
    print_report ~format
      (Json.Arr
         (List.map
            (fun (name, ds) ->
              Json.Obj [ ("module", Json.Str name); ("report", Lint.to_json ds) ])
            results))
      (fun () ->
        List.iter
          (fun (name, ds) ->
            Format.printf "== %s ==@.%s@." name (Lint.render_text ds))
          results);
    if List.exists (fun (_, ds) -> Lint.has_errors ds) results then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Run the static-analysis rules (EV0xx) over IR modules.")
    Term.(
      const run $ files $ demo $ examples
      $ format_arg ~doc:"Output format: text, json." ()
      $ strict_arg)

(* ---- estee ----------------------------------------------------------------- *)

(* Scheduler scale smoke for CI: plan one generated family instance and
   fail when the wall clock blows the budget.  A 10^4-task layered plan
   takes milliseconds on the indexed HEFT and minutes on an O(n^2) one, so
   a generous budget still catches quadratic regressions without making
   the job flaky on slow runners (see bench/estee.ml for the full E17
   sweep). *)
let estee_cmd =
  let tasks =
    Arg.(
      value & opt int 10_000
      & info [ "tasks" ] ~docv:"N" ~doc:"Approximate DAG size.")
  in
  let family =
    Arg.(
      value & opt string "layered"
      & info [ "family" ] ~docv:"F"
          ~doc:"DAG family: layered, fork-join, ensemble.")
  in
  let policy =
    Arg.(
      value & opt string "heft"
      & info [ "policy" ] ~docv:"P"
          ~doc:
            "Scheduling policy (heft, heft-locality, min-load, round-robin, \
             heft-reference).")
  in
  let budget =
    Arg.(
      value & opt float 0.0
      & info [ "budget-s" ] ~docv:"T"
          ~doc:
            "Exit 1 if planning (+ execution) wall time exceeds T seconds; 0 \
             disables the check.")
  in
  let execute =
    Arg.(
      value & flag
      & info [ "execute" ]
          ~doc:"Also simulate execution on the demonstrator cluster.")
  in
  let run tasks family policy seed budget execute =
    let module Sb = Sdk.Workflow.Scalebench in
    match Sb.family_of_string family with
    | None ->
        Printf.eprintf "estee: unknown family %S\n" family;
        exit 2
    | Some fam -> (
        match Sb.run_policy ~seed ~execute fam ~tasks ~policy with
        | exception Invalid_argument msg ->
            Printf.eprintf "estee: %s\n" msg;
            exit 2
        | s ->
            let total =
              s.Sb.sb_plan_wall_s
              +. if s.Sb.sb_exec_wall_s > 0.0 then s.Sb.sb_exec_wall_s else 0.0
            in
            Printf.printf
              "family=%s tasks=%d policy=%s plan=%.3fs (%.0f tasks/s)%s\n"
              s.Sb.sb_family s.Sb.sb_tasks s.Sb.sb_policy s.Sb.sb_plan_wall_s
              s.Sb.sb_tasks_per_s
              (if s.Sb.sb_exec_wall_s < 0.0 then ""
               else
                 Printf.sprintf " exec=%.3fs makespan=%.1fs"
                   s.Sb.sb_exec_wall_s s.Sb.sb_makespan_s);
            if budget > 0.0 && total > budget then begin
              Printf.eprintf
                "estee: wall %.3fs exceeded budget %.3fs — scheduling \
                 throughput regressed\n"
                total budget;
              exit 1
            end)
  in
  Cmd.v
    (Cmd.info "estee"
       ~doc:"Scheduler scale smoke: plan a DAG family against a wall budget.")
    Term.(
      const run $ tasks $ family $ policy $ seed_arg ~doc:"Generator seed." 17
      $ budget $ execute)

(* ---- plan-lint ------------------------------------------------------------- *)

(* Static plan sanitization (EV1xx): lint (dag, plan, cluster) triples
   before they reach the executor.  [--examples] lints every compiled
   example workflow under every shipped scheduler (must be clean);
   [--family] lints a generated estee-family plan against a wall budget (a
   lint pass costing a noticeable fraction of planning is a regression);
   [--demo] assembles one defective plan per EV1xx defect class and must
   exit 1 with every class flagged. *)
let plan_lint_cmd =
  let module Wf = Sdk.Workflow in
  let module Pl = Wf.Planlint in
  let module Sched = Wf.Scheduler in
  let module Dag = Wf.Dag in
  let examples =
    Arg.(
      value & flag
      & info [ "examples" ]
          ~doc:
            "Lint the compiled example workflows under every shipped \
             scheduling policy (must be clean).")
  in
  let demo =
    demo_arg
      "Lint plans seeded with one defect per class (precedence break, \
       off-pin, capability mismatch, slot oversubscription, infeasible \
       SLO); exits 1."
  in
  let family =
    Arg.(
      value
      & opt (some string) None
      & info [ "family" ] ~docv:"F"
          ~doc:"Lint a generated DAG family plan: layered, fork-join, \
                ensemble.")
  in
  let tasks =
    Arg.(
      value & opt int 10_000
      & info [ "tasks" ] ~docv:"N" ~doc:"Family DAG size (with --family).")
  in
  let policy =
    Arg.(
      value & opt string "heft"
      & info [ "policy" ] ~docv:"P"
          ~doc:"Scheduling policy for --family (heft, heft-locality, \
                min-load, round-robin).")
  in
  let budget =
    Arg.(
      value & opt float 0.0
      & info [ "budget-s" ] ~docv:"T"
          ~doc:
            "With --family: exit 1 if the lint pass exceeds T seconds of \
             wall time; 0 disables the check.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-s" ] ~docv:"T"
          ~doc:"Latency deadline for the EV140 feasibility check.")
  in
  let shipped_policies = [ "round-robin"; "min-load"; "heft"; "heft-locality" ] in
  (* one defective plan per EV1xx defect class, built on the demonstrator *)
  let demo_targets c =
    let cpu = Dag.Cpu { flops = 1e9; bytes = 1e6; threads = 1 } in
    let est =
      { Everest_hls.Estimate.area = Everest_hls.Estimate.zero_area;
        cycles = 100_000; ii = 1; clock_mhz = 250.0; dynamic_power_w = 5.0 }
    in
    let fpga b =
      Dag.Fpga { bitstream = b; estimate = est; in_bytes = 4096;
                 out_bytes = 1024 }
    in
    let chain name =
      Dag.create name
        [ Dag.task ~id:0 ~name:"src" ~inputs:[] ~out_bytes:4096 ~impls:[ cpu ] ();
          Dag.task ~id:1 ~name:"mid" ~inputs:[ 0 ] ~out_bytes:4096
            ~impls:[ cpu ] ();
          Dag.task ~id:2 ~name:"sink" ~inputs:[ 1 ] ~out_bytes:64
            ~impls:[ cpu ] () ]
    in
    (* 1. precedence break: the plan's DAG lost the 1 -> 2 edge that the
       reference DAG still carries *)
    let edge_drop =
      let full = chain "edge-drop" in
      let cut =
        Dag.create "edge-drop"
          [ full.Dag.tasks.(0); full.Dag.tasks.(1);
            { (full.Dag.tasks.(2)) with Dag.inputs = [] } ]
      in
      let plan =
        match Sched.by_name "round-robin" with
        | Some f -> f c cut
        | None -> assert false
      in
      ("precedence-break", [ "EV110"; "EV111" ], Some full, None, plan)
    in
    (* 2. pinned source placed off its pin *)
    let off_pin =
      let d =
        Dag.create "off-pin"
          [ Dag.task ~id:0 ~name:"src" ~pinned:(Some "ep0") ~inputs:[]
              ~out_bytes:4096 ~impls:[ cpu ] ();
            Dag.task ~id:1 ~name:"sink" ~inputs:[ 0 ] ~out_bytes:64
              ~impls:[ cpu ] () ]
      in
      let plan = Sched.heft c d in
      let assignments = Array.copy plan.Sched.assignments in
      assignments.(0) <-
        { (assignments.(0)) with Sched.node = "cf0" };
      ("off-pin", [ "EV120" ],
       None, None, { plan with Sched.assignments; policy = "heft+mutated" })
    in
    (* 3. capability mismatch: FPGA implementation routed to an FPGA-less
       endpoint while FPGA-capable nodes exist *)
    let capability =
      let d =
        Dag.create "capability"
          [ Dag.task ~id:0 ~name:"k" ~inputs:[] ~out_bytes:1024
              ~impls:[ fpga "k" ] () ]
      in
      let plan =
        { Sched.dag = d;
          assignments = [| { Sched.node = "ep0"; impl = fpga "k" } |];
          policy = "manual" }
      in
      ("capability-mismatch", [ "EV122" ], None, None, plan)
    in
    (* 4. slot oversubscription + reconfiguration thrash: eight concurrent
       distinct-bitstream FPGA tasks on one 2-slot cloudFPGA node *)
    let oversubscribe =
      let width = 8 in
      let workers =
        List.init width (fun i ->
            Dag.task ~id:(i + 1)
              ~name:(Printf.sprintf "w%d" i)
              ~inputs:[ 0 ] ~out_bytes:1024
              ~impls:[ fpga (Printf.sprintf "bit%d" i) ]
              ())
      in
      let d =
        Dag.create "oversubscribe"
          (Dag.task ~id:0 ~name:"src" ~inputs:[] ~out_bytes:4096
             ~impls:[ cpu ] ()
          :: workers)
      in
      let assignments =
        Array.init (width + 1) (fun i ->
            if i = 0 then { Sched.node = "ep0"; impl = cpu }
            else
              { Sched.node = "cf0";
                impl = fpga (Printf.sprintf "bit%d" (i - 1)) })
      in
      ("slot-oversubscription", [ "EV130"; "EV131" ], None, None,
       { Sched.dag = d; assignments; policy = "manual" })
    in
    (* 5. infeasible SLO: a deadline below the critical-path lower bound *)
    let infeasible =
      let d =
        Dag.create "infeasible-slo"
          [ Dag.task ~id:0 ~name:"heavy" ~inputs:[] ~out_bytes:64
              ~impls:[ Dag.Cpu { flops = 1e13; bytes = 1e6; threads = 1 } ]
              () ]
      in
      ("infeasible-slo", [ "EV140" ], None, Some 1e-6, Sched.heft c d)
    in
    [ edge_drop; off_pin; capability; oversubscribe; infeasible ]
  in
  let run examples demo family tasks policy seed budget strict format deadline
      =
    let c = Sdk.Platform.Cluster.everest_demonstrator () in
    (* each target: (name, expected codes, reference dag, deadline, plan) *)
    let targets = ref [] in
    if examples then
      List.iter
        (fun (name, g) ->
          let dag = (Sdk.compile g).Everest_compiler.Pipeline.dag in
          List.iter
            (fun p ->
              match Sched.by_name p with
              | Some f ->
                  targets :=
                    (name ^ "/" ^ p, [], None, None, f c dag) :: !targets
              | None -> ())
            shipped_policies)
        (example_graphs ());
    (match family with
    | Some f -> (
        let module Sb = Wf.Scalebench in
        match Sb.family_of_string f with
        | None ->
            Printf.eprintf "plan-lint: unknown family %S\n" f;
            exit 2
        | Some fam -> (
            match Sched.by_name policy with
            | None ->
                Printf.eprintf "plan-lint: unknown policy %S\n" policy;
                exit 2
            | Some sched ->
                let dag = Sb.make_dag ~seed fam ~tasks in
                targets :=
                  (Printf.sprintf "%s-%d/%s" f tasks policy, [], None, None,
                   sched c dag)
                  :: !targets))
    | None -> ());
    if demo then targets := !targets @ demo_targets c;
    let targets = List.rev !targets in
    if targets = [] then begin
      prerr_endline
        "plan-lint: nothing to check (pass --examples, --family or --demo)";
      exit 2
    end;
    let lint_wall = ref 0.0 in
    let results =
      List.map
        (fun (name, expected, dag, dl, plan) ->
          let dl = match dl with Some _ as d -> d | None -> deadline in
          let t0 = Unix.gettimeofday () in
          let ds = Pl.check ?dag ?deadline_s:dl c plan in
          lint_wall := !lint_wall +. (Unix.gettimeofday () -. t0);
          let ds = if strict then Lint.promote_warnings ds else ds in
          (name, expected, ds))
        targets
    in
    print_report ~format
      (Json.Arr
         (List.map
            (fun (name, _, ds) ->
              Json.Obj [ ("plan", Json.Str name); ("report", Lint.to_json ds) ])
            results))
      (fun () ->
        List.iter
          (fun (name, _, ds) ->
            Format.printf "== %s ==@.%s@." name (Lint.render_text ds))
          results);
    (* no false negatives: every seeded defect class must be flagged with
       its expected code *)
    let missing =
      List.concat_map
        (fun (name, expected, ds) ->
          List.filter_map
            (fun code ->
              if List.exists (fun d -> String.equal d.Lint.code code) ds then
                None
              else Some (name, code))
            expected)
        results
    in
    if missing <> [] then begin
      List.iter
        (fun (name, code) ->
          Printf.eprintf "plan-lint: seeded defect %s NOT caught (%s)\n" name
            code)
        missing;
      exit 2
    end;
    if budget > 0.0 && !lint_wall > budget then begin
      Printf.eprintf
        "plan-lint: lint wall %.3fs exceeded budget %.3fs — analyzer \
         throughput regressed\n"
        !lint_wall budget;
      exit 1
    end;
    if List.exists (fun (_, _, ds) -> Lint.has_errors ds) results then exit 1
  in
  Cmd.v
    (Cmd.info "plan-lint"
       ~doc:
         "Statically sanitize execution plans (EV1xx): structure, \
          happens-before, placement capability, SLO feasibility.")
    Term.(
      const run $ examples $ demo $ family $ tasks $ policy
      $ seed_arg ~doc:"Generator seed." 17
      $ budget $ strict_arg
      $ format_arg ~doc:"Output format: text, json." ()
      $ deadline)

(* ---- observe --------------------------------------------------------------- *)

(* Read-side analytics drill: run the stress DAG fully traced under a
   seeded fault plan, force the executor's lazy report and check it for
   internal consistency (critical-path duration must equal the run's
   makespan, per-node utilization must reconcile with the span log), then
   serve requests under availability/latency SLO monitors.  [--demo]
   deliberately violates the availability SLO to exercise the burn-rate
   alert and failure exit; [--diff] compares two saved reports. *)
let observe_cmd =
  let module Res = Everest_resilience in
  let module Wf = Sdk.Workflow in
  let module Obs = Everest_observe in
  let sched =
    Arg.(
      value & opt string "heft-locality"
      & info [ "policy" ] ~doc:"Scheduling policy for the stress workflow.")
  in
  let demo =
    demo_arg
      "Deliberately violate the availability SLO so the burn-rate alert \
       fires (exits 1)."
  in
  let diff =
    Arg.(
      value & opt_all file []
      & info [ "diff" ] ~docv:"FILE"
          ~doc:"Diff two saved reports (pass --diff twice).")
  in
  let tolerance =
    Arg.(
      value & opt float 0.05
      & info [ "tolerance" ] ~docv:"T"
          ~doc:"Relative change treated as noise by --diff.")
  in
  let run seed sched format out demo diff tolerance =
    match diff with
    | [ a; b ] ->
        let before = Json.parse_file a and after = Json.parse_file b in
        let changes = Obs.Regress.diff ~tolerance ~before ~after () in
        print_string (Obs.Regress.render_text changes);
        if Obs.Regress.regressions changes <> [] then exit 1
    | _ :: _ ->
        prerr_endline "observe: --diff needs exactly two report files";
        exit 2
    | [] ->
        (* deterministic fault plan scaled to the clean makespan, as in the
           chaos drill *)
        let dag =
          Wf.Dag.layered ~seed ~layers:5 ~width:4 ~flops:2e9 ~bytes:1e6 ()
        in
        let nodes =
          List.map
            (fun (n : Sdk.Platform.Node.t) -> n.Sdk.Platform.Node.name)
            (Sdk.Platform.Cluster.everest_demonstrator ())
              .Sdk.Platform.Cluster.nodes
        in
        let _, clean = Wf.Executor.run_on_demonstrator ~policy:sched dag in
        let faults =
          Res.Faults.random_plan ~seed ~fault_rate:0.2
            ~mean_downtime:(0.25 *. clean.Wf.Executor.makespan)
            ~transient_prob:0.05 ~fpga_transient_prob:0.02 ~nodes
            ~horizon:clean.Wf.Executor.makespan ()
        in
        let registry = Tel.Metrics.create_registry () in
        let _, stats =
          Wf.Executor.run_on_demonstrator ~policy:sched ~faults
            ~exec_policy:Res.Policy.chaos ~tracer:`Sim ~registry dag
        in
        let report = Lazy.force stats.Wf.Executor.report in
        let cp_ok, cp_matches =
          match report.Obs.Report.r_cp with
          | None -> (false, false)
          | Some cp ->
              ( Obs.Critical_path.check cp,
                Float.abs
                  (cp.Obs.Critical_path.duration_s
                  -. stats.Wf.Executor.makespan)
                <= 1e-9 *. Float.max 1.0 stats.Wf.Executor.makespan )
        in
        let util_ok =
          match report.Obs.Report.r_util with
          | None -> false
          | Some u -> Obs.Utilization.check u
        in
        (* serving phase: hw outage early in the run; monitors watch
           availability and tail latency over simulated time *)
        let orch = breaker_demo_orch ~registry () in
        let n_req = 30 in
        let specs =
          [ Obs.Slo.availability "requests-available" 0.9;
            Obs.Slo.latency "tail-latency" ~q:0.95 ~limit_s:0.1 ]
        in
        let alert =
          { Obs.Slo.fast_window_s = 0.05; slow_window_s = 0.5;
            burn_threshold = 2.0 }
        in
        let monitors = List.map (Obs.Slo.monitor ~alert) specs in
        let fail =
          if demo then
            (* a sustained outage: most requests fail outright, burning the
               10% error budget at ~5x — both alert windows trip *)
            fun ~req ~variant:_ ~attempt:_ -> req mod 2 = 0
          else fun ~req ~variant ~attempt:_ ->
            req < 4 && String.equal variant "hw"
        in
        let max_attempts = if demo then 1 else 3 in
        let log =
          Sdk.Runtime.Orchestrator.serve orch ~kernel:"k" ~n:n_req
            ~policy:(Sdk.Runtime.Orchestrator.Fixed "hw")
            ~fail ~max_attempts ~slos:monitors ()
        in
        let serve_results =
          Obs.Slo.evaluate_all specs
            (Sdk.Runtime.Orchestrator.slo_outcomes log)
        in
        let alerts =
          List.fold_left (fun acc m -> acc + Obs.Slo.alerts m) 0 monitors
        in
        let slos_met =
          List.for_all (fun (r : Obs.Slo.result) -> r.Obs.Slo.met)
            (report.Obs.Report.r_slos @ serve_results)
        in
        let checks =
          [ ("critical_path_consistent", cp_ok);
            ("critical_path_matches_makespan", cp_matches);
            ("utilization_consistent", util_ok); ("slos_met", slos_met) ]
        in
        let passed = List.for_all snd checks && alerts = 0 in
        let json =
          Json.Obj
            [ ("workflow", Obs.Report.to_json report);
              ("serving",
               Json.Obj
                 [ ("requests", Json.int (List.length log));
                   ("availability",
                    Json.Num (Sdk.Runtime.Orchestrator.availability log));
                   ("slos",
                    Json.Arr (List.map Obs.Slo.result_to_json serve_results));
                   ("burn_alerts", Json.int alerts) ]);
              ("checks", checks_json checks ~passed) ]
        in
        emit ~format ~out ~drill:"observe" ~passed json (fun () ->
            print_string (Obs.Report.render report);
            Printf.printf
              "serving: %d requests, availability %.0f%%, %d burn alert(s)\n"
              (List.length log)
              (100.0 *. Sdk.Runtime.Orchestrator.availability log)
              alerts;
            List.iter
              (fun r -> Format.printf "  slo: %a@." Obs.Slo.pp_result r)
              serve_results;
            Printf.printf
              "checks: critical-path %s (makespan match %s), utilization %s\n"
              (if cp_ok then "ok" else "FAILED")
              (if cp_matches then "ok" else "FAILED")
              (if util_ok then "ok" else "FAILED"))
  in
  Cmd.v
    (Cmd.info "observe"
       ~doc:"Trace analytics: critical path, utilization and SLO verdicts.")
    Term.(
      const run $ seed_arg ~doc:"Fault-plan seed." 7 $ sched $ format_arg ()
      $ out_arg $ demo $ diff $ tolerance)

(* ---- top -------------------------------------------------------------------- *)

(* Live observability drill: run a seeded serving workload with a watch
   attached (registry + fabric scrape, per-request latency sketch, alert
   rules) and render the deterministic dashboard.  [--follow] re-renders
   on every scrape tick; [--demo] kills all but one shard mid-run so the
   queueing latency step must trip the CUSUM alert (exercises the alert
   path; exits 1). *)
let top_cmd =
  let module Srv = Everest_serving in
  let module Res = Everest_resilience in
  let module W = Everest_watch in
  let interval =
    Arg.(
      value & opt float 0.02
      & info [ "interval" ] ~docv:"T"
          ~doc:
            "Watch scrape interval in seconds; at least the fabric's 0.01 s \
             control tick.")
  in
  let follow =
    Arg.(
      value & flag
      & info [ "follow" ] ~doc:"Render the dashboard on every scrape tick.")
  in
  let demo =
    demo_arg
      "Kill all but one shard mid-run: the latency step must trip the CUSUM \
       alert (exits 1)."
  in
  let run shards seed rate horizon interval follow format out demo =
    if shards < 1 then begin
      Format.eprintf "error: need at least one shard@.";
      exit 2
    end;
    let tenants =
      [ Srv.Workload.open_tenant ~name:"acme" ~kernel:"mm" ~rate_rps:rate
          ~features:(fun seq ->
            [ ("size", float_of_int (1024 + (64 * (seq mod 4)))) ])
          () ]
    in
    let faults =
      if demo then
        (* capacity cliff at mid-horizon: survivors absorb the load and
           the queueing delay shows up as a latency step *)
        Res.Faults.of_failures
          (List.init (shards - 1) (fun i ->
               (Printf.sprintf "shard%d" (i + 1), 0.5 *. horizon)))
      else Res.Faults.none
    in
    let config =
      { (Srv.Fabric.default_config ~n_shards:shards) with
        Srv.Fabric.seed; faults }
    in
    let latency_labels = [ ("tenant", "acme") ] in
    let p99 =
      W.Rules.Quantile_over ("latency", latency_labels, 0.99, 0.2)
    in
    let rules =
      [ W.Rules.record "latency:p99" p99;
        W.Rules.alert "latency-step" p99
          (W.Rules.Detector (W.Detect.cusum ~drift:0.5 ~threshold:5.0 ()));
        W.Rules.alert "fleet-degraded"
          (W.Rules.Last ("fabric:alive_shards", []))
          (W.Rules.Below (float_of_int shards)) ]
    in
    let watch = W.Watch.create ~interval_s:interval ~rules () in
    if follow then
      W.Watch.on_tick watch (fun w ~now ->
          print_string (W.Live.render w ~now);
          print_string "\n");
    let r =
      Srv.Fabric.run ~registry:(Tel.Metrics.create_registry ()) ~watch config
        ~deploy:(Srv.Fabric.demo_deploy ()) ~tenants ~horizon
    in
    let now = horizon in
    let dashboard () = if not follow then print_string (W.Live.render watch ~now) in
    let json = W.Live.to_json watch ~now in
    if demo then begin
      let cusum_fired =
        List.exists
          (fun (a : W.Rules.alert_state) ->
            String.equal a.W.Rules.as_name "latency-step"
            && a.W.Rules.as_edges > 0)
          (W.Watch.alert_states watch)
      in
      (* like the other --demo drills: exit 1 iff the failure path ran *)
      emit ~format ~out ~passed:(not cusum_fired) json (fun () ->
          dashboard ();
          Printf.printf "demo: served=%d ticks=%d latency-step alert %s\n"
            (Srv.Fabric.served_ok r) (W.Watch.ticks watch)
            (if cusum_fired then "FIRED (expected)" else "did NOT fire"))
    end
    else
      let checks =
        [ ("served", Srv.Fabric.served_ok r > 0);
          ("scraped", W.Watch.ticks watch > 0);
          ("sketch_fed", W.Watch.samples watch > 0);
          ("no_false_alarms", W.Watch.alerts_total watch = 0) ]
      in
      emit ~format ~out ~checks ~drill:"top" ~passed:(List.for_all snd checks)
        json dashboard
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live observability drill: watch a seeded serving run and render \
          the dashboard.")
    Term.(
      const run $ shards_arg 4 $ seed_arg 7 $ rate_arg 400.0 $ horizon_arg 0.4
      $ interval $ follow
      $ format_arg ~doc:"Dashboard format: text, json." ()
      $ out_arg $ demo)

let () =
  let doc = "EVEREST SDK: compile, run and adapt HPDA applications." in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "everest_cli" ~doc)
          [ compile_cmd; run_cmd; serve_cmd; recover_cmd; hls_cmd;
            telemetry_cmd; chaos_cmd; lint_cmd; observe_cmd; estee_cmd;
            plan_lint_cmd; top_cmd ]))
