(* One iteration of a benchmark workload, in a fresh process.

     perfbench.exe --workload W --seed N --mode measure|trace --dir D [--commit C]

   [measure] runs the workload's set-up and its measured phase untraced,
   checks the outputs and prints one JSON record (see [Harness]);
   [trace] runs the per-layer profile and also writes the harness spans
   as a Chrome trace to D/W.trace.json.  [run.py] drives both and turns
   the records into the benchmark's metrics. *)

let workloads =
  let serve kind ~seed ~dir =
    let dir = Filename.concat dir "store" in
    (fun () -> Serve.measure kind ~seed ~dir), fun () -> Serve.trace kind ~seed ~dir
  in
  [ ("serve-burst", serve Serve.Burst);
    ("serve-durable", serve Serve.Durable);
    ("workflow-dag", fun ~seed ~dir:_ -> ((fun () -> Dag.measure ~seed), fun () -> Dag.trace ~seed));
    ("compile-dse", fun ~seed ~dir:_ -> ((fun () -> Dse.measure ~seed), fun () -> Dse.trace ~seed)) ]

let () =
  let workload = ref "" and seed = ref 1 and mode = ref "measure" in
  let dir = ref ".perfbench" and commit = ref "unknown" in
  let usage = "perfbench.exe --workload W --seed N --mode measure|trace --dir D" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, String.concat "|" (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "input seed");
      ("--mode", Arg.Set_string mode, "measure|trace");
      ("--dir", Arg.Set_string dir, "scratch directory (created)");
      ("--commit", Arg.Set_string commit, "source revision for the host tag") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let measure, trace =
    match List.assoc_opt !workload workloads with
    | Some w -> w ~seed:!seed ~dir:!dir
    | None ->
        prerr_endline usage;
        exit 2
  in
  if not (Sys.file_exists !dir) then Sys.mkdir !dir 0o755;
  let host = Harness.host ~commit:!commit ~domains:Dse.domains in
  let json =
    match !mode with
    | "measure" -> Harness.iteration_json ~host (measure ())
    | "trace" ->
        let t = trace () in
        Prof.write_chrome_trace
          (Filename.concat !dir (!workload ^ ".trace.json"))
          ~process_name:("perfbench " ^ !workload);
        Harness.traced_json ~host t
    | _ ->
        prerr_endline usage;
        exit 2
  in
  print_endline (Everest_observe.Json.to_string json)
