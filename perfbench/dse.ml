(* The compile-dse workload: [Pipeline.compile] of a dataflow chain of six
   tensor kernels of several shapes (square, rectangular, tall and small
   matmuls, elementwise add + relu), first on a fresh estimation cache
   (cold: every DSE candidate is estimated), then again on the warm cache.
   Without it the compiler/HLS estimation layer goes unmeasured; cold
   versus warm separates estimation cost from cache reuse.  The pool has
   one domain: on a two-core host two domains were no faster, and one
   keeps the allocation count exact. *)

module Comp = Everest_compiler
module Dsl = Everest_dsl
module TE = Dsl.Tensor_expr
module Df = Dsl.Dataflow
module Pool = Everest_parallel.Pool
module Cache = Everest_parallel.Cache

let domains = 1

let l_dse = Prof.layer "dse"
let l_pipeline = Prof.layer "pipeline"

(* The seed moves each kernel's leading dimension by a multiple of 16, so
   different seeds compile different (but equally sized) problems. *)
let kernels ~seed =
  let d k = 16 * ((seed + k) mod 3) in
  let mm a b c = TE.matmul (TE.input "a" [ a; b ]) (TE.input "b" [ b; c ]) in
  let add_relu a b = TE.relu (TE.add (TE.input "x" [ a; b ]) (TE.input "y" [ a; b ])) in
  [ ("matmul", mm (256 + d 0) 256 (256 + d 0));
    ("add_relu", add_relu (512 + d 1) 512);
    ("matmul_rect", mm (128 + d 2) 64 128);
    ("matmul_tall", mm (512 + d 3) 128 64);
    ("add_relu_wide", add_relu (256 + d 4) 1024);
    ("matmul_small", mm (64 + d 5) 64 64) ]

let graph ~seed =
  let g = Df.create "perfbench" in
  let src = Df.source g "in" ~bytes:(1 lsl 20) in
  let last =
    List.fold_left
      (fun dep (name, e) -> Df.task g name (Df.Tensor_kernel e) ~deps:[ dep ])
      src (kernels ~seed)
  in
  Df.sink g "out" last;
  g

type inputs = { i_graph : Df.graph; i_pool : Pool.t; i_cache : Comp.Estimate_cache.t }

let setup ~seed =
  { i_graph = graph ~seed; i_pool = Pool.create ~domains ();
    i_cache = Comp.Estimate_cache.create ~name:"perfbench" () }

let compile ?(lint = true) (i : inputs) =
  match Comp.Pipeline.compile ~pool:i.i_pool ~cache:i.i_cache ~lint i.i_graph with
  | app -> Some app
  | exception Comp.Pipeline.Compile_error _ -> None

let explored (app : Comp.Pipeline.compiled_app) =
  List.fold_left
    (fun acc k -> acc + k.Comp.Pipeline.dse.Comp.Dse.explored)
    0 app.Comp.Pipeline.kernels

(* Per-kernel Pareto sets, as comparable values. *)
let pareto (app : Comp.Pipeline.compiled_app) =
  List.map
    (fun k ->
      ( k.Comp.Pipeline.ck_name,
        List.map
          (fun (v : Comp.Variants.variant) ->
            (v.Comp.Variants.vname, v.Comp.Variants.time_s,
             v.Comp.Variants.energy_j, v.Comp.Variants.area_luts))
          k.Comp.Pipeline.dse.Comp.Dse.variants ))
    app.Comp.Pipeline.kernels

let digest app =
  let b = Buffer.create 4096 in
  List.iter
    (fun (k, vs) ->
      List.iter
        (fun (n, t, e, a) -> Printf.bprintf b "%s %s %.9e %.9e %d\n" k n t e a)
        vs)
    (pareto app);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Sum over kernels of the best variant's estimated time. *)
let best_time_us (app : Comp.Pipeline.compiled_app) =
  List.fold_left
    (fun acc k ->
      match k.Comp.Pipeline.dse.Comp.Dse.best_time with
      | Some v -> acc +. (1e6 *. v.Comp.Variants.time_s)
      | None -> acc)
    0.0 app.Comp.Pipeline.kernels

let hit_rate_of cache f =
  let s0 = Cache.stats cache in
  let r = f () in
  let s1 = Cache.stats cache in
  let hits = s1.Cache.hits - s0.Cache.hits
  and misses = s1.Cache.misses - s0.Cache.misses in
  (r, if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses))

(* A kernel fails on [Compile_error] (which fails the whole graph) or when
   the warm recompile's Pareto sets differ from the cold ones. *)
let measure ~seed =
  let i, setup_s =
    Harness.setup ~discard:(fun i -> Pool.shutdown i.i_pool) (fun () -> setup ~seed)
  in
  let n_kernels = List.length (kernels ~seed) in
  let cold, m = Harness.measure (fun () -> compile i) in
  let warm = compile i in
  Pool.shutdown i.i_pool;
  match (cold, warm) with
  | Some cold, Some warm ->
      let ok = pareto cold = pareto warm in
      let n = explored cold in
      { Harness.setup_s; m; units = n; unit_name = "candidate";
        attempted = n_kernels; failed = (if ok then 0 else n_kernels);
        correct = ok; digest = digest cold;
        sim = [ ("dse_best_time_us", "us", best_time_us cold) ]; host_times = [] }
  | _ ->
      { Harness.setup_s; m; units = 1; unit_name = "candidate";
        attempted = n_kernels; failed = n_kernels; correct = false;
        digest = "-"; sim = []; host_times = [] }

let trace ~seed =
  (* a cold compile first, so lazy one-time set-up is not timed below *)
  let i = setup ~seed in
  let (_ : Comp.Pipeline.compiled_app option) = compile i in
  Pool.shutdown i.i_pool;
  (* rounds of: the untraced measured phase (a cold compile), then the DSE
     of every kernel on a fresh cache followed by the rest of the pipeline,
     which now finds every estimate cached, with the profiler off and on *)
  let reference () =
    let i = setup ~seed in
    Fun.protect ~finally:(fun () -> Pool.shutdown i.i_pool) (fun () -> compile i)
  in
  let layers () =
    let i = setup ~seed in
    let dse =
      List.map
        (fun (_, e) ->
          Prof.call l_dse (fun () ->
              Comp.Dse.exhaustive ~pool:i.i_pool ~cache:i.i_cache e))
        (kernels ~seed)
    in
    let app = Prof.call l_pipeline (fun () -> compile i) in
    (i, dse, app)
  in
  let rounds = Prof.rounds 3 ~reference ~layers in
  let reference, (i, dse, app) = rounds.Prof.result in
  let entries = (Cache.stats i.i_cache).Cache.entries in
  (* warm recompiles: hit rate, and the pre-flight lint as the median
     difference of interleaved lint-on / lint-off warm compiles *)
  let (_ : Comp.Pipeline.compiled_app option), hit_rate =
    hit_rate_of i.i_cache (fun () -> compile i)
  in
  let warm lint = snd (Prof.timed (fun () -> compile ~lint i)) in
  let pairs = List.init 15 (fun _ -> (warm true, warm false)) in
  let warm_on = Prof.median (List.map fst pairs)
  and warm_off = Prof.median (List.map snd pairs) in
  Pool.shutdown i.i_pool;
  let n = List.fold_left (fun acc (r : Comp.Dse.result) -> acc + r.Comp.Dse.explored) 0 dse in
  let per_cand s = 1e6 *. s /. float_of_int (max 1 n) in
  let untraced_s = rounds.Prof.reference_s in
  let ok =
    match (reference, app) with
    | Some r, Some a -> pareto r = pareto a && explored r = n
    | _ -> false
  in
  { Harness.t_layers =
      [ ("dse.ms_per_candidate", 1e3 *. Prof.seconds l_dse /. float_of_int (max 1 n));
        ("dse.explored", float_of_int n);
        ("estimate_cache.hit_rate", hit_rate);
        ("estimate_cache.entries", float_of_int entries);
        ("pipeline.warm_ms", 1e3 *. warm_on);
        ("lint.ms", 1e3 *. (warm_on -. warm_off));
        ("trace.remainder_us_per_unit",
         per_cand untraced_s -. per_cand (Prof.seconds l_dse)
         -. per_cand (Prof.seconds l_pipeline)) ];
    t_exact = true; t_untraced_us = per_cand untraced_s;
    t_traced_us = per_cand rounds.Prof.on_s;
    t_overhead_us = per_cand (rounds.Prof.on_s -. rounds.Prof.off_s);
    t_units = n; t_attempted = List.length (kernels ~seed); t_correct = ok;
    t_digest = (match app with Some a -> digest a | None -> "-");
    t_figures =
      [ ("dse_candidates_per_s", "cand/s", float_of_int n /. untraced_s);
        ("dse_best_time_us", "us", Option.fold ~none:0.0 ~some:best_time_us app) ] }
