(* Tests for everest_parallel (domain pool, RNG, memo cache) and the
   compiler's use of them: shared estimation cache and the guarantee that
   parallel DSE returns bit-identical Pareto sets. *)

open Everest_parallel
module Comp = Everest_compiler
module TE = Everest_dsl.Tensor_expr

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ---- pool ----------------------------------------------------------------------- *)

let test_map_matches_sequential () =
  let xs = List.init 100 (fun i -> i) in
  let f x = (x * x) + 1 in
  Pool.with_pool ~domains:4 (fun p ->
      Alcotest.(check (list int))
        "parallel = sequential" (List.map f xs) (Pool.parallel_map p f xs))

let test_map_deterministic () =
  let xs = List.init 257 string_of_int in
  Pool.with_pool ~domains:4 (fun p ->
      let a = Pool.parallel_map p String.length xs in
      let b = Pool.parallel_map p String.length xs in
      Alcotest.(check (list int)) "two runs agree" a b)

let test_map_empty_and_single_domain () =
  Pool.with_pool ~domains:4 (fun p ->
      checki "empty list" 0 (List.length (Pool.parallel_map p succ [])));
  Pool.with_pool ~domains:1 (fun p ->
      checki "size-1 pool runs in caller" 1 (Pool.size p);
      Alcotest.(check (list int))
        "sequential fallback" [ 2; 3; 4 ]
        (Pool.parallel_map p succ [ 1; 2; 3 ]))

let test_exception_propagates () =
  Pool.with_pool ~domains:4 (fun p ->
      Alcotest.check_raises "task exception re-raised" (Failure "boom")
        (fun () ->
          ignore
            (Pool.parallel_map p
               (fun x -> if x = 13 then failwith "boom" else x)
               (List.init 64 (fun i -> i)))))

let test_reduce_in_order () =
  (* string concatenation is not commutative: order mistakes show *)
  let xs = List.init 50 string_of_int in
  Pool.with_pool ~domains:4 (fun p ->
      Alcotest.(check string)
        "non-commutative reduce matches fold"
        (List.fold_left ( ^ ) "" xs)
        (Pool.parallel_reduce p ~map:Fun.id ~combine:( ^ ) ~init:"" xs))

let test_stats_account_all_items () =
  Pool.with_pool ~domains:4 (fun p ->
      ignore (Pool.parallel_map p succ (List.init 200 (fun i -> i)));
      checki "every item attributed to a domain" 200
        (Array.fold_left ( + ) 0 (Pool.stats p)))

(* ---- rng ------------------------------------------------------------------------ *)

let test_rng_degenerate_seeds () =
  (* 0 and multiples of the modulus are absorbing states of the raw Lehmer
     recurrence; the seed guard must map them somewhere productive *)
  List.iter
    (fun seed ->
      let r = Rng.create seed in
      let a = Rng.next r and b = Rng.next r in
      checkb (Printf.sprintf "seed %d draws nonzero" seed) true
        (a > 0 && b > 0);
      checkb (Printf.sprintf "seed %d advances" seed) true (a <> b);
      (* a frozen state would make every gaussian draw the same value *)
      let g = Rng.create seed in
      let zs = List.init 8 (fun _ -> Rng.gaussian g) in
      checkb (Printf.sprintf "seed %d gaussian not constant" seed) true
        (List.exists (fun z -> z <> List.hd zs) zs
        && List.for_all Float.is_finite zs))
    [ 0; -1; -42; 0x7FFFFFFF; -0x7FFFFFFF; 2 * 0x7FFFFFFF ]

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.0)) "same stream" (Rng.float a) (Rng.float b)
  done;
  (* gaussian keeps no spare, so a copy taken mid-stream replays exactly *)
  ignore (Rng.gaussian a);
  let c = Rng.copy a in
  checki "state copied" (Rng.state a) (Rng.state c);
  for _ = 1 to 10 do
    Alcotest.(check (float 0.0)) "copy replays" (Rng.gaussian a)
      (Rng.gaussian c)
  done

let test_rng_uniform_range () =
  let rng = Rng.create 1 in
  for _ = 1 to 1000 do
    let x = Rng.uniform rng 2.0 5.0 in
    checkb "in range" true (x > 2.0 && x < 5.0);
    checkb "float never 0" true (Rng.float rng > 0.0)
  done

let test_rng_gaussian_moments () =
  let rng = Rng.create 7 in
  let n = 20_000 in
  let xs = Array.init n (fun _ -> Rng.gaussian ~mu:3.0 ~sigma:2.0 rng) in
  let mean = Array.fold_left ( +. ) 0.0 xs /. float_of_int n in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs
    /. float_of_int (n - 1)
  in
  checkb "mean near 3" true (Float.abs (mean -. 3.0) < 0.1);
  checkb "std near 2" true (Float.abs (sqrt var -. 2.0) < 0.1)

let test_rng_int_covers_range () =
  let rng = Rng.create 11 in
  let seen = Array.make 7 0 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 7 in
    seen.(x) <- seen.(x) + 1
  done;
  checkb "every value drawn" true (Array.for_all (fun c -> c > 0) seen)

let test_rng_shuffle_permutes () =
  let rng = Rng.create 3 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  Alcotest.(check (list int))
    "a permutation" (List.init 50 Fun.id)
    (List.sort compare (Array.to_list a));
  checkb "order changed" true (a <> Array.init 50 Fun.id);
  for _ = 1 to 100 do
    let x = Rng.pick rng a in
    checkb "pick is a member" true (x >= 0 && x < 50)
  done

let test_rng_deterministic_and_compatible () =
  let a = Rng.create 17 and b = Rng.create 17 in
  let da = List.init 20 (fun _ -> Rng.next a) in
  let db = List.init 20 (fun _ -> Rng.next b) in
  Alcotest.(check (list int)) "same seed, same stream" da db;
  (* first draw matches the historical ad-hoc generators this replaced *)
  checki "Lehmer step for seed 17" (17 * 48271 mod 0x7FFFFFFF)
    (Rng.next (Rng.create 17))

let test_rng_bounds () =
  let r = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.int r 7 in
    checkb "in range" true (v >= 0 && v < 7)
  done;
  Alcotest.check_raises "bound must be positive"
    (Invalid_argument "Everest_parallel.Rng.int: bound <= 0") (fun () ->
      ignore (Rng.int r 0))

(* ---- cache ---------------------------------------------------------------------- *)

let test_cache_counts () =
  let c = Cache.create ~name:"t" () in
  checki "computed once" 7 (Cache.find_or_compute c ~key:"k" (fun () -> 7));
  checki "served from cache" 7
    (Cache.find_or_compute c ~key:"k" (fun () -> Alcotest.fail "recomputed"));
  let s = Cache.stats c in
  checki "hits" 1 s.Cache.hits;
  checki "misses" 1 s.Cache.misses;
  checki "entries" 1 s.Cache.entries;
  Cache.clear c;
  checki "cleared" 0 (Cache.stats c).Cache.entries;
  checki "counters survive clear" 1 (Cache.stats c).Cache.hits

(* ---- estimation cache + DSE ----------------------------------------------------- *)

let matmul_expr n = TE.matmul (TE.input "a" [ n; n ]) (TE.input "b" [ n; n ])

let test_dse_cache_hits_on_repeat () =
  let cache = Comp.Estimate_cache.create () in
  let e = matmul_expr 64 in
  let r1 = Comp.Dse.exhaustive ~cache e in
  let cold = Comp.Estimate_cache.stats cache in
  checki "cold run misses everything" 0 cold.Cache.hits;
  checkb "cold run populates" true (cold.Cache.entries > 0);
  let r2 = Comp.Dse.exhaustive ~cache e in
  let warm = Comp.Estimate_cache.stats cache in
  checki "warm run hits everything" cold.Cache.misses warm.Cache.hits;
  checki "no new entries" cold.Cache.entries warm.Cache.entries;
  checki "same pareto size" (List.length r1.Comp.Dse.variants)
    (List.length r2.Comp.Dse.variants)

let same_variants a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Comp.Variants.variant) (y : Comp.Variants.variant) ->
         String.equal x.Comp.Variants.vname y.Comp.Variants.vname
         && x.Comp.Variants.time_s = y.Comp.Variants.time_s
         && x.Comp.Variants.energy_j = y.Comp.Variants.energy_j
         && x.Comp.Variants.area_luts = y.Comp.Variants.area_luts)
       a b

let test_parallel_dse_bit_identical () =
  let e = matmul_expr 128 in
  let seq =
    Pool.with_pool ~domains:1 (fun pool ->
        Comp.Dse.exhaustive ~pool ~cache:(Comp.Estimate_cache.create ()) e)
  in
  let par =
    Pool.with_pool ~domains:4 (fun pool ->
        Comp.Dse.exhaustive ~pool ~cache:(Comp.Estimate_cache.create ()) e)
  in
  checki "same exploration count" seq.Comp.Dse.explored par.Comp.Dse.explored;
  checkb "bit-identical pareto set" true
    (same_variants seq.Comp.Dse.variants par.Comp.Dse.variants)

(* ---- pareto: fast sweep vs naive reference -------------------------------------- *)

let variant_of (t, e, a) =
  { Comp.Variants.vname = Printf.sprintf "v-%g-%g-%d" t e a;
    impl =
      Comp.Variants.Sw
        { Comp.Cost_model.tile = None; layout = Comp.Cost_model.Aos;
          threads = 1 };
    time_s = t; energy_j = e; area_luts = a }

(* small value grids so duplicates and per-axis ties actually occur *)
let variant_gen =
  QCheck.Gen.(
    list_size (int_bound 60)
      (map variant_of
         (triple
            (map (fun i -> float_of_int i) (int_range 1 4))
            (map (fun i -> float_of_int i) (int_range 1 4))
            (int_range 0 3))))

let pareto_equiv =
  QCheck.Test.make ~count:500 ~name:"pareto sweep = naive filter"
    (QCheck.make variant_gen) (fun vs ->
      same_variants (Comp.Variants.pareto vs) (Comp.Variants.pareto_naive vs))

let () =
  Alcotest.run "everest_parallel"
    [ ( "pool",
        [ Alcotest.test_case "map = sequential" `Quick
            test_map_matches_sequential;
          Alcotest.test_case "deterministic" `Quick test_map_deterministic;
          Alcotest.test_case "empty + size-1" `Quick
            test_map_empty_and_single_domain;
          Alcotest.test_case "exceptions" `Quick test_exception_propagates;
          Alcotest.test_case "ordered reduce" `Quick test_reduce_in_order;
          Alcotest.test_case "stats" `Quick test_stats_account_all_items ] );
      ( "rng",
        [ Alcotest.test_case "degenerate seeds" `Quick
            test_rng_degenerate_seeds;
          Alcotest.test_case "determinism + compat" `Quick
            test_rng_deterministic_and_compatible;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "uniform" `Quick test_rng_uniform_range;
          Alcotest.test_case "gaussian" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "int" `Quick test_rng_int_covers_range;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutes ] );
      ( "cache",
        [ Alcotest.test_case "hit/miss accounting" `Quick test_cache_counts ] );
      ( "dse",
        [ Alcotest.test_case "repeat exploration hits cache" `Quick
            test_dse_cache_hits_on_repeat;
          Alcotest.test_case "parallel = sequential pareto" `Quick
            test_parallel_dse_bit_identical ] );
      ( "pareto",
        [ QCheck_alcotest.to_alcotest pareto_equiv ] ) ]
