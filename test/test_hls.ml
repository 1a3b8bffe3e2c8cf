(* Tests for everest_hls: DFG extraction, scheduling, binding, memory
   partitioning, estimation, DIFT and RTL generation. *)

open Everest_hls
module Ir = Everest_ir.Ir
module Types = Everest_ir.Types
module Arith = Everest_ir.Dialect_arith
module Memref = Everest_ir.Dialect_memref

let () = Everest_ir.Registry.register_all ()

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* A small hand-built DFG: two independent mul chains feeding an add,
   then a store. *)
let diamond () =
  let b = Cdfg.builder () in
  Cdfg.declare_array b "a" 64;
  let c1 = Cdfg.add_node b Cdfg.Const "const" [] in
  let l1 = Cdfg.add_node b ~array:"a" ~index:(Cdfg.Affine { coeff = 1; offset = 0 }) Cdfg.Load "load" [] in
  let l2 = Cdfg.add_node b ~array:"a" ~index:(Cdfg.Affine { coeff = 1; offset = 1 }) Cdfg.Load "load" [] in
  let m1 = Cdfg.add_node b Cdfg.Mul "mul" [ l1; c1 ] in
  let m2 = Cdfg.add_node b Cdfg.Mul "mul" [ l2; c1 ] in
  let s = Cdfg.add_node b Cdfg.Add "add" [ m1; m2 ] in
  let _st = Cdfg.add_node b ~array:"a" ~index:(Cdfg.Affine { coeff = 1; offset = 2 }) Cdfg.Store "store" [ s ] in
  Cdfg.finish b

(* ---- scheduling -------------------------------------------------------------- *)

let test_asap_chain () =
  let b = Cdfg.builder () in
  let n1 = Cdfg.add_node b Cdfg.Add "a" [] in
  let n2 = Cdfg.add_node b Cdfg.Mul "m" [ n1 ] in
  let n3 = Cdfg.add_node b Cdfg.Div "d" [ n2 ] in
  let g = Cdfg.finish b in
  let s = Schedule.asap g in
  checki "chain latency" (1 + 3 + 12) s.Schedule.makespan;
  checki "n3 starts after mul" 4 s.Schedule.start.(n3);
  checki "n2 starts after add" 1 s.Schedule.start.(n2)

let test_asap_parallel () =
  let b = Cdfg.builder () in
  let _ = Cdfg.add_node b Cdfg.Add "a" [] in
  let _ = Cdfg.add_node b Cdfg.Add "b" [] in
  let g = Cdfg.finish b in
  let s = Schedule.asap g in
  checki "parallel adds" 1 s.Schedule.makespan

let test_list_schedule_valid () =
  let g = diamond () in
  let res = Schedule.default_resources in
  let s = Schedule.list_schedule ~res g in
  checkb "dependencies respected" true (Schedule.validate g s ~res);
  checkb "binding valid" true (Bind.validate g s (Bind.bind g s));
  checkb "no slower than needed" true
    (s.Schedule.makespan >= (Schedule.asap g).Schedule.makespan)

let test_resource_pressure_monotone () =
  let g = Cdfg.random ~n:120 ~load_frac:0.2 ~mul_frac:0.4 () in
  let rich =
    Schedule.list_schedule
      ~res:{ Schedule.default_resources with multipliers = 8; adders = 8 } g
  in
  let poor =
    Schedule.list_schedule
      ~res:{ Schedule.default_resources with multipliers = 1; adders = 1 } g
  in
  checkb "fewer units, longer schedule" true
    (poor.Schedule.makespan >= rich.Schedule.makespan);
  checkb "rich no faster than ASAP" true
    (rich.Schedule.makespan >= (Schedule.asap g).Schedule.makespan)

let test_min_ii () =
  let b = Cdfg.builder () in
  for _ = 1 to 4 do ignore (Cdfg.add_node b Cdfg.Mul "m" []) done;
  let g = Cdfg.finish b in
  checki "4 muls / 2 units" 2
    (Schedule.min_ii ~res:{ Schedule.default_resources with multipliers = 2 } g);
  checki "4 muls / 4 units" 1
    (Schedule.min_ii ~res:{ Schedule.default_resources with multipliers = 4 } g)

let test_pipelined_cycles () =
  let g = diamond () in
  let res = Schedule.default_resources in
  let seq = (Schedule.list_schedule ~res g).Schedule.makespan * 100 in
  let pipe = Schedule.pipelined_cycles ~res g ~trips:100 in
  checkb "pipelining wins on many trips" true (pipe < seq)

(* ---- binding ------------------------------------------------------------------- *)

let test_binding_shares_fus () =
  let b = Cdfg.builder () in
  (* two adds that cannot overlap (dependency) share one adder *)
  let n1 = Cdfg.add_node b Cdfg.Add "a" [] in
  let _n2 = Cdfg.add_node b Cdfg.Add "b" [ n1 ] in
  let g = Cdfg.finish b in
  let s = Schedule.list_schedule g in
  let bd = Bind.bind g s in
  checki "one adder" 1 (Bind.fu_count bd Cdfg.Add)

let test_binding_parallel_needs_two () =
  let b = Cdfg.builder () in
  let _ = Cdfg.add_node b Cdfg.Add "a" [] in
  let _ = Cdfg.add_node b Cdfg.Add "b" [] in
  let g = Cdfg.finish b in
  let s = Schedule.list_schedule g in
  let bd = Bind.bind g s in
  checki "two adders" 2 (Bind.fu_count bd Cdfg.Add)

(* ---- memory partitioning --------------------------------------------------------- *)

let test_partition_cyclic_stride1 () =
  (* unroll 4, accesses i, i+1, i+2, i+3: cyclic with 4 banks is conflict-free *)
  let accesses = [ Cdfg.Affine { coeff = 1; offset = 0 } ] in
  let cfg = { Mem_partition.scheme = Mem_partition.Cyclic; banks = 4 } in
  checki "cyclic conflict-free" 0
    (Mem_partition.conflicts cfg ~array_size:64 ~unroll:4 ~window:8 accesses);
  let blk = { Mem_partition.scheme = Mem_partition.Block; banks = 4 } in
  checkb "block has conflicts on stride-1" true
    (Mem_partition.conflicts blk ~array_size:64 ~unroll:4 ~window:8 accesses > 0)

let test_partition_block_for_blocked () =
  (* accesses i and i+32 over 64 elements: block banking separates them *)
  let accesses =
    [ Cdfg.Affine { coeff = 1; offset = 0 }; Cdfg.Affine { coeff = 1; offset = 32 } ]
  in
  let blk = { Mem_partition.scheme = Mem_partition.Block; banks = 2 } in
  checki "block separates halves" 0
    (Mem_partition.conflicts blk ~array_size:64 ~unroll:1 ~window:8 accesses)

let test_partition_optimize () =
  let accesses = [ Cdfg.Affine { coeff = 1; offset = 0 } ] in
  let cfg, ii = Mem_partition.optimize ~ports:1 ~array_size:64 ~unroll:8 accesses in
  checki "found conflict-free banking" 1 ii;
  checkb "needs >= 8 banks" true (cfg.Mem_partition.banks >= 8)

let test_partition_dfg_improves_ii () =
  let g = diamond () in
  let _, mem_ii = Mem_partition.optimize_dfg ~ports:1 ~unroll:1 g in
  (* three accesses to "a" on one port need banking to reach II 1 *)
  checki "banked II" 1 mem_ii

(* ---- estimation ------------------------------------------------------------------ *)

let test_estimate_areas () =
  let g = diamond () in
  let s = Schedule.list_schedule g in
  let bd = Bind.bind g s in
  let e = Estimate.of_design g bd ~cycles:s.Schedule.makespan ~ii:1 ~banks:1 in
  checkb "has DSPs from muls" true (e.Estimate.area.Estimate.dsps > 0);
  checkb "has BRAM" true (e.Estimate.area.Estimate.brams >= 1);
  checkb "positive power" true (e.Estimate.dynamic_power_w > 0.0);
  checkb "exec time positive" true (Estimate.exec_time_s e > 0.0);
  let budget = { Estimate.luts = 10_000; ffs = 10_000; dsps = 100; brams = 50 } in
  checkb "fits a mid-size FPGA" true (Estimate.fits ~budget e)

(* ---- DIFT -------------------------------------------------------------------------- *)

let test_dift_propagation () =
  let g = diamond () in
  let inst = Dift.instrument g in
  checki "one check at the store" 1 (List.length inst.Dift.checks);
  (* taint the first load (node 1): flows through mul/add to the store *)
  let fired = Dift.simulate inst ~tainted_inputs:[ 1 ] in
  checki "tainted store detected" 1 (List.length fired);
  let none = Dift.simulate inst ~tainted_inputs:[] in
  checki "clean run" 0 (List.length none);
  checkb "overhead positive but small" true
    (let ov = Dift.overhead inst { Estimate.luts = 1000; ffs = 0; dsps = 0; brams = 0 } in
     ov > 0.0 && ov < 0.2)

(* ---- RTL --------------------------------------------------------------------------- *)

let test_rtl_emission () =
  let g = diamond () in
  let d = Hls.synthesize ~name:"diamond" g in
  let text = Rtl.to_string d.Hls.rtl in
  checkb "module header" true
    (String.length text > 0
    && String.sub text 0 14 = "module diamond");
  checki "one state per cycle" d.Hls.schedule.Schedule.makespan
    (List.length d.Hls.rtl.Rtl.states);
  checkb "instances emitted" true (List.length d.Hls.rtl.Rtl.instances > 0)

(* ---- from IR ------------------------------------------------------------------------ *)

let build_saxpy_body ctx =
  (* loop body: y[i] = a * x[i] + y[i] *)
  let x = Ir.fresh_value ctx (Types.memref Types.F64 [ 64 ]) in
  let y = Ir.fresh_value ctx (Types.memref Types.F64 [ 64 ]) in
  let iv = Ir.fresh_value ctx Types.index in
  let a = Arith.const_f ctx 3.0 in
  let lx = Memref.load ctx x [ iv ] in
  let ly = Memref.load ctx y [ iv ] in
  let m = Arith.mulf ctx (Ir.result a) (Ir.result lx) in
  let s = Arith.addf ctx (Ir.result m) (Ir.result ly) in
  let st = Memref.store ctx (Ir.result s) y [ iv ] in
  ([ a; lx; ly; m; s; st ], iv)

let test_cdfg_from_ir () =
  let ctx = Ir.ctx () in
  let ops, iv = build_saxpy_body ctx in
  let g = Cdfg.of_ir_ops ~iv ops in
  checki "six nodes" 6 (Cdfg.size g);
  checki "two loads" 2 (Cdfg.count_class g Cdfg.Load);
  checki "one store" 1 (Cdfg.count_class g Cdfg.Store);
  checki "one mul" 1 (Cdfg.count_class g Cdfg.Mul);
  (* affine index recovered for loads *)
  let load_idx =
    Array.to_list g.Cdfg.nodes
    |> List.filter_map (fun (n : Cdfg.node) ->
           if n.Cdfg.cls = Cdfg.Load then Some n.Cdfg.index else None)
  in
  checkb "affine indices" true
    (List.for_all
       (function Cdfg.Affine { coeff = 1; offset = 0 } -> true | _ -> false)
       load_idx)

let test_cdfg_affine_arith () =
  let ctx = Ir.ctx () in
  let x = Ir.fresh_value ctx (Types.memref Types.F64 [ 64 ]) in
  let iv = Ir.fresh_value ctx Types.index in
  let c2 = Arith.const_index ctx 2 in
  let c5 = Arith.const_index ctx 5 in
  let t = Arith.muli ctx iv (Ir.result c2) in
  let u = Arith.addi ctx (Ir.result t) (Ir.result c5) in
  let l = Memref.load ctx x [ Ir.result u ] in
  let g = Cdfg.of_ir_ops ~iv [ c2; c5; t; u; l ] in
  let idx =
    Array.to_list g.Cdfg.nodes
    |> List.find_map (fun (n : Cdfg.node) ->
           if n.Cdfg.cls = Cdfg.Load then Some n.Cdfg.index else None)
  in
  checkb "2*i+5 recovered" true
    (idx = Some (Cdfg.Affine { coeff = 2; offset = 5 }))

let test_synthesize_ir_end_to_end () =
  let ctx = Ir.ctx () in
  let ops, iv = build_saxpy_body ctx in
  let c = { Hls.default_constraints with trips = 64; unroll = 2 } in
  let d = Hls.synthesize_ir ~c ~name:"saxpy" ~iv ops in
  checkb "pipelined" true (d.Hls.estimate.Estimate.ii >= 1);
  checkb "fewer cycles than sequential x64" true
    (d.Hls.estimate.Estimate.cycles < d.Hls.schedule.Schedule.makespan * 64);
  checkb "valid schedule" true
    (Schedule.validate d.Hls.dfg d.Hls.schedule ~res:c.Hls.res)

let test_dift_area_increases () =
  let g = diamond () in
  let base = Hls.synthesize ~name:"k" g in
  let sec =
    Hls.synthesize ~c:{ Hls.default_constraints with dift = true } ~name:"k" g
  in
  checkb "DIFT adds area" true
    (sec.Hls.estimate.Estimate.area.Estimate.luts
    > base.Hls.estimate.Estimate.area.Estimate.luts);
  checki "same cycles" base.Hls.estimate.Estimate.cycles
    sec.Hls.estimate.Estimate.cycles

(* property: schedules from random DFGs are always valid and binding-safe *)
let prop_schedule_valid =
  QCheck.Test.make ~count:40 ~name:"list schedule validity on random DFGs"
    QCheck.(make Gen.(int_range 5 80))
    (fun n ->
      let g = Cdfg.random ~seed:(n * 7) ~n ~load_frac:0.25 ~mul_frac:0.3 () in
      let res = Schedule.default_resources in
      let s = Schedule.list_schedule ~res g in
      Schedule.validate g s ~res && Bind.validate g s (Bind.bind g s))

let prop_partition_never_hurts =
  QCheck.Test.make ~count:30 ~name:"partitioning never raises memory II"
    QCheck.(make Gen.(int_range 2 16))
    (fun unroll ->
      let accesses = [ Cdfg.Affine { coeff = 1; offset = 0 } ] in
      let single = { Mem_partition.scheme = Mem_partition.Cyclic; banks = 1 } in
      let ii1 = Mem_partition.ii_for single ~ports:2 ~array_size:256 ~unroll accesses in
      let _, ii_opt = Mem_partition.optimize ~ports:2 ~array_size:256 ~unroll accesses in
      ii_opt <= ii1)


(* ---- fast HLS stages against their original quadratic forms ----------------- *)

(* Random CDFGs wider than [Cdfg.random]: all eight classes (zero-latency
   Const/Nop, 12-cycle Div), up to three preds per node with duplicates
   allowed, and loads and stores spread over two shared arrays. *)
let all_classes =
  [| Cdfg.Add; Mul; Div; Logic; Load; Store; Const; Nop |]

let gen_node i =
  QCheck.Gen.(
    triple (int_bound 7)
      (if i = 0 then return [] else list_size (int_bound 3) (int_bound (i - 1)))
      (pair bool (int_range (-8) 8)))

let gen_specs =
  QCheck.Gen.(int_range 1 60 >>= fun n -> flatten_l (List.init n gen_node))

let cdfg_of_specs specs =
  let b = Cdfg.builder () in
  Cdfg.declare_array b "a" 64;
  Cdfg.declare_array b "b" 64;
  List.iter
    (fun (ci, preds, (on_a, offset)) ->
      let cls = all_classes.(ci) in
      let array =
        match cls with
        | Cdfg.Load | Cdfg.Store -> Some (if on_a then "a" else "b")
        | _ -> None
      in
      ignore
        (Cdfg.add_node b ?array ~index:(Cdfg.Affine { coeff = 1; offset }) cls
           (Cdfg.opclass_name cls) preds))
    specs;
  Cdfg.finish b

let gen_res =
  QCheck.Gen.(
    map
      (fun (adders, multipliers, dividers, (logic_units, mem_ports)) ->
        { Schedule.adders; multipliers; dividers; logic_units; mem_ports })
      (quad (int_range 1 3) (int_range 1 3) (int_range 1 3)
         (pair (int_range 1 3) (int_range 1 3))))

let arb_cdfg_res =
  QCheck.make
    ~print:(fun (specs, (r : Schedule.resources)) ->
      Fmt.str "%a@.res: add=%d mul=%d div=%d logic=%d ports=%d" Cdfg.pp
        (cdfg_of_specs specs) r.Schedule.adders r.multipliers r.dividers
        r.logic_units r.mem_ports)
    QCheck.Gen.(pair gen_specs gen_res)

(* The original O(n^2) ALAP pass: every node scans all nodes for successors. *)
let alap_oracle (g : Cdfg.t) ~deadline =
  let n = Cdfg.size g in
  let start = Array.make n max_int in
  let fin = Array.make n max_int in
  for i = n - 1 downto 0 do
    let succ_starts =
      List.filter_map
        (fun j -> if List.mem i (Cdfg.node g j).Cdfg.preds then Some start.(j) else None)
        (List.init n Fun.id)
    in
    fin.(i) <- List.fold_left min deadline succ_starts;
    start.(i) <- fin.(i) - Schedule.latency (Cdfg.node g i).Cdfg.cls
  done;
  (start, fin)

let same_schedule (a : Schedule.t) (b : Schedule.t) =
  a.Schedule.start = b.Schedule.start
  && a.Schedule.finish = b.Schedule.finish
  && a.Schedule.makespan = b.Schedule.makespan

let prop_schedule_matches_reference =
  QCheck.Test.make ~count:1500 ~name:"list schedule = reference, alap = oracle"
    arb_cdfg_res (fun (specs, res) ->
      let g = cdfg_of_specs specs in
      let deadline = (Schedule.asap g).Schedule.makespan in
      let a = Schedule.alap g ~deadline in
      (a.Schedule.start, a.Schedule.finish) = alap_oracle g ~deadline
      && List.for_all
           (fun res ->
             let s = Schedule.list_schedule ~res g in
             same_schedule s (Schedule.list_schedule_reference ~res g)
             && Schedule.validate g s ~res
             && Bind.validate g s (Bind.bind g s))
           [ Schedule.default_resources; Schedule.unlimited; res ])

(* The original FSM construction: one scan of all nodes per state, FUs
   resolved through [List.assoc_opt]. *)
let rtl_states_oracle (g : Cdfg.t) (s : Schedule.t) (b : Bind.binding) =
  List.init (max 1 s.Schedule.makespan) (fun c ->
      Array.to_list g.Cdfg.nodes
      |> List.filter_map (fun (nd : Cdfg.node) ->
             if s.Schedule.start.(nd.Cdfg.id) = c then
               Option.map
                 (fun fu -> (Printf.sprintf "fu%d" fu, nd.Cdfg.id))
                 (List.assoc_opt nd.Cdfg.id b.Bind.node_fu)
             else None))

let prop_rtl_states_match_oracle =
  QCheck.Test.make ~count:300 ~name:"RTL FSM states = per-state scan"
    arb_cdfg_res (fun (specs, res) ->
      let g = cdfg_of_specs specs in
      let s = Schedule.list_schedule ~res g in
      let b = Bind.bind g s in
      let m = Rtl.generate ~name:"k" g s b [] in
      List.map (fun (st : Rtl.fsm_state) -> st.Rtl.active) m.Rtl.states
      = rtl_states_oracle g s b)

(* The original conflict count: a fresh hashtable of bank hits per window. *)
let conflicts_oracle cfg ~array_size ~unroll ~window accesses =
  let worst = ref 0 in
  for i0 = 0 to window - 1 do
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (a : Cdfg.index) ->
        for u = 0 to unroll - 1 do
          let idx =
            match a with
            | Cdfg.Affine { coeff; offset } -> (coeff * (i0 + u)) + offset
            | Cdfg.Unknown -> (i0 * 7) + (u * 13)
          in
          let idx = ((idx mod array_size) + array_size) mod array_size in
          let bk = Mem_partition.bank_of cfg ~array_size idx in
          Hashtbl.replace tbl bk (1 + Option.value ~default:0 (Hashtbl.find_opt tbl bk))
        done)
      accesses;
    worst := Hashtbl.fold (fun _ v acc -> max v acc) tbl !worst
  done;
  max 0 (!worst - 1)

let prop_conflicts_match_oracle =
  let gen =
    QCheck.Gen.(
      let scheme =
        oneofl
          Mem_partition.[ Cyclic; Block; Block_cyclic 2; Block_cyclic 4 ]
      in
      let index =
        frequency
          [ (5, map2 (fun coeff offset -> Cdfg.Affine { coeff; offset })
                  (int_range (-3) 3) (int_range (-20) 20));
            (1, return Cdfg.Unknown) ]
      in
      pair
        (pair scheme (oneofl [ 1; 2; 4; 8; 16 ]))
        (quad (int_range 1 300) (int_range 1 32) (int_range 0 8)
           (list_size (int_bound 4) index)))
  in
  QCheck.Test.make ~count:500 ~name:"bank conflicts = hashtable count"
    (QCheck.make gen)
    (fun ((scheme, banks), (array_size, unroll, window, accesses)) ->
      let cfg = { Mem_partition.scheme; banks } in
      Mem_partition.conflicts cfg ~array_size ~unroll ~window accesses
      = conflicts_oracle cfg ~array_size ~unroll ~window accesses)

let test_succs () =
  let b = Cdfg.builder () in
  let n0 = Cdfg.add_node b Cdfg.Const "c" [] in
  let n1 = Cdfg.add_node b Cdfg.Add "a" [ n0; n0 ] in
  let n2 = Cdfg.add_node b Cdfg.Mul "m" [ n1; n0 ] in
  let s = Cdfg.succs (Cdfg.finish b) in
  Alcotest.(check (array (list int))) "successors, duplicates kept"
    [| [ n1; n1; n2 ]; [ n2 ]; [] |] s

(* Impossible resources fail at once instead of spinning to a runaway. *)
let test_impossible_resources () =
  let raises_naming what f =
    match f () with
    | _ -> Alcotest.failf "expected Invalid_argument naming %s" what
    | exception Invalid_argument msg ->
        checkb ("message names " ^ what) true (Astring.String.is_infix ~affix:what msg)
  in
  let b = Cdfg.builder () in
  let a = Cdfg.add_node b Cdfg.Add "a" [] in
  let _ = Cdfg.add_node b Cdfg.Div "d" [ a ] in
  let g = Cdfg.finish b in
  raises_naming "div" (fun () ->
      Schedule.list_schedule ~res:{ Schedule.default_resources with dividers = 0 } g);
  raises_naming "add" (fun () ->
      Schedule.list_schedule ~res:{ Schedule.default_resources with adders = -1 } g);
  raises_naming "array a" (fun () ->
      Schedule.list_schedule ~res:{ Schedule.default_resources with mem_ports = 0 }
        (diamond ()))

(* [validate] enforces what the scheduler does: a divider stays busy for
   its full latency, and loads and stores share each array's ports. *)
let test_validate_occupancy () =
  let res = { Schedule.default_resources with dividers = 1; mem_ports = 1 } in
  let b = Cdfg.builder () in
  let _ = Cdfg.add_node b Cdfg.Div "d1" [] in
  let _ = Cdfg.add_node b Cdfg.Div "d2" [] in
  let divs = Cdfg.finish b in
  let sched starts =
    let finish =
      Array.mapi
        (fun i st -> st + Schedule.latency (Cdfg.node divs i).Cdfg.cls)
        starts
    in
    { Schedule.start = starts; finish; makespan = Array.fold_left max 0 finish }
  in
  checkb "overlapping divides rejected" false (Schedule.validate divs (sched [| 0; 1 |]) ~res);
  checkb "back-to-back divides accepted" true (Schedule.validate divs (sched [| 0; 12 |]) ~res);
  let b = Cdfg.builder () in
  Cdfg.declare_array b "a" 8;
  let _ = Cdfg.add_node b ~array:"a" Cdfg.Load "ld" [] in
  let _ = Cdfg.add_node b ~array:"a" Cdfg.Store "st" [] in
  let mem = Cdfg.finish b in
  let s = { Schedule.start = [| 0; 0 |]; finish = [| 2; 1 |]; makespan = 2 } in
  checkb "two accesses on one port rejected" false (Schedule.validate mem s ~res);
  checkb "two ports suffice" true
    (Schedule.validate mem s ~res:{ res with mem_ports = 2 })

(* Scaling gate, counted rather than timed: words allocated by one
   synthesis of a 256x256 matmul candidate at unroll 64, 128 and 256 (the
   DSE's resources: 2*unroll adders and multipliers, max 16 unroll banks).
   Allocation is deterministic on one domain, so the log-log slope cannot
   flake on a noisy host; quadratic stages show up as a slope near 2. *)
let test_synthesis_alloc_scaling () =
  let module TE = Everest_dsl.Tensor_expr in
  let module Hw = Everest_compiler.Hw_lower in
  let e = TE.matmul (TE.input "a" [ 256; 256 ]) (TE.input "b" [ 256; 256 ]) in
  let words unroll =
    let dfg = Hw.dfg_of_expr ~unroll e in
    let c =
      { Hls.default_constraints with
        Hls.unroll; trips = Hw.trips e ~unroll; max_banks = max 16 unroll;
        res =
          { Schedule.default_resources with
            Schedule.adders = 2 * unroll; multipliers = 2 * unroll; mem_ports = 2 } }
    in
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Hls.synthesize ~c dfg));
    Gc.minor_words () -. before
  in
  let pts = List.map (fun u -> (log (float_of_int u), log (words u))) [ 64; 128; 256 ] in
  let mean f = List.fold_left (fun a p -> a +. f p) 0.0 pts /. 3.0 in
  let mx = mean fst and my = mean snd in
  let slope =
    mean (fun (x, y) -> (x -. mx) *. (y -. my)) /. mean (fun (x, _) -> (x -. mx) ** 2.0)
  in
  if slope > 1.15 then
    Alcotest.failf "synthesis allocation grows with slope %.2f > 1.15 (words: %s)"
      slope
      (String.concat " / " (List.map (fun (_, y) -> Printf.sprintf "%.0f" (exp y)) pts))

let () =
  Alcotest.run "everest_hls"
    [
      ( "schedule",
        [ Alcotest.test_case "asap chain" `Quick test_asap_chain;
          Alcotest.test_case "asap parallel" `Quick test_asap_parallel;
          Alcotest.test_case "list valid" `Quick test_list_schedule_valid;
          Alcotest.test_case "resource pressure" `Quick test_resource_pressure_monotone;
          Alcotest.test_case "min II" `Quick test_min_ii;
          Alcotest.test_case "pipelining" `Quick test_pipelined_cycles;
          Alcotest.test_case "successor lists" `Quick test_succs;
          Alcotest.test_case "impossible resources" `Quick test_impossible_resources;
          Alcotest.test_case "validate occupancy" `Quick test_validate_occupancy;
          Alcotest.test_case "alloc scaling" `Quick test_synthesis_alloc_scaling ] );
      ( "bind",
        [ Alcotest.test_case "shares FUs" `Quick test_binding_shares_fus;
          Alcotest.test_case "parallel needs two" `Quick test_binding_parallel_needs_two ] );
      ( "partition",
        [ Alcotest.test_case "cyclic stride-1" `Quick test_partition_cyclic_stride1;
          Alcotest.test_case "block for halves" `Quick test_partition_block_for_blocked;
          Alcotest.test_case "optimize" `Quick test_partition_optimize;
          Alcotest.test_case "dfg II" `Quick test_partition_dfg_improves_ii ] );
      ("estimate", [ Alcotest.test_case "areas" `Quick test_estimate_areas ]);
      ( "dift",
        [ Alcotest.test_case "propagation" `Quick test_dift_propagation;
          Alcotest.test_case "area overhead" `Quick test_dift_area_increases ] );
      ("rtl", [ Alcotest.test_case "emission" `Quick test_rtl_emission ]);
      ( "from-ir",
        [ Alcotest.test_case "saxpy body" `Quick test_cdfg_from_ir;
          Alcotest.test_case "affine recovery" `Quick test_cdfg_affine_arith;
          Alcotest.test_case "end-to-end" `Quick test_synthesize_ir_end_to_end ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_schedule_valid; prop_partition_never_hurts;
            prop_schedule_matches_reference; prop_rtl_states_match_oracle;
            prop_conflicts_match_oracle ] );
    ]
