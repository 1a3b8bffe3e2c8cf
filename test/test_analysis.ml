(* Tests for everest_analysis: the dataflow engine, the built-in analyses
   (liveness, reaching definitions, constant propagation, memref
   lifetimes, call graph) and the lint rule catalog, plus the pipeline's
   pre-flight lint gate. *)

open Everest_analysis
module Ir = Everest_ir.Ir
module Types = Everest_ir.Types
module Attr = Everest_ir.Attr
module Loc = Everest_ir.Loc
module Arith = Everest_ir.Dialect_arith
module Memref = Everest_ir.Dialect_memref
module Scf = Everest_ir.Dialect_scf
module Func = Everest_ir.Dialect_func
module Df = Everest_ir.Dialect_df
module Sec = Everest_ir.Dialect_sec
module Interp = Everest_ir.Interp
module Dsl = Everest_dsl

let () = Everest_ir.Registry.register_all ()

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let r = Ir.result

(* ---- constant propagation ----------------------------------------------- *)

let test_constprop_straight () =
  let ctx = Ir.ctx () in
  let c2 = Arith.const_i ctx 2 in
  let c3 = Arith.const_i ctx 3 in
  let add = Arith.addi ctx (r c2) (r c3) in
  let mul = Arith.muli ctx (r add) (r add) in
  let f = Ir.func "f" [] [ Types.i64 ] [ c2; c3; add; mul; Func.return ctx [ r mul ] ] in
  let res = Constprop.analyze f in
  checkb "add is 5" true (Constprop.fact res (r add) = Constprop.Known (Constprop.CInt 5));
  checkb "mul is 25" true (Constprop.fact res (r mul) = Constprop.Known (Constprop.CInt 25));
  checki "two foldable ops" 2 (List.length (Constprop.foldable f))

let test_constprop_div_by_zero_not_folded () =
  let ctx = Ir.ctx () in
  let c1 = Arith.const_i ctx 1 in
  let c0 = Arith.const_i ctx 0 in
  let dv = Arith.divi ctx (r c1) (r c0) in
  let f = Ir.func "f" [] [ Types.i64 ] [ c1; c0; dv; Func.return ctx [ r dv ] ] in
  let res = Constprop.analyze f in
  checkb "division by zero stays varying" true
    (Constprop.fact res (r dv) = Constprop.Varying);
  checki "not foldable" 0 (List.length (Constprop.foldable f))

let test_constprop_const_branch () =
  (* scf.if on a constant condition: only the taken arm feeds the result *)
  let ctx = Ir.ctx () in
  let ct = Arith.const_i ~ty:Types.i1 ctx 1 in
  let iff =
    Scf.if_ ~ret_types:[ Types.i64 ] ctx (r ct)
      (fun ctx ->
        let c7 = Arith.const_i ctx 7 in
        ([ c7 ], [ r c7 ]))
      (fun ctx ->
        let c9 = Arith.const_i ctx 9 in
        ([ c9 ], [ r c9 ]))
  in
  let f = Ir.func "f" [] [ Types.i64 ] [ ct; iff; Func.return ctx [ r iff ] ] in
  let res = Constprop.analyze f in
  checkb "const branch picks the then-arm" true
    (Constprop.fact res (r iff) = Constprop.Known (Constprop.CInt 7))

let test_constprop_varying_branch () =
  let ctx = Ir.ctx () in
  let cond = Ir.fresh_value ctx Types.i1 in
  let iff =
    Scf.if_ ~ret_types:[ Types.i64 ] ctx cond
      (fun ctx ->
        let c7 = Arith.const_i ctx 7 in
        ([ c7 ], [ r c7 ]))
      (fun ctx ->
        let c9 = Arith.const_i ctx 9 in
        ([ c9 ], [ r c9 ]))
  in
  let f =
    Ir.func "f" [ cond ] [ Types.i64 ] [ iff; Func.return ctx [ r iff ] ]
  in
  let res = Constprop.analyze f in
  checkb "joining 7 and 9 is varying" true
    (Constprop.fact res (r iff) = Constprop.Varying)

let test_constprop_loop_invariant () =
  (* an iteration argument whose yield is the same constant as its init
     survives the loop fixpoint as a known constant *)
  let ctx = Ir.ctx () in
  let lo = Arith.const_index ctx 0 in
  let hi = Arith.const_index ctx 8 in
  let st = Arith.const_index ctx 1 in
  let c5 = Arith.const_i ctx 5 in
  let loop =
    Scf.for_ ~iter_args:[ r c5 ] ctx (r lo) (r hi) (r st)
      (fun _ctx _iv iters -> ([], iters))
  in
  let f =
    Ir.func "f" [] [ Types.i64 ]
      [ lo; hi; st; c5; loop; Func.return ctx [ r loop ] ]
  in
  let res = Constprop.analyze f in
  checkb "invariant iter arg stays 5" true
    (Constprop.fact res (r loop) = Constprop.Known (Constprop.CInt 5))

let test_constprop_loop_varying () =
  (* an accumulator that changes each iteration must not be folded *)
  let ctx = Ir.ctx () in
  let lo = Arith.const_index ctx 0 in
  let hi = Arith.const_index ctx 8 in
  let st = Arith.const_index ctx 1 in
  let c1 = Arith.const_i ctx 1 in
  let loop =
    Scf.for_ ~iter_args:[ r c1 ] ctx (r lo) (r hi) (r st)
      (fun ctx _iv iters ->
        let acc = List.hd iters in
        let two = Arith.const_i ctx 2 in
        let next = Arith.muli ctx (r two) acc in
        ([ two; next ], [ r next ]))
  in
  let f =
    Ir.func "f" [] [ Types.i64 ]
      [ lo; hi; st; c1; loop; Func.return ctx [ r loop ] ]
  in
  let res = Constprop.analyze f in
  checkb "doubling accumulator is varying" true
    (Constprop.fact res (r loop) = Constprop.Varying)

(* ---- liveness and dead ops ---------------------------------------------- *)

let test_dead_op_chain () =
  let ctx = Ir.ctx () in
  let a = Ir.fresh_value ctx Types.f64 in
  let live = Arith.addf ctx a a in
  let d1 = Arith.mulf ctx a a in
  let d2 = Arith.addf ctx (r d1) a in (* only feeds d1's dead chain *)
  let f =
    Ir.func "f" [ a ] [ Types.f64 ] [ live; d1; d2; Func.return ctx [ r live ] ]
  in
  let dead = Liveness.dead_ops f in
  checki "the whole unused chain is dead" 2 (List.length dead);
  checkb "live op survives" true
    (not (List.exists (fun (o : Ir.op) -> o == live) dead))

let test_liveness_impure_not_dead () =
  let ctx = Ir.ctx () in
  let buf = Memref.alloc ctx Types.F64 [ 4 ] in
  let free = Memref.dealloc ctx (r buf) in
  let f = Ir.func "f" [] [] [ buf; free; Func.return ctx [] ] in
  checki "allocation is not dead code" 0 (List.length (Liveness.dead_ops f))

(* ---- reaching definitions ----------------------------------------------- *)

let test_undominated_use () =
  (* a value defined inside one scf.if arm used after the op: defined on
     only one path, so the definition does not dominate the use *)
  let ctx = Ir.ctx () in
  let cond = Ir.fresh_value ctx Types.i1 in
  let inner = Arith.const_i ctx 7 in
  let iff =
    Ir.op ctx "scf.if" [ cond ] []
      ~regions:
        [ Ir.simple_region [ inner; Scf.yield ctx [] ];
          Ir.simple_region [ Scf.yield ctx [] ] ]
  in
  let use = Arith.addi ctx (r inner) (r inner) in
  let f =
    Ir.func "f" [ cond ] [ Types.i64 ] [ iff; use; Func.return ctx [ r use ] ]
  in
  let us = Reaching.undominated_uses f in
  checki "one offending use" 1 (List.length us);
  checkb "names the value" true
    ((List.hd us).Reaching.u_vid = (r inner).Ir.vid);
  (* straight-line defs dominate their uses *)
  let ctx = Ir.ctx () in
  let c = Arith.const_i ctx 1 in
  let u = Arith.addi ctx (r c) (r c) in
  let g = Ir.func "g" [] [ Types.i64 ] [ c; u; Func.return ctx [ r u ] ] in
  checki "no false positives" 0 (List.length (Reaching.undominated_uses g))

(* ---- memref lifetimes ---------------------------------------------------- *)

let has_kind p issues = List.exists (fun (i : Memlife.issue) -> p i.Memlife.kind) issues

let test_memlife_families () =
  let ctx = Ir.ctx () in
  let buf = Memref.alloc ctx Types.F64 [ 4; 4 ] in
  let c0 = Arith.const_index ctx 0 in
  let c9 = Arith.const_index ctx 9 in
  let f1 = Memref.dealloc ctx (r buf) in
  let uaf = Memref.load ctx (r buf) [ r c9; r c0 ] in
  let f2 = Memref.dealloc ctx (r buf) in
  let leaked = Memref.alloc ctx Types.F64 [ 8 ] in
  let st = Memref.store ctx (r uaf) (r leaked) [ r c0 ] in
  let f =
    Ir.func "f" [] [] [ buf; c0; c9; f1; uaf; f2; leaked; st; Func.return ctx [] ]
  in
  let issues = Memlife.analyze f in
  checkb "use after free" true
    (has_kind (function Memlife.Use_after_free { definite = true } -> true | _ -> false) issues);
  checkb "double free" true
    (has_kind (function Memlife.Double_free { definite = true } -> true | _ -> false) issues);
  checkb "leak" true (has_kind (function Memlife.Leak -> true | _ -> false) issues);
  checkb "out of bounds" true
    (has_kind
       (function
         | Memlife.Out_of_bounds { index = 9; axis = 0; dim = 4 } -> true
         | _ -> false)
       issues)

let test_memlife_clean () =
  let ctx = Ir.ctx () in
  let buf = Memref.alloc ctx Types.F64 [ 4 ] in
  let c0 = Arith.const_index ctx 0 in
  let ld = Memref.load ctx (r buf) [ r c0 ] in
  let st = Memref.store ctx (r ld) (r buf) [ r c0 ] in
  let fr = Memref.dealloc ctx (r buf) in
  let f =
    Ir.func "f" [] [] [ buf; c0; ld; st; fr; Func.return ctx [] ]
  in
  checki "clean function has no issues" 0 (List.length (Memlife.analyze f))

let test_memlife_conditional_free () =
  (* dealloc in only one scf.if arm: later use is a "possible" finding *)
  let ctx = Ir.ctx () in
  let cond = Ir.fresh_value ctx Types.i1 in
  let buf = Memref.alloc ctx Types.F64 [ 4 ] in
  let c0 = Arith.const_index ctx 0 in
  let iff =
    Scf.if_ ctx cond
      (fun ctx -> ([ Memref.dealloc ctx (r buf) ], []))
      (fun _ctx -> ([], []))
  in
  let ld = Memref.load ctx (r buf) [ r c0 ] in
  let st = Memref.store ctx (r ld) (r buf) [ r c0 ] in
  let f =
    Ir.func "f" [ cond ] [] [ buf; c0; iff; ld; st; Func.return ctx [] ]
  in
  let issues = Memlife.analyze f in
  checkb "maybe-freed use reported as possible" true
    (has_kind (function Memlife.Use_after_free { definite = false } -> true | _ -> false) issues);
  checkb "no definite use-after-free" true
    (not (has_kind (function Memlife.Use_after_free { definite = true } -> true | _ -> false) issues))

(* ---- call graph ----------------------------------------------------------- *)

let test_callgraph () =
  let ctx = Ir.ctx () in
  let mk_leaf name = Ir.func name [] [] [ Func.return ctx [] ] in
  let call_to callee = Func.call ctx callee [] [] in
  let main = Ir.func "main" [] [] [ call_to "helper"; Func.return ctx [] ] in
  let helper = mk_leaf "helper" in
  let orphan = mk_leaf "orphan" in
  (* dead_end is referenced, but only from orphan *)
  let orphan =
    { orphan with Ir.fbody = call_to "dead_end" :: orphan.Ir.fbody }
  in
  let dead_end = mk_leaf "dead_end" in
  let m = Ir.modul "m" [ main; helper; orphan; dead_end ] in
  checkb "helper reachable" true
    (Callgraph.SSet.mem "helper" (Callgraph.reachable m ~roots:[ "main" ]));
  let unused = List.map (fun (f : Ir.func) -> f.Ir.fname) (Callgraph.unused m) in
  let unreachable =
    List.map (fun (f : Ir.func) -> f.Ir.fname) (Callgraph.unreachable m)
  in
  checkb "orphan unused" true (List.mem "orphan" unused);
  checkb "dead_end not unused (it is referenced)" true
    (not (List.mem "dead_end" unused));
  checkb "dead_end unreachable" true (List.mem "dead_end" unreachable)

(* ---- lint ----------------------------------------------------------------- *)

(* A module seeded with one defect per rule family (mirrors the CLI
   --demo module). *)
let seeded_module () =
  let ctx = Ir.ctx () in
  let at l (o : Ir.op) = { o with Ir.loc = Loc.file "seeded.mlir" l } in
  let karg = Ir.fresh_value ctx Types.f64 in
  let k_proc = Ir.func "k_proc" [ karg ] [ Types.f64 ] [ Func.return ctx [ karg ] ] in
  let orphan = Ir.func "orphan" [] [] [ Func.return ctx [] ] in
  let src = at 11 (Df.source ctx "records" (Types.tensor Types.F64 [ 64 ])) in
  let cls = at 12 (Sec.classify ctx (r src) Everest_ir.Dialect_sec.Secret) in
  let snk = at 13 (Df.sink ctx "public_out" (r cls)) in
  let placed =
    at 14
      (Df.task ctx ~kernel:"k_proc"
         ~attrs:
           [ ("everest.security", Attr.str "secret");
             ("everest.locality", Attr.str "edge:0") ]
         [ r cls ]
         [ Types.tensor Types.F64 [ 64 ] ])
  in
  let secrets =
    Ir.func "secrets" [] [] [ src; cls; snk; placed; Func.return ctx [] ]
  in
  let buf = at 19 (Memref.alloc ctx Types.F64 [ 4; 4 ]) in
  let c0 = at 20 (Arith.const_index ctx 0) in
  let c9 = at 21 (Arith.const_index ctx 9) in
  let f1 = at 22 (Memref.dealloc ctx (r buf)) in
  let uaf = at 23 (Memref.load ctx (r buf) [ r c9; r c0 ]) in
  let f2 = at 24 (Memref.dealloc ctx (r buf)) in
  let k2 = at 27 (Arith.const_i ctx 2) in
  let k3 = at 28 (Arith.const_i ctx 3) in
  let dead = at 29 (Arith.muli ctx (r k2) (r k3)) in
  let call = at 30 (Func.call ctx "secrets" [] []) in
  let main =
    Ir.func "main" [] []
      [ buf; c0; c9; f1; uaf; f2; k2; k3; dead; call; Func.return ctx [] ]
  in
  Ir.modul "seeded" [ k_proc; orphan; secrets; main ]

let test_lint_seeded_codes () =
  let ds = Lint.run (seeded_module ()) in
  let codes = List.map (fun (d : Lint.diag) -> d.Lint.code) ds in
  List.iter
    (fun c -> checkb ("reports " ^ c) true (List.mem c codes))
    [ "EV010"; "EV011"; "EV013"; "EV030"; "EV031"; "EV033"; "EV040"; "EV041" ];
  checkb "has errors" true (Lint.has_errors ds);
  (* every seeded diagnostic carries a real location *)
  List.iter
    (fun (d : Lint.diag) ->
      checkb ("diag " ^ d.Lint.code ^ " has a location") true
        (d.Lint.loc <> Loc.Unknown))
    ds

let test_lint_deterministic () =
  let m = seeded_module () in
  let a = Lint.render_text (Lint.run m) in
  let b = Lint.render_text (Lint.run m) in
  checks "two runs render identically" a b

let test_lint_only_filter () =
  let ds = Lint.run ~only:[ "EV040" ] (seeded_module ()) in
  checkb "non-empty" true (ds <> []);
  List.iter
    (fun (d : Lint.diag) -> checks "only the requested rule" "EV040" d.Lint.code)
    ds

let test_lint_clean_lowered_graph () =
  let g = Dsl.Dataflow.create "clean" in
  let src = Dsl.Dataflow.source g "in" ~bytes:4096 in
  let x = Dsl.Tensor_expr.input "x" [ 16; 16 ] in
  let t =
    Dsl.Dataflow.task g "mm"
      (Dsl.Dataflow.Tensor_kernel (Dsl.Tensor_expr.matmul x x))
      ~deps:[ src ]
  in
  Dsl.Dataflow.sink g "out" t;
  let m = Dsl.Lower.lower_graph (Ir.ctx ()) g in
  let ds = Lint.run m in
  checkb "lowered module lints clean" true (not (Lint.has_errors ds));
  checki "no diagnostics at all" 0 (List.length ds)

let test_lint_verify_bridge () =
  (* an unregistered op surfaces as an EV001 error with its location *)
  let ctx = Ir.ctx () in
  let bogus =
    Ir.op ~loc:(Loc.file "bogus.mlir" 3) ctx "nope.nope" [] []
  in
  let m = Ir.modul "m" [ Ir.func "f" [] [] [ bogus; Func.return ctx [] ] ] in
  let errs = Lint.errors (Lint.run m) in
  checkb "EV001 reported" true
    (List.exists (fun (d : Lint.diag) -> d.Lint.code = "EV001") errs);
  checkb "location preserved" true
    (List.exists
       (fun (d : Lint.diag) -> d.Lint.loc = Loc.file "bogus.mlir" 3)
       errs)

(* ---- pipeline gate --------------------------------------------------------- *)

let bad_placement_graph () =
  let g = Dsl.Dataflow.create "bad_placement" in
  let src = Dsl.Dataflow.source g "sensor" ~bytes:4096 in
  let x = Dsl.Tensor_expr.input "x" [ 16; 16 ] in
  let t =
    Dsl.Dataflow.task g "model"
      (Dsl.Dataflow.Tensor_kernel (Dsl.Tensor_expr.matmul x x))
      ~deps:[ src ]
      ~annots:
        [ Dsl.Annot.Security Everest_ir.Dialect_sec.Secret;
          Dsl.Annot.Locality "edge:7" ]
  in
  Dsl.Dataflow.sink g "out" t;
  g

let test_pipeline_rejects_lint_errors () =
  (match Everest_compiler.Pipeline.compile (bad_placement_graph ()) with
  | exception Everest_compiler.Pipeline.Compile_error msg ->
      checkb "message names the rule" true
        (Astring.String.is_infix ~affix:"EV041" msg)
  | _ -> Alcotest.fail "secret-on-edge placement must not compile");
  (* the gate can be switched off *)
  let app =
    Everest_compiler.Pipeline.compile ~lint:false (bad_placement_graph ())
  in
  checkb "lint disabled compiles" true
    (app.Everest_compiler.Pipeline.app_name = "bad_placement")

let test_pipeline_clean_carries_lint () =
  let g = Dsl.Dataflow.create "ok" in
  let src = Dsl.Dataflow.source g "in" ~bytes:4096 in
  let x = Dsl.Tensor_expr.input "x" [ 16; 16 ] in
  let t =
    Dsl.Dataflow.task g "mm"
      (Dsl.Dataflow.Tensor_kernel (Dsl.Tensor_expr.matmul x x))
      ~deps:[ src ]
  in
  Dsl.Dataflow.sink g "out" t;
  let app = Everest_compiler.Pipeline.compile g in
  checkb "no error diagnostics on a clean app" true
    (not (Lint.has_errors app.Everest_compiler.Pipeline.lint))

let test_pass_lint_each_hook () =
  let module Pass = Everest_ir.Pass in
  let ctx = Ir.ctx () in
  let c = Arith.const_i ctx 1 in
  let f = Ir.func "main" [] [ Types.i64 ] [ c; Func.return ctx [ r c ] ] in
  let m = Ir.modul "hooked" [ f ] in
  let pipeline =
    [ Pass.make "nop1" (fun _ m -> m); Pass.make "nop2" (fun _ m -> m) ]
  in
  let seen = ref [] in
  let hook name _m = seen := name :: !seen in
  ignore (Pass.run_pipeline ~lint_each:hook ctx pipeline m);
  Alcotest.(check (list string))
    "hook runs after every pass" [ "nop1"; "nop2" ] (List.rev !seen);
  (* a raising hook aborts the pipeline *)
  let ran = ref 0 in
  let abort name _m =
    incr ran;
    if String.equal name "nop1" then failwith "lint gate tripped"
  in
  (match Pass.run_pipeline ~lint_each:abort ctx pipeline m with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "raising lint_each must abort run_pipeline");
  checki "aborting hook fired once" 1 !ran

(* ---- properties ------------------------------------------------------------ *)

let prop_liveness_args =
  QCheck.Test.make ~count:100 ~name:"live-in is exactly the used arguments"
    QCheck.(list_of_size Gen.(int_range 1 15) (pair (int_range 0 2) (int_range 0 20)))
    (fun spec ->
      let ctx = Ir.ctx () in
      let args = List.init 3 (fun _ -> Ir.fresh_value ctx Types.f64) in
      let vals = ref args in
      let pick n = List.nth !vals (n mod List.length !vals) in
      let ops =
        List.map
          (fun (k, n) ->
            let o =
              (match k with 0 -> Arith.addf | 1 -> Arith.mulf | _ -> Arith.subf)
                ctx (pick n) (pick (n + 1))
            in
            vals := !vals @ [ r o ];
            o)
          spec
      in
      let last = List.nth !vals (List.length !vals - 1) in
      let f = Ir.func "p" args [ Types.f64 ] (ops @ [ Func.return ctx [ last ] ]) in
      let live = Liveness.live_in f in
      let arg_ids =
        Lattice.IntSet.of_list (List.map (fun (v : Ir.value) -> v.Ir.vid) args)
      in
      let used_args = Lattice.IntSet.inter (Liveness.used f) arg_ids in
      Lattice.IntSet.subset live arg_ids && Lattice.IntSet.equal live used_args)

let prop_constprop_agrees_with_interp =
  QCheck.Test.make ~count:100
    ~name:"constant propagation agrees with the interpreter"
    QCheck.(
      pair
        (pair (int_range (-50) 50) (int_range (-50) 50))
        (list_of_size Gen.(int_range 1 10) (pair (int_range 0 2) (int_range 0 20))))
    (fun ((a, b), spec) ->
      let ctx = Ir.ctx () in
      let ca = Arith.const_i ctx a in
      let cb = Arith.const_i ctx b in
      let vals = ref [ r ca; r cb ] in
      let pick n = List.nth !vals (n mod List.length !vals) in
      let ops =
        List.map
          (fun (k, n) ->
            let o =
              (match k with 0 -> Arith.addi | 1 -> Arith.muli | _ -> Arith.subi)
                ctx (pick n) (pick (n + 1))
            in
            vals := !vals @ [ r o ];
            o)
          spec
      in
      let last = List.nth !vals (List.length !vals - 1) in
      let f =
        Ir.func "p" [] [ Types.i64 ]
          ((ca :: cb :: ops) @ [ Func.return ctx [ last ] ])
      in
      let m = Ir.modul "p" [ f ] in
      let rets, _ = Interp.run_func ctx m "p" [] in
      let expected = match rets with [ Interp.RInt n ] -> n | _ -> assert false in
      Constprop.fact (Constprop.analyze f) last
      = Constprop.Known (Constprop.CInt expected))

let prop_lint_deterministic =
  QCheck.Test.make ~count:20 ~name:"lint output is deterministic"
    QCheck.unit
    (fun () ->
      let m = seeded_module () in
      let render m = Everest_telemetry.Json.to_string (Lint.to_json (Lint.run m)) in
      String.equal (render m) (render m))

let () =
  Alcotest.run "everest_analysis"
    [
      ( "constprop",
        [ Alcotest.test_case "straight line" `Quick test_constprop_straight;
          Alcotest.test_case "div by zero" `Quick test_constprop_div_by_zero_not_folded;
          Alcotest.test_case "const branch" `Quick test_constprop_const_branch;
          Alcotest.test_case "varying branch" `Quick test_constprop_varying_branch;
          Alcotest.test_case "loop invariant" `Quick test_constprop_loop_invariant;
          Alcotest.test_case "loop varying" `Quick test_constprop_loop_varying;
          QCheck_alcotest.to_alcotest prop_constprop_agrees_with_interp ] );
      ( "liveness",
        [ Alcotest.test_case "dead chain" `Quick test_dead_op_chain;
          Alcotest.test_case "impure kept" `Quick test_liveness_impure_not_dead;
          QCheck_alcotest.to_alcotest prop_liveness_args ] );
      ( "reaching",
        [ Alcotest.test_case "undominated use" `Quick test_undominated_use ] );
      ( "memlife",
        [ Alcotest.test_case "defect families" `Quick test_memlife_families;
          Alcotest.test_case "clean" `Quick test_memlife_clean;
          Alcotest.test_case "conditional free" `Quick test_memlife_conditional_free ] );
      ( "callgraph",
        [ Alcotest.test_case "unused/unreachable" `Quick test_callgraph ] );
      ( "lint",
        [ Alcotest.test_case "seeded codes" `Quick test_lint_seeded_codes;
          Alcotest.test_case "deterministic" `Quick test_lint_deterministic;
          Alcotest.test_case "only filter" `Quick test_lint_only_filter;
          Alcotest.test_case "clean lowered graph" `Quick test_lint_clean_lowered_graph;
          Alcotest.test_case "verify bridge" `Quick test_lint_verify_bridge;
          QCheck_alcotest.to_alcotest prop_lint_deterministic ] );
      ( "pipeline-gate",
        [ Alcotest.test_case "rejects lint errors" `Quick test_pipeline_rejects_lint_errors;
          Alcotest.test_case "clean carries lint" `Quick test_pipeline_clean_carries_lint;
          Alcotest.test_case "lint_each hook" `Quick test_pass_lint_each_hook ] );
    ]
