(* everest_watch: series ring/downsampling, sketch merge laws, change
   detectors (never-alarm / always-alarm properties), phase segmentation,
   rules, the facade and the dashboard's determinism. *)

module Series = Everest_watch.Series
module Sketch = Everest_watch.Sketch
module Detect = Everest_watch.Detect
module Rules = Everest_watch.Rules
module Scrape = Everest_watch.Scrape
module Watch = Everest_watch.Watch
module Live = Everest_watch.Live
module Metrics = Everest_telemetry.Metrics

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg
let checks = Alcotest.(check string)

(* ---- series ---------------------------------------------------------------------- *)

let test_series_ring_bounds () =
  let s = Series.create ~capacity:8 ~tiers:1 ~name:"x" ~labels:[] () in
  for i = 0 to 99 do
    Series.observe s ~t:(float_of_int i) (float_of_int i)
  done;
  let pts = Series.points s ~tier:0 in
  checki "capacity bounds the ring" 8 (List.length pts);
  checki "raw samples still counted" 100 (Series.samples s);
  (* the ring keeps the newest points *)
  checkf "oldest survivor" 92.0 (List.hd pts).Series.pt_t;
  checkf "latest" 99.0 (Option.get (Series.latest s)).Series.pt_last

let test_series_downsampling () =
  let s =
    Series.create ~capacity:64 ~tiers:2 ~factor:10 ~res_s:0.01 ~name:"x"
      ~labels:[] ()
  in
  (* 100 samples over 1 s: tier 1 (res 0.1 s) should aggregate 10 raw
     samples per point *)
  for i = 0 to 99 do
    Series.observe s ~t:(0.01 *. float_of_int i) (float_of_int i)
  done;
  let t1 = Series.points s ~tier:1 in
  checki "tier-1 point count" 10 (List.length t1);
  let p0 = List.hd t1 in
  checki "tier-1 aggregates 10 samples" 10 p0.Series.pt_count;
  checkf "tier-1 min" 0.0 p0.Series.pt_min;
  checkf "tier-1 max" 9.0 p0.Series.pt_max;
  checkf "tier-1 mean" 4.5 (Series.pt_mean p0)

let test_series_between_picks_tier () =
  let s =
    Series.create ~capacity:16 ~tiers:2 ~factor:10 ~res_s:0.01 ~name:"x"
      ~labels:[] ()
  in
  for i = 0 to 199 do
    Series.observe s ~t:(0.01 *. float_of_int i) 1.0
  done;
  (* raw tier only reaches back 16 samples = 0.16 s; asking for the full
     2 s span must fall back to the coarser tier *)
  let recent = Series.between s ~t0:1.9 ~t1:2.0 in
  let full = Series.between s ~t0:0.0 ~t1:2.0 in
  checkb "recent span served" true (recent <> []);
  checkb "full span falls back to coarse tier" true (List.length full > 0);
  checkb "coarse points aggregate" true
    (List.exists (fun p -> p.Series.pt_count > 1) full)

let test_store_sorted_iteration () =
  let st = Series.Store.create () in
  Series.Store.observe st ~now:0.0 ~name:"zeta" ~labels:[] 1.0;
  Series.Store.observe st ~now:0.0 ~name:"alpha" ~labels:[ ("b", "2") ] 1.0;
  Series.Store.observe st ~now:0.0 ~name:"alpha" ~labels:[ ("a", "1") ] 1.0;
  let names = List.map Series.name (Series.Store.to_list st) in
  Alcotest.(check (list string)) "sorted by (name, labels)"
    [ "alpha"; "alpha"; "zeta" ] names;
  checki "size" 3 (Series.Store.size st);
  checkb "label order normalized" true
    (Series.Store.find st ~name:"alpha" ~labels:[ ("a", "1") ] <> None)

(* ---- sketch ---------------------------------------------------------------------- *)

let sketch_of values =
  let s = Sketch.create () in
  List.iter (Sketch.observe s) values;
  s

let sketch_eq a b =
  Sketch.count a = Sketch.count b
  && Float.abs (Sketch.sum a -. Sketch.sum b) < 1e-9
  && Float.abs (Sketch.min_v a -. Sketch.min_v b) < 1e-12
  && Float.abs (Sketch.max_v a -. Sketch.max_v b) < 1e-12
  && List.for_all
       (fun q -> Float.abs (Sketch.quantile a q -. Sketch.quantile b q) < 1e-12)
       [ 0.1; 0.5; 0.9; 0.99 ]

let prop_merge_associative =
  QCheck.Test.make ~count:100 ~name:"sketch merge is associative"
    QCheck.(
      triple
        (list_of_size QCheck.Gen.(int_range 0 50) (float_range 0.0 1e3))
        (list_of_size QCheck.Gen.(int_range 0 50) (float_range 0.0 1e3))
        (list_of_size QCheck.Gen.(int_range 0 50) (float_range 0.0 1e3)))
    (fun (xs, ys, zs) ->
      let a () = sketch_of xs and b () = sketch_of ys and c () = sketch_of zs in
      let l = Sketch.merge (Sketch.merge (a ()) (b ())) (c ()) in
      let r = Sketch.merge (a ()) (Sketch.merge (b ()) (c ())) in
      sketch_eq l r)

let prop_merge_commutative =
  QCheck.Test.make ~count:100 ~name:"sketch merge is commutative"
    QCheck.(
      pair
        (list_of_size QCheck.Gen.(int_range 0 50) (float_range 0.0 1e3))
        (list_of_size QCheck.Gen.(int_range 0 50) (float_range 0.0 1e3)))
    (fun (xs, ys) ->
      sketch_eq
        (Sketch.merge (sketch_of xs) (sketch_of ys))
        (Sketch.merge (sketch_of ys) (sketch_of xs)))

let prop_merge_equals_union =
  QCheck.Test.make ~count:100 ~name:"merge of parts equals sketch of union"
    QCheck.(
      pair
        (list_of_size QCheck.Gen.(int_range 0 50) (float_range 0.0 1e3))
        (list_of_size QCheck.Gen.(int_range 0 50) (float_range 0.0 1e3)))
    (fun (xs, ys) ->
      sketch_eq
        (Sketch.merge (sketch_of xs) (sketch_of ys))
        (sketch_of (xs @ ys)))

let test_sketch_quantile_matches_metrics () =
  (* the sketch reuses the Metrics bucket layout, so on identical data the
     estimates must agree exactly *)
  let values = [ 0.001; 0.004; 0.004; 0.02; 0.3; 2.0 ] in
  let r = Metrics.create_registry () in
  let h = Metrics.histogram ~registry:r "lat" in
  List.iter (Metrics.observe h) values;
  let s = sketch_of values in
  List.iter
    (fun q ->
      checkf
        (Printf.sprintf "q=%g agrees with Metrics" q)
        (Metrics.quantile h q) (Sketch.quantile s q))
    [ 0.1; 0.5; 0.9; 0.99 ]

let test_windowed_rotation () =
  let w = Sketch.Windowed.create ~bucket_s:0.1 ~slots:5 () in
  (* old epoch, then far newer samples: the query over the trailing window
     must only see the new ones *)
  Sketch.Windowed.observe w ~now:0.0 100.0;
  Sketch.Windowed.observe w ~now:10.0 1.0;
  Sketch.Windowed.observe w ~now:10.05 2.0;
  let sk = Sketch.Windowed.query w ~now:10.05 ~window_s:0.5 in
  checki "stale slots rotated out" 2 (Sketch.count sk);
  checkf "max is recent" 2.0 (Sketch.max_v sk);
  checki "samples counts everything ever" 3 (Sketch.Windowed.samples w)

(* ---- detectors ------------------------------------------------------------------- *)

let detector_named = function
  | "ewma" -> Detect.ewma ()
  | "cusum" -> Detect.cusum ()
  | "ph" -> Detect.page_hinkley ()
  | s -> invalid_arg s

let det_gen = QCheck.Gen.oneofl [ "ewma"; "cusum"; "ph" ]

let prop_constant_never_alarms =
  QCheck.Test.make ~count:200 ~name:"constant series never alarms"
    QCheck.(
      make
        ~print:(fun (k, v, n) -> Printf.sprintf "%s v=%g n=%d" k v n)
        QCheck.Gen.(
          triple det_gen (float_range (-1e6) 1e6) (int_range 10 300)))
    (fun (kind, v, n) ->
      let d = detector_named kind in
      let ok = ref true in
      for _ = 1 to n do
        if Detect.step d v = Detect.Alarm then ok := false
      done;
      !ok && Detect.alarms d = 0)

let prop_big_step_always_alarms =
  (* after a noiseless baseline, a step of >= 8 sigma-floors must alarm
     within a short window for both EWMA and CUSUM *)
  QCheck.Test.make ~count:200 ~name:"8-sigma step alarms within window"
    QCheck.(
      make
        ~print:(fun (k, base, step_mag) ->
          Printf.sprintf "%s base=%g step=%g" k base step_mag)
        QCheck.Gen.(
          triple
            (oneofl [ "ewma"; "cusum" ])
            (float_range (-1e3) 1e3)
            (float_range 1.0 1e3)))
    (fun (kind, base, step_mag) ->
      let d = detector_named kind in
      (* noisy-but-tame warmup: alternate +/- around base so sigma0 > 0 *)
      let noise i = if i mod 2 = 0 then 0.01 else -0.01 in
      for i = 1 to 8 do
        ignore (Detect.step d (base +. noise i))
      done;
      (* sigma0 is ~0.01; an 8-sigma step is 0.08, scale by step_mag *)
      let stepped = base +. (0.08 *. step_mag) in
      let alarmed = ref false in
      for _ = 1 to 10 do
        if Detect.step d stepped = Detect.Alarm then alarmed := true
      done;
      !alarmed)

let test_cusum_integrates_small_shift () =
  (* a 1.5-sigma sustained shift: inside the EWMA band, but CUSUM's sums
     integrate it past the threshold *)
  let d = Detect.cusum ~drift:0.5 ~threshold:5.0 () in
  let noise i = if i mod 2 = 0 then 0.01 else -0.01 in
  for i = 1 to 8 do
    ignore (Detect.step d (10.0 +. noise i))
  done;
  let fired = ref false in
  for _ = 1 to 30 do
    if Detect.step d 10.016 = Detect.Alarm then fired := true
  done;
  checkb "sustained small shift caught" true !fired

let test_ewma_recenters_after_step () =
  let d = Detect.ewma ~alpha:0.3 ~k:4.0 () in
  let noise i = if i mod 2 = 0 then 0.01 else -0.01 in
  for i = 1 to 8 do
    ignore (Detect.step d (1.0 +. noise i))
  done;
  ignore (Detect.step d 2.0);
  checkb "step fires" true (Detect.firing d);
  (* keep feeding the new level: the band re-centers and the alarm clears *)
  for _ = 1 to 50 do
    ignore (Detect.step d 2.0)
  done;
  checkb "new normal settles" false (Detect.firing d);
  checki "one rising edge" 1 (Detect.alarms d)

let test_detector_reset () =
  let d = Detect.cusum () in
  for i = 1 to 8 do
    ignore (Detect.step d (float_of_int (i mod 2)))
  done;
  for _ = 1 to 10 do
    ignore (Detect.step d 100.0)
  done;
  checkb "alarmed before reset" true (Detect.alarms d > 0);
  Detect.reset d;
  checki "reset clears samples" 0 (Detect.samples d);
  checkb "reset clears firing" false (Detect.firing d);
  checki "reset clears alarms" 0 (Detect.alarms d)

(* ---- phases ---------------------------------------------------------------------- *)

let test_phase_segmentation () =
  let samples =
    List.init 30 (fun i ->
        let t = float_of_int i in
        let v = if i < 10 then 0.2 else if i < 20 then 0.8 else 0.3 in
        (t, v))
  in
  let ps = Detect.phases ~abs_tol:0.05 ~rel_tol:0.05 samples in
  checki "three phases" 3 (List.length ps);
  let means = List.map (fun p -> p.Detect.ph_mean) ps in
  checkf "phase 1 mean" 0.2 (List.nth means 0);
  checkf "phase 2 mean" 0.8 (List.nth means 1);
  checkf "phase 3 mean" 0.3 (List.nth means 2)

let test_phase_merge_absorbs_blips () =
  let samples =
    List.init 21 (fun i ->
        (float_of_int i, if i = 10 then 5.0 else 1.0))
  in
  (* a single-sample blip is shorter than min_samples: absorbed, one phase *)
  let ps = Detect.phases ~abs_tol:0.05 ~rel_tol:0.05 ~min_samples:2 samples in
  checki "blip absorbed" 1 (List.length ps)

let test_phases_constant () =
  let samples = List.init 50 (fun i -> (float_of_int i, 0.7)) in
  let ps = Detect.phases samples in
  checki "constant timeline is one phase" 1 (List.length ps);
  checkf "mean preserved" 0.7 (List.hd ps).Detect.ph_mean;
  checki "all samples in it" 50 (List.hd ps).Detect.ph_samples

(* ---- rules ----------------------------------------------------------------------- *)

let mk_ctx store =
  { Rules.ctx_store = store; ctx_sketch = (fun _ _ -> None) }

let test_rules_record_then_alert () =
  let store = Series.Store.create () in
  let eng =
    Rules.engine
      [ Rules.record "doubled" (Rules.Mul (Rules.Last ("x", []), Rules.Const 2.0));
        (* sees "doubled" in the same tick: declaration order *)
        Rules.alert "too-big" (Rules.Last ("doubled", [])) (Rules.Above 10.0) ]
  in
  let ctx = mk_ctx store in
  Series.Store.observe store ~now:0.0 ~name:"x" ~labels:[] 3.0;
  checki "no fire at 6" 0 (List.length (Rules.eval eng ctx ~now:0.0));
  Series.Store.observe store ~now:1.0 ~name:"x" ~labels:[] 6.0;
  let fired = Rules.eval eng ctx ~now:1.0 in
  checki "fires at 12" 1 (List.length fired);
  checks "fired name" "too-big" (List.hd fired).Rules.as_name;
  (* recording rule wrote the derived series *)
  let d = Option.get (Series.Store.find store ~name:"doubled" ~labels:[]) in
  checkf "derived value" 12.0 (Option.get (Series.latest d)).Series.pt_last

let test_rules_for_s_holddown () =
  let store = Series.Store.create () in
  let eng =
    Rules.engine
      [ Rules.alert ~for_s:0.5 "hot" (Rules.Last ("t", [])) (Rules.Above 100.0) ]
  in
  let ctx = mk_ctx store in
  let tick now v =
    Series.Store.observe store ~now ~name:"t" ~labels:[] v;
    Rules.eval eng ctx ~now
  in
  checki "breach starts pending" 0 (List.length (tick 0.0 150.0));
  checki "still pending" 0 (List.length (tick 0.3 150.0));
  checki "held long enough: fires" 1 (List.length (tick 0.6 150.0));
  checki "stays firing, no new edge" 0 (List.length (tick 0.9 150.0));
  (* condition clears: pending resets, a new breach must re-hold *)
  ignore (tick 1.0 50.0);
  checki "cleared" 0 (List.length (Rules.firing eng));
  checki "fresh breach pends again" 0 (List.length (tick 1.1 150.0));
  checki "edges counted once so far" 1 (Rules.edges_total eng)

let test_rules_undefined_skips () =
  let store = Series.Store.create () in
  let eng =
    Rules.engine
      [ Rules.alert "ghost" (Rules.Last ("nope", [])) (Rules.Above 0.0);
        Rules.alert "div0"
          (Rules.Div (Rules.Const 1.0, Rules.Const 0.0))
          (Rules.Above (-1.0)) ]
  in
  let ctx = mk_ctx store in
  checki "nothing fires" 0 (List.length (Rules.eval eng ctx ~now:0.0));
  List.iter
    (fun (a : Rules.alert_state) ->
      checkb (a.Rules.as_name ^ " untouched") false a.Rules.as_firing)
    (Rules.alert_states eng)

let test_rules_rate_and_window_exprs () =
  let store = Series.Store.create () in
  (* counter growing 10/s; mean/max/min over trailing 1 s *)
  for i = 0 to 20 do
    let t = 0.1 *. float_of_int i in
    Series.Store.observe store ~now:t ~name:"c" ~labels:[] (10.0 *. t)
  done;
  let eng =
    Rules.engine
      [ Rules.record "rate" (Rules.Rate_over ("c", [], 1.0));
        Rules.record "mx" (Rules.Max_over ("c", [], 1.0));
        Rules.record "mn" (Rules.Min_over ("c", [], 1.0)) ]
  in
  ignore (Rules.eval eng (mk_ctx store) ~now:2.0);
  let v name =
    (Option.get
       (Series.latest (Option.get (Series.Store.find store ~name ~labels:[]))))
      .Series.pt_last
  in
  checkf "rate ~10/s" 10.0 (v "rate");
  checkf "max over window" 20.0 (v "mx");
  checkf "min over window" 10.0 (v "mn")

(* ---- facade + dashboard ---------------------------------------------------------- *)

let test_watch_scrape_and_alert () =
  let r = Metrics.create_registry () in
  let g = Metrics.gauge ~registry:r "depth" in
  let w =
    Watch.create
      ~interval_s:0.1
      ~rules:[ Rules.alert "deep" (Rules.Last ("depth", [])) (Rules.Above 5.0) ]
      ()
  in
  Watch.add_source w (Scrape.of_registry r);
  Metrics.set g 1.0;
  Watch.maybe_tick w ~now:0.0;
  checki "first call ticks" 1 (Watch.ticks w);
  Watch.maybe_tick w ~now:0.05;
  checki "interval gates" 1 (Watch.ticks w);
  Metrics.set g 9.0;
  Watch.maybe_tick w ~now:0.1;
  checki "second tick" 2 (Watch.ticks w);
  Alcotest.(check (list string)) "alert fired" [ "deep" ] (Watch.firing w);
  checkb "work attributed" true (Watch.work_s w > 0.0)

let test_watch_source_replace () =
  let w = Watch.create () in
  Watch.add_source w (Scrape.of_fn ~name:"s" (fun ~now:_ -> [ ("a", [], 1.0) ]));
  Watch.add_source w (Scrape.of_fn ~name:"s" (fun ~now:_ -> [ ("a", [], 2.0) ]));
  ignore (Watch.tick w ~now:0.0);
  let s = Option.get (Series.Store.find (Watch.store w) ~name:"a" ~labels:[]) in
  checki "not double-sampled" 1 (Option.get (Series.latest s)).Series.pt_count;
  checkf "replacement won" 2.0 (Option.get (Series.latest s)).Series.pt_last

let test_dashboard_deterministic () =
  let mk () =
    let r = Metrics.create_registry () in
    Metrics.set (Metrics.gauge ~registry:r "g") 3.0;
    let w = Watch.create () in
    Watch.add_source w (Scrape.of_registry r);
    Watch.observe w ~now:0.02 ~labels:[ ("t", "a") ] "lat" 0.004;
    Watch.observe w ~now:0.03 ~labels:[ ("t", "a") ] "lat" 0.005;
    ignore (Watch.tick w ~now:0.05);
    (Live.render w ~now:0.05, Live.render_json w ~now:0.05)
  in
  let t1, j1 = mk () in
  let t2, j2 = mk () in
  checks "text renders byte-identical" t1 t2;
  checks "json renders byte-identical" j1 j2;
  checkb "sketch visible" true
    (Astring.String.is_infix ~affix:"lat{" t1);
  (* json parses back *)
  let parsed = Everest_telemetry.Json.parse j1 in
  checkb "json roundtrips" true
    (Everest_telemetry.Json.member "series" parsed <> None)

let () =
  Alcotest.run "everest_watch"
    [
      ( "series",
        [ Alcotest.test_case "ring bounds" `Quick test_series_ring_bounds;
          Alcotest.test_case "staircase downsampling" `Quick
            test_series_downsampling;
          Alcotest.test_case "between picks tier" `Quick
            test_series_between_picks_tier;
          Alcotest.test_case "store sorted iteration" `Quick
            test_store_sorted_iteration ] );
      ( "sketch",
        [ QCheck_alcotest.to_alcotest prop_merge_associative;
          QCheck_alcotest.to_alcotest prop_merge_commutative;
          QCheck_alcotest.to_alcotest prop_merge_equals_union;
          Alcotest.test_case "quantile matches Metrics" `Quick
            test_sketch_quantile_matches_metrics;
          Alcotest.test_case "windowed rotation" `Quick test_windowed_rotation ]
      );
      ( "detect",
        [ QCheck_alcotest.to_alcotest prop_constant_never_alarms;
          QCheck_alcotest.to_alcotest prop_big_step_always_alarms;
          Alcotest.test_case "cusum integrates small shift" `Quick
            test_cusum_integrates_small_shift;
          Alcotest.test_case "ewma recenters" `Quick
            test_ewma_recenters_after_step;
          Alcotest.test_case "reset" `Quick test_detector_reset ] );
      ( "phases",
        [ Alcotest.test_case "segmentation" `Quick test_phase_segmentation;
          Alcotest.test_case "blip absorbed" `Quick
            test_phase_merge_absorbs_blips;
          Alcotest.test_case "constant is one phase" `Quick
            test_phases_constant ] );
      ( "rules",
        [ Alcotest.test_case "record then alert" `Quick
            test_rules_record_then_alert;
          Alcotest.test_case "for_s hold-down" `Quick test_rules_for_s_holddown;
          Alcotest.test_case "undefined skips" `Quick
            test_rules_undefined_skips;
          Alcotest.test_case "rate and window exprs" `Quick
            test_rules_rate_and_window_exprs ] );
      ( "watch",
        [ Alcotest.test_case "scrape and alert" `Quick
            test_watch_scrape_and_alert;
          Alcotest.test_case "source replace" `Quick test_watch_source_replace;
          Alcotest.test_case "dashboard deterministic" `Quick
            test_dashboard_deterministic ] );
    ]
