(* everest_watch: series ring/downsampling, windowed sketch slots, change
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

(* The flat ring against a list model of the ring it replaced: per tier a
   list of closed points (newest [capacity] kept) plus the open window,
   every point a boxed record. *)
module Ring_model = struct
  type tier = {
    res : float;
    mutable closed : Series.point list;  (* oldest first *)
    mutable open_ : (int * Series.point) option;
  }

  type t = { cap : int; tiers : tier array }

  let create ~capacity ~tiers ~factor ~res_s =
    { cap = capacity;
      tiers =
        Array.init tiers (fun i ->
            { res =
                (if i = 0 then 0.0
                 else res_s *. (float_of_int factor ** float_of_int i));
              closed = []; open_ = None }) }

  let push m tr p =
    let l = tr.closed @ [ p ] in
    tr.closed <- List.filteri (fun i _ -> i >= List.length l - m.cap) l

  let observe m ~t v =
    let raw =
      { Series.pt_t = t; pt_last = v; pt_count = 1; pt_sum = v; pt_min = v;
        pt_max = v }
    in
    Array.iter
      (fun tr ->
        if tr.res = 0.0 then push m tr raw
        else
          let key = int_of_float (Float.floor (t /. tr.res)) in
          match tr.open_ with
          | Some (k, p) when k = key ->
              tr.open_ <-
                Some
                  ( k,
                    { p with
                      Series.pt_last = v; pt_count = p.Series.pt_count + 1;
                      pt_sum = p.Series.pt_sum +. v;
                      pt_min = Float.min p.Series.pt_min v;
                      pt_max = Float.max p.Series.pt_max v } )
          | prev ->
              Option.iter (fun (_, p) -> push m tr p) prev;
              tr.open_ <-
                Some (key, { raw with Series.pt_t = float_of_int key *. tr.res }))
      m.tiers

  let points m ~tier =
    let tr = m.tiers.(tier) in
    tr.closed @ Option.to_list (Option.map snd tr.open_)

  let latest m =
    match List.rev (points m ~tier:0) with p :: _ -> Some p | [] -> None

  let between m ~t0 ~t1 =
    let n = Array.length m.tiers in
    let rec pick i =
      if i >= n then n - 1
      else
        match points m ~tier:i with
        | p :: _ when p.Series.pt_t <= t0 -> i
        | _ -> pick (i + 1)
    in
    List.filter
      (fun p -> p.Series.pt_t >= t0 && p.Series.pt_t <= t1)
      (points m ~tier:(pick 0))
end

let prop_ring_matches_model =
  QCheck.Test.make ~count:300 ~name:"flat ring = list model of the old ring"
    QCheck.(
      make
        ~print:(fun (cap, tiers, steps) ->
          Printf.sprintf "cap=%d tiers=%d steps=%d" cap tiers (List.length steps))
        QCheck.Gen.(
          triple (int_range 1 16) (int_range 1 3)
            (list_size (int_range 0 120)
               (pair (float_range 0.0 0.05) (float_range (-1e3) 1e3)))))
    (fun (capacity, tiers, steps) ->
      let s =
        Series.create ~capacity ~tiers ~factor:3 ~res_s:0.02 ~name:"x"
          ~labels:[] ()
      in
      let m = Ring_model.create ~capacity ~tiers ~factor:3 ~res_s:0.02 in
      let t = ref 0.0 and ok = ref true in
      let agree () =
        let span = !t +. 0.01 in
        for tier = 0 to tiers - 1 do
          if Series.points s ~tier <> Ring_model.points m ~tier then ok := false
        done;
        if Series.latest s <> Ring_model.latest m then ok := false;
        List.iter
          (fun (a, b) ->
            let t0 = a *. span and t1 = b *. span in
            if Series.between s ~t0 ~t1 <> Ring_model.between m ~t0 ~t1 then
              ok := false)
          [ (0.0, 1.0); (0.5, 1.0); (0.9, 0.95); (0.99, 1.0); (0.2, 0.1) ]
      in
      List.iter
        (fun (dt, v) ->
          t := !t +. dt;
          Series.observe s ~t:!t v;
          Ring_model.observe m ~t:!t v;
          agree ())
        steps;
      agree ();
      !ok && Series.samples s = List.length steps)

(* ---- sketch ---------------------------------------------------------------------- *)

let prop_merge_equals_union =
  (* two slots queried together answer exactly like one histogram of the
     union: windowed quantiles lose nothing to slotting *)
  QCheck.Test.make ~count:100 ~name:"merge of parts equals sketch of union"
    QCheck.(
      pair
        (list_of_size QCheck.Gen.(int_range 0 50) (float_range 0.0 1e3))
        (list_of_size QCheck.Gen.(int_range 0 50) (float_range 0.0 1e3)))
    (fun (xs, ys) ->
      let w = Sketch.create ~bucket_s:1.0 ~slots:4 () in
      List.iter (Sketch.observe w ~now:0.5) xs;
      List.iter (Sketch.observe w ~now:1.5) ys;
      let got = Sketch.query w ~now:1.5 ~window_s:2.0 in
      let want = Metrics.make_histogram () in
      List.iter (Metrics.observe want) (xs @ ys);
      Metrics.hist_count got = Metrics.hist_count want
      && Float.abs (Metrics.hist_sum got -. Metrics.hist_sum want) < 1e-9
      && Metrics.hist_min got = Metrics.hist_min want
      && Metrics.hist_max got = Metrics.hist_max want
      && List.for_all
           (fun q -> Metrics.quantile got q = Metrics.quantile want q)
           [ 0.1; 0.5; 0.9; 0.99 ])

let test_windowed_rotation () =
  let w = Sketch.create ~bucket_s:0.1 ~slots:5 () in
  (* old epoch, then far newer samples: the query over the trailing window
     must only see the new ones *)
  Sketch.observe w ~now:0.0 100.0;
  Sketch.observe w ~now:10.0 1.0;
  Sketch.observe w ~now:10.05 2.0;
  let h = Sketch.query w ~now:10.05 ~window_s:0.5 in
  checki "stale slots rotated out" 2 (Metrics.hist_count h);
  checkf "max is recent" 2.0 (Metrics.hist_max h)

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
    let lat = Watch.sketch w ~name:"lat" ~labels:[ ("t", "a") ] in
    Watch.observe w ~now:0.02 lat 0.004;
    Watch.observe w ~now:0.03 lat 0.005;
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

(* ---- bound registry scrape vs the reference scrape ------------------------------- *)

(* The scrape path the bound registry source replaced, kept as its oracle:
   the whole registry as a fresh list of (name, labels, value) triples on
   every tick, each written into the store by name. *)
let reference_samples ?(prefix = "") ?(quantiles = [ 0.5; 0.9; 0.99 ]) r =
  List.concat_map
    (fun (m : Metrics.metric) ->
      let n = prefix ^ m.Metrics.mname in
      let labels = m.Metrics.labels in
      match m.Metrics.value with
      | Metrics.Counter c | Metrics.Gauge c -> [ (n, labels, !c) ]
      | Metrics.Histogram h ->
          (n ^ ":count", labels, float_of_int (Metrics.hist_count h))
          :: (n ^ ":sum", labels, Metrics.hist_sum h)
          :: List.map
               (fun q ->
                 (Printf.sprintf "%s:p%g" n (100.0 *. q), labels, Metrics.quantile h q))
               quantiles)
    (Metrics.metrics r)

let reference_source ?prefix ?quantiles r =
  Scrape.of_fn ~name:"registry" (fun ~now:_ ->
      reference_samples ?prefix ?quantiles r)

(* Every tier (a watch keeps three) of every series, [latest] and a few
   [between] windows. *)
let same_stores a b ~now =
  let view st =
    List.map
      (fun s ->
        ( (Series.name s, Series.labels s, Series.samples s),
          List.init 3 (fun tier -> Series.points s ~tier),
          Series.latest s,
          List.map
            (fun w -> Series.between s ~t0:(now -. w) ~t1:now)
            [ 0.0; 0.05; 0.5; 5.0; 50.0 ] ))
      (Series.Store.to_list st)
  in
  view a = view b

type op =
  | Register of int * int  (* metric slot (its kind is slot mod 3), label set *)
  | Update of int * float  (* a registered metric, by position *)
  | Tick
  | Reset_same  (* reset, then register the same metrics as new cells *)
  | Reattach  (* add the source again under the same name *)

let pp_op = function
  | Register (k, l) -> Printf.sprintf "reg(%d,%d)" k l
  | Update (i, v) -> Printf.sprintf "upd(%d,%g)" i v
  | Tick -> "tick"
  | Reset_same -> "reset"
  | Reattach -> "reattach"

let op_gen =
  QCheck.Gen.(
    frequency
      [ (3, map2 (fun k l -> Register (k, l)) (int_range 0 8) (int_range 0 2));
        (6, map2 (fun i v -> Update (i, v)) (int_range 0 30) (float_range 0.0 50.0));
        (5, return Tick);
        (1, return Reset_same);
        (1, return Reattach) ])

let label_sets = [| []; [ ("t", "a") ]; [ ("t", "b"); ("k", "x") ] |]

let prop_bound_scrape_matches_reference =
  QCheck.Test.make ~count:200 ~name:"bound registry scrape = reference scrape"
    QCheck.(
      make
        ~print:(fun (prefix, ops) ->
          Printf.sprintf "prefix=%S %s" prefix
            (String.concat " " (List.map pp_op ops)))
        QCheck.Gen.(
          pair (oneofl [ ""; "p_" ]) (list_size (int_range 1 80) op_gen)))
    (fun (prefix, ops) ->
      let r = Metrics.create_registry () in
      let registered = ref [] in
      let register (k, l) =
        let name = Printf.sprintf "%c%d" "cgh".[k mod 3] k
        and labels = label_sets.(l) in
        (match k mod 3 with
        | 0 -> ignore (Metrics.counter ~registry:r ~labels name)
        | 1 -> ignore (Metrics.gauge ~registry:r ~labels name)
        | _ -> ignore (Metrics.histogram ~registry:r ~labels name));
        if not (List.mem (k, l) !registered) then
          registered := !registered @ [ (k, l) ]
      in
      let update i v =
        match !registered with
        | [] -> ()
        | regs -> (
            let k, l = List.nth regs (i mod List.length regs) in
            let name = Printf.sprintf "%c%d" "cgh".[k mod 3] k
            and labels = label_sets.(l) in
            match k mod 3 with
            | 0 -> Metrics.inc ~by:v (Metrics.counter ~registry:r ~labels name)
            | 1 -> Metrics.set (Metrics.gauge ~registry:r ~labels name) v
            | _ -> Metrics.observe (Metrics.histogram ~registry:r ~labels name) v)
      in
      let bound = Watch.create () and oracle = Watch.create () in
      (* a by-name source writing one of the registry's series too: the
         two sources' writes must interleave the same way *)
      let fn w =
        Watch.add_source w
          (Scrape.of_fn ~name:"fn" (fun ~now -> [ ("g1", [], now) ]))
      in
      Watch.add_source bound (Scrape.of_registry ~prefix r);
      Watch.add_source oracle (reference_source ~prefix r);
      fn bound;
      fn oracle;
      let now = ref 0.0 in
      List.iter
        (function
          | Register (k, l) -> register (k, l)
          | Update (i, v) -> update i v
          | Tick ->
              now := !now +. 0.01;
              ignore (Watch.tick bound ~now:!now);
              ignore (Watch.tick oracle ~now:!now)
          | Reset_same ->
              Metrics.reset r;
              List.iter register !registered
          | Reattach ->
              Watch.add_source bound (Scrape.of_registry ~prefix r);
              Watch.add_source oracle (reference_source ~prefix r))
        ops;
      now := !now +. 0.01;
      ignore (Watch.tick bound ~now:!now);
      ignore (Watch.tick oracle ~now:!now);
      same_stores (Watch.store bound) (Watch.store oracle) ~now:!now)

(* One source scraped into two stores rebinds per store. *)
let test_scrape_two_stores () =
  let r = Metrics.create_registry () in
  let g = Metrics.gauge ~registry:r "g" in
  let h = Metrics.histogram ~registry:r ~labels:[ ("t", "a") ] "h" in
  let src = Scrape.of_registry r in
  let a = Watch.create () and b = Watch.create () and o = Watch.create () in
  Watch.add_source a src;
  Watch.add_source b src;
  Watch.add_source o (reference_source r);
  for i = 1 to 30 do
    Metrics.set g (float_of_int i);
    Metrics.observe h (0.001 *. float_of_int i);
    let now = 0.01 *. float_of_int i in
    List.iter (fun w -> ignore (Watch.tick w ~now)) [ a; b; o ]
  done;
  checkb "first store" true (same_stores (Watch.store a) (Watch.store o) ~now:0.3);
  checkb "second store" true (same_stores (Watch.store b) (Watch.store o) ~now:0.3)

(* Every quantile estimate against the recursive scan it replaced. *)
let reference_quantile h q =
  let counts = h.Metrics.counts in
  let n = Metrics.hist_count h in
  if n = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = q *. float_of_int n in
    let upper = Metrics.bucket_upper in
    let rec scan i cum =
      if i >= Metrics.n_buckets then Metrics.hist_max h
      else
        let cum' = cum + counts.(i) in
        if float_of_int cum' >= rank && counts.(i) > 0 then begin
          let lower = if i = 0 then 0.0 else upper.(i - 1) in
          let frac = (rank -. float_of_int cum) /. float_of_int counts.(i) in
          let lo = Float.max lower (Metrics.bucket_min /. Metrics.bucket_ratio) in
          let v = lo *. ((upper.(i) /. lo) ** frac) in
          Float.min (Float.min v (Metrics.hist_max h)) upper.(i)
        end
        else scan (i + 1) cum'
    in
    scan 0 0
  end

let prop_quantile_matches_reference =
  QCheck.Test.make ~count:300 ~name:"quantile = recursive reference scan"
    QCheck.(
      pair
        (list_of_size QCheck.Gen.(int_range 0 60) (float_range 0.0 1e4))
        (float_range (-0.5) 1.5))
    (fun (xs, q) ->
      let h = Metrics.make_histogram () in
      List.iter (Metrics.observe h) xs;
      List.for_all
        (fun q -> Metrics.quantile h q = reference_quantile h q)
        [ q; 0.0; 0.5; 0.9; 0.99; 1.0 ])

(* ---- tick allocation gate ------------------------------------------------------- *)

(* A steady registry shaped like the fabric's: per tenant two counters,
   two gauges and a latency histogram (9 series), the E20 rules over a
   tenant's latency sketch, and a by-name source.  Returns the words one
   tick allocates, averaged over ticks 400..600 (after the tier-0 rings
   are full), and the store's size.  Allocation is deterministic on one
   domain, so neither figure can flake on a noisy host. *)
let tick_words ~tenants =
  let r = Metrics.create_registry () in
  let p99 = Rules.Quantile_over ("latency", [ ("tenant", "t0") ], 0.99, 0.2) in
  let w =
    Watch.create
      ~rules:
        [ Rules.record "latency:p99" p99;
          Rules.alert "latency-step" p99
            (Rules.Detector (Detect.cusum ~drift:0.5 ~threshold:5.0 ()));
          Rules.alert "depth" (Rules.Last ("q:depth", [])) (Rules.Above 1e9) ]
      ()
  in
  Watch.add_source w (Scrape.of_registry r);
  Watch.add_source w (Scrape.of_fn ~name:"q" (fun ~now:_ -> [ ("q:depth", [], 1.0) ]));
  let per_tenant =
    List.init tenants (fun i ->
        let labels = [ ("tenant", Printf.sprintf "t%d" i) ] in
        ( Metrics.counter ~registry:r ~labels "requests_total",
          Metrics.counter ~registry:r ~labels "served_total",
          Metrics.gauge ~registry:r ~labels "workers",
          Metrics.gauge ~registry:r ~labels "depth",
          Metrics.histogram ~registry:r ~labels "latency_s",
          Watch.sketch w ~name:"latency" ~labels ))
  in
  let words = ref 0.0 in
  for k = 1 to 600 do
    let now = 0.01 *. float_of_int k in
    List.iter
      (fun (c1, c2, g1, g2, h, sk) ->
        let v = 0.001 *. float_of_int (1 + (k mod 7)) in
        Metrics.inc c1;
        Metrics.inc c2;
        Metrics.set g1 (float_of_int (k mod 5));
        Metrics.set g2 v;
        Metrics.observe h v;
        Watch.observe w ~now sk v)
      per_tenant;
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Watch.tick w ~now));
    if k > 400 then words := !words +. (Gc.minor_words () -. before)
  done;
  (!words /. 200.0, Series.Store.size (Watch.store w))

let test_tick_alloc_per_series () =
  let words, series = tick_words ~tenants:16 in
  let per = words /. float_of_int series in
  if per > 10.0 then
    Alcotest.failf "one tick allocates %.1f words per series (%.0f words, %d \
                    series) > 10"
      per words series

let test_tick_alloc_scaling () =
  let pts =
    List.map
      (fun t -> (log (float_of_int t), log (fst (tick_words ~tenants:t))))
      [ 4; 8; 16 ]
  in
  let mean f = List.fold_left (fun a p -> a +. f p) 0.0 pts /. 3.0 in
  let mx = mean fst and my = mean snd in
  let slope =
    mean (fun (x, y) -> (x -. mx) *. (y -. my)) /. mean (fun (x, _) -> (x -. mx) ** 2.0)
  in
  if slope > 1.15 then
    Alcotest.failf "tick allocation grows with slope %.2f > 1.15 (words: %s)"
      slope
      (String.concat " / " (List.map (fun (_, y) -> Printf.sprintf "%.0f" (exp y)) pts))

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
            test_store_sorted_iteration;
          QCheck_alcotest.to_alcotest prop_ring_matches_model ] );
      ( "sketch",
        [ QCheck_alcotest.to_alcotest prop_merge_equals_union;
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
      ( "scrape",
        [ QCheck_alcotest.to_alcotest prop_bound_scrape_matches_reference;
          Alcotest.test_case "one source, two stores" `Quick
            test_scrape_two_stores;
          QCheck_alcotest.to_alcotest prop_quantile_matches_reference ] );
      ( "gate",
        [ Alcotest.test_case "tick words per series" `Quick
            test_tick_alloc_per_series;
          Alcotest.test_case "tick words scaling" `Quick
            test_tick_alloc_scaling ] );
    ]
