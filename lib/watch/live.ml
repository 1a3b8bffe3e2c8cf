(* Deterministic dashboard rendering over a watch.

   Everything here is a pure function of watch state and the caller's
   [now]: series iterate in sorted store order, sketches in
   first-observation order, floats print at fixed precision, and the
   sparkline ramp is plain ASCII — so two same-seed runs (or a run and
   its resume) render byte-identical dashboards, which is exactly what
   the CI byte-identity check diffs.  [render] is the text form shown by
   [everest_cli top]; [to_json] is the machine form behind its
   [--format json] and [--out]. *)

module Json = Everest_telemetry.Json

let ramp = " .:-=+*#%@"

(* Sparkline over the newest [width] tier-0 points, normalized to their
   own min..max (a flat series renders as all-middle). *)
let sparkline ?(width = 16) (s : Series.t) =
  let pts = Series.points s ~tier:0 in
  let n = List.length pts in
  let pts = if n > width then List.filteri (fun i _ -> i >= n - width) pts else pts in
  match pts with
  | [] -> ""
  | pts ->
      let vs = List.map Series.pt_mean pts in
      let lo = List.fold_left Float.min Float.infinity vs in
      let hi = List.fold_left Float.max Float.neg_infinity vs in
      let span = hi -. lo in
      let glyph v =
        let idx =
          if span <= 0.0 then (String.length ramp - 1) / 2
          else
            int_of_float
              (Float.round
                 ((v -. lo) /. span *. float_of_int (String.length ramp - 1)))
        in
        ramp.[max 0 (min (String.length ramp - 1) idx)]
      in
      String.init (List.length vs) (fun i -> glyph (List.nth vs i))

let fmt_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) labels)
      ^ "}"

let fmt_f v = if Float.is_nan v then "-" else Printf.sprintf "%.6f" v

(* ---- text ------------------------------------------------------------------------ *)

let render ?(spark_width = 16) ?(quantiles = [ 0.5; 0.99 ]) (w : Watch.t)
    ~now =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let firing = Watch.firing w in
  line "everest top  t=%s  ticks=%d  series=%d  sketch_samples=%d  firing=%d"
    (fmt_f now) (Watch.ticks w)
    (Series.Store.size (Watch.store w))
    (Watch.samples w) (List.length firing);
  let series = Series.Store.to_list (Watch.store w) in
  if series <> [] then begin
    line "";
    line "%-44s %12s %12s %12s  %s" "SERIES" "LAST" "MEAN" "MAX" "TREND";
    List.iter
      (fun s ->
        let id = Series.name s ^ fmt_labels (Series.labels s) in
        match Series.latest s with
        | None -> line "%-44s %12s %12s %12s" id "-" "-" "-"
        | Some _ ->
            let pts = Series.points s ~tier:0 in
            let last = List.nth pts (List.length pts - 1) in
            let sum, mx =
              List.fold_left
                (fun (sum, mx) p ->
                  (sum +. Series.pt_mean p, Float.max mx p.Series.pt_max))
                (0.0, Float.neg_infinity) pts
            in
            line "%-44s %12s %12s %12s  %s" id
              (fmt_f last.Series.pt_last)
              (fmt_f (sum /. float_of_int (List.length pts)))
              (fmt_f mx)
              (sparkline ~width:spark_width s))
      series
  end;
  let sketches = Watch.sketch_list w in
  if sketches <> [] then begin
    line "";
    let qhdr =
      String.concat ""
        (List.map (fun q -> Printf.sprintf " %12s" (Printf.sprintf "p%g" (100.0 *. q))) quantiles)
    in
    line "%-44s %12s%s" "SKETCH (window)" "COUNT" qhdr;
    List.iter
      (fun (name, labels, wd) ->
        let sk =
          Sketch.Windowed.query wd ~now ~window_s:(Sketch.Windowed.span_s wd)
        in
        let qs =
          String.concat ""
            (List.map
               (fun q -> Printf.sprintf " %12s" (fmt_f (Sketch.quantile sk q)))
               quantiles)
        in
        line "%-44s %12d%s" (name ^ fmt_labels labels) (Sketch.count sk) qs)
      sketches
  end;
  let alerts = Watch.alert_states w in
  if alerts <> [] then begin
    line "";
    line "%-32s %8s %12s %6s %12s" "ALERT" "STATE" "VALUE" "EDGES" "SINCE";
    List.iter
      (fun (a : Rules.alert_state) ->
        line "%-32s %8s %12s %6d %12s" a.Rules.as_name
          (if a.Rules.as_firing then "FIRING" else "ok")
          (fmt_f a.Rules.as_value) a.Rules.as_edges
          (fmt_f a.Rules.as_since))
      alerts
  end;
  Buffer.contents buf

(* ---- json ------------------------------------------------------------------------ *)

let num v = if Float.is_nan v then Json.Null else Json.Num v
let labels_json labels = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels)

let to_json ?(quantiles = [ 0.5; 0.99 ]) (w : Watch.t) ~now =
  let series_json s =
    let pts = Series.points s ~tier:0 in
    let last = Series.latest s in
    Json.Obj
      [ ("name", Json.Str (Series.name s));
        ("labels", labels_json (Series.labels s));
        ("samples", Json.Num (float_of_int (Series.samples s)));
        ( "last",
          match last with
          | None -> Json.Null
          | Some p -> num p.Series.pt_last );
        ( "mean",
          if pts = [] then Json.Null
          else
            num
              (List.fold_left (fun acc p -> acc +. Series.pt_mean p) 0.0 pts
              /. float_of_int (List.length pts)) );
        ( "max",
          if pts = [] then Json.Null
          else
            num
              (List.fold_left
                 (fun acc p -> Float.max acc p.Series.pt_max)
                 Float.neg_infinity pts) ) ]
  in
  let sketch_json (name, labels, wd) =
    let sk =
      Sketch.Windowed.query wd ~now ~window_s:(Sketch.Windowed.span_s wd)
    in
    Json.Obj
      ([ ("name", Json.Str name);
         ("labels", labels_json labels);
         ("count", Json.Num (float_of_int (Sketch.count sk))) ]
      @ List.map
          (fun q ->
            ( Printf.sprintf "p%g" (100.0 *. q),
              num (Sketch.quantile sk q) ))
          quantiles)
  in
  let alert_json (a : Rules.alert_state) =
    Json.Obj
      [ ("name", Json.Str a.Rules.as_name);
        ("firing", Json.Bool a.Rules.as_firing);
        ("value", num a.Rules.as_value);
        ("edges", Json.Num (float_of_int a.Rules.as_edges));
        ("since", num a.Rules.as_since) ]
  in
  Json.Obj
    [ ("now_s", Json.Num now);
      ("ticks", Json.Num (float_of_int (Watch.ticks w)));
      ("sketch_samples", Json.Num (float_of_int (Watch.samples w)));
      ("alert_edges_total", Json.Num (float_of_int (Watch.alerts_total w)));
      ("firing", Json.Arr (List.map (fun n -> Json.Str n) (Watch.firing w)));
      ( "series",
        Json.Arr (List.map series_json (Series.Store.to_list (Watch.store w)))
      );
      ("sketches", Json.Arr (List.map sketch_json (Watch.sketch_list w)));
      ("alerts", Json.Arr (List.map alert_json (Watch.alert_states w))) ]

let render_json ?quantiles w ~now =
  Json.to_string ~pretty:true (to_json ?quantiles w ~now)
