(* Declarative recording and alert rules, evaluated once per scrape tick
   on caller-supplied time.

   A recording rule names an expression and writes its value back into the
   store as a derived series, so later rules (and the dashboard) can read
   it like any scraped signal; rules evaluate in declaration order, so a
   recording rule's output is visible to everything after it in the same
   tick.  An alert rule tests an expression against a condition — a static
   threshold or an online change detector — with [for_s] hold-down: the
   condition must hold continuously that long before the alert fires.
   Firing is level-triggered and [edges] counts rising edges, the same
   semantics as the Slo two-window burn alerts, so both kinds of alert
   aggregate uniformly.

   Expressions read the store (latest value / window aggregates over the
   staircase rings) and the windowed sketches (quantiles in O(buckets)).
   An expression over a series with no data yet is undefined: the rule is
   skipped for the tick and alert hold-down state is left untouched. *)

module Metrics = Everest_telemetry.Metrics

type labels = (string * string) list

type expr =
  | Const of float
  | Last of string * labels  (* newest value of a series *)
  | Mean_over of string * labels * float  (* trailing window, seconds *)
  | Max_over of string * labels * float
  | Min_over of string * labels * float
  | Rate_over of string * labels * float
      (* (last - first) / (t_last - t_first) over the window: the
         counter-increase rate *)
  | Quantile_over of string * labels * float * float  (* q, window_s *)
  | Count_over of string * labels * float  (* sketch samples in window *)
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr

type cond =
  | Above of float
  | Below of float
  | Outside of float * float  (* inclusive band [lo, hi] *)
  | Detector of Detect.t  (* stepped once per evaluated tick *)

type rule =
  | Record of { rc_name : string; rc_labels : labels; rc_expr : expr }
  | Alert of {
      al_name : string;
      al_expr : expr;
      al_cond : cond;
      al_for_s : float;
    }

let record ?(labels = []) name expr =
  Record { rc_name = name; rc_labels = labels; rc_expr = expr }

let alert ?(for_s = 0.0) name expr cond =
  Alert { al_name = name; al_expr = expr; al_cond = cond; al_for_s = for_s }

(* What expressions read: the series store plus a sketch lookup (the watch
   facade wires its windowed sketches in; bare engines can pass a lookup
   that always misses). *)
type ctx = {
  ctx_store : Series.Store.t;
  ctx_sketch : string -> labels -> Sketch.t option;
}

type alert_state = {
  as_name : string;
  mutable as_pending_since : float;  (* nan = condition not holding *)
  mutable as_firing : bool;
  mutable as_edges : int;
  mutable as_since : float;  (* when it started firing; nan otherwise *)
  mutable as_value : float;  (* last evaluated expression value *)
}

type t = {
  e_rules : rule list;
  e_alerts : (string * alert_state) list;  (* one per alert rule, in order *)
  mutable e_evals : int;
  e_window : Metrics.histogram;
      (* every sketch query of every tick merges into this one histogram *)
}

let engine rules =
  { e_rules = rules;
    e_alerts =
      List.filter_map
        (function
          | Record _ -> None
          | Alert a ->
              Some
                ( a.al_name,
                  { as_name = a.al_name; as_pending_since = Float.nan;
                    as_firing = false; as_edges = 0; as_since = Float.nan;
                    as_value = 0.0 } ))
        rules;
    e_evals = 0;
    e_window = Metrics.make_histogram () }

let alert_states t = List.map snd t.e_alerts
let firing t = List.filter (fun s -> s.as_firing) (alert_states t)

let edges_total t =
  List.fold_left (fun acc s -> acc + s.as_edges) 0 (alert_states t)

let rec eval_expr t ctx ~now = function
  | Const v -> Some v
  | Last (name, labels) -> (
      match Series.Store.find ctx.ctx_store ~name ~labels with
      | None -> None
      | Some s -> Option.map (fun p -> p.Series.pt_last) (Series.latest s))
  | Mean_over (name, labels, w) ->
      window_agg ctx ~now name labels w (fun ps ->
          let n = List.fold_left (fun a p -> a + p.Series.pt_count) 0 ps in
          let sum = List.fold_left (fun a p -> a +. p.Series.pt_sum) 0.0 ps in
          if n = 0 then None else Some (sum /. float_of_int n))
  | Max_over (name, labels, w) ->
      window_agg ctx ~now name labels w (fun ps ->
          Some
            (List.fold_left
               (fun a p -> Float.max a p.Series.pt_max)
               neg_infinity ps))
  | Min_over (name, labels, w) ->
      window_agg ctx ~now name labels w (fun ps ->
          Some
            (List.fold_left (fun a p -> Float.min a p.Series.pt_min) infinity ps))
  | Rate_over (name, labels, w) ->
      window_agg ctx ~now name labels w (fun ps ->
          match ps with
          | [] | [ _ ] -> None
          | first :: _ ->
              let last = List.nth ps (List.length ps - 1) in
              let dt = last.Series.pt_t -. first.Series.pt_t in
              if dt <= 0.0 then None
              else Some ((last.Series.pt_last -. first.Series.pt_last) /. dt))
  | Quantile_over (name, labels, q, w) -> (
      match window t ctx ~now name labels w with
      | None -> None
      | Some h ->
          if Metrics.hist_count h = 0 then None
          else Some (Metrics.quantile h q))
  | Count_over (name, labels, w) ->
      Option.map
        (fun h -> float_of_int (Metrics.hist_count h))
        (window t ctx ~now name labels w)
  | Add (a, b) -> lift2 t ctx ~now ( +. ) a b
  | Sub (a, b) -> lift2 t ctx ~now ( -. ) a b
  | Mul (a, b) -> lift2 t ctx ~now ( *. ) a b
  | Div (a, b) -> (
      match (eval_expr t ctx ~now a, eval_expr t ctx ~now b) with
      | Some x, Some y when y <> 0.0 -> Some (x /. y)
      | _ -> None)

and lift2 t ctx ~now op a b =
  match (eval_expr t ctx ~now a, eval_expr t ctx ~now b) with
  | Some x, Some y -> Some (op x y)
  | _ -> None

(* The sketch's trailing window, merged into the engine's histogram: valid
   until the next window query. *)
and window t ctx ~now name labels w =
  match ctx.ctx_sketch name labels with
  | None -> None
  | Some wd ->
      Sketch.query_into wd ~into:t.e_window ~now ~window_s:w;
      Some t.e_window

and window_agg ctx ~now name labels w f =
  match Series.Store.find ctx.ctx_store ~name ~labels with
  | None -> None
  | Some s -> (
      match Series.between s ~t0:(now -. w) ~t1:now with
      | [] -> None
      | ps -> f ps)

(* One evaluation pass.  Returns the alerts that newly fired this tick
   (rising edges), in rule order. *)
let eval t ctx ~now =
  t.e_evals <- t.e_evals + 1;
  let fired = ref [] in
  List.iter
    (fun rule ->
      match rule with
      | Record { rc_name; rc_labels; rc_expr } -> (
          match eval_expr t ctx ~now rc_expr with
          | None -> ()
          | Some v ->
              Series.Store.observe ctx.ctx_store ~now ~name:rc_name
                ~labels:rc_labels v)
      | Alert { al_name; al_expr; al_cond; al_for_s } -> (
          match eval_expr t ctx ~now al_expr with
          | None -> ()
          | Some v ->
              let st = List.assoc al_name t.e_alerts in
              st.as_value <- v;
              let holds =
                match al_cond with
                | Above x -> v > x
                | Below x -> v < x
                | Outside (lo, hi) -> v < lo || v > hi
                | Detector d -> Detect.step d v = Detect.Alarm
              in
              if holds then begin
                if Float.is_nan st.as_pending_since then
                  st.as_pending_since <- now;
                let held_s = now -. st.as_pending_since in
                if held_s >= al_for_s && not st.as_firing then begin
                  st.as_firing <- true;
                  st.as_since <- now;
                  st.as_edges <- st.as_edges + 1;
                  fired := st :: !fired
                end
              end
              else begin
                st.as_pending_since <- Float.nan;
                if st.as_firing then begin
                  st.as_firing <- false;
                  st.as_since <- Float.nan
                end
              end))
    t.e_rules;
  List.rev !fired
