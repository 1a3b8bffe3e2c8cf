(* Declarative service-level objectives with error budgets and multi-window
   burn-rate alerting, evaluated over simulated time.

   An objective classifies each outcome (one served request, or one
   workflow task) as good or bad:

     - [Availability target]: bad = the request failed; budget = 1-target.
     - [Latency_quantile {q; limit_s}]: "q of requests finish within
       limit_s"; bad = slower than the limit (or failed); budget = 1-q.
     - [Completion_ratio target]: availability over task outcomes.

   [evaluate] is the batch view over a whole log.  [monitor] is the online
   view the orchestrator feeds as requests complete: it keeps a bounded
   event window and evaluates the standard fast/slow two-window burn-rate
   rule — alert when *both* a short and a long window burn the error budget
   faster than [burn_threshold] — so a short blip does not page but a
   sustained burn does, and recovery resets the alert quickly.  Time comes
   from the caller ([~now]), so everything runs on the Desim simulated
   clock and is deterministic. *)

type objective =
  | Availability of { target : float }  (* fraction of requests ok *)
  | Latency_quantile of { q : float; limit_s : float }
  | Completion_ratio of { target : float }  (* fraction of tasks done *)

type spec = { slo_name : string; objective : objective }

let availability name target =
  { slo_name = name; objective = Availability { target } }

let latency name ~q ~limit_s =
  { slo_name = name; objective = Latency_quantile { q; limit_s } }

let completion name target =
  { slo_name = name; objective = Completion_ratio { target } }

(* One observed unit: a request (or task) that finished at [o_t_s]. *)
type outcome = { o_t_s : float; o_ok : bool; o_latency_s : float }

(* Allowed bad fraction. *)
let error_budget = function
  | Availability { target } | Completion_ratio { target } ->
      Float.max 1e-9 (1.0 -. target)
  | Latency_quantile { q; _ } -> Float.max 1e-9 (1.0 -. q)

let is_bad spec (o : outcome) =
  match spec.objective with
  | Availability _ | Completion_ratio _ -> not o.o_ok
  | Latency_quantile { limit_s; _ } -> (not o.o_ok) || o.o_latency_s > limit_s

(* Exact empirical quantile (nearest-rank): value at index ceil(q*n). *)
let exact_quantile xs q =
  match xs with
  | [] -> 0.0
  | _ ->
      let arr = Array.of_list xs in
      Array.sort compare arr;
      let n = Array.length arr in
      let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
      arr.(max 0 (min (n - 1) (rank - 1)))

type result = {
  res_name : string;
  res_kind : string;  (* "availability" | "latency" | "completion" *)
  attained : float;  (* measured value of the objective *)
  target : float;  (* what the spec demands *)
  met : bool;
  budget : float;  (* allowed bad fraction *)
  budget_used : float;  (* bad fraction / budget; > 1 means exhausted *)
  total : int;
  bad : int;
}

let evaluate spec (outcomes : outcome list) : result =
  let total = List.length outcomes in
  let bad = List.length (List.filter (is_bad spec) outcomes) in
  let bad_frac =
    if total = 0 then 0.0 else float_of_int bad /. float_of_int total
  in
  let budget = error_budget spec.objective in
  let kind, attained, target, met =
    match spec.objective with
    | Availability { target } ->
        ("availability", 1.0 -. bad_frac, target, 1.0 -. bad_frac >= target)
    | Completion_ratio { target } ->
        ("completion", 1.0 -. bad_frac, target, 1.0 -. bad_frac >= target)
    | Latency_quantile { q; limit_s } ->
        let lat =
          exact_quantile
            (List.filter_map
               (fun o -> if o.o_ok then Some o.o_latency_s else None)
               outcomes)
            q
        in
        ("latency", lat, limit_s, lat <= limit_s && bad_frac <= budget)
  in
  { res_name = spec.slo_name; res_kind = kind; attained; target; met;
    budget; budget_used = bad_frac /. budget; total; bad }

let evaluate_all specs outcomes = List.map (fun s -> evaluate s outcomes) specs

(* Counting objectives need only the tallies, not the outcome log — the
   executor's report hook evaluates completion over 10⁶ task outcomes
   without materializing a 10⁶-element list.  Latency objectives need the
   individual samples; feed those through [evaluate]. *)
let evaluate_counts spec ~total ~bad : result =
  let bad_frac =
    if total = 0 then 0.0 else float_of_int bad /. float_of_int total
  in
  let budget = error_budget spec.objective in
  let kind, attained, target, met =
    match spec.objective with
    | Availability { target } ->
        ("availability", 1.0 -. bad_frac, target, 1.0 -. bad_frac >= target)
    | Completion_ratio { target } ->
        ("completion", 1.0 -. bad_frac, target, 1.0 -. bad_frac >= target)
    | Latency_quantile _ ->
        invalid_arg "Slo.evaluate_counts: latency objectives need samples"
  in
  { res_name = spec.slo_name; res_kind = kind; attained; target; met;
    budget; budget_used = bad_frac /. budget; total; bad }

(* ---- online burn-rate monitor --------------------------------------------------- *)

type alert_config = {
  fast_window_s : float;  (* short window: catches fresh, fast burns *)
  slow_window_s : float;  (* long window: confirms the burn is sustained *)
  burn_threshold : float;  (* alert when both windows burn >= this rate *)
}

(* Both windows at 2x budget burn — conservative enough for the short
   simulated runs these monitors watch.  Callers with a real budget window
   scale fast/slow to ~1/60 and ~1/12 of it (the SRE 5m/1h pairing). *)
let default_alert =
  { fast_window_s = 0.05; slow_window_s = 0.5; burn_threshold = 2.0 }

(* The retained events of the slow window live in a growable power-of-two
   ring, oldest first: event [i] (0 = oldest) sits in slot
   [(m_head + i) land (capacity - 1)].  Each slot holds the event's time
   and [m_bad] as it stood just before the event, so the bad count of any
   suffix is one subtraction and a window query is one binary search for
   its left edge.  Times are non-decreasing ([observe] enforces it), which
   is what keeps the ring sorted. *)
type monitor = {
  m_spec : spec;
  m_alert : alert_config;
  mutable m_times : Float.Array.t;
  mutable m_cum : int array;  (* m_bad before each event *)
  mutable m_head : int;
  mutable m_len : int;
  mutable m_total : int;
  mutable m_bad : int;
  mutable m_last_t : float;
  mutable m_firing : bool;
  mutable m_alerts : int;  (* rising edges *)
}

let initial_capacity = 16

let monitor ?(alert = default_alert) spec =
  { m_spec = spec; m_alert = alert;
    m_times = Float.Array.make initial_capacity 0.0;
    m_cum = Array.make initial_capacity 0; m_head = 0; m_len = 0;
    m_total = 0; m_bad = 0; m_last_t = 0.0; m_firing = false; m_alerts = 0 }

let monitor_name m = m.m_spec.slo_name
let firing m = m.m_firing
let alerts m = m.m_alerts
let observed m = m.m_total

let slot m i = (m.m_head + i) land (Array.length m.m_cum - 1)
let time_at m i = Float.Array.get m.m_times (slot m i)

(* Replace the ring by one of [cap] slots holding the same events. *)
let resize m cap =
  let times = Float.Array.make cap 0.0 and cum = Array.make cap 0 in
  for i = 0 to m.m_len - 1 do
    let s = slot m i in
    Float.Array.set times i (Float.Array.get m.m_times s);
    cum.(i) <- m.m_cum.(s)
  done;
  m.m_times <- times;
  m.m_cum <- cum;
  m.m_head <- 0

let push m t ~bad_before =
  if m.m_len = Array.length m.m_cum then resize m (2 * m.m_len);
  let s = slot m m.m_len in
  Float.Array.set m.m_times s t;
  m.m_cum.(s) <- bad_before;
  m.m_len <- m.m_len + 1

(* Index of the oldest event at or after [lo]; [m_len] when none is. *)
let first_from m lo =
  let rec go a b =
    if a >= b then a
    else
      let mid = (a + b) lsr 1 in
      if time_at m mid >= lo then go a mid else go (mid + 1) b
  in
  go 0 m.m_len

(* Bad fraction over the trailing [window_s]; 0 when no events fall in. *)
let window_bad_frac m ~now ~window_s =
  let k = first_from m (now -. window_s) in
  let total = m.m_len - k in
  if total = 0 then 0.0
  else float_of_int (m.m_bad - m.m_cum.(slot m k)) /. float_of_int total

let burn_rates m ~now =
  let budget = error_budget m.m_spec.objective in
  ( window_bad_frac m ~now ~window_s:m.m_alert.fast_window_s /. budget,
    window_bad_frac m ~now ~window_s:m.m_alert.slow_window_s /. budget )

let observe m ~now ?(latency_s = 0.0) ~ok () =
  (* a time that would unsort the ring fails loudly *)
  if Float.is_nan now then invalid_arg "Slo.observe: NaN time";
  if m.m_len > 0 && now < time_at m (m.m_len - 1) then
    invalid_arg
      (Printf.sprintf "Slo.observe %s: time %g precedes the newest event %g"
         m.m_spec.slo_name now (time_at m (m.m_len - 1)));
  let bad = is_bad m.m_spec { o_t_s = now; o_ok = ok; o_latency_s = latency_s } in
  push m now ~bad_before:m.m_bad;
  m.m_total <- m.m_total + 1;
  if bad then m.m_bad <- m.m_bad + 1;
  m.m_last_t <- Float.max m.m_last_t now;
  (* prune events that fell out of the slow window *)
  let lo = now -. m.m_alert.slow_window_s in
  while m.m_len > 0 && time_at m 0 < lo do
    m.m_head <- slot m 1;
    m.m_len <- m.m_len - 1
  done;
  let fast, slow = burn_rates m ~now in
  let was = m.m_firing in
  m.m_firing <-
    fast >= m.m_alert.burn_threshold && slow >= m.m_alert.burn_threshold;
  if m.m_firing && not was then m.m_alerts <- m.m_alerts + 1

(* Batch result over everything the monitor has seen (all-time, not
   windowed) — the end-of-run SLO verdict. *)
let snapshot m : result =
  let total = m.m_total and bad = m.m_bad in
  let bad_frac =
    if total = 0 then 0.0 else float_of_int bad /. float_of_int total
  in
  let budget = error_budget m.m_spec.objective in
  let kind, attained, target, met =
    match m.m_spec.objective with
    | Availability { target } ->
        ("availability", 1.0 -. bad_frac, target, 1.0 -. bad_frac >= target)
    | Completion_ratio { target } ->
        ("completion", 1.0 -. bad_frac, target, 1.0 -. bad_frac >= target)
    | Latency_quantile { q; limit_s } ->
        (* windowed monitors do not keep every latency; report the bad
           fraction against the budget instead of the exact quantile *)
        ("latency", 1.0 -. bad_frac, q, bad_frac <= budget && limit_s >= 0.0)
  in
  { res_name = m.m_spec.slo_name; res_kind = kind; attained; target; met;
    budget; budget_used = bad_frac /. budget; total; bad }

(* The monitor's full mutable core, for differential tests against a
   reference monitor.  Events are a newest-first list, independent of
   the ring layout; the list is built only here, never on the observe
   path. *)
type monitor_state = {
  ms_events : (float * bool) list;  (* newest first *)
  ms_total : int;
  ms_bad : int;
  ms_last_t : float;
  ms_firing : bool;
  ms_alerts : int;
}

let monitor_export m =
  let events = ref [] in
  for i = 0 to m.m_len - 1 do
    let bad_after =
      if i + 1 < m.m_len then m.m_cum.(slot m (i + 1)) else m.m_bad
    in
    events := (time_at m i, bad_after > m.m_cum.(slot m i)) :: !events
  done;
  { ms_events = !events; ms_total = m.m_total; ms_bad = m.m_bad;
    ms_last_t = m.m_last_t; ms_firing = m.m_firing; ms_alerts = m.m_alerts }

(* ---- serialization -------------------------------------------------------------- *)

let result_to_json r =
  Json.Obj
    [ ("slo", Json.Str r.res_name); ("kind", Json.Str r.res_kind);
      ("attained", Json.Num r.attained); ("target", Json.Num r.target);
      ("met", Json.Bool r.met); ("budget", Json.Num r.budget);
      ("budget_used", Json.Num r.budget_used);
      ("total", Json.Num (float_of_int r.total));
      ("bad", Json.Num (float_of_int r.bad)) ]

let result_of_json j =
  { res_name = Json.need_str "slo" j; res_kind = Json.need_str "kind" j;
    attained = Json.need_num "attained" j; target = Json.need_num "target" j;
    met = Json.to_bool (Json.need "met" j); budget = Json.need_num "budget" j;
    budget_used = Json.need_num "budget_used" j;
    total = int_of_float (Json.need_num "total" j);
    bad = int_of_float (Json.need_num "bad" j) }

let pp_result ppf r =
  Fmt.pf ppf "%-20s %s attained=%.4g target=%.4g budget used %.0f%% %s"
    r.res_name r.res_kind r.attained r.target (100.0 *. r.budget_used)
    (if r.met then "met" else "VIOLATED")
