(* Scrape adapters: where the series store's data comes from.

   A source is sampled once per watch tick and writes its values into the
   store at the tick's time.  The registry adapter turns a whole [Metrics]
   registry into signals — counters and gauges become their value (rules
   compute rates), a histogram becomes its count/sum plus the p50/p90/p99
   estimates, so the dashboard sees quantile timelines without keeping
   samples.  It binds each metric to its series once: a tick reads every
   cell straight into its [Series.t], and only a change of the registry's
   generation (a new metric, a [reset]) or of the store makes it bind
   again.  Custom sources wrap any accessor — fabric shard depths,
   orchestrator breaker states, Desim resource queues — and resolve their
   samples by name every tick, as long as the accessor only *reads*: a
   source must never perturb the run it watches. *)

module Metrics = Everest_telemetry.Metrics

type sample = string * (string * string) list * float

type t = { src_name : string; src_scrape : Series.Store.t -> now:float -> unit }

let name s = s.src_name
let scrape s st ~now = s.src_scrape st ~now

let of_fn ~name f =
  { src_name = name;
    src_scrape =
      (fun st ~now ->
        List.iter
          (fun (name, labels, v) -> Series.Store.observe st ~now ~name ~labels v)
          (f ~now)) }

(* What one bound series reads from its metric cell. *)
type reader =
  | Value of float ref  (* counter or gauge *)
  | Count of Metrics.histogram
  | Sum of Metrics.histogram
  | Quantile of Metrics.histogram * float

let read = function
  | Value c -> !c
  | Count h -> float_of_int (Metrics.hist_count h)
  | Sum h -> Metrics.hist_sum h
  | Quantile (h, q) -> Metrics.quantile h q

let of_registry ?(prefix = "") ?(quantiles = [ 0.5; 0.9; 0.99 ])
    (registry : Metrics.registry) =
  (* The series of one metric, in the order the store is written. *)
  let bind_metric st (m : Metrics.metric) =
    let n = prefix ^ m.Metrics.mname in
    let series name = Series.Store.series st ~name ~labels:m.Metrics.labels in
    match m.Metrics.value with
    | Metrics.Counter c | Metrics.Gauge c -> [ (series n, Value c) ]
    | Metrics.Histogram h ->
        (series (n ^ ":count"), Count h)
        :: (series (n ^ ":sum"), Sum h)
        :: List.map
             (fun q ->
               (series (Printf.sprintf "%s:p%g" n (100.0 *. q)), Quantile (h, q)))
             quantiles
  in
  let bound_store = ref None and bound_gen = ref (-1) in
  let series = ref [||] and readers = ref [||] in
  let bind st =
    (* read the generation first: a metric registered while this binds
       moves it again and the next tick binds once more *)
    let gen = Metrics.generation registry in
    let pairs = List.concat_map (bind_metric st) (Metrics.metrics registry) in
    series := Array.of_list (List.map fst pairs);
    readers := Array.of_list (List.map snd pairs);
    bound_store := Some st;
    bound_gen := gen
  in
  { src_name = "registry";
    src_scrape =
      (fun st ~now ->
        (match !bound_store with
        | Some s when s == st && !bound_gen = Metrics.generation registry -> ()
        | _ -> bind st);
        let series = !series and readers = !readers in
        for i = 0 to Array.length series - 1 do
          Series.observe series.(i) ~t:now (read readers.(i))
        done) }
