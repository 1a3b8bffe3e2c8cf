(* Shared measurement plumbing: set-up timing, the measured phase, the
   records each iteration and each traced run print, and the host tag. *)

module Json = Everest_observe.Json

let wall = Unix.gettimeofday

(* Host time is this process's CPU time: run.py pauses the process now and
   then to sample its host-speed reference on the same CPU, and paused time
   must not count. *)
let cpu = Sys.time

(* Set-up is timed in batches of [k] repetitions, [k] chosen from a first
   single repetition so a batch takes about 2 ms (a microsecond-scale
   set-up would otherwise read as the clock's resolution); the median of
   that first repetition and two batches, per repetition, is reported.
   The last repetition's inputs are used; earlier ones are handed to
   [discard]. *)
let setup ?(discard = ignore) f =
  let t0 = cpu () in
  let last = ref (f ()) in
  let once = cpu () -. t0 in
  let k = max 1 (min 1000 (int_of_float (0.002 /. Float.max once 1e-7))) in
  let batch () =
    let t0 = cpu () in
    for _ = 1 to k do
      discard !last;
      last := f ()
    done;
    (cpu () -. t0) /. float_of_int k
  in
  let b1 = batch () in
  let b2 = batch () in
  (!last, List.nth (List.sort compare [ once; b1; b2 ]) 1)

type m = {
  start : float;  (* wall clock when the measured phase began *)
  wall_s : float;  (* its wall time, pauses included *)
  host_s : float;  (* its CPU time *)
  words : float;  (* minor-heap words, every domain *)
  top_heap_mb : float;
}

(* The measured phase: CPU and wall time, minor words summed over all domains
   ([Gc.quick_stat] folds in the stats of terminated domains) and the top
   of the major heap when it ends.  A full major collection first leaves
   the set-up's garbage out of the measurement. *)
let measure f =
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  let t0 = wall () in
  let c0 = cpu () in
  let r = f () in
  let c1 = cpu () in
  let t1 = wall () in
  let s1 = Gc.quick_stat () in
  ( r,
    { start = t0;
      wall_s = t1 -. t0;
      host_s = c1 -. c0;
      words = s1.Gc.minor_words -. s0.Gc.minor_words;
      top_heap_mb =
        float_of_int (s1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6 } )

(* One untraced iteration of a workload, in a fresh process. *)
type iteration = {
  setup_s : float;
  m : m;
  units : int;  (* units of work in the measured phase *)
  unit_name : string;
  attempted : int;
  failed : int;
  correct : bool;
  digest : string;  (* of the model output: same inputs, same digest *)
  sim : (string * string * float) list;
      (* workload-specific simulated figures: name, unit, value *)
  host_times : (string * string * float) list;
      (* workload-specific host times outside the measured phase *)
}

(* One traced run: per-layer metrics plus the accounting against the
   untraced run. *)
type traced = {
  t_layers : (string * float) list;
  t_exact : bool;  (* layer numbers come from a faithful replay *)
  t_untraced_us : float;  (* host us per unit, untraced *)
  t_traced_us : float;  (* host us per unit of the traced run *)
  t_overhead_us : float;  (* traced minus untraced, per unit *)
  t_units : int;
  t_attempted : int;  (* operations, as in [iteration] *)
  t_correct : bool;
  t_digest : string;
  t_figures : (string * string * float) list;
      (* the untraced run's throughput and [sim] and [host_times] figures *)
}

(* Least-squares slope of log(host seconds) on log(units). *)
let loglog_slope points =
  let pts = List.map (fun (u, s) -> (log u, log s)) points in
  let n = float_of_int (List.length pts) in
  let mx = List.fold_left (fun a (x, _) -> a +. x) 0.0 pts /. n in
  let my = List.fold_left (fun a (_, y) -> a +. y) 0.0 pts /. n in
  let sxy = List.fold_left (fun a (x, y) -> a +. ((x -. mx) *. (y -. my))) 0.0 pts in
  let sxx = List.fold_left (fun a (x, _) -> a +. ((x -. mx) ** 2.0)) 0.0 pts in
  sxy /. sxx

let host ~commit ~domains =
  Json.Obj
    [ ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("domains", Json.Num (float_of_int domains));
      ("commit", Json.Str commit) ]

let figures_json figures =
  Json.Obj
    (List.map
       (fun (name, unit, v) ->
         (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
       figures)

let iteration_json ~host (i : iteration) =
  Json.Obj
    [ ("setup_s", Json.Num i.setup_s);
      ("start", Json.Num i.m.start);
      ("wall_s", Json.Num i.m.wall_s);
      ("host_s", Json.Num i.m.host_s);
      ("units", Json.Num (float_of_int i.units));
      ("unit", Json.Str i.unit_name);
      ("words", Json.Num i.m.words);
      ("top_heap_mb", Json.Num i.m.top_heap_mb);
      ("attempted", Json.Num (float_of_int i.attempted));
      ("failed", Json.Num (float_of_int i.failed));
      ("correct", Json.Bool i.correct);
      ("digest", Json.Str i.digest);
      ("sim", figures_json i.sim);
      ("host_times", figures_json i.host_times);
      ("host", host) ]

let traced_json ~host (t : traced) =
  Json.Obj
    [ ( "layers",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) t.t_layers) );
      ("exact", Json.Bool t.t_exact);
      ("untraced_us_per_unit", Json.Num t.t_untraced_us);
      ("traced_us_per_unit", Json.Num t.t_traced_us);
      ("overhead_us_per_unit", Json.Num t.t_overhead_us);
      ("units", Json.Num (float_of_int t.t_units));
      ("attempted", Json.Num (float_of_int t.t_attempted));
      ("correct", Json.Bool t.t_correct);
      ("digest", Json.Str t.t_digest);
      ("figures", figures_json t.t_figures);
      ("host", host) ]
