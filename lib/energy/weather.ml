(* Synthetic weather for the renewable-energy use case (§VI-A).

   The generator produces a "true" local wind signal combining synoptic
   variability (slow, large-scale), a diurnal cycle, terrain-induced local
   structure (fast, small-scale) and occasional ramp events — the sudden
   local changes the paper says coarse global models miss.

   A ensemble member at a given grid resolution sees the true signal
   low-pass filtered according to its resolution (coarse models smooth away
   local structure) plus model error noise.  Higher resolution keeps more
   local structure: exactly the benefit EVEREST gets from accelerating
   high-resolution ensembles. *)

open Everest_ml
module Rng = Everest_parallel.Rng

type sample = {
  hour : int;
  wind_ms : float;  (* near-surface wind speed *)
  temp_c : float;
  radiation_wm2 : float;
}

type series = sample array

type params = {
  days : int;
  seed : int;
  ramp_prob_per_day : float;  (* probability of a ramp event *)
  ramp_magnitude : float;
}

let default_params =
  { days = 60; seed = 42; ramp_prob_per_day = 0.3; ramp_magnitude = 6.0 }

(* The hidden truth: hourly local weather. *)
let truth (p : params) : series =
  let rng = Rng.create p.seed in
  let hours = p.days * 24 in
  let synoptic = Array.make hours 0.0 in
  (* AR(1) synoptic signal with ~3-day correlation *)
  let alpha = exp (-1.0 /. 72.0) in
  let s = ref 0.0 in
  for h = 0 to hours - 1 do
    s := (alpha *. !s) +. Rng.gaussian ~sigma:0.6 rng;
    synoptic.(h) <- !s
  done;
  (* terrain-induced fast fluctuations *)
  let local = Array.init hours (fun _ -> Rng.gaussian ~sigma:1.2 rng) in
  (* smooth the local signal slightly (2h correlation) *)
  for h = 1 to hours - 1 do
    local.(h) <- (0.6 *. local.(h - 1)) +. (0.4 *. local.(h))
  done;
  (* ramp events: sharp several-hour excursions *)
  let ramps = Array.make hours 0.0 in
  for d = 0 to p.days - 1 do
    if Rng.float rng < p.ramp_prob_per_day then begin
      let start = (d * 24) + Rng.int rng 18 in
      let sign = if Rng.float rng < 0.5 then 1.0 else -1.0 in
      let dur = 3 + Rng.int rng 4 in
      for k = 0 to dur - 1 do
        if start + k < hours then
          ramps.(start + k) <-
            sign *. p.ramp_magnitude
            *. sin (Float.pi *. float_of_int k /. float_of_int dur)
      done
    end
  done;
  Array.init hours (fun h ->
      let hod = h mod 24 in
      let diurnal = 1.5 *. sin (2.0 *. Float.pi *. float_of_int (hod - 14) /. 24.0) in
      let wind =
        Float.max 0.0
          (8.0 +. (2.5 *. synoptic.(h)) +. diurnal +. (1.8 *. local.(h)) +. ramps.(h))
      in
      let temp =
        12.0 +. (8.0 *. sin (2.0 *. Float.pi *. float_of_int (hod - 15) /. 24.0))
        +. (2.0 *. synoptic.(h))
      in
      let rad =
        Float.max 0.0
          (800.0 *. sin (Float.pi *. float_of_int (hod - 6) /. 12.0))
      in
      { hour = h; wind_ms = wind; temp_c = temp; radiation_wm2 = rad })

(* Grid resolution in km.  The fraction of local structure a model resolves
   falls with grid spacing; 2.5 km keeps most of it, 25 km little. *)
let resolved_fraction ~resolution_km =
  Float.max 0.0 (Float.min 1.0 (1.2 -. (0.045 *. resolution_km)))

(* One ensemble member: filtered truth + resolution-dependent noise. *)
let member (p : params) (truth : series) ~resolution_km ~member_id : series =
  let rng = Rng.create (p.seed + (member_id * 7919) + int_of_float resolution_km) in
  let keep = resolved_fraction ~resolution_km in
  let hours = Array.length truth in
  (* local structure = truth - 24h moving average *)
  let smooth = Array.make hours 0.0 in
  for h = 0 to hours - 1 do
    let lo = max 0 (h - 12) and hi = min (hours - 1) (h + 12) in
    let acc = ref 0.0 in
    for k = lo to hi do
      acc := !acc +. truth.(k).wind_ms
    done;
    smooth.(h) <- !acc /. float_of_int (hi - lo + 1)
  done;
  (* persistent member bias (initial-condition perturbation) *)
  let bias = Rng.gaussian ~sigma:0.5 rng in
  Array.init hours (fun h ->
      let t = truth.(h) in
      let local_part = t.wind_ms -. smooth.(h) in
      let seen =
        smooth.(h) +. (keep *. local_part) +. bias
        +. Rng.gaussian ~sigma:(0.3 +. (0.02 *. resolution_km)) rng
      in
      { t with wind_ms = Float.max 0.0 seen })

type ensemble = { members : series array; resolution_km : float }

let generate ?(n_members = 10) (p : params) (truth : series) ~resolution_km =
  { members =
      Array.init n_members (fun i -> member p truth ~resolution_km ~member_id:i);
    resolution_km }

let ensemble_mean_std (e : ensemble) h =
  let vals = Array.map (fun m -> m.(h).wind_ms) e.members in
  (Metrics.mean vals, Metrics.stddev vals)

(* Simulation cost of one member: ~flops per grid cell per step; halving the
   grid spacing quadruples cells and doubles steps (CFL). *)
let member_flops ~resolution_km ~hours =
  let domain_km = 100.0 in
  let cells = (domain_km /. resolution_km) ** 2.0 in
  let steps_per_hour = 3600.0 /. (6.0 *. resolution_km) in
  cells *. steps_per_hour *. float_of_int hours *. 500.0
