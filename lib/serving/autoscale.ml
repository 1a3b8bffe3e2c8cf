(* Allocation controller state; the fabric owns the clock and schedules
   both the periodic ticks and the delayed [worker_up] callbacks. *)

type config = {
  min_workers : int;
  max_workers : int;
  target_queue_per_worker : float;
  max_backlog_age_s : float;
  spawn_delay_s : float;
  retire_idle_ticks : int;
  tick_s : float;
}

let default_config =
  { min_workers = 1; max_workers = 8; target_queue_per_worker = 4.0;
    max_backlog_age_s = 0.02; spawn_delay_s = 0.05; retire_idle_ticks = 5;
    tick_s = 0.01 }

let fixed n =
  if n <= 0 then invalid_arg "Autoscale.fixed: n <= 0";
  { default_config with min_workers = n; max_workers = n }

type action = Spawn of int | Retire | Hold

type t = {
  t_config : config;
  mutable t_workers : int;
  mutable t_requested : int;  (* spawns in flight *)
  mutable t_idle_ticks : int;
  mutable t_spawned : int;
  mutable t_retired : int;
}

let create config =
  if config.min_workers <= 0 || config.max_workers < config.min_workers then
    invalid_arg "Autoscale.create: bad worker bounds";
  if config.target_queue_per_worker <= 0.0 then
    invalid_arg "Autoscale.create: target_queue_per_worker <= 0";
  { t_config = config; t_workers = config.min_workers; t_requested = 0;
    t_idle_ticks = 0; t_spawned = 0; t_retired = 0 }

let workers t = t.t_workers
let effective_workers t = t.t_workers + t.t_requested
let spawned_total t = t.t_spawned
let retired_total t = t.t_retired

let tick t ~depth ~busy ~backlog_age_s =
  let c = t.t_config in
  let effective = effective_workers t in
  let overloaded =
    float_of_int depth > c.target_queue_per_worker *. float_of_int effective
    || (depth > 0 && backlog_age_s > c.max_backlog_age_s)
  in
  if overloaded && effective < c.max_workers then begin
    t.t_idle_ticks <- 0;
    let wanted =
      int_of_float
        (Float.ceil (float_of_int depth /. c.target_queue_per_worker))
    in
    let n = min (c.max_workers - effective) (max 1 (wanted - effective)) in
    t.t_requested <- t.t_requested + n;
    Spawn n
  end
  else if depth = 0 && busy < t.t_workers && t.t_requested = 0 then begin
    t.t_idle_ticks <- t.t_idle_ticks + 1;
    if t.t_idle_ticks >= c.retire_idle_ticks && t.t_workers > c.min_workers
    then begin
      t.t_idle_ticks <- 0;
      t.t_workers <- t.t_workers - 1;
      t.t_retired <- t.t_retired + 1;
      Retire
    end
    else Hold
  end
  else begin
    t.t_idle_ticks <- 0;
    Hold
  end

let worker_up t =
  if t.t_requested <= 0 then invalid_arg "Autoscale.worker_up: none requested";
  t.t_requested <- t.t_requested - 1;
  t.t_workers <- min t.t_config.max_workers (t.t_workers + 1);
  t.t_spawned <- t.t_spawned + 1
