(** HyperQueue-style worker auto-allocation for one shard.

    A worker is one concurrent execution slot against the shard's
    orchestrator.  A periodic control tick compares the shard's backlog
    (queued requests and the age of the oldest one) against the worker
    pool and decides to spawn or retire:

    - spawn when backlog per effective worker (live + already requested)
      exceeds [target_queue_per_worker], or the oldest queued request has
      waited past [max_backlog_age_s] — enough workers are requested to
      bring backlog per worker back to target, capped at [max_workers].
      Spawns take [spawn_delay_s] to come up, modelling cluster
      allocation, so the controller counts in-flight requests and does
      not over-spawn while waiting.
    - retire one worker after [retire_idle_ticks] consecutive idle ticks
      (no backlog and spare capacity), down to [min_workers] — capacity
      tracks demand in both directions. *)

type config = {
  min_workers : int;
  max_workers : int;
  target_queue_per_worker : float;
  max_backlog_age_s : float;
  spawn_delay_s : float;
  retire_idle_ticks : int;
  tick_s : float;  (** Control-loop period on the fabric clock. *)
}

val default_config : config

(** [fixed n]: autoscaling disabled, exactly [n] workers. *)
val fixed : int -> config

type action = Spawn of int | Retire | Hold

type t

val create : config -> t

(** Live workers (spawned and not retired). *)
val workers : t -> int

(** Live + requested-but-not-yet-up. *)
val effective_workers : t -> int

val spawned_total : t -> int
val retired_total : t -> int

(** One control tick.  [Spawn n] means the caller must arrange for
    {!worker_up} to run [n] times after [spawn_delay_s]; [Retire] has
    already taken effect. *)
val tick : t -> depth:int -> busy:int -> backlog_age_s:float -> action

(** A requested worker came up. *)
val worker_up : t -> unit
