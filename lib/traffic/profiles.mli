(** Speed profiles: per-link per-period speed distributions learned from
    floating-car data.  These drive both traffic prediction and the
    probabilistic routing (PTDR). *)

type t

(** Empty profile store falling back to free-flow speeds. *)
val create : Roadnet.t -> periods:int -> t

val observe : t -> link:int -> period:int -> float -> unit

(** Learn from a batch of FCD pings. *)
val learn : Roadnet.t -> periods:int -> Fcd.ping list -> t

(** Mean speed; falls back to free-flow below 3 observations. *)
val mean_speed : t -> link:int -> period:int -> float

val speed_std : t -> link:int -> period:int -> float

(** Fraction of link-period cells with enough observations. *)
val coverage : t -> float

(** Draw a plausible speed for the link at the period. *)
val sample_speed : Everest_parallel.Rng.t -> t -> link:int -> period:int -> float

(** RMSE of the learned means versus a simulator ground truth (covered
    cells only). *)
val prediction_rmse : t -> Simulator.state -> float
