(** Fixed-capacity time series with staircase downsampling.

    A series keeps one ring of aggregate points per resolution tier:
    tier 0 holds every observed sample, tier [i] one point per
    [res_s * factor^i] seconds, all bounded by [capacity] points per
    tier.  Time is caller-supplied, so series built over a simulated
    clock are deterministic. *)

type point = {
  pt_t : float;  (** Window start (tier 0: the sample time). *)
  pt_last : float;  (** Last raw value observed in the window. *)
  pt_count : int;
  pt_sum : float;
  pt_min : float;
  pt_max : float;
}

val pt_mean : point -> float

type t

val create :
  ?capacity:int ->
  ?tiers:int ->
  ?factor:int ->
  ?res_s:float ->
  name:string ->
  labels:(string * string) list ->
  unit ->
  t

val name : t -> string

(** Sorted by key, duplicates dropped. *)
val labels : t -> (string * string) list

(** Raw observations ever recorded (not bounded by capacity). *)
val samples : t -> int

val observe : t -> t:float -> float -> unit

(** Points of one tier, oldest first, the still-open coarse window
    included last. *)
val points : t -> tier:int -> point list

(** The newest point, when any sample was ever observed. *)
val latest : t -> point option

(** Points with [pt_t] in [[t0, t1]], read from the finest tier whose
    ring still reaches back to [t0]. *)
val between : t -> t0:float -> t1:float -> point list

(** A collection of series keyed by (name × labels) with deterministic
    sorted iteration. *)
module Store : sig
  type series = t
  type t

  (** Ring parameters apply to every series the store creates. *)
  val create :
    ?capacity:int -> ?tiers:int -> ?factor:int -> ?res_s:float -> unit -> t

  (** Get or create. *)
  val series : t -> name:string -> labels:(string * string) list -> series

  val find : t -> name:string -> labels:(string * string) list -> series option
  val observe :
    t -> now:float -> name:string -> labels:(string * string) list -> float -> unit

  (** All series, sorted by (name, labels). *)
  val to_list : t -> series list

  val size : t -> int
end
