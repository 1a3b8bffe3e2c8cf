(** Online change detection over scalar sample streams.

    All detectors share one lifecycle: [warmup] samples estimate the
    baseline mean and standard deviation, the baseline freezes, and
    detection then scores each sample in baseline-sigma units — the same
    (k, threshold) knobs work on a 4 ms latency series and a 40%%
    utilization series.  An exactly constant stream can never alarm;
    any real step scores a huge z.

    Alarm state is level-triggered and {!alarms} counts rising edges,
    matching the [Slo] burn-rate monitors so the rules layer treats both
    uniformly. *)

type verdict = Ok | Alarm
type t

(** Band test: alarm while |x − ewma| > k·sigma.  Reacts in one sample,
    re-centers on persistent shifts (spikes fire, new normals settle). *)
val ewma : ?alpha:float -> ?k:float -> ?warmup:int -> unit -> t

(** Two-sided cumulative sums with allowance [drift]·sigma, alarm when
    either sum exceeds [threshold]·sigma.  Integrates small sustained
    shifts a band test misses. *)
val cusum : ?drift:float -> ?threshold:float -> ?warmup:int -> unit -> t

(** Page–Hinkley sequential test: cumulative deviation from the running
    mean (minus [delta]·sigma allowance) leaving its historical extremum
    by more than [lambda]·sigma. *)
val page_hinkley : ?delta:float -> ?lambda:float -> ?warmup:int -> unit -> t

val kind : t -> string

(** Feed one sample.  Always [Ok] during warmup. *)
val step : t -> float -> verdict

val firing : t -> bool

(** Rising edges so far. *)
val alarms : t -> int

val samples : t -> int
val reset : t -> unit

(** {1 Phase segmentation} *)

type phase = {
  ph_start_s : float;
  ph_end_s : float;
  ph_mean : float;
  ph_samples : int;
}

(** Segment a (t, value) timeline into stable phases: greedy growth
    within [abs_tol + rel_tol·|mean|] of the running mean, then a merge
    pass folding adjacent phases within tolerance and absorbing fragments
    shorter than [min_samples]. *)
val phases :
  ?abs_tol:float ->
  ?rel_tol:float ->
  ?min_samples:int ->
  (float * float) list ->
  phase list

(** Utilization phases of one node's track in a span log, via
    [Everest_observe.Utilization.busy_timeline]. *)
val phases_of_track :
  ?windows:int ->
  ?abs_tol:float ->
  ?rel_tol:float ->
  ?min_samples:int ->
  Everest_observe.Span_dag.t ->
  track:int ->
  phase list
