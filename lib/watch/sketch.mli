(** Windowed quantiles: a ring of {!Everest_telemetry.Metrics} histograms
    answering trailing-window queries in O(buckets) — independent of how
    many samples the window saw. *)

(** A ring of [slots] histograms, one per [bucket_s] of caller time,
    covering the trailing [slots * bucket_s] seconds. *)
type t

val create : ?bucket_s:float -> ?slots:int -> unit -> t

(** Total coverage in seconds. *)
val span_s : t -> float

val observe : t -> now:float -> float -> unit

(** Merged histogram of the slots covering [now - window_s, now]. *)
val query :
  t -> now:float -> window_s:float -> Everest_telemetry.Metrics.histogram


(** {!query} into a histogram the caller owns: [into] is reset, then
    receives the merge. *)
val query_into :
  t ->
  into:Everest_telemetry.Metrics.histogram ->
  now:float ->
  window_s:float ->
  unit
