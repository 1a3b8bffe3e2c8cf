(** Declarative recording and alert rules evaluated once per scrape tick
    on caller-supplied time.

    Rules evaluate in declaration order; a recording rule's derived series
    is visible to every rule after it in the same tick.  Alert firing is
    level-triggered with [for_s] hold-down and rising-edge counting — the
    same semantics as {!Everest_observe.Slo} burn-rate alerts.  An
    expression over a series with no data yet is undefined for the tick:
    the rule is skipped and alert state is untouched. *)

type labels = (string * string) list

type expr =
  | Const of float
  | Last of string * labels  (** Newest value of a series. *)
  | Mean_over of string * labels * float  (** Trailing window, seconds. *)
  | Max_over of string * labels * float
  | Min_over of string * labels * float
  | Rate_over of string * labels * float
      (** (last - first) / (t_last - t_first) over the window: the
          counter-increase rate. *)
  | Quantile_over of string * labels * float * float  (** q, window_s. *)
  | Count_over of string * labels * float  (** Sketch samples in window. *)
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr  (** Undefined on a zero divisor. *)

type cond =
  | Above of float
  | Below of float
  | Outside of float * float  (** Inclusive band [lo, hi]. *)
  | Detector of Detect.t  (** Stepped once per evaluated tick. *)

type rule

val record : ?labels:labels -> string -> expr -> rule
val alert : ?for_s:float -> string -> expr -> cond -> rule

(** What expressions read: the series store plus a sketch lookup. *)
type ctx = {
  ctx_store : Series.Store.t;
  ctx_sketch : string -> labels -> Sketch.t option;
}

type alert_state = {
  as_name : string;
  mutable as_pending_since : float;  (** nan = condition not holding. *)
  mutable as_firing : bool;
  mutable as_edges : int;  (** Rising edges. *)
  mutable as_since : float;  (** When it started firing; nan otherwise. *)
  mutable as_value : float;  (** Last evaluated expression value. *)
}

type t

val engine : rule list -> t

(** One evaluation pass; returns the alerts that newly fired this tick. *)
val eval : t -> ctx -> now:float -> alert_state list

(** One state per alert rule, in declaration order. *)
val alert_states : t -> alert_state list

val firing : t -> alert_state list
val edges_total : t -> int
