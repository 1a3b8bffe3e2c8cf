(** Park–Miller minimal-standard PRNG with guarded seeding.

    The multiplicative generator [s <- s * 48271 mod (2^31-1)] has 0 as an
    absorbing state; [create] maps every seed into the period [1, 2^31-2]
    so no seed (0, negatives, multiples of [0x7FFFFFFF]) can freeze the
    stream.  For seeds already inside the period the sequence matches the
    ad-hoc generators this module replaced, keeping historical seeded
    behaviour bit-identical. *)

type t

val create : int -> t
val copy : t -> t

(** Next raw state, in [1, 2^31-2]. *)
val next : t -> int

(** [int t bound] draws uniformly from [0, bound).  Raises [Invalid_argument]
    when [bound <= 0]. *)
val int : t -> int -> int

(** Uniform draw in (0, 1); never 0, so [log (float t)] is finite. *)
val float : t -> float

(** [uniform t lo hi] is uniform in (lo, hi). *)
val uniform : t -> float -> float -> float

(** Normal draw by Box–Muller: two [float]s per call, no cached spare. *)
val gaussian : ?mu:float -> ?sigma:float -> t -> float

(** In-place Fisher–Yates shuffle. *)
val shuffle : t -> 'a array -> unit

(** Uniform element.  Raises [Invalid_argument] on an empty array. *)
val pick : t -> 'a array -> 'a

(** Derive an independent deterministic child stream. *)
val split : t -> t

(** Raw stream position, e.g. for a checkpoint's state digest. *)
val state : t -> int
