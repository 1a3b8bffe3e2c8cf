(* Park–Miller minimal-standard PRNG (Lehmer, multiplier 48271 modulo the
   Mersenne prime 2^31-1), hoisted out of the ad-hoc copies that used to
   live in dse.ml, dag.ml and orchestrator.ml.

   Those copies had a lethal seeding bug: state 0 is a fixed point of
   [s * 48271 mod (2^31-1)], so a user-supplied seed of 0 (or any multiple
   of 0x7FFFFFFF) made the generator emit 0 forever.  [create] guards the
   seed into the generator's period [1, 2^31-2]; for seeds already in that
   range the emitted sequence is identical to the historical one. *)

let modulus = 0x7FFFFFFF  (* 2^31 - 1, prime *)
let multiplier = 48271

type t = { mutable state : int }

let create seed =
  (* map any int into [0, modulus), then kick the absorbing state 0 *)
  let s = ((seed mod modulus) + modulus) mod modulus in
  { state = (if s = 0 then 1 else s) }

let copy t = { state = t.state }

let next t =
  t.state <- t.state * multiplier mod modulus;
  t.state

(* Uniform draw in [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Everest_parallel.Rng.int: bound <= 0";
  next t mod bound

(* Uniform draw in (0, 1): [next] is never 0, so neither is this. *)
let float t = float_of_int (next t) /. float_of_int modulus

let uniform t lo hi = lo +. ((hi -. lo) *. float t)

(* Box-Muller, two uniforms per draw and no cached spare, so [t] stays one
   int and [copy]/[state] capture the whole stream.  [float] is never 0,
   so [log u1] is finite without a redraw loop. *)
let gaussian ?(mu = 0.0) ?(sigma = 1.0) t =
  let u1 = float t in
  let u2 = float t in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

(* In-place Fisher-Yates. *)
let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let pick t arr = arr.(int t (Array.length arr))

(* Derive an independent deterministic stream, e.g. one per parallel task. *)
let split t = create (next t)

(* Raw stream position, e.g. for a checkpoint's state digest. *)
let state t = t.state
