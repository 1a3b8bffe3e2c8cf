(* Speed profiles: per-link per-period speed distributions learned from
   floating-car data.  These drive both the traffic prediction model and the
   probabilistic routing (PTDR). *)

module Rng = Everest_parallel.Rng

type cell = { mutable n : int; mutable mean : float; mutable m2 : float }

type t = {
  periods : int;
  n_links : int;
  cells : cell array;  (* link * periods + period *)
  fallback : float array;  (* free speed per link *)
}

let create (net : Roadnet.t) ~periods =
  {
    periods;
    n_links = Roadnet.n_links net;
    cells =
      Array.init (Roadnet.n_links net * periods) (fun _ ->
          { n = 0; mean = 0.0; m2 = 0.0 });
    fallback = Array.map (fun l -> l.Roadnet.free_speed_ms) net.Roadnet.links;
  }

let cell t ~link ~period = t.cells.((link * t.periods) + (period mod t.periods))

let observe t ~link ~period speed =
  let c = cell t ~link ~period in
  c.n <- c.n + 1;
  let d = speed -. c.mean in
  c.mean <- c.mean +. (d /. float_of_int c.n);
  c.m2 <- c.m2 +. (d *. (speed -. c.mean))

let learn net ~periods (pings : Fcd.ping list) =
  let t = create net ~periods in
  List.iter
    (fun (p : Fcd.ping) ->
      let period = int_of_float (p.Fcd.time_s /. 3600.0) mod periods in
      observe t ~link:p.Fcd.link ~period p.Fcd.speed_ms)
    pings;
  t

let mean_speed t ~link ~period =
  let c = cell t ~link ~period in
  if c.n >= 3 then c.mean else t.fallback.(link)

let speed_std t ~link ~period =
  let c = cell t ~link ~period in
  if c.n >= 3 then sqrt (c.m2 /. float_of_int (c.n - 1)) else 1.0

let coverage t =
  let covered =
    Array.fold_left (fun acc c -> if c.n >= 3 then acc + 1 else acc) 0 t.cells
  in
  float_of_int covered /. float_of_int (Array.length t.cells)

(* Draw a plausible speed for the link at the period. *)
let sample_speed rng t ~link ~period =
  let mu = mean_speed t ~link ~period in
  let sigma = Float.max 0.3 (speed_std t ~link ~period) in
  Float.max 0.5 (Rng.gaussian ~mu ~sigma rng)

(* Prediction error versus a simulator ground truth. *)
let prediction_rmse t (st : Simulator.state) =
  let errs = ref [] in
  for link = 0 to t.n_links - 1 do
    for period = 0 to t.periods - 1 do
      let c = cell t ~link ~period in
      if c.n >= 3 then
        errs :=
          (mean_speed t ~link ~period -. Simulator.speed st ~period ~link)
          :: !errs
    done
  done;
  match !errs with
  | [] -> infinity
  | es ->
      let arr = Array.of_list es in
      sqrt
        (Array.fold_left (fun acc e -> acc +. (e *. e)) 0.0 arr
        /. float_of_int (Array.length arr))
