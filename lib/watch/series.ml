(* Fixed-capacity time series with staircase downsampling.

   One series holds the samples of one (name × labels) signal in a ring of
   aggregate points per resolution tier: tier 0 keeps every observed sample
   verbatim, tier i keeps one aggregate point per [res_s * factor^i] of
   time, so the recent past is dense and the distant past is coarse — the
   classic staircase layout — at a fixed memory bound of
   [tiers * capacity] points however long the run gets.

   Every tier aggregates straight from the raw observations (not from the
   tier below), so a coarse point's count/sum/min/max are exact over its
   window regardless of what the finer ring has already evicted.  Time
   comes from the caller, so the whole structure is deterministic on a
   simulated clock. *)

type point = {
  pt_t : float;  (* window start (tier 0: the sample time) *)
  pt_last : float;  (* last raw value in the window *)
  pt_count : int;
  pt_sum : float;
  pt_min : float;
  pt_max : float;
}

let pt_mean p =
  if p.pt_count = 0 then 0.0 else p.pt_sum /. float_of_int p.pt_count

(* One resolution tier: a ring of closed points in flat arrays (so a
   sample costs array stores, not a boxed record) plus, on the coarse
   tiers, the open (still-accumulating) window.  Tier 0 keeps only [t]
   and [v]: its points are single samples, so count/sum/min/max follow.
   The arrays start small and double up to [tr_cap]; before the ring is
   full they never wrap, so growing is one blit. *)
type tier = {
  tr_res_s : float;  (* 0.0 on tier 0: every sample is its own point *)
  tr_cap : int;
  mutable tr_t : float array;  (* window start (tier 0: sample time) *)
  mutable tr_v : float array;  (* last raw value in the window *)
  (* coarse tiers only; empty on tier 0 *)
  mutable tr_count : int array;
  mutable tr_sum : float array;
  mutable tr_min : float array;
  mutable tr_max : float array;
  mutable tr_head : int;  (* next write position *)
  mutable tr_len : int;
  (* open window (coarse tiers): floor (t / res), min_int = none *)
  mutable tr_open_key : int;
  mutable tr_open_count : int;
  tr_open : float array;  (* window start, last, sum, min, max *)
}

type t = {
  s_name : string;
  s_labels : (string * string) list;  (* sorted by key *)
  s_tiers : tier array;
  mutable s_samples : int;  (* raw observations ever *)
}

let mk_tier ~res_s ~capacity =
  { tr_res_s = res_s; tr_cap = capacity; tr_t = [||]; tr_v = [||];
    tr_count = [||]; tr_sum = [||]; tr_min = [||]; tr_max = [||];
    tr_head = 0; tr_len = 0; tr_open_key = min_int; tr_open_count = 0;
    tr_open = Array.make 5 0.0 }

let create ?(capacity = 256) ?(tiers = 3) ?(factor = 10) ?(res_s = 0.01)
    ~name ~labels () =
  if capacity <= 0 then invalid_arg "Series.create: capacity <= 0";
  if tiers <= 0 then invalid_arg "Series.create: tiers <= 0";
  if factor < 2 then invalid_arg "Series.create: factor < 2";
  if res_s <= 0.0 then invalid_arg "Series.create: res_s <= 0";
  let labels = Everest_telemetry.Metrics.normalize_labels labels in
  { s_name = name; s_labels = labels;
    s_tiers =
      Array.init tiers (fun i ->
          let res =
            if i = 0 then 0.0
            else res_s *. (float_of_int factor ** float_of_int i)
          in
          mk_tier ~res_s:res ~capacity);
    s_samples = 0 }

let name s = s.s_name
let labels s = s.s_labels
let samples s = s.s_samples

let coarse tr = tr.tr_res_s > 0.0

let grow_float a n =
  let b = Array.make n 0.0 in
  Array.blit a 0 b 0 (Array.length a);
  b

(* The slot the next closed point goes to, doubling the arrays while the
   ring is full below capacity (then [tr_head] is 0 and the points sit
   oldest-first in [0, len)). *)
let next_slot tr =
  let n = Array.length tr.tr_t in
  if tr.tr_len = n && n < tr.tr_cap then begin
    let n' = min tr.tr_cap (max 4 (2 * n)) in
    tr.tr_t <- grow_float tr.tr_t n';
    tr.tr_v <- grow_float tr.tr_v n';
    if coarse tr then begin
      let c = Array.make n' 0 in
      Array.blit tr.tr_count 0 c 0 n;
      tr.tr_count <- c;
      tr.tr_sum <- grow_float tr.tr_sum n';
      tr.tr_min <- grow_float tr.tr_min n';
      tr.tr_max <- grow_float tr.tr_max n'
    end;
    tr.tr_head <- n
  end;
  let i = tr.tr_head in
  let h = i + 1 in
  tr.tr_head <- (if h = Array.length tr.tr_t then 0 else h);
  if tr.tr_len < Array.length tr.tr_t then tr.tr_len <- tr.tr_len + 1;
  i

let close_window tr =
  let i = next_slot tr in
  let o = tr.tr_open in
  tr.tr_t.(i) <- o.(0);
  tr.tr_v.(i) <- o.(1);
  tr.tr_count.(i) <- tr.tr_open_count;
  tr.tr_sum.(i) <- o.(2);
  tr.tr_min.(i) <- o.(3);
  tr.tr_max.(i) <- o.(4)

let observe s ~t v =
  s.s_samples <- s.s_samples + 1;
  let tiers = s.s_tiers in
  for k = 0 to Array.length tiers - 1 do
    let tr = tiers.(k) in
    if not (coarse tr) then begin
      let i = next_slot tr in
      tr.tr_t.(i) <- t;
      tr.tr_v.(i) <- v
    end
    else begin
      let key = int_of_float (Float.floor (t /. tr.tr_res_s)) in
      let o = tr.tr_open in
      if key <> tr.tr_open_key then begin
        if tr.tr_open_key <> min_int then close_window tr;
        tr.tr_open_key <- key;
        tr.tr_open_count <- 1;
        o.(0) <- float_of_int key *. tr.tr_res_s;
        o.(1) <- v;
        o.(2) <- v;
        o.(3) <- v;
        o.(4) <- v
      end
      else begin
        tr.tr_open_count <- tr.tr_open_count + 1;
        o.(1) <- v;
        o.(2) <- o.(2) +. v;
        o.(3) <- Float.min o.(3) v;
        o.(4) <- Float.max o.(4) v
      end
    end
  done

(* ---- reading: points are built on demand -------------------------------------- *)

(* Array index of the [j]-th oldest closed point. *)
let slot tr j =
  let n = Array.length tr.tr_t in
  let i = tr.tr_head - tr.tr_len + j in
  if i < 0 then i + n else i

let closed_point tr i =
  if coarse tr then
    { pt_t = tr.tr_t.(i); pt_last = tr.tr_v.(i); pt_count = tr.tr_count.(i);
      pt_sum = tr.tr_sum.(i); pt_min = tr.tr_min.(i); pt_max = tr.tr_max.(i) }
  else
    let v = tr.tr_v.(i) in
    { pt_t = tr.tr_t.(i); pt_last = v; pt_count = 1; pt_sum = v; pt_min = v;
      pt_max = v }

let open_point tr =
  if tr.tr_open_key = min_int then None
  else
    let o = tr.tr_open in
    Some
      { pt_t = o.(0); pt_last = o.(1); pt_count = tr.tr_open_count;
        pt_sum = o.(2); pt_min = o.(3); pt_max = o.(4) }

(* Closed points of one tier with [keep pt_t], oldest first, with the open
   window appended (a query must see the freshest data even before its
   window closes). *)
let collect tr keep =
  let acc =
    match open_point tr with
    | Some p when keep p.pt_t -> [ p ]
    | _ -> []
  in
  let acc = ref acc in
  for j = tr.tr_len - 1 downto 0 do
    let i = slot tr j in
    if keep tr.tr_t.(i) then acc := closed_point tr i :: !acc
  done;
  !acc

let points s ~tier = collect s.s_tiers.(tier) (fun _ -> true)

(* Every sample lands in tier 0, so its newest point is the newest. *)
let latest s =
  let tr = s.s_tiers.(0) in
  if tr.tr_len = 0 then None else Some (closed_point tr (slot tr (tr.tr_len - 1)))

(* Oldest window start a tier still holds. *)
let oldest_t tr =
  if tr.tr_len > 0 then Some tr.tr_t.(slot tr 0)
  else if tr.tr_open_key <> min_int then Some tr.tr_open.(0)
  else None

(* Points with pt_t in [t0, t1], from the finest tier that still reaches
   back to t0 (or the coarsest available when none does). *)
let between s ~t0 ~t1 =
  let n = Array.length s.s_tiers in
  let rec pick i =
    if i >= n then n - 1
    else
      match oldest_t s.s_tiers.(i) with
      | Some t when t <= t0 -> i
      | _ -> pick (i + 1)
  in
  collect s.s_tiers.(pick 0) (fun t -> t >= t0 && t <= t1)

(* ---- store ----------------------------------------------------------------------- *)

(* A collection of series keyed by (name × labels); the scraper writes
   here, rules and the dashboard read.  Iteration order is always sorted
   by (name, labels), so anything rendered from a store is deterministic
   whatever order the signals first appeared in. *)
module Store = struct
  type series = t

  (* the outer constructor, before [create] below shadows it *)
  let mk_series = create

  type t = {
    tbl : (string * (string * string) list, series) Hashtbl.t;
    capacity : int;
    tiers : int;
    factor : int;
    res_s : float;
  }

  let create ?(capacity = 256) ?(tiers = 3) ?(factor = 10) ?(res_s = 0.01) ()
      =
    { tbl = Hashtbl.create 64; capacity; tiers; factor; res_s }

  let series st ~name ~labels =
    let labels = Everest_telemetry.Metrics.normalize_labels labels in
    match Hashtbl.find_opt st.tbl (name, labels) with
    | Some s -> s
    | None ->
        let s =
          mk_series ~capacity:st.capacity ~tiers:st.tiers ~factor:st.factor
            ~res_s:st.res_s ~name ~labels ()
        in
        Hashtbl.replace st.tbl (name, labels) s;
        s

  let find st ~name ~labels =
    Hashtbl.find_opt st.tbl
      (name, Everest_telemetry.Metrics.normalize_labels labels)

  let observe st ~now ~name ~labels v = observe (series st ~name ~labels) ~t:now v

  let to_list st =
    Hashtbl.fold (fun _ s acc -> s :: acc) st.tbl []
    |> List.sort (fun a b ->
           match compare a.s_name b.s_name with
           | 0 -> compare a.s_labels b.s_labels
           | c -> c)

  let size st = Hashtbl.length st.tbl
end
