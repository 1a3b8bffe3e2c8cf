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

(* One resolution tier: a ring of closed points plus the open
   (still-accumulating) window. *)
type tier = {
  tr_res_s : float;  (* 0.0 on tier 0: every sample is its own point *)
  tr_buf : point option array;
  mutable tr_head : int;  (* next write position *)
  mutable tr_len : int;
  (* open window accumulation (tiers >= 1) *)
  mutable tr_open_key : int;  (* floor (t / res); min_int = none *)
  mutable tr_acc : point option;
}

type t = {
  s_name : string;
  s_labels : (string * string) list;  (* sorted by key *)
  s_tiers : tier array;
  mutable s_samples : int;  (* raw observations ever *)
  mutable s_last_t : float;
}

let mk_tier ~res_s ~capacity =
  { tr_res_s = res_s; tr_buf = Array.make capacity None; tr_head = 0;
    tr_len = 0; tr_open_key = min_int; tr_acc = None }

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
    s_samples = 0; s_last_t = neg_infinity }

let name s = s.s_name
let labels s = s.s_labels
let samples s = s.s_samples

let push tier p =
  tier.tr_buf.(tier.tr_head) <- Some p;
  tier.tr_head <- (tier.tr_head + 1) mod Array.length tier.tr_buf;
  if tier.tr_len < Array.length tier.tr_buf then tier.tr_len <- tier.tr_len + 1

let observe s ~t v =
  s.s_samples <- s.s_samples + 1;
  s.s_last_t <- Float.max s.s_last_t t;
  let raw =
    { pt_t = t; pt_last = v; pt_count = 1; pt_sum = v; pt_min = v; pt_max = v }
  in
  Array.iter
    (fun tier ->
      if tier.tr_res_s = 0.0 then push tier raw
      else begin
        let key = int_of_float (Float.floor (t /. tier.tr_res_s)) in
        if key <> tier.tr_open_key then begin
          (match tier.tr_acc with Some p -> push tier p | None -> ());
          tier.tr_open_key <- key;
          tier.tr_acc <-
            Some { raw with pt_t = float_of_int key *. tier.tr_res_s }
        end
        else
          match tier.tr_acc with
          | None -> assert false
          | Some p ->
              tier.tr_acc <-
                Some
                  { p with
                    pt_last = v; pt_count = p.pt_count + 1;
                    pt_sum = p.pt_sum +. v; pt_min = Float.min p.pt_min v;
                    pt_max = Float.max p.pt_max v }
      end)
    s.s_tiers

(* Closed points of one tier, oldest first, with the open window appended
   (a query must see the freshest data even before its window closes). *)
let points s ~tier =
  let tr = s.s_tiers.(tier) in
  let cap = Array.length tr.tr_buf in
  let acc = ref [] in
  (match tr.tr_acc with Some p -> acc := [ p ] | None -> ());
  for i = 1 to tr.tr_len do
    let idx = (tr.tr_head - i + (2 * cap)) mod cap in
    match tr.tr_buf.(idx) with Some p -> acc := p :: !acc | None -> ()
  done;
  !acc

let latest s =
  let rec from_tier i =
    if i >= Array.length s.s_tiers then None
    else
      match points s ~tier:i with
      | [] -> from_tier (i + 1)
      | ps -> Some (List.nth ps (List.length ps - 1))
  in
  from_tier 0

(* Points with pt_t in [t0, t1], from the finest tier that still reaches
   back to t0 (or the coarsest available when none does). *)
let between s ~t0 ~t1 =
  let n = Array.length s.s_tiers in
  let covering =
    let rec pick i =
      if i >= n then n - 1
      else
        match points s ~tier:i with
        | { pt_t; _ } :: _ when pt_t <= t0 -> i
        | _ -> pick (i + 1)
    in
    pick 0
  in
  List.filter (fun p -> p.pt_t >= t0 && p.pt_t <= t1) (points s ~tier:covering)

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
