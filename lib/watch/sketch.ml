(* Windowed quantiles over [Everest_telemetry.Metrics] histograms.

   A ring of [slots] histograms, one per [bucket_s] of time.  Observing at
   time [t] lands in slot [floor(t/bucket_s) mod slots]; a slot whose
   stored epoch differs from the current one is stale and is reset before
   reuse, so the ring always covers the trailing [slots * bucket_s]
   seconds exactly.  Queries merge the slots inside the asked window —
   O(buckets), not O(samples), since histogram merge adds buckets. *)

module Metrics = Everest_telemetry.Metrics

type t = {
  wd_bucket_s : float;
  wd_slots : Metrics.histogram array;
  wd_epoch : int array;  (* floor(t/bucket_s) the slot holds; -1 empty *)
}

let create ?(bucket_s = 0.05) ?(slots = 20) () =
  if bucket_s <= 0.0 then invalid_arg "Sketch.create: bucket_s <= 0";
  if slots <= 0 then invalid_arg "Sketch.create: slots <= 0";
  { wd_bucket_s = bucket_s;
    wd_slots = Array.init slots (fun _ -> Metrics.make_histogram ());
    wd_epoch = Array.make slots (-1) }

let span_s w = w.wd_bucket_s *. float_of_int (Array.length w.wd_slots)

let epoch_of w t = int_of_float (Float.floor (t /. w.wd_bucket_s))

let observe w ~now v =
  let epoch = max 0 (epoch_of w now) in
  let slot = epoch mod Array.length w.wd_slots in
  if w.wd_epoch.(slot) <> epoch then begin
    Metrics.hist_reset w.wd_slots.(slot);
    w.wd_epoch.(slot) <- epoch
  end;
  Metrics.observe w.wd_slots.(slot) v

(* Merge of the slots covering [now - window_s, now], into a histogram the
   caller owns (reset first), so a per-tick reader allocates nothing. *)
let query_into w ~into ~now ~window_s =
  Metrics.hist_reset into;
  let hi = epoch_of w now in
  let lo = epoch_of w (Float.max 0.0 (now -. window_s)) in
  let n = Array.length w.wd_slots in
  let lo = max lo (hi - n + 1) in
  for e = lo to hi do
    if e >= 0 then begin
      let slot = e mod n in
      if w.wd_epoch.(slot) = e then
        Metrics.hist_merge_into ~into w.wd_slots.(slot)
    end
  done

let query w ~now ~window_s =
  let into = Metrics.make_histogram () in
  query_into w ~into ~now ~window_s;
  into
