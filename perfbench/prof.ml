(* Harness-side profiler for the traced run.

   Every call the benchmark makes into a layer's public API can be wrapped
   in [call]: it records the call's wall time and the minor-heap words it
   allocated, per layer, and keeps the first [keep] calls as spans for the
   Chrome trace.  Nothing here instruments the libraries; a layer's time is
   the sum of its wrapped calls, and since wrapped calls never nest, that
   sum is also its self time. *)

module Trace = Everest_telemetry.Trace
module Chrome = Everest_telemetry.Chrome_trace

type layer = {
  l_name : string;
  l_track : int;
  mutable l_calls : int;
  l_acc : float array;  (* [| seconds; minor words |], unboxed *)
}

let registry : layer list ref = ref []

let layer name =
  match List.find_opt (fun l -> String.equal l.l_name name) !registry with
  | Some l -> l
  | None ->
      let l =
        { l_name = name; l_track = List.length !registry + 1; l_calls = 0;
          l_acc = [| 0.0; 0.0 |] }
      in
      registry := !registry @ [ l ];
      l

let seconds l = l.l_acc.(0)
let words l = l.l_acc.(1)

(* Spans kept for the trace file: a bounded prefix, so a long run cannot
   turn the trace into gigabytes.  Aggregates above cover every call. *)
let keep = 20_000
let kept = ref 0
let sp_layer = Array.make keep 0
let sp_t0 = Array.make keep 0.0
let sp_t1 = Array.make keep 0.0
let origin = Unix.gettimeofday ()

(* Off, [call] just calls: the same code path without the profiler, for
   measuring the tracing overhead. *)
let enabled = ref true

let call l f =
  if not !enabled then f ()
  else begin
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let t1 = Unix.gettimeofday () in
    let w1 = Gc.minor_words () in
    l.l_calls <- l.l_calls + 1;
    l.l_acc.(0) <- l.l_acc.(0) +. (t1 -. t0);
    l.l_acc.(1) <- l.l_acc.(1) +. (w1 -. w0);
    let k = !kept in
    if k < keep then begin
      sp_layer.(k) <- l.l_track;
      sp_t0.(k) <- t0;
      sp_t1.(k) <- t1;
      kept := k + 1
    end;
    r
  end

(* Zero the aggregates; kept spans stay for the trace file. *)
let reset () =
  List.iter
    (fun l ->
      l.l_calls <- 0;
      l.l_acc.(0) <- 0.0;
      l.l_acc.(1) <- 0.0)
    !registry

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  a.(Array.length a / 2)

type 'a rounds = {
  result : 'a;  (* of the median traced [layers] run, whose aggregates remain *)
  reference_s : float;  (* median wall of [reference] *)
  off_s : float;  (* median wall of [layers] with the profiler off *)
  on_s : float;  (* median wall of [layers] with the profiler on *)
}

(* [n] rounds of: the untraced [reference] (the workload's measured phase),
   then [layers] with the profiler off, then on.  Rotating the three
   spreads a drift in host speed over all of them; [on_s -. off_s] is the
   tracing overhead.  The layer aggregates left behind are those of the
   traced run with the median wall time. *)
let rounds n ~reference ~layers =
  let refs = ref [] and offs = ref [] and ons = ref [] in
  for _ = 1 to n do
    let r, s = timed reference in
    refs := s :: !refs;
    enabled := false;
    let _, s = Fun.protect ~finally:(fun () -> enabled := true) (fun () -> timed layers) in
    offs := s :: !offs;
    reset ();
    let x, s = timed layers in
    let saved = List.map (fun l -> (l, l.l_calls, Array.copy l.l_acc)) !registry in
    ons := (s, (r, x), saved) :: !ons
  done;
  let sorted = List.sort (fun (a, _, _) (b, _, _) -> compare a b) !ons in
  let on_s, result, saved = List.nth sorted (List.length sorted / 2) in
  List.iter
    (fun (l, calls, acc) ->
      l.l_calls <- calls;
      Array.blit acc 0 l.l_acc 0 2)
    saved;
  { result; reference_s = median !refs; off_s = median !offs; on_s }

(* Per-call averages in microseconds and words; 0 for an unused layer. *)
let us_per_call l =
  if l.l_calls = 0 then 0.0 else 1e6 *. seconds l /. float_of_int l.l_calls

let words_per_call l =
  if l.l_calls = 0 then 0.0 else words l /. float_of_int l.l_calls

(* Write the kept spans as a Chrome trace, one track per layer, on a wall
   clock relative to process start. *)
let write_chrome_trace path ~process_name =
  let spans =
    List.init !kept (fun i ->
        let l = List.nth !registry (sp_layer.(i) - 1) in
        { Trace.id = i; parent = None; name = l.l_name; track = l.l_track;
          start_s = sp_t0.(i) -. origin; end_s = sp_t1.(i) -. origin;
          attrs = [] })
  in
  let tracks =
    List.filter_map
      (fun l -> if l.l_calls > 0 then Some (l.l_track, l.l_name) else None)
      !registry
  in
  Chrome.write_processes path [ Chrome.of_spans ~process_name ~tracks spans ]
