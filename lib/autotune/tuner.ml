(* The runtime autotuner: selection + online adaptation.

   Wraps the selector with an observation loop: after every execution the
   measured metrics update the knowledge (EMA), so sustained drifts in the
   system state (contention, input changes, degraded links) move future
   selections — the "dynamic hardware-software adaptation strategy" of
   Fig. 2. *)

type t = {
  knowledge : Knowledge.t;
  goal : Goal.t;
  alpha : float;
  hysteresis : float;  (* keep the current variant unless the challenger is
                          better by more than this relative margin *)
  mutable last : Selector.decision option;
  mutable selections : int;
  mutable switches : int;
  select_memo : Selector.decision option Everest_parallel.Cache.t;
      (* memoizes [Selector.select] per feature vector; flushed on every
         observation, since observations move the knowledge *)
}

let create ?(alpha = 0.3) ?(hysteresis = 0.1) knowledge goal =
  { knowledge; goal; alpha; hysteresis; last = None; selections = 0;
    switches = 0;
    select_memo = Everest_parallel.Cache.create ~name:"tuner_select" () }

(* Selection depends only on the feature vector (and the knowledge, which
   invalidates the memo when it changes), so key on the sorted features. *)
let features_key features =
  List.sort (fun (a, _) (b, _) -> compare a b) features
  |> List.map (fun (k, v) -> Printf.sprintf "%s=%h" k v)
  |> String.concat ";"

(* With hysteresis: if the previously selected variant is still feasible and
   within (1 + hysteresis) of the challenger's score, stick with it —
   avoids thrashing between statistically indistinguishable variants. *)
let select (t : t) ~features =
  let fresh =
    Everest_parallel.Cache.find_or_compute t.select_memo
      ~key:(features_key features) (fun () ->
        Selector.select t.knowledge t.goal ~features)
  in
  let d =
    match (t.last, fresh) with
    | Some prev, Some next
      when not
             (String.equal prev.Selector.point.Knowledge.variant
                next.Selector.point.Knowledge.variant) -> (
        let prev_name = prev.Selector.point.Knowledge.variant in
        let cluster = Knowledge.nearest_cluster t.knowledge ~features in
        match
          List.find_opt
            (fun p -> String.equal p.Knowledge.variant prev_name)
            cluster
        with
        | Some prev_point
          when List.for_all (Goal.satisfies prev_point)
                 (List.filter
                    (fun c -> not (List.memq c next.Selector.relaxed))
                    t.goal.Goal.constraints)
               && (let s_prev = Goal.score t.goal prev_point in
                   let s_next = Goal.score t.goal next.Selector.point in
                   s_prev <= s_next +. (t.hysteresis *. Float.abs s_next)) ->
            Some { next with Selector.point = prev_point }
        | _ -> fresh)
    | _ -> fresh
  in
  t.selections <- t.selections + 1;
  (match (t.last, d) with
  | Some prev, Some next
    when not
           (String.equal prev.Selector.point.Knowledge.variant
              next.Selector.point.Knowledge.variant) ->
      t.switches <- t.switches + 1
  | _ -> ());
  t.last <- d;
  d

let observe (t : t) ~variant ~features ~measured =
  Knowledge.observe ~alpha:t.alpha t.knowledge ~variant ~features ~measured;
  (* the knowledge just moved: memoized selections are stale *)
  Everest_parallel.Cache.clear t.select_memo

(* One closed-loop step: select, execute via [run], feed the measurement
   back.  [run] returns the measured metrics of the chosen variant. *)
let step (t : t) ~features ~run =
  match select t ~features with
  | None -> None
  | Some d ->
      let variant = d.Selector.point.Knowledge.variant in
      let measured = run variant in
      observe t ~variant ~features ~measured;
      Some (variant, measured)

(* Cumulative regret of the tuner's choices versus an oracle that knows the
   true per-step cost of every variant.  [true_costs step variant] gives the
   ground truth at that step. *)
let regret ~steps ~variants ~true_costs ~chosen =
  let total = ref 0.0 in
  for s = 0 to steps - 1 do
    let best =
      List.fold_left (fun m v -> Float.min m (true_costs s v)) infinity variants
    in
    total := !total +. (true_costs s (chosen s) -. best)
  done;
  !total
