(* Layer replay for the serving workloads' traced run.

   [Fabric.run] calls admission, SLO, balancer, batcher, orchestrator and
   autoscale code internally, and the benchmark may not instrument the
   library.  So the traced run re-drives the run's own generated request
   stream (same seed, same tenants, same horizon) through *fresh* instances
   of those layers' public APIs, in event-time order on a private Desim
   clock, following the fabric's event rules: arrivals pass admission, are
   routed and queued; batches form on size, deadline or an idle worker;
   each batch is one [Orchestrator.serve ~n:1]; resolutions feed the
   tenant SLO monitors; control ticks run the autoscaler and evacuate
   unhealthy shards.  Each layer call goes through {!Prof.call}.

   The replay is checked against the run it mirrors ({!fidelity}): the
   per-tenant [Rate_limited] and [Slo_burning] counts, the batch count and
   the rendered request log must all be equal.  When they are not, the
   per-layer numbers describe a different event sequence and are reported
   as approximate.  The recovery journal and the watch are measured on
   [Fabric.run] itself (see [Serve]), so they are not replayed here. *)

module Srv = Everest_serving
module F = Srv.Fabric
module W = Srv.Workload
module Adm = Srv.Admission
module Bal = Srv.Balancer
module Bat = Srv.Batcher
module Aut = Srv.Autoscale
module Shard = Srv.Shard
module Orch = Everest_runtime.Orchestrator
module Desim = Everest_platform.Desim
module Faults = Everest_resilience.Faults
module Slo = Everest_observe.Slo

let l_workload = Prof.layer "workload"
let l_admission = Prof.layer "admission"
let l_slo = Prof.layer "slo"
let l_balancer = Prof.layer "balancer"
let l_batcher = Prof.layer "batcher"
let l_orch = Prof.layer "orchestrator"
let l_autoscale = Prof.layer "autoscale"

type st = {
  cfg : F.config;
  sim : Desim.t;
  shards : Shard.t array;
  balancer : Bal.t;
  admission : Adm.t;
  monitors : (string * Slo.monitor list) list;
  users : (string * int, W.closed_user) Hashtbl.t;
  horizon : float;
  mutable log : F.served_request list;
  mutable outstanding : int;
  mutable arrivals_pending : int;
  mutable next_id : int;
  mutable reroutes : int;
  failures : (int, int) Hashtbl.t;
  (* slow-window occupancy, for slo.window_events *)
  recent : (string, float Queue.t) Hashtbl.t;
  mutable window_sum : float;
  mutable observes : int;
  mutable calls : int;  (* Orchestrator.serve calls *)
  mutable attempts : int;
  mutable members : int;  (* requests over all executed batches *)
  mutable ticks : int;
}

type outcome = {
  o_log : F.served_request list;  (* sorted by id *)
  o_shed : (string * (Adm.reason * int) list) list;
  o_batches : int;
  o_members : int;
  o_ticks : int;
  o_spawned : int;
  o_retired : int;
  o_window_events : float;  (* mean slow-window events per observe *)
  o_orch_calls : int;
  o_orch_attempts : int;
}

let alive st sid ~now =
  not (Faults.node_dead st.cfg.F.faults ~node:st.shards.(sid).Shard.s_name ~now)

let routable st sid ~now =
  let s = st.shards.(sid) in
  alive st sid ~now && (not (Shard.draining s))
  && Shard.depth s < st.cfg.F.max_queue

let monitors_of st tenant =
  Option.value ~default:[] (List.assoc_opt tenant st.monitors)

let observe st tenant ~now ~latency ~ok =
  let q =
    match Hashtbl.find_opt st.recent tenant with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.replace st.recent tenant q;
        q
  in
  Queue.push now q;
  let lo = now -. st.cfg.F.alert.Slo.slow_window_s in
  while Queue.peek q < lo do ignore (Queue.pop q) done;
  List.iter
    (fun m ->
      st.window_sum <- st.window_sum +. float_of_int (Queue.length q);
      st.observes <- st.observes + 1;
      Prof.call l_slo (fun () -> Slo.observe m ~now ~latency_s:latency ~ok ()))
    (monitors_of st tenant)

let rec resolve st (rq : W.request) ~shard ~outcome ~batch ~variant ~degraded
    =
  let now = Desim.now st.sim in
  let attempts =
    1 + Option.value ~default:0 (Hashtbl.find_opt st.failures rq.W.rq_id)
  in
  let latency =
    match outcome with
    | F.Rejected _ -> 0.0
    | F.Served | F.Failed _ -> now -. rq.W.rq_arrival_s
  in
  st.log <-
    { F.sr_id = rq.W.rq_id; sr_tenant = rq.W.rq_tenant;
      sr_kernel = rq.W.rq_kernel; sr_shard = shard;
      sr_arrival_s = rq.W.rq_arrival_s; sr_done_s = now;
      sr_latency_s = latency; sr_outcome = outcome; sr_batch = batch;
      sr_attempts = attempts; sr_variant = variant; sr_degraded = degraded }
    :: st.log;
  (match outcome with
  | F.Served ->
      observe st rq.W.rq_tenant ~now ~latency ~ok:true;
      st.outstanding <- st.outstanding - 1
  | F.Failed _ ->
      observe st rq.W.rq_tenant ~now ~latency ~ok:false;
      st.outstanding <- st.outstanding - 1
  | F.Rejected _ -> ());
  if rq.W.rq_user >= 0 then
    match Hashtbl.find_opt st.users (rq.W.rq_tenant, rq.W.rq_user) with
    | None -> ()
    | Some u ->
        let t_next = now +. Prof.call l_workload (fun () -> W.next_think u) in
        if t_next < st.horizon then begin
          let seq = rq.W.rq_seq + 1 in
          let features =
            Prof.call l_workload (fun () -> W.user_features u seq)
          in
          let next =
            { W.rq_id = st.next_id; rq_tenant = rq.W.rq_tenant;
              rq_kernel = rq.W.rq_kernel; rq_user = rq.W.rq_user;
              rq_seq = seq; rq_arrival_s = t_next; rq_features = features }
          in
          st.next_id <- st.next_id + 1;
          st.arrivals_pending <- st.arrivals_pending + 1;
          Desim.at st.sim t_next (fun () -> arrival st next ~fresh:true)
        end

and arrival st (rq : W.request) ~fresh =
  let now = Desim.now st.sim in
  if fresh then st.arrivals_pending <- st.arrivals_pending - 1;
  let admitted =
    (not fresh)
    ||
    match
      Prof.call l_admission (fun () ->
          Adm.decide st.admission ~tenant:rq.W.rq_tenant ~now)
    with
    | Adm.Admit ->
        st.outstanding <- st.outstanding + 1;
        true
    | Adm.Reject reason ->
        resolve st rq ~shard:(-1) ~outcome:(F.Rejected reason) ~batch:0
          ~variant:"-" ~degraded:false;
        false
  in
  if admitted then
    match
      Prof.call l_balancer (fun () ->
          Bal.route st.balancer ~tenant:rq.W.rq_tenant
            ~routable:(fun sid -> routable st sid ~now)
            ~outstanding:(fun sid -> Shard.outstanding st.shards.(sid)))
    with
    | Some sid -> enqueue st sid rq
    | None ->
        let healthy = ref false in
        Array.iteri
          (fun sid s ->
            if alive st sid ~now && not (Shard.draining s) then healthy := true)
          st.shards;
        let reason = if !healthy then Adm.Overloaded else Adm.Unavailable in
        if fresh then begin
          Adm.note_rejection st.admission ~tenant:rq.W.rq_tenant reason;
          st.outstanding <- st.outstanding - 1;
          resolve st rq ~shard:(-1) ~outcome:(F.Rejected reason) ~batch:0
            ~variant:"-" ~degraded:false
        end
        else
          resolve st rq ~shard:(-1)
            ~outcome:(F.Failed (Adm.reason_name reason))
            ~batch:0 ~variant:"-" ~degraded:false

and enqueue st sid rq =
  let s = st.shards.(sid) in
  let now = Desim.now st.sim in
  (match Prof.call l_batcher (fun () -> Bat.add s.Shard.s_batcher ~now rq) with
  | Some b -> Queue.push b s.Shard.s_queue
  | None ->
      let delay = st.cfg.F.batcher.Bat.max_delay_s in
      if delay > 0.0 then
        Desim.at st.sim (now +. delay) (fun () -> deadline_flush st sid));
  dispatch st sid

and deadline_flush st sid =
  let s = st.shards.(sid) in
  let now = Desim.now st.sim in
  List.iter
    (fun b -> Queue.push b s.Shard.s_queue)
    (Prof.call l_batcher (fun () -> Bat.flush_due s.Shard.s_batcher ~now));
  dispatch st sid

and dispatch st sid =
  let s = st.shards.(sid) in
  let now = Desim.now st.sim in
  if alive st sid ~now then begin
    let continue = ref true in
    while !continue && s.Shard.s_busy < Aut.workers s.Shard.s_scaler do
      let next =
        if not (Queue.is_empty s.Shard.s_queue) then
          Some (Queue.pop s.Shard.s_queue)
        else
          Prof.call l_batcher (fun () ->
              Bat.flush_oldest s.Shard.s_batcher ~now)
      in
      match next with None -> continue := false | Some b -> execute st sid b
    done
  end

and execute st sid (batch : Bat.batch) =
  let s = st.shards.(sid) in
  let size = Bat.size batch in
  s.Shard.s_busy <- s.Shard.s_busy + 1;
  s.Shard.s_inflight <- s.Shard.s_inflight + size;
  let start = Desim.now st.sim in
  let r0 = List.hd batch.Bat.b_requests in
  let orch = s.Shard.s_orch in
  let dk = Orch.find_kernel orch r0.W.rq_kernel in
  let key = r0.W.rq_id + (sid * 1_000_003) in
  let faults = st.cfg.F.faults in
  let fail ~req:_ ~variant ~attempt =
    Faults.transient faults ~task:key ~attempt
    || List.mem_assoc variant dk.Orch.breakers
       && Faults.fpga_transient faults ~task:key ~attempt
  in
  let entry =
    match
      Prof.call l_orch (fun () ->
          Orch.serve orch ~kernel:r0.W.rq_kernel ~n:1
            ~policy:st.cfg.F.orch_policy
            ~features:(fun _ -> r0.W.rq_features)
            ~fail ~max_attempts:st.cfg.F.orch_max_attempts ())
    with
    | [ e ] -> e
    | _ -> failwith "replay: Orchestrator.serve ~n:1 returned <> 1 entry"
  in
  st.calls <- st.calls + 1;
  st.attempts <- st.attempts + entry.Orch.attempts;
  st.members <- st.members + size;
  let t_batch =
    Bat.service_time st.cfg.F.batcher ~single_s:entry.Orch.latency_s ~size
  in
  Desim.at st.sim (start +. t_batch) (fun () ->
      complete st sid batch ~start entry)

and complete st sid (batch : Bat.batch) ~start (entry : Orch.request_log) =
  let s = st.shards.(sid) in
  let now = Desim.now st.sim in
  let size = Bat.size batch in
  s.Shard.s_busy <- s.Shard.s_busy - 1;
  s.Shard.s_inflight <- s.Shard.s_inflight - size;
  s.Shard.s_batches <- s.Shard.s_batches + 1;
  if size > 1 then
    s.Shard.s_batched_requests <- s.Shard.s_batched_requests + size;
  let crashed =
    Faults.down_between st.cfg.F.faults ~node:s.Shard.s_name ~t0:start ~t1:now
  in
  if entry.Orch.ok && not crashed then begin
    s.Shard.s_served <- s.Shard.s_served + size;
    List.iter
      (fun rq ->
        resolve st rq ~shard:sid ~outcome:F.Served ~batch:size
          ~variant:entry.Orch.variant ~degraded:entry.Orch.degraded)
      batch.Bat.b_requests
  end
  else begin
    s.Shard.s_failed <- s.Shard.s_failed + size;
    let reason = if crashed then "shard-crash" else "execution-failed" in
    List.iter
      (fun (rq : W.request) ->
        let n =
          1 + Option.value ~default:0 (Hashtbl.find_opt st.failures rq.W.rq_id)
        in
        Hashtbl.replace st.failures rq.W.rq_id n;
        if n <= st.cfg.F.max_reroutes then begin
          st.reroutes <- st.reroutes + 1;
          arrival st rq ~fresh:false
        end
        else
          resolve st rq ~shard:sid ~outcome:(F.Failed reason) ~batch:size
            ~variant:entry.Orch.variant ~degraded:entry.Orch.degraded)
      batch.Bat.b_requests
  end;
  dispatch st sid

and tick st =
  let now = Desim.now st.sim in
  let ascfg = st.cfg.F.autoscale in
  st.ticks <- st.ticks + 1;
  Array.iteri
    (fun sid s ->
      if (not (alive st sid ~now)) || Shard.draining s then begin
        let evacuees = ref [] in
        Queue.iter
          (fun (b : Bat.batch) ->
            evacuees := List.rev_append b.Bat.b_requests !evacuees)
          s.Shard.s_queue;
        Queue.clear s.Shard.s_queue;
        let rec drain () =
          match
            Prof.call l_batcher (fun () ->
                Bat.flush_oldest s.Shard.s_batcher ~now)
          with
          | Some b ->
              evacuees := List.rev_append b.Bat.b_requests !evacuees;
              drain ()
          | None -> ()
        in
        drain ();
        List.iter (fun rq -> arrival st rq ~fresh:false) (List.rev !evacuees)
      end
      else
        match
          Prof.call l_autoscale (fun () ->
              Aut.tick s.Shard.s_scaler ~depth:(Shard.depth s)
                ~busy:s.Shard.s_busy
                ~backlog_age_s:(Shard.backlog_age s ~now))
        with
        | Aut.Spawn n ->
            for _ = 1 to n do
              Desim.at st.sim (now +. ascfg.Aut.spawn_delay_s) (fun () ->
                  worker_up st sid)
            done
        | Aut.Retire | Aut.Hold -> ())
    st.shards;
  if st.outstanding > 0 || st.arrivals_pending > 0 then
    Desim.at st.sim (now +. ascfg.Aut.tick_s) (fun () -> tick st)

and worker_up st sid =
  let s = st.shards.(sid) in
  Prof.call l_autoscale (fun () -> Aut.worker_up s.Shard.s_scaler);
  s.Shard.s_peak_workers <-
    max s.Shard.s_peak_workers (Aut.workers s.Shard.s_scaler);
  dispatch st sid

(* Replay one run of [cfg] over [tenants] up to [horizon].  Scheduling
   order mirrors the fabric's (the genesis tick, then open arrivals, then
   each closed user's first request), since Desim breaks time ties by
   insertion order. *)
let run (cfg : F.config) ~deploy ~tenants ~horizon =
  let sim = Desim.create () in
  let shards =
    Array.init cfg.F.n_shards (fun id ->
        Shard.create ~id ~batcher:cfg.F.batcher ~autoscale:cfg.F.autoscale
          ~deploy ())
  in
  let names = List.map (fun t -> t.W.t_name) tenants in
  let monitors =
    List.map
      (fun name ->
        ( name,
          List.map
            (fun (s : Slo.spec) ->
              Slo.monitor ~alert:cfg.F.alert
                { s with Slo.slo_name = name ^ "/" ^ s.Slo.slo_name })
            cfg.F.tenant_slos ))
      names
  in
  let admission =
    Adm.create cfg.F.admission ~tenants:names ~monitors:(fun name ->
        Option.value ~default:[] (List.assoc_opt name monitors))
  in
  let users =
    Prof.call l_workload (fun () -> W.closed_users ~seed:cfg.F.seed tenants)
  in
  let index = Hashtbl.create 64 in
  List.iter
    (fun u -> Hashtbl.replace index (W.user_tenant u, W.user_index u) u)
    users;
  let st =
    { cfg; sim; shards; balancer = Bal.create cfg.F.balancer ~n_shards:cfg.F.n_shards;
      admission; monitors; users = index; horizon; log = [];
      outstanding = 0; arrivals_pending = 0; next_id = 0; reroutes = 0;
      failures = Hashtbl.create 64; recent = Hashtbl.create 16;
      window_sum = 0.0; observes = 0; calls = 0; attempts = 0; members = 0; ticks = 0 }
  in
  Desim.at sim 0.0 (fun () -> tick st);
  let open_requests =
    Prof.call l_workload (fun () -> W.generate ~seed:cfg.F.seed ~horizon tenants)
  in
  st.next_id <- List.length open_requests;
  List.iter
    (fun (rq : W.request) ->
      st.arrivals_pending <- st.arrivals_pending + 1;
      Desim.at sim rq.W.rq_arrival_s (fun () -> arrival st rq ~fresh:true))
    open_requests;
  List.iteri
    (fun i u ->
      let rq =
        { W.rq_id = st.next_id + i; rq_tenant = W.user_tenant u;
          rq_kernel = W.user_kernel u; rq_user = W.user_index u; rq_seq = 0;
          rq_arrival_s = W.first_arrival u;
          rq_features = W.user_features u 0 }
      in
      st.arrivals_pending <- st.arrivals_pending + 1;
      Desim.at sim rq.W.rq_arrival_s (fun () -> arrival st rq ~fresh:true))
    users;
  st.next_id <- st.next_id + List.length users;
  Desim.run sim;
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 shards in
  { o_log = List.sort (fun a b -> compare a.F.sr_id b.F.sr_id) st.log;
    o_shed =
      List.map (fun n -> (n, Adm.rejections_by_reason admission ~tenant:n)) names;
    o_batches = sum (fun s -> s.Shard.s_batches);
    o_members = st.members;
    o_ticks = st.ticks;
    o_spawned = sum (fun s -> Aut.spawned_total s.Shard.s_scaler);
    o_retired = sum (fun s -> Aut.retired_total s.Shard.s_scaler);
    o_window_events =
      (if st.observes = 0 then 0.0
       else st.window_sum /. float_of_int st.observes);
    o_orch_calls = st.calls;
    o_orch_attempts = st.attempts }

(* Does the replay reproduce the run?  Per-tenant Rate_limited and
   Slo_burning counts, the batch count, and the whole rendered log. *)
let fidelity (run : F.result) (o : outcome) =
  let count shed reason = Option.value ~default:0 (List.assoc_opt reason shed) in
  let shed_ok =
    List.for_all
      (fun (tr : F.tenant_report) ->
        match List.assoc_opt tr.F.tr_tenant o.o_shed with
        | None -> false
        | Some shed ->
            List.for_all
              (fun r -> count tr.F.tr_shed r = count shed r)
              [ Adm.Rate_limited; Adm.Slo_burning ])
      run.F.f_tenants
  in
  let batches =
    List.fold_left (fun acc s -> acc + s.F.sh_batches) 0 run.F.f_shards
  in
  shed_ok && batches = o.o_batches
  && String.equal (F.render_log run) (F.render_log { run with F.f_log = o.o_log })
