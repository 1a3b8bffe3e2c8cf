(* The serving fabric's event loop.  See the interface for the model; the
   implementation notes here cover the invariants:

   - Fabric time is one Desim engine: arrival events (pre-generated
     open-loop requests, closed-loop continuations), batch completions,
     deadline flushes, autoscale ticks and delayed worker spawns all
     queue there.  Desim breaks ties by insertion order, so the whole
     run is a deterministic function of (config, tenants, horizon).
   - [outstanding] counts admitted-but-unresolved requests and
     [arrivals_pending] counts scheduled-but-unhandled arrival events;
     the autoscale tick re-arms only while either is positive, which is
     what lets the simulation drain and terminate.
   - Every request resolves exactly once ([resolve]), which also drives
     the per-tenant SLO monitors and the closed-loop continuation.

   Crash consistency: every scheduled continuation is a *typed event*
   ([ev]) — plain data, no closures — numbered by a monotonically
   increasing id, and the run is deterministic, so recovery needs no
   state codec (replay is {!Everest_recovery.Replay}, shared with
   the workflow executor):

   - Journal: when recovery is on, firing an event first appends its
     encoded form (id, fire time, event) to the write-ahead journal,
     then performs it.  The payload is encoded only then, and only when
     recovery is on.
   - Resume re-executes the run from t=0 into a freshly built fabric and
     byte-compares each re-derived event against the journal;
     divergence is a typed error, not a wrong answer.  When the journal
     runs dry the run continues live.
   - Snapshots are small integrity anchors: at tick boundaries due under
     [rv_snapshot_every_s] the boundary count, sim time and scalar run
     counters are written, and a resumed run checks the newest valid
     anchor as it passes that boundary. *)

module Slo = Everest_observe.Slo
module Orch = Everest_runtime.Orchestrator
module Desim = Everest_platform.Desim
module Faults = Everest_resilience.Faults
module Metrics = Everest_telemetry.Metrics
module Codec = Everest_recovery.Codec
module Store = Everest_recovery.Store
module Replay = Everest_recovery.Replay
module Watch = Everest_watch.Watch
module Scrape = Everest_watch.Scrape

type config = {
  n_shards : int;
  seed : int;
  balancer : Balancer.policy;
  admission : Admission.config;
  batcher : Batcher.config;
  autoscale : Autoscale.config;
  faults : Faults.t;
  max_reroutes : int;
  max_queue : int;
  tenant_slos : Slo.spec list;
  alert : Slo.alert_config;
  orch_policy : Orch.policy;
  orch_max_attempts : int;
}

let default_config ~n_shards =
  { n_shards; seed = 7; balancer = Balancer.Least_outstanding;
    admission = Admission.default_config;
    batcher = Batcher.default_config;
    autoscale = Autoscale.default_config;
    faults = Faults.none; max_reroutes = 3; max_queue = 64;
    tenant_slos =
      [ Slo.availability "availability" 0.99;
        Slo.latency "p99-latency" ~q:0.99 ~limit_s:0.05 ];
    alert = Slo.default_alert; orch_policy = Orch.Adaptive;
    orch_max_attempts = 3 }

type outcome = Served | Rejected of Admission.reason | Failed of string

type served_request = {
  sr_id : int;
  sr_tenant : string;
  sr_kernel : string;
  sr_shard : int;
  sr_arrival_s : float;
  sr_done_s : float;
  sr_latency_s : float;
  sr_outcome : outcome;
  sr_batch : int;
  sr_attempts : int;
  sr_variant : string;
  sr_degraded : bool;
}

type tenant_report = {
  tr_tenant : string;
  tr_requests : int;
  tr_served : int;
  tr_failed : int;
  tr_shed : (Admission.reason * int) list;
  tr_slos : Slo.result list;
  tr_alerts : int;
}

type shard_report = {
  sh_id : int;
  sh_served : int;
  sh_failed : int;
  sh_batches : int;
  sh_batched_requests : int;
  sh_workers : int;
  sh_peak_workers : int;
}

type result = {
  f_config : config;
  f_horizon_s : float;
  f_makespan_s : float;
  f_log : served_request list;
  f_tenants : tenant_report list;
  f_shards : shard_report list;
  f_spawned : int;
  f_retired : int;
  f_reroutes : int;
}

(* ---- recovery plumbing ---------------------------------------------------------- *)

type recovery = {
  rv_store : Store.t;
  rv_snapshot_every_s : float;
}

type restore_report = {
  rr_snapshot_index : int;  (* snapshot whose anchor the replay checked *)
  rr_fallbacks : int;  (* newer snapshots rejected as invalid *)
  rr_skipped : (int * string) list;  (* index, why it was rejected *)
  rr_replayed : int;  (* journal records replay-verified *)
  rr_torn_tail : bool;  (* a half-written record was truncated *)
}

(* The run is a deterministic function of (config, tenants, horizon); a
   store written under one configuration must never be resumed under
   another.  Tenant feature functions are code, not data, and are
   excluded — swapping them while keeping the same names is on the
   caller. *)
let fingerprint (config : config) ~tenants ~horizon =
  let tenant_sig =
    List.map
      (fun (t : Workload.tenant) ->
        (t.Workload.t_name, t.Workload.t_kernel, t.Workload.t_arrival))
      tenants
  in
  Digest.to_hex (Digest.string (Marshal.to_string (config, tenant_sig, horizon) []))

(* ---- run state ------------------------------------------------------------------ *)

(* Typed fabric events.  Everything Desim will ever run on the fabric
   clock is one of these — plain data, so each one encodes to a journal
   record that a resumed run re-derives and compares. *)
type ev =
  | Ev_arrival of Workload.request  (* fresh arrival passing admission *)
  | Ev_complete of {
      c_sid : int;
      c_start : float;
      c_batch : Batcher.batch;
      c_entry : Orch.request_log;
    }
  | Ev_flush of int  (* batcher deadline flush on one shard *)
  | Ev_spawn of int  (* delayed autoscale worker-up on one shard *)
  | Ev_tick  (* fabric control tick *)

type state = {
  st_config : config;
  st_sim : Desim.t;
  st_shards : Shard.t array;
  st_balancer : Balancer.t;
  st_admission : Admission.t;
  st_monitors : (string * Slo.monitor list) list;  (* per tenant *)
  st_users : Workload.closed_user list;
  st_user_index : (string * int, Workload.closed_user) Hashtbl.t;
      (* (tenant, user index) -> first such user in [st_users] *)
  st_horizon : float;
  st_registry : Metrics.registry;
  mutable st_log : served_request list;  (* newest first *)
  mutable st_outstanding : int;  (* admitted, not yet resolved *)
  mutable st_arrivals_pending : int;  (* scheduled arrival events *)
  mutable st_next_id : int;
  mutable st_reroutes : int;
  st_failures : (int, int) Hashtbl.t;  (* request id -> failed executions *)
  (* recovery *)
  st_recovery : (recovery * Replay.t) option;
  mutable st_ev_seq : int;  (* next event id *)
  st_scratch : Codec.writer;  (* reused for per-event record encoding *)
  mutable st_last_snap : float;
  mutable st_boundary : int;  (* anchor boundaries passed *)
  st_watch : Watch.t option;
      (* strictly read-only observer: scraped on control ticks, fed
         latencies at resolve — never schedules events or feeds back, so
         a watched run stays byte-identical to the unwatched one *)
}

let shard_alive st sid ~now =
  not
    (Faults.node_dead st.st_config.faults
       ~node:st.st_shards.(sid).Shard.s_name ~now)

let routable st sid ~now =
  let shard = st.st_shards.(sid) in
  shard_alive st sid ~now
  && (not (Shard.draining shard))
  && Shard.depth shard < st.st_config.max_queue

let tenant_monitors st tenant =
  Option.value ~default:[] (List.assoc_opt tenant st.st_monitors)

let counter st ?labels name = Metrics.counter ~registry:st.st_registry ?labels name

(* ---- journal records ---------------------------------------------------------- *)

let encode_request w (rq : Workload.request) =
  Codec.int w rq.Workload.rq_id;
  Codec.str w rq.Workload.rq_tenant;
  Codec.str w rq.Workload.rq_kernel;
  Codec.int w rq.Workload.rq_user;
  Codec.int w rq.Workload.rq_seq;
  Codec.float w rq.Workload.rq_arrival_s;
  Codec.assoc_floats w rq.Workload.rq_features

let encode_entry w (e : Orch.request_log) =
  Codec.int w e.Orch.req;
  Codec.str w e.Orch.requested;
  Codec.str w e.Orch.variant;
  Codec.float w e.Orch.latency_s;
  Codec.int w e.Orch.attempts;
  Codec.bool w e.Orch.degraded;
  Codec.bool w e.Orch.ok;
  Codec.float w e.Orch.t_done

let encode_batch w (b : Batcher.batch) =
  Codec.str w b.Batcher.b_key;
  Codec.float w b.Batcher.b_formed_s;
  Codec.list w b.Batcher.b_requests ~item:encode_request

let encode_ev w = function
  | Ev_arrival rq ->
      Codec.str w "A";
      encode_request w rq
  | Ev_complete { c_sid; c_start; c_batch; c_entry } ->
      Codec.str w "C";
      Codec.int w c_sid;
      Codec.float w c_start;
      encode_batch w c_batch;
      encode_entry w c_entry
  | Ev_flush sid ->
      Codec.str w "F";
      Codec.int w sid
  | Ev_spawn sid ->
      Codec.str w "S";
      Codec.int w sid
  | Ev_tick -> Codec.str w "T"

(* One journal record: event id, fire time, event body.  Replay
   re-derives this payload and byte-compares it against the journal. *)
let pending_payload w id ~at ev =
  Codec.reset w;
  Codec.int w id;
  Codec.float w at;
  encode_ev w ev;
  Codec.contents w

(* The anchor digest: sim time and the scalar run counters. *)
let anchor_state st () =
  let w = Codec.writer () in
  Codec.float w (Desim.now st.st_sim);
  Codec.int w st.st_ev_seq;
  Codec.int w st.st_outstanding;
  Codec.int w st.st_arrivals_pending;
  Codec.int w st.st_next_id;
  Codec.int w st.st_reroutes;
  Codec.int w (List.length st.st_log);
  Codec.contents w

(* Attribute the wall time of [f] to recovery work. *)
let timed (rp : Replay.t) f =
  let t0 = Unix.gettimeofday () in
  f ();
  let s = rp.Replay.store in
  s.Store.work_s <- s.Store.work_s +. (Unix.gettimeofday () -. t0)

(* ---- the event loop ------------------------------------------------------------- *)

(* Resolve one request exactly once: log it, feed the tenant's SLO
   monitors (service outcomes only — rejections are accounted at the
   door, not against the service SLOs), keep the closed-loop user going. *)
let rec resolve st (rq : Workload.request) ~shard ~outcome ~batch ~variant
    ~degraded =
  let now = Desim.now st.st_sim in
  let attempts = 1 + Option.value ~default:0 (Hashtbl.find_opt st.st_failures rq.Workload.rq_id) in
  let latency =
    match outcome with
    | Rejected _ -> 0.0
    | Served | Failed _ -> now -. rq.Workload.rq_arrival_s
  in
  let entry =
    { sr_id = rq.Workload.rq_id; sr_tenant = rq.Workload.rq_tenant;
      sr_kernel = rq.Workload.rq_kernel; sr_shard = shard;
      sr_arrival_s = rq.Workload.rq_arrival_s; sr_done_s = now;
      sr_latency_s = latency; sr_outcome = outcome; sr_batch = batch;
      sr_attempts = attempts; sr_variant = variant; sr_degraded = degraded }
  in
  st.st_log <- entry :: st.st_log;
  (match outcome with
  | Served ->
      Metrics.inc
        (counter st ~labels:[ ("tenant", rq.Workload.rq_tenant) ]
           "serving_served_total");
      Metrics.observe
        (Metrics.histogram ~registry:st.st_registry
           ~labels:[ ("tenant", rq.Workload.rq_tenant) ]
           "serving_latency_s")
        latency;
      List.iter
        (fun m -> Slo.observe m ~now ~latency_s:latency ~ok:true ())
        (tenant_monitors st rq.Workload.rq_tenant);
      (match st.st_watch with
      | Some w ->
          Watch.observe w ~now
            ~labels:[ ("tenant", rq.Workload.rq_tenant) ]
            "latency" latency
      | None -> ());
      st.st_outstanding <- st.st_outstanding - 1
  | Failed _ ->
      Metrics.inc
        (counter st ~labels:[ ("tenant", rq.Workload.rq_tenant) ]
           "serving_failed_total");
      List.iter
        (fun m -> Slo.observe m ~now ~latency_s:latency ~ok:false ())
        (tenant_monitors st rq.Workload.rq_tenant);
      st.st_outstanding <- st.st_outstanding - 1
  | Rejected reason ->
      Metrics.inc
        (counter st
           ~labels:
             [ ("tenant", rq.Workload.rq_tenant);
               ("reason", Admission.reason_name reason) ]
           "serving_shed_total"));
  (* closed-loop continuation: the user thinks, then asks again *)
  if rq.Workload.rq_user >= 0 then
    match
      Hashtbl.find_opt st.st_user_index
        (rq.Workload.rq_tenant, rq.Workload.rq_user)
    with
    | None -> ()
    | Some u ->
        let t_next = now +. Workload.next_think u in
        if t_next < st.st_horizon then begin
          let seq = rq.Workload.rq_seq + 1 in
          let next =
            { Workload.rq_id = st.st_next_id;
              rq_tenant = rq.Workload.rq_tenant;
              rq_kernel = rq.Workload.rq_kernel;
              rq_user = rq.Workload.rq_user; rq_seq = seq;
              rq_arrival_s = t_next;
              rq_features = Workload.user_features u seq }
          in
          st.st_next_id <- st.st_next_id + 1;
          st.st_arrivals_pending <- st.st_arrivals_pending + 1;
          sched st ~at:t_next (Ev_arrival next)
        end

(* Route and enqueue one request.  [fresh] arrivals pass admission;
   re-routed requests were already admitted.  Unroutable re-routes fail
   (they hold no queue slot anywhere), unroutable fresh arrivals are shed
   with a typed reason. *)
and handle_arrival st (rq : Workload.request) ~fresh =
  let now = Desim.now st.st_sim in
  if fresh then begin
    st.st_arrivals_pending <- st.st_arrivals_pending - 1;
    Metrics.inc
      (counter st ~labels:[ ("tenant", rq.Workload.rq_tenant) ]
         "serving_requests_total")
  end;
  let admitted =
    if not fresh then true
    else
      match Admission.decide st.st_admission ~tenant:rq.Workload.rq_tenant ~now with
      | Admission.Admit ->
          st.st_outstanding <- st.st_outstanding + 1;
          true
      | Admission.Reject reason ->
          resolve st rq ~shard:(-1) ~outcome:(Rejected reason) ~batch:0
            ~variant:"-" ~degraded:false;
          false
  in
  if admitted then begin
    match
      Balancer.route st.st_balancer ~tenant:rq.Workload.rq_tenant
        ~routable:(fun sid -> routable st sid ~now)
        ~outstanding:(fun sid -> Shard.outstanding st.st_shards.(sid))
    with
    | Some sid -> enqueue st sid rq
    | None ->
        let any_healthy =
          let ok = ref false in
          for sid = 0 to st.st_config.n_shards - 1 do
            if
              shard_alive st sid ~now
              && not (Shard.draining st.st_shards.(sid))
            then ok := true
          done;
          !ok
        in
        let reason =
          if any_healthy then Admission.Overloaded else Admission.Unavailable
        in
        if fresh then begin
          (* hand the slot back: the request never entered a queue *)
          Admission.note_rejection st.st_admission
            ~tenant:rq.Workload.rq_tenant reason;
          st.st_outstanding <- st.st_outstanding - 1;
          resolve st rq ~shard:(-1) ~outcome:(Rejected reason) ~batch:0
            ~variant:"-" ~degraded:false
        end
        else
          resolve st rq ~shard:(-1)
            ~outcome:(Failed (Admission.reason_name reason)) ~batch:0
            ~variant:"-" ~degraded:false
  end

and enqueue st sid (rq : Workload.request) =
  let shard = st.st_shards.(sid) in
  let now = Desim.now st.st_sim in
  (match Batcher.add shard.Shard.s_batcher ~now rq with
  | Some batch -> Queue.push batch shard.Shard.s_queue
  | None ->
      (* arm the deadline flush for this arrival; [flush_due] is
         idempotent so over-arming is harmless *)
      if st.st_config.batcher.Batcher.max_delay_s > 0.0 then
        sched st
          ~at:(now +. st.st_config.batcher.Batcher.max_delay_s)
          (Ev_flush sid));
  dispatch st sid

and deadline_flush st sid =
  let shard = st.st_shards.(sid) in
  let now = Desim.now st.st_sim in
  List.iter
    (fun b -> Queue.push b shard.Shard.s_queue)
    (Batcher.flush_due shard.Shard.s_batcher ~now);
  dispatch st sid

(* Start batches while the shard has free workers.  An idle worker drains
   the batcher greedily (no point waiting for a deadline with capacity to
   spare). *)
and dispatch st sid =
  let shard = st.st_shards.(sid) in
  let now = Desim.now st.st_sim in
  if shard_alive st sid ~now then begin
    let continue = ref true in
    while !continue && shard.Shard.s_busy < Autoscale.workers shard.Shard.s_scaler do
      let next =
        if not (Queue.is_empty shard.Shard.s_queue) then
          Some (Queue.pop shard.Shard.s_queue)
        else Batcher.flush_oldest shard.Shard.s_batcher ~now
      in
      match next with
      | None -> continue := false
      | Some batch -> execute st sid batch
    done
  end

(* Execute one batch: the shard's orchestrator measures the
   single-request service time (fault verdicts and breaker feedback
   included), the batcher's amortization model scales it to the batch,
   and the completion lands back on the fabric clock. *)
and execute st sid (batch : Batcher.batch) =
  let shard = st.st_shards.(sid) in
  let size = Batcher.size batch in
  shard.Shard.s_busy <- shard.Shard.s_busy + 1;
  shard.Shard.s_inflight <- shard.Shard.s_inflight + size;
  let start = Desim.now st.st_sim in
  let r0 = List.hd batch.Batcher.b_requests in
  let orch = shard.Shard.s_orch in
  let dk = Orch.find_kernel orch r0.Workload.rq_kernel in
  let fault_key = r0.Workload.rq_id + (sid * 1_000_003) in
  let fail ~req:_ ~variant ~attempt =
    Faults.transient st.st_config.faults ~task:fault_key ~attempt
    || (List.mem_assoc variant dk.Orch.breakers
       && Faults.fpga_transient st.st_config.faults ~task:fault_key ~attempt)
  in
  let entry =
    match
      Orch.serve orch ~kernel:r0.Workload.rq_kernel ~n:1
        ~policy:st.st_config.orch_policy
        ~features:(fun _ -> r0.Workload.rq_features)
        ~fail ~max_attempts:st.st_config.orch_max_attempts ()
    with
    | [ e ] -> e
    | _ -> assert false
  in
  let t_batch =
    Batcher.service_time st.st_config.batcher
      ~single_s:entry.Orch.latency_s ~size
  in
  sched st ~at:(start +. t_batch)
    (Ev_complete { c_sid = sid; c_start = start; c_batch = batch;
                   c_entry = entry })

and complete st sid (batch : Batcher.batch) ~start (entry : Orch.request_log) =
  let shard = st.st_shards.(sid) in
  let now = Desim.now st.st_sim in
  let size = Batcher.size batch in
  shard.Shard.s_busy <- shard.Shard.s_busy - 1;
  shard.Shard.s_inflight <- shard.Shard.s_inflight - size;
  shard.Shard.s_batches <- shard.Shard.s_batches + 1;
  if size > 1 then
    shard.Shard.s_batched_requests <- shard.Shard.s_batched_requests + size;
  let crashed =
    Faults.down_between st.st_config.faults ~node:shard.Shard.s_name ~t0:start
      ~t1:now
  in
  let ok = entry.Orch.ok && not crashed in
  if ok then begin
    shard.Shard.s_served <- shard.Shard.s_served + size;
    List.iter
      (fun rq ->
        resolve st rq ~shard:sid ~outcome:Served ~batch:size
          ~variant:entry.Orch.variant ~degraded:entry.Orch.degraded)
      batch.Batcher.b_requests
  end
  else begin
    shard.Shard.s_failed <- shard.Shard.s_failed + size;
    let reason = if crashed then "shard-crash" else "execution-failed" in
    List.iter
      (fun (rq : Workload.request) ->
        let failures =
          1 + Option.value ~default:0 (Hashtbl.find_opt st.st_failures rq.Workload.rq_id)
        in
        Hashtbl.replace st.st_failures rq.Workload.rq_id failures;
        if failures <= st.st_config.max_reroutes then begin
          st.st_reroutes <- st.st_reroutes + 1;
          handle_arrival st rq ~fresh:false
        end
        else
          resolve st rq ~shard:sid ~outcome:(Failed reason) ~batch:size
            ~variant:entry.Orch.variant ~degraded:entry.Orch.degraded)
      batch.Batcher.b_requests
  end;
  dispatch st sid

(* One control tick: drain dead/draining shards to their siblings, apply
   the allocation controller, re-arm while the run is live, and pass an
   anchor boundary when one is due. *)
and tick st =
  let now = Desim.now st.st_sim in
  Array.iteri
    (fun sid shard ->
      if (not (shard_alive st sid ~now)) || Shard.draining shard then begin
        (* evacuate queued work; in-flight batches fail on their own *)
        let evacuees = ref [] in
        Queue.iter
          (fun (b : Batcher.batch) ->
            evacuees := List.rev_append b.Batcher.b_requests !evacuees)
          shard.Shard.s_queue;
        Queue.clear shard.Shard.s_queue;
        let rec drain_batcher () =
          match Batcher.flush_oldest shard.Shard.s_batcher ~now with
          | Some b ->
              evacuees := List.rev_append b.Batcher.b_requests !evacuees;
              drain_batcher ()
          | None -> ()
        in
        drain_batcher ();
        List.iter
          (fun rq -> handle_arrival st rq ~fresh:false)
          (List.rev !evacuees)
      end
      else begin
        match
          Autoscale.tick shard.Shard.s_scaler ~depth:(Shard.depth shard)
            ~busy:shard.Shard.s_busy
            ~backlog_age_s:(Shard.backlog_age shard ~now)
        with
        | Autoscale.Spawn n ->
            for _ = 1 to n do
              sched st
                ~at:(now +. st.st_config.autoscale.Autoscale.spawn_delay_s)
                (Ev_spawn sid)
            done
        | Autoscale.Retire | Autoscale.Hold -> ()
      end)
    st.st_shards;
  if st.st_outstanding > 0 || st.st_arrivals_pending > 0 then
    sched st ~at:(now +. st.st_config.autoscale.Autoscale.tick_s) Ev_tick;
  (* piggyback the watch scrape on the control tick: no new event types,
     no schedule perturbation — the journal and the run are unchanged *)
  (match st.st_watch with
  | Some w -> Watch.maybe_tick w ~now
  | None -> ());
  maybe_anchor st

and worker_up st sid =
  let shard = st.st_shards.(sid) in
  Autoscale.worker_up shard.Shard.s_scaler;
  shard.Shard.s_peak_workers <-
    max shard.Shard.s_peak_workers (Autoscale.workers shard.Shard.s_scaler);
  dispatch st sid

and perform st = function
  | Ev_arrival rq -> handle_arrival st rq ~fresh:true
  | Ev_complete { c_sid; c_start; c_batch; c_entry } ->
      complete st c_sid c_batch ~start:c_start c_entry
  | Ev_flush sid -> deadline_flush st sid
  | Ev_spawn sid -> worker_up st sid
  | Ev_tick -> tick st

(* WAL discipline: the journal record is durable (or replay-verified)
   before the event's effects happen. *)
and fire st id ~at ev =
  (match st.st_recovery with
  | None -> ()
  | Some (_, rp) ->
      timed rp (fun () ->
          Replay.record rp (pending_payload st.st_scratch id ~at ev)));
  perform st ev

and sched st ~at ev =
  let id = st.st_ev_seq in
  st.st_ev_seq <- id + 1;
  Desim.at st.st_sim at (fun () -> fire st id ~at ev)

and maybe_anchor st =
  match st.st_recovery with
  | None -> ()
  | Some (rv, rp) ->
      let now = Desim.now st.st_sim in
      if now -. st.st_last_snap >= rv.rv_snapshot_every_s then begin
        st.st_last_snap <- now;
        st.st_boundary <- st.st_boundary + 1;
        timed rp (fun () ->
            Replay.boundary rp ~count:st.st_boundary ~state:(anchor_state st))
      end

let instantiate_slos config tenant =
  List.map
    (fun (s : Slo.spec) ->
      { s with Slo.slo_name = tenant ^ "/" ^ s.Slo.slo_name })
    config.tenant_slos

(* Build a fresh fabric — shards deployed, monitors and admission wired,
   nothing scheduled yet. *)
let mk_state ~registry config ~deploy ~tenants ~horizon ~recovery ~watch =
  if config.n_shards <= 0 then invalid_arg "Fabric.run: n_shards <= 0";
  if config.max_reroutes < 0 then invalid_arg "Fabric.run: max_reroutes < 0";
  let sim = Desim.create () in
  let shards =
    Array.init config.n_shards (fun id ->
        Shard.create ~id ~batcher:config.batcher ~autoscale:config.autoscale
          ~deploy ())
  in
  let tenant_names = List.map (fun t -> t.Workload.t_name) tenants in
  let monitors =
    List.map
      (fun name ->
        ( name,
          List.map (Slo.monitor ~alert:config.alert)
            (instantiate_slos config name) ))
      tenant_names
  in
  let admission =
    Admission.create config.admission ~tenants:tenant_names
      ~monitors:(fun name ->
        Option.value ~default:[] (List.assoc_opt name monitors))
  in
  let users = Workload.closed_users ~seed:config.seed tenants in
  let user_index = Hashtbl.create (List.length users) in
  List.iter
    (fun u ->
      let key = (Workload.user_tenant u, Workload.user_index u) in
      if not (Hashtbl.mem user_index key) then Hashtbl.add user_index key u)
    users;
  { st_config = config; st_sim = sim; st_shards = shards;
    st_balancer = Balancer.create config.balancer ~n_shards:config.n_shards;
    st_admission = admission; st_monitors = monitors; st_users = users;
    st_user_index = user_index;
    st_horizon = horizon; st_registry = registry; st_log = [];
    st_outstanding = 0; st_arrivals_pending = 0; st_next_id = 0;
    st_reroutes = 0; st_failures = Hashtbl.create 64;
    st_recovery = recovery; st_ev_seq = 0; st_scratch = Codec.writer ();
    st_last_snap = 0.0; st_boundary = 0; st_watch = watch }

(* Register what the fabric exposes to a watch: the whole metrics
   registry plus live control-state gauges (queue depth, busy workers,
   outstanding, live shards) sampled at scrape time.  Read-only by
   construction — the closures only inspect [st]. *)
let attach_watch st w =
  Watch.add_source w (Scrape.of_registry st.st_registry);
  Watch.add_source w
    (Scrape.of_fn ~name:"fabric" (fun ~now ->
         let depth = ref 0 and busy = ref 0 and alive = ref 0 in
         Array.iteri
           (fun sid shard ->
             depth := !depth + Shard.depth shard;
             busy := !busy + shard.Shard.s_busy;
             if shard_alive st sid ~now then incr alive)
           st.st_shards;
         [ ("fabric:queue_depth", [], float_of_int !depth);
           ("fabric:busy_workers", [], float_of_int !busy);
           ("fabric:alive_shards", [], float_of_int !alive);
           ("fabric:outstanding", [], float_of_int st.st_outstanding) ]))

(* Assemble the result after the simulation drains. *)
let finish st =
  let config = st.st_config in
  let registry = st.st_registry in
  let shards = st.st_shards in
  let horizon = st.st_horizon in
  let tenant_names = List.map fst st.st_monitors in
  let log =
    List.sort (fun a b -> compare a.sr_id b.sr_id) (List.rev st.st_log)
  in
  let makespan =
    List.fold_left (fun acc r -> Float.max acc r.sr_done_s) 0.0 log
  in
  let tenant_report name =
    let mine = List.filter (fun r -> String.equal r.sr_tenant name) log in
    let outcomes =
      List.filter_map
        (fun r ->
          match r.sr_outcome with
          | Served ->
              Some
                { Slo.o_t_s = r.sr_done_s; o_ok = true;
                  o_latency_s = r.sr_latency_s }
          | Failed _ ->
              Some
                { Slo.o_t_s = r.sr_done_s; o_ok = false;
                  o_latency_s = r.sr_latency_s }
          | Rejected _ -> None)
        mine
    in
    let count p = List.length (List.filter p mine) in
    { tr_tenant = name;
      tr_requests = List.length mine;
      tr_served = count (fun r -> r.sr_outcome = Served);
      tr_failed =
        count (fun r -> match r.sr_outcome with Failed _ -> true | _ -> false);
      tr_shed = Admission.rejections_by_reason st.st_admission ~tenant:name;
      tr_slos = Slo.evaluate_all (instantiate_slos config name) outcomes;
      tr_alerts =
        List.fold_left
          (fun acc m -> acc + Slo.alerts m)
          0
          (tenant_monitors st name) }
  in
  let shard_report (s : Shard.t) =
    { sh_id = s.Shard.s_id; sh_served = s.Shard.s_served;
      sh_failed = s.Shard.s_failed; sh_batches = s.Shard.s_batches;
      sh_batched_requests = s.Shard.s_batched_requests;
      sh_workers = Autoscale.workers s.Shard.s_scaler;
      sh_peak_workers = s.Shard.s_peak_workers }
  in
  let spawned =
    Array.fold_left
      (fun acc s -> acc + Autoscale.spawned_total s.Shard.s_scaler)
      0 shards
  and retired =
    Array.fold_left
      (fun acc s -> acc + Autoscale.retired_total s.Shard.s_scaler)
      0 shards
  in
  (* end-of-run fabric gauges *)
  Array.iter
    (fun (s : Shard.t) ->
      let labels = [ ("shard", s.Shard.s_name) ] in
      let g name v = Metrics.set (Metrics.gauge ~registry ~labels name) v in
      g "serving_workers" (float_of_int (Autoscale.workers s.Shard.s_scaler));
      g "serving_peak_workers" (float_of_int s.Shard.s_peak_workers);
      g "serving_shard_served" (float_of_int s.Shard.s_served);
      g "serving_shard_failed" (float_of_int s.Shard.s_failed);
      g "serving_shard_batches" (float_of_int s.Shard.s_batches))
    shards;
  (* recovery cost/health gauges; lost work and restore cost land from
     [resume] itself *)
  (match st.st_recovery with
  | None -> ()
  | Some (rv, rp) ->
      Store.flush rv.rv_store;
      let g name v = Metrics.set (Metrics.gauge ~registry name) v in
      g "recovery_journal_records"
        (float_of_int rv.rv_store.Store.records_written);
      g "recovery_journal_bytes" (float_of_int rv.rv_store.Store.journal_bytes);
      g "recovery_snapshots" (float_of_int rv.rv_store.Store.snapshots_written);
      g "recovery_snapshot_bytes"
        (float_of_int rv.rv_store.Store.snapshot_bytes);
      g "recovery_replayed_events" (float_of_int rp.Replay.replayed));
  { f_config = config; f_horizon_s = horizon; f_makespan_s = makespan;
    f_log = log; f_tenants = List.map tenant_report tenant_names;
    f_shards = Array.to_list (Array.map shard_report shards);
    f_spawned = spawned; f_retired = retired; f_reroutes = st.st_reroutes }

(* Populate a fresh fabric with the workload and drive it to completion.
   A fresh run and a resumed one differ only in the [Replay.t]: both
   re-execute from t=0. *)
let simulate ~registry ~recovery ~watch config ~deploy ~tenants ~horizon =
  (* scrapes ride on the control tick, so a shorter interval could only
     be clamped to the tick: refuse it instead *)
  (match watch with
  | Some w when Watch.interval_s w < config.autoscale.Autoscale.tick_s ->
      invalid_arg
        (Printf.sprintf
           "Fabric: watch interval %gs is below the %gs control tick"
           (Watch.interval_s w) config.autoscale.Autoscale.tick_s)
  | _ -> ());
  let st = mk_state ~registry config ~deploy ~tenants ~horizon ~recovery ~watch in
  (match watch with Some w -> attach_watch st w | None -> ());
  (* the genesis tick is event 0, so a tick at t=0 still precedes any
     t=0 arrivals, matching the historical synchronous first tick *)
  sched st ~at:0.0 Ev_tick;
  let open_requests = Workload.generate ~seed:config.seed ~horizon tenants in
  st.st_next_id <- List.length open_requests;
  List.iter
    (fun (rq : Workload.request) ->
      st.st_arrivals_pending <- st.st_arrivals_pending + 1;
      sched st ~at:rq.Workload.rq_arrival_s (Ev_arrival rq))
    open_requests;
  List.iteri
    (fun i u ->
      let rq =
        { Workload.rq_id = st.st_next_id + i;
          rq_tenant = Workload.user_tenant u;
          rq_kernel = Workload.user_kernel u;
          rq_user = Workload.user_index u; rq_seq = 0;
          rq_arrival_s = Workload.first_arrival u;
          rq_features = Workload.user_features u 0 }
      in
      st.st_arrivals_pending <- st.st_arrivals_pending + 1;
      sched st ~at:(Workload.first_arrival u) (Ev_arrival rq))
    st.st_users;
  st.st_next_id <- st.st_next_id + List.length st.st_users;
  (* genesis anchor, boundary 0: it also opens journal segment 0, so even
     a crash before the first tick boundary can resume *)
  Option.iter
    (fun (_, rp) ->
      timed rp (fun () -> Replay.boundary rp ~count:0 ~state:(anchor_state st)))
    recovery;
  Desim.run st.st_sim;
  Option.iter (fun (_, rp) -> Replay.finish rp) recovery;
  let result = finish st in
  (* one last scrape after [finish] so the end-of-run gauges reach the
     dashboard *)
  (match watch with
  | Some w -> ignore (Watch.tick w ~now:(Desim.now st.st_sim))
  | None -> ());
  result

let run ?(registry = Metrics.default) ?recovery ?watch config ~deploy ~tenants
    ~horizon =
  let recovery =
    Option.map (fun rv -> (rv, Replay.create rv.rv_store)) recovery
  in
  simulate ~registry ~recovery ~watch config ~deploy ~tenants ~horizon

(* Re-execute the run from t=0, verifying it against the journal and the
   newest valid anchor, then continue live.  The result must be
   byte-identical (render_log / render_slos / render_summary) to the
   same-seed uninterrupted run. *)
let resume ?(registry = Metrics.default) ?watch ~recovery config ~deploy
    ~tenants ~horizon =
  let t0_wall = Sys.time () in
  let rp = Replay.resume recovery.rv_store in
  let plan = Option.get rp.Replay.plan in
  let result =
    simulate ~registry ~recovery:(Some (recovery, rp)) ~watch config ~deploy
      ~tenants ~horizon
  in
  let g name v = Metrics.set (Metrics.gauge ~registry name) v in
  g "recovery_restore_cpu_s" (Sys.time () -. t0_wall);
  g "recovery_resume_snapshot" (float_of_int plan.Store.r_index);
  g "recovery_fallback_snapshots" (float_of_int plan.Store.r_fallbacks);
  g "recovery_lost_records" (if plan.Store.r_torn then 1.0 else 0.0);
  ( result,
    { rr_snapshot_index = plan.Store.r_index;
      rr_fallbacks = plan.Store.r_fallbacks;
      rr_skipped =
        List.map
          (fun (i, e) -> (i, Store.error_to_string e))
          plan.Store.r_skipped;
      rr_replayed = rp.Replay.replayed;
      rr_torn_tail = plan.Store.r_torn } )

(* ---- summary accessors ---------------------------------------------------------- *)

let served_ok r =
  List.length (List.filter (fun x -> x.sr_outcome = Served) r.f_log)

let failed r =
  List.length
    (List.filter
       (fun x -> match x.sr_outcome with Failed _ -> true | _ -> false)
       r.f_log)

let shed r =
  List.length
    (List.filter
       (fun x -> match x.sr_outcome with Rejected _ -> true | _ -> false)
       r.f_log)

let availability r =
  let ok = served_ok r and bad = failed r in
  if ok + bad = 0 then 1.0
  else float_of_int ok /. float_of_int (ok + bad)

let throughput_rps r =
  if r.f_horizon_s <= 0.0 then 0.0
  else float_of_int (served_ok r) /. r.f_horizon_s

let latencies r =
  List.filter_map
    (fun x -> if x.sr_outcome = Served then Some x.sr_latency_s else None)
    (List.sort (fun a b -> compare a.sr_done_s b.sr_done_s) r.f_log)

let latency_quantile r q = Slo.exact_quantile (latencies r) q

let batched_requests r =
  List.fold_left
    (fun acc s -> acc + s.sh_batched_requests)
    0 r.f_shards

(* ---- deterministic rendering ---------------------------------------------------- *)

let outcome_name = function
  | Served -> "served"
  | Rejected reason -> "rejected:" ^ Admission.reason_name reason
  | Failed why -> "failed:" ^ why

let render_log r =
  let buf = Buffer.create (64 * List.length r.f_log) in
  List.iter
    (fun x ->
      Buffer.add_string buf
        (Printf.sprintf
           "#%06d t=%s k=%s shard=%d arr=%.9f done=%.9f lat=%.9f batch=%d \
            att=%d var=%s deg=%b %s\n"
           x.sr_id x.sr_tenant x.sr_kernel x.sr_shard x.sr_arrival_s
           x.sr_done_s x.sr_latency_s x.sr_batch x.sr_attempts x.sr_variant
           x.sr_degraded (outcome_name x.sr_outcome)))
    r.f_log;
  Buffer.contents buf

let render_slos r =
  let buf = Buffer.create 512 in
  List.iter
    (fun tr ->
      List.iter
        (fun (res : Slo.result) ->
          Buffer.add_string buf
            (Printf.sprintf "%s kind=%s attained=%.9f target=%.9f met=%b \
                             total=%d bad=%d\n"
               res.Slo.res_name res.Slo.res_kind res.Slo.attained
               res.Slo.target res.Slo.met res.Slo.total res.Slo.bad))
        tr.tr_slos;
      Buffer.add_string buf
        (Printf.sprintf "%s alerts=%d\n" tr.tr_tenant tr.tr_alerts))
    r.f_tenants;
  Buffer.contents buf

let render_summary r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "fabric: %d shard(s), balancer=%s, horizon %.3gs, makespan %.3gs\n"
       r.f_config.n_shards
       (Balancer.policy_name r.f_config.balancer)
       r.f_horizon_s r.f_makespan_s);
  Buffer.add_string buf
    (Printf.sprintf
       "requests: %d total = %d served + %d failed + %d shed | availability \
        %.2f%% | %.0f req/s | p99 %.4gs | %d batched | %d reroutes\n"
       (List.length r.f_log) (served_ok r) (failed r) (shed r)
       (100.0 *. availability r)
       (throughput_rps r)
       (latency_quantile r 0.99)
       (batched_requests r) r.f_reroutes);
  Buffer.add_string buf
    (Printf.sprintf "autoscale: %d spawned, %d retired\n" r.f_spawned
       r.f_retired);
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf
           "  shard%d: served=%d failed=%d batches=%d workers=%d (peak %d)\n"
           s.sh_id s.sh_served s.sh_failed s.sh_batches s.sh_workers
           s.sh_peak_workers))
    r.f_shards;
  List.iter
    (fun tr ->
      let shed_total =
        List.fold_left (fun acc (_, n) -> acc + n) 0 tr.tr_shed
      in
      Buffer.add_string buf
        (Printf.sprintf
           "  %-12s requests=%d served=%d failed=%d shed=%d alerts=%d\n"
           tr.tr_tenant tr.tr_requests tr.tr_served tr.tr_failed shed_total
           tr.tr_alerts);
      List.iter
        (fun (res : Slo.result) ->
          Buffer.add_string buf (Fmt.str "    %a\n" Slo.pp_result res))
        tr.tr_slos)
    r.f_tenants;
  Buffer.contents buf

(* ---- demo deployment ------------------------------------------------------------ *)

let demo_deploy ?(kernels = [ "mm" ]) ?breaker () orch =
  let estimate =
    { Everest_hls.Estimate.area = Everest_hls.Estimate.zero_area;
      cycles = 100_000; ii = 1; clock_mhz = 250.0; dynamic_power_w = 8.0 }
  in
  List.iter
    (fun kname ->
      ignore
        (Orch.deploy ?breaker orch ~kname
           ~impls:
             [ ("sw", Orch.Sw { flops = 5e8; bytes = 1e5; threads = 2 });
               ("hw",
                Orch.Hw
                  { bitstream = kname; estimate; in_bytes = 4096;
                    out_bytes = 4096 }) ]
           ~knowledge:
             (Everest_autotune.Knowledge.create kname
                [ { Everest_autotune.Knowledge.variant = "sw"; features = [];
                    metrics = [ ("time_s", 0.01) ] };
                  { Everest_autotune.Knowledge.variant = "hw"; features = [];
                    metrics = [ ("time_s", 0.001) ] } ])
           ~goal:
             (Everest_autotune.Goal.make
                (Everest_autotune.Goal.Minimize "time_s"))))
    kernels
