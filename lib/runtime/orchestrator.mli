(** The adaptive orchestrator: closes the loop between the mARGOt tuner,
    the virtualized execution layers and the simulated platform (Fig. 2,
    item 2: "dynamic hardware-software adaptation strategy").

    A kernel is deployed with its compile-time variants; requests arrive in
    closed loop; per request the policy picks the variant, the runtime
    executes it (guest compute for software, vFPGA launches for hardware)
    and the measured latency feeds back into the tuner. *)

open Everest_platform
open Everest_autotune

type variant_impl =
  | Sw of { flops : float; bytes : float; threads : int }
  | Hw of {
      bitstream : string;
      estimate : Everest_hls.Estimate.t;
      in_bytes : int;
      out_bytes : int;
    }

(** Metric handles of a deployed kernel. *)
type kernel_metrics

type deployed_kernel = {
  kname : string;
  impls : (string * variant_impl) list;
  tuner : Tuner.t;
  breakers : (string * Everest_resilience.Breaker.t) list;
      (** One circuit breaker per hardware variant: repeated failures trip
          it and requests degrade to software until a half-open probe
          succeeds. *)
  metrics : kernel_metrics;  (** Bound at {!deploy}: {!serve} looks none up. *)
}

type t = {
  cluster : Cluster.t;
  host : Node.t;
  hyper : Vm.hypervisor;
  vm : Vm.t;
  vfpga_mgr : Vfpga.t;
  vctx : Vfpga.vctx option;
  protection : Protection.t;
  tracer : Everest_telemetry.Trace.t;
      (** Request-loop spans in simulated time (no-op by default). *)
  registry : Everest_telemetry.Metrics.registry;
  mutable kernels : deployed_kernel list;
}

(** Stand up the runtime on a cluster node: spawns the application VM and,
    when the host has FPGAs, a vFPGA context.  Pass [tracer] (usually
    {!sim_tracer} on the same cluster) to record per-request spans;
    [registry] (default {!Everest_telemetry.Metrics.default}) receives the
    [orchestrator_*], [tuner_*] and [protection_*] metrics; the tuner
    itself writes none. *)
val create :
  ?vcpus:int ->
  ?tracer:Everest_telemetry.Trace.t ->
  ?registry:Everest_telemetry.Metrics.registry ->
  Cluster.t ->
  host_name:string ->
  t

(** A tracer driven by the cluster's simulated clock. *)
val sim_tracer : ?capacity:int -> Cluster.t -> Everest_telemetry.Trace.t

(** Snapshot the runtime layers — tuner decisions, breakers, vFPGA
    activity, the data protection monitors, the cluster — into gauges of
    the orchestrator's registry, each also labeled [labels] (default
    none).  {!serve} does not call it: a caller that reads the registry
    takes the snapshot ([Everest.Sdk.serve] does). *)
val publish_metrics : ?labels:(string * string) list -> t -> unit

(** Deploy a kernel with its variants; hardware bitstreams are preloaded
    (deployment-time configuration) and every hardware variant gets a
    circuit breaker ([breaker] overrides the default configuration). *)
val deploy :
  ?breaker:Everest_resilience.Breaker.config ->
  t ->
  kname:string ->
  impls:(string * variant_impl) list ->
  knowledge:Knowledge.t ->
  goal:Goal.t ->
  deployed_kernel

val find_kernel : t -> string -> deployed_kernel

(** Breaker state of a hardware variant at the current simulated time;
    [None] for software variants. *)
val breaker_state :
  t -> deployed_kernel -> variant:string -> Everest_resilience.Breaker.state option

(** Execute one variant; the continuation receives the measured simulated
    latency.  [slowdown] injects contention per variant. *)
val execute :
  t ->
  deployed_kernel ->
  variant:string ->
  ?slowdown:(string -> float) ->
  (float -> unit) ->
  unit

type policy = Adaptive | Fixed of string | Random of int

type request_log = {
  req : int;
  requested : string;  (** What the policy picked. *)
  variant : string;  (** What actually served the request. *)
  latency_s : float;  (** Across all attempts, including backoff. *)
  attempts : int;
  degraded : bool;  (** A breaker diverted a hardware pick to software. *)
  ok : bool;
  t_done : float;  (** Simulated completion time, for SLO windows. *)
}

(** Serve [n] closed-loop requests.  [slowdown req variant] injects
    time-varying contention; [features req] supplies per-request data
    features to the tuner.

    [fail ~req ~variant ~attempt] injects a deterministic per-attempt
    failure verdict; failures feed the variant's circuit breaker and are
    retried with backoff up to [max_attempts] (default 3).  While a
    hardware variant's breaker is open, requests for it are served by the
    first software variant (graceful degradation), recorded per request in
    [degraded] and in the [orchestrator_degraded_total] counter.

    [slos] are online {!Everest_observe.Slo} monitors fed as each request
    completes (simulated completion time, final latency, outcome); their
    end-of-run verdicts land in [orchestrator_slo_*] gauges labelled by
    monitor name.  Without monitors no extra metrics are touched. *)
val serve :
  t ->
  kernel:string ->
  n:int ->
  policy:policy ->
  ?slowdown:(int -> string -> float) ->
  ?features:(int -> (string * float) list) ->
  ?fail:(req:int -> variant:string -> attempt:int -> bool) ->
  ?max_attempts:int ->
  ?slos:Everest_observe.Slo.monitor list ->
  unit ->
  request_log list

val total_latency : request_log list -> float
val mean_latency : request_log list -> float

(** Fraction of requests that ultimately succeeded (1.0 on an empty log). *)
val availability : request_log list -> float

(** Requests that were served degraded. *)
val degraded_requests : request_log list -> int

val variant_histogram : request_log list -> (string * int) list

(** The request log as batch SLO outcomes, for
    {!Everest_observe.Slo.evaluate_all} over a finished run. *)
val slo_outcomes : request_log list -> Everest_observe.Slo.outcome list
