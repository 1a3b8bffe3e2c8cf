(** Operation scheduling: ASAP, ALAP and resource-constrained list
    scheduling (the core Bambu-style flow), plus initiation-interval
    computation for pipelined loop kernels. *)

(** Available functional units per class, and memory ports per array bank. *)
type resources = {
  adders : int;
  multipliers : int;
  dividers : int;
  logic_units : int;
  mem_ports : int;
}

val default_resources : resources
val unlimited : resources

(** Cycle latency per operation class (Bambu-like characterization). *)
val latency : Cdfg.opclass -> int

val avail : resources -> Cdfg.opclass -> int

type t = {
  start : int array;  (** Start cycle per node. *)
  finish : int array;
  makespan : int;
}

(** Unconstrained as-soon-as-possible schedule. *)
val asap : Cdfg.t -> t

(** As-late-as-possible schedule against [deadline], in O(n + e). *)
val alap : Cdfg.t -> deadline:int -> t

(** Resource-constrained list scheduling, priority = ALAP slack (ties by
    node id).  Unpipelined dividers occupy their unit for their full
    latency; loads and stores each have [mem_ports] units and also share
    [mem_ports] ports per array and cycle.  Event-driven: O(n log n) plus
    O(groups) per cycle and placement, where a group is a distinct
    (class, array) pair.  Bit-identical to [list_schedule_reference].
    @raise Invalid_argument when a node's class has no units, or a node
    accesses an array while [mem_ports <= 0]. *)
val list_schedule : ?res:resources -> Cdfg.t -> t

(** The original O(n²) scheduler: each cycle filters all nodes for
    readiness and re-sorts them, and its ALAP pass scans every node for
    successors.  Kept only as the test oracle [list_schedule] is checked
    against; it spins until a runaway [Failure] on impossible resources. *)
val list_schedule_reference : ?res:resources -> Cdfg.t -> t

val cdiv : int -> int -> int

(** Functional-unit-constrained minimum initiation interval (memory system
    excluded — the partitioner computes that part when banking applies). *)
val fu_min_ii : ?res:resources -> Cdfg.t -> int

(** Memory-port-constrained II for unpartitioned (single-bank) arrays. *)
val mem_min_ii : ?res:resources -> Cdfg.t -> int

(** [max fu_min_ii mem_min_ii]. *)
val min_ii : ?res:resources -> Cdfg.t -> int

(** Fill + drain + II*(trips-1) cycles for a pipelined loop. *)
val pipelined_cycles : ?res:resources -> Cdfg.t -> trips:int -> int

(** Average issued operations per cycle. *)
val utilization : Cdfg.t -> t -> float

(** Dependencies respected and per-cycle resource bounds honored: per
    class and cycle at most [avail] units busy, a divider busy for its full
    latency, and per array and cycle at most [mem_ports] accesses. *)
val validate : Cdfg.t -> t -> res:resources -> bool
