(* Operation scheduling: ASAP, ALAP and resource-constrained list scheduling
   (the core Bambu-style flow), plus initiation-interval computation for
   pipelined loop kernels. *)

type resources = {
  adders : int;
  multipliers : int;
  dividers : int;
  logic_units : int;
  mem_ports : int;  (* simultaneous accesses per array bank per cycle *)
}

let default_resources =
  { adders = 2; multipliers = 2; dividers = 1; logic_units = 2; mem_ports = 2 }

let unlimited =
  { adders = max_int; multipliers = max_int; dividers = max_int;
    logic_units = max_int; mem_ports = max_int }

(* Cycle latencies per operation class (values typical of fmax-400MHz FPGA
   operators, matching Bambu's default characterization). *)
let latency = function
  | Cdfg.Add -> 1
  | Mul -> 3
  | Div -> 12
  | Logic -> 1
  | Load -> 2
  | Store -> 1
  | Const -> 0
  | Nop -> 0

let avail res = function
  | Cdfg.Add -> res.adders
  | Mul -> res.multipliers
  | Div -> res.dividers
  | Logic -> res.logic_units
  | Load | Store -> res.mem_ports
  | Const | Nop -> max_int

type t = {
  start : int array;  (* start cycle per node *)
  finish : int array;
  makespan : int;  (* total cycles *)
}

let asap (g : Cdfg.t) : t =
  let n = Cdfg.size g in
  let start = Array.make n 0 in
  let fin = Array.make n 0 in
  Array.iter
    (fun (nd : Cdfg.node) ->
      let ready =
        List.fold_left (fun m p -> max m fin.(p)) 0 nd.Cdfg.preds
      in
      start.(nd.Cdfg.id) <- ready;
      fin.(nd.Cdfg.id) <- ready + latency nd.Cdfg.cls)
    g.Cdfg.nodes;
  let makespan = Array.fold_left max 0 fin in
  { start; finish = fin; makespan }

(* Latest start of every node against [deadline], given successor lists:
   one reverse pass over the construction (topological) order. *)
let alap_succs (g : Cdfg.t) (succs : int list array) ~deadline : t =
  let n = Cdfg.size g in
  let start = Array.make n max_int in
  let fin = Array.make n max_int in
  for i = n - 1 downto 0 do
    let latest = List.fold_left (fun m j -> min m start.(j)) deadline succs.(i) in
    fin.(i) <- latest;
    start.(i) <- latest - latency (Cdfg.node g i).Cdfg.cls
  done;
  { start; finish = fin; makespan = deadline }

let alap (g : Cdfg.t) ~deadline : t = alap_succs g (Cdfg.succs g) ~deadline

(* [a], or a copy at least twice as long padded with [x], so that index
   [c] is in bounds: per-cycle tables grow on demand. *)
let room a c x =
  let len = Array.length a in
  if c < len then a
  else begin
    let b = Array.make (max (c + 1) (2 * len)) x in
    Array.blit a 0 b 0 len;
    b
  end

(* Per-cycle use count of one resource. *)
let used k c = if c < Array.length !k then !k.(c) else 0

let bump k c =
  k := room !k c 0;
  !k.(c) <- !k.(c) + 1

let class_index = function
  | Cdfg.Add -> 0 | Mul -> 1 | Div -> 2 | Logic -> 3 | Load -> 4 | Store -> 5
  | Const -> 6 | Nop -> 7

(* Dense id of [key] in [tbl], numbering keys in first-seen order. *)
let dense_id tbl key =
  match Hashtbl.find_opt tbl key with
  | Some k -> k
  | None ->
      let k = Hashtbl.length tbl in
      Hashtbl.add tbl key k;
      k

module Ranks = Set.Make (Int)

(* Resource-constrained list scheduling with priority = ALAP slack.

   Event-driven: a node enters the ready set when its last predecessor is
   placed, keyed to the cycle [max over preds p of max (finish p) (start p
   + 1)] — a zero-latency predecessor placed in cycle c unlocks its
   successors only from c + 1, as the ready list of each cycle is fixed
   before anything is placed in it.  Priority is the node's rank in the
   (slack, id) order.  Ready nodes are grouped by (class, array): members
   of one group compete for exactly the same resources, so once a group's
   best node fails to fit in a cycle, the rest of the group fails too and
   is skipped: a cycle costs O(groups) per placement, not O(ready). *)
let list_schedule ?(res = default_resources) (g : Cdfg.t) : t =
  let n = Cdfg.size g in
  let fail fmt = Printf.ksprintf (fun m -> invalid_arg ("Schedule.list_schedule: " ^ m)) fmt in
  Array.iter
    (fun (nd : Cdfg.node) ->
      (match nd.Cdfg.array with
      | Some a when res.mem_ports <= 0 ->
          fail "array %s is accessed but mem_ports = %d" a res.mem_ports
      | _ -> ());
      let cls = Cdfg.opclass_name nd.Cdfg.cls in
      if avail res nd.Cdfg.cls <= 0 then
        fail "%s nodes but %d %s units" cls (avail res nd.Cdfg.cls) cls)
    g.Cdfg.nodes;
  let arr_ids = Hashtbl.create 8 in
  let arr_of =
    Array.map
      (fun (nd : Cdfg.node) ->
        match nd.Cdfg.array with None -> -1 | Some a -> dense_id arr_ids a)
      g.Cdfg.nodes
  in
  let succs = Cdfg.succs g in
  let asap_s = asap g in
  let alap_s = alap_succs g succs ~deadline:asap_s.makespan in
  let slack i = alap_s.start.(i) - asap_s.start.(i) in
  let by_rank = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Int.compare (slack a) (slack b)) by_rank;
  let rank = Array.make n 0 in
  Array.iteri (fun r i -> rank.(i) <- r) by_rank;
  (* one ready group per (class, array) pair *)
  let group_ids = Hashtbl.create 16 in
  let group_of =
    Array.mapi
      (fun i (nd : Cdfg.node) -> dense_id group_ids (class_index nd.Cdfg.cls, arr_of.(i)))
      g.Cdfg.nodes
  in
  let ngroups = Hashtbl.length group_ids in
  let ready = Array.make ngroups Ranks.empty in
  let head = Array.make ngroups max_int in  (* best rank per group *)
  let blocked = Array.make ngroups (-1) in  (* cycle its best node failed *)
  let fu_use = Array.init 8 (fun _ -> ref [||]) in
  let port_use = Array.init (Hashtbl.length arr_ids) (fun _ -> ref [||]) in
  (* Placement cycles never decrease, so a divider busy at some cycle after
     [c] is busy at [c] too: checking [c] alone covers the full occupancy. *)
  let fits i c =
    let cls = (Cdfg.node g i).Cdfg.cls in
    used fu_use.(class_index cls) c < avail res cls
    && (arr_of.(i) < 0 || used port_use.(arr_of.(i)) c < res.mem_ports)
  in
  let start = Array.make n (-1) in
  let fin = Array.make n (-1) in
  let waiting = Array.map (fun (nd : Cdfg.node) -> List.length nd.Cdfg.preds) g.Cdfg.nodes in
  let release = Array.make n 0 in
  (* nodes whose predecessors are all placed, bucketed by release cycle *)
  let pending = ref [||] in
  let npending = ref 0 in
  let defer i =
    let c = release.(i) in
    pending := room !pending c [];
    !pending.(c) <- i :: !pending.(c);
    incr npending
  in
  Array.iteri (fun i w -> if w = 0 then defer i) waiting;
  let place i c =
    let nd = Cdfg.node g i in
    let cls = nd.Cdfg.cls in
    let lat = latency cls in
    start.(i) <- c;
    fin.(i) <- c + lat;
    for dc = 0 to (if cls = Cdfg.Div then lat else 1) - 1 do
      bump fu_use.(class_index cls) (c + dc)
    done;
    if arr_of.(i) >= 0 then bump port_use.(arr_of.(i)) c;
    let unlock = max (c + lat) (c + 1) in
    List.iter
      (fun j ->
        release.(j) <- max release.(j) unlock;
        waiting.(j) <- waiting.(j) - 1;
        if waiting.(j) = 0 then defer j)
      succs.(i)
  in
  let remaining = ref n in
  let nready = ref 0 in
  let cycle = ref 0 in
  while !remaining > 0 do
    let c = !cycle in
    if c < Array.length !pending then begin
      List.iter
        (fun i ->
          let gi = group_of.(i) in
          ready.(gi) <- Ranks.add rank.(i) ready.(gi);
          head.(gi) <- min head.(gi) rank.(i);
          incr nready;
          decr npending)
        !pending.(c);
      !pending.(c) <- []
    end;
    if !nready = 0 && !npending = 0 then
      failwith "Schedule.list_schedule: dependency cycle";
    (* place ready nodes in global rank order, skipping blocked groups *)
    let more = ref (!nready > 0) in
    while !more do
      let best = ref (-1) and best_rank = ref max_int in
      for gi = 0 to ngroups - 1 do
        if blocked.(gi) <> c && head.(gi) < !best_rank then begin
          best := gi;
          best_rank := head.(gi)
        end
      done;
      if !best < 0 then more := false
      else begin
        let gi = !best and r = !best_rank in
        let i = by_rank.(r) in
        if fits i c then begin
          place i c;
          let rest = Ranks.remove r ready.(gi) in
          ready.(gi) <- rest;
          head.(gi) <- (if Ranks.is_empty rest then max_int else Ranks.min_elt rest);
          decr nready;
          decr remaining
        end
        else blocked.(gi) <- c
      end
    done;
    incr cycle
  done;
  let makespan = Array.fold_left max 0 fin in
  { start; finish = fin; makespan }

(* Test oracle: the original scheduler, which rebuilds and re-sorts the
   ready list every cycle, scans all nodes for successors in its ALAP pass
   and keys usage by strings.  [list_schedule] must match it bit for bit. *)
let list_schedule_reference ?(res = default_resources) (g : Cdfg.t) : t =
  let n = Cdfg.size g in
  let asap_s = asap g in
  let deadline = asap_s.makespan in
  let alap_s =
    let start = Array.make n max_int in
    let fin = Array.make n max_int in
    for i = n - 1 downto 0 do
      let nd = Cdfg.node g i in
      let succ_starts =
        List.filter_map
          (fun j ->
            let m = Cdfg.node g j in
            if List.mem i m.Cdfg.preds then Some start.(j) else None)
          (List.init n Fun.id)
      in
      let latest = List.fold_left min deadline succ_starts in
      fin.(i) <- latest;
      start.(i) <- latest - latency nd.Cdfg.cls
    done;
    { start; finish = fin; makespan = deadline }
  in
  let slack i = alap_s.start.(i) - asap_s.start.(i) in
  let start = Array.make n (-1) in
  let fin = Array.make n (-1) in
  let scheduled = Array.make n false in
  let remaining = ref n in
  let cycle = ref 0 in
  (* Per-cycle usage: (class, cycle) -> used, and per-array port usage. *)
  let usage : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let used key = Option.value ~default:0 (Hashtbl.find_opt usage key) in
  let busy_key cls c = Printf.sprintf "%s@%d" (Cdfg.opclass_name cls) c in
  let port_key arr c = Printf.sprintf "%s#%d" arr c in
  while !remaining > 0 do
    let c = !cycle in
    (* ready nodes whose predecessors all finished by [c] *)
    let ready =
      Array.to_list g.Cdfg.nodes
      |> List.filter (fun (nd : Cdfg.node) ->
             (not scheduled.(nd.Cdfg.id))
             && List.for_all
                  (fun p -> scheduled.(p) && fin.(p) <= c)
                  nd.Cdfg.preds)
      |> List.sort (fun (a : Cdfg.node) b ->
             compare (slack a.Cdfg.id) (slack b.Cdfg.id))
    in
    List.iter
      (fun (nd : Cdfg.node) ->
        let cls = nd.Cdfg.cls in
        let lat = latency cls in
        (* occupancy: unpipelined Div blocks its unit for its full latency;
           others are pipelined (occupy issue slot only) *)
        let occupied_cycles = if cls = Div then lat else 1 in
        let fits =
          let fu_ok =
            List.for_all
              (fun dc -> used (busy_key cls (c + dc)) < avail res cls)
              (List.init occupied_cycles Fun.id)
          in
          let port_ok =
            match nd.Cdfg.array with
            | Some arr -> used (port_key arr c) < res.mem_ports
            | None -> true
          in
          fu_ok && port_ok
        in
        if fits then begin
          scheduled.(nd.Cdfg.id) <- true;
          start.(nd.Cdfg.id) <- c;
          fin.(nd.Cdfg.id) <- c + lat;
          decr remaining;
          List.iter
            (fun dc ->
              let k = busy_key cls (c + dc) in
              Hashtbl.replace usage k (used k + 1))
            (List.init occupied_cycles Fun.id);
          match nd.Cdfg.array with
          | Some arr ->
              let k = port_key arr c in
              Hashtbl.replace usage k (used k + 1)
          | None -> ()
        end)
      ready;
    incr cycle;
    if !cycle > 10_000_000 then failwith "list_schedule: runaway"
  done;
  let makespan = Array.fold_left max 0 fin in
  { start; finish = fin; makespan }

let cdiv a b =
  if b = 0 || b = max_int then if a > 0 && b = 0 then max_int else 1
  else (a + b - 1) / b

(* Functional-unit-constrained minimum initiation interval (memory system
   excluded — the partitioner computes that part when banking applies). *)
let fu_min_ii ?(res = default_resources) (g : Cdfg.t) =
  List.fold_left
    (fun m cls ->
      let pop = Cdfg.count_class g cls in
      let units = avail res cls in
      if pop = 0 then m else max m (cdiv pop units))
    1
    [ Cdfg.Add; Mul; Div; Logic ]

(* Memory-port-constrained II for unpartitioned (single-bank) arrays. *)
let mem_min_ii ?(res = default_resources) (g : Cdfg.t) =
  List.fold_left
    (fun m (arr, _) ->
      let accesses =
        Array.fold_left
          (fun acc (nd : Cdfg.node) ->
            if nd.Cdfg.array = Some arr then acc + 1 else acc)
          0 g.Cdfg.nodes
      in
      if accesses = 0 then m else max m (cdiv accesses res.mem_ports))
    1 g.Cdfg.arrays

(* Resource-constrained minimum initiation interval for a pipelined loop:
   ceil(class population / units) over all classes, and memory ports per
   array.  (Recurrences are absent in our straight-line bodies.) *)
let min_ii ?(res = default_resources) (g : Cdfg.t) =
  max (fu_min_ii ~res g) (mem_min_ii ~res g)

(* Pipelined execution time of [trips] iterations: fill + drain model. *)
let pipelined_cycles ?(res = default_resources) g ~trips =
  let ii = min_ii ~res g in
  let depth = (list_schedule ~res g).makespan in
  depth + (ii * (trips - 1))

(* Average issue throughput: operations per cycle over the makespan. *)
let utilization g (s : t) =
  let issued =
    Array.fold_left
      (fun acc (nd : Cdfg.node) ->
        match nd.Cdfg.cls with Cdfg.Const | Cdfg.Nop -> acc | _ -> acc + 1)
      0 g.Cdfg.nodes
  in
  if s.makespan = 0 then 1.0
  else float_of_int issued /. float_of_int s.makespan

let validate (g : Cdfg.t) (s : t) ~res =
  let ok_deps =
    Array.for_all
      (fun (nd : Cdfg.node) ->
        List.for_all (fun p -> s.finish.(p) <= s.start.(nd.Cdfg.id)) nd.Cdfg.preds)
      g.Cdfg.nodes
  in
  let usage = Hashtbl.create 64 in
  let take key cap =
    let u = 1 + Option.value ~default:0 (Hashtbl.find_opt usage key) in
    Hashtbl.replace usage key u;
    u <= cap
  in
  let ok_res =
    Array.for_all
      (fun (nd : Cdfg.node) ->
        let cls = nd.Cdfg.cls in
        let st = s.start.(nd.Cdfg.id) in
        let fu_ok =
          match cls with
          | Cdfg.Const | Cdfg.Nop -> true
          | _ ->
              let occupied = if cls = Cdfg.Div then latency cls else 1 in
              List.for_all
                (fun dc -> take (Cdfg.opclass_name cls, st + dc) (avail res cls))
                (List.init occupied Fun.id)
        in
        let port_ok =
          match nd.Cdfg.array with
          | Some arr -> take ("#" ^ arr, st) res.mem_ports
          | None -> true
        in
        fu_ok && port_ok)
      g.Cdfg.nodes
  in
  ok_deps && ok_res
