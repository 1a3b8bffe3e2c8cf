(* Memory partitioning for HLS (generalized memory partitioning in the
   Wang–Li–Cong style, paper ref [28]).

   Given the affine access functions a DFG makes to an array inside a loop
   that is unrolled by a factor U, choose a banking scheme (block, cyclic,
   block-cyclic) and a bank count that minimizes per-cycle bank conflicts.
   A conflict forces the schedule to serialize accesses, raising the
   initiation interval. *)

type scheme = Block | Cyclic | Block_cyclic of int  (* block size *)

let scheme_name = function
  | Block -> "block"
  | Cyclic -> "cyclic"
  | Block_cyclic b -> Printf.sprintf "block-cyclic<%d>" b

type config = { scheme : scheme; banks : int }

let bank_of cfg ~array_size idx =
  match cfg.scheme with
  | Cyclic -> idx mod cfg.banks
  | Block ->
      let bsz = (array_size + cfg.banks - 1) / cfg.banks in
      min (cfg.banks - 1) (idx / bsz)
  | Block_cyclic b -> idx / b mod cfg.banks

(* Access offsets of one unrolled iteration group: for an access with
   affine index c*i + o and unroll factor U at base iteration i0, the group
   touches indices c*(i0+u) + o for u in 0..U-1.  Conflicts are independent
   of i0 for cyclic when gcd stable; we evaluate over a window of base
   iterations and take the worst case. *)
let conflicts cfg ~array_size ~unroll ~window (accesses : Cdfg.index list) =
  let worst = ref 0 in
  let per_bank = Array.make cfg.banks 0 in
  for i0 = 0 to window - 1 do
    Array.fill per_bank 0 cfg.banks 0;
    List.iter
      (fun (a : Cdfg.index) ->
        for u = 0 to unroll - 1 do
          let idx =
            match a with
            | Cdfg.Affine { coeff; offset } ->
                (coeff * (i0 + u)) + offset
            | Cdfg.Unknown -> (i0 * 7) + (u * 13)  (* pessimistic pseudo-index *)
          in
          let idx = ((idx mod array_size) + array_size) mod array_size in
          let bk = bank_of cfg ~array_size idx in
          per_bank.(bk) <- per_bank.(bk) + 1;
          worst := max !worst per_bank.(bk)
        done)
      accesses
  done;
  (* conflicts = accesses serialized beyond the first on the worst bank *)
  max 0 (!worst - 1)

(* Initiation interval induced by banking: with dual-ported banks, the worst
   bank pressure divided by ports. *)
let ii_for cfg ~ports ~array_size ~unroll accesses =
  let worst = conflicts cfg ~array_size ~unroll ~window:8 accesses + 1 in
  (worst + ports - 1) / ports

(* Exhaustive search over schemes and power-of-two bank counts. *)
let optimize ?(max_banks = 16) ?(ports = 2) ~array_size ~unroll accesses =
  let candidates =
    let rec banks b acc = if b > max_banks then List.rev acc else banks (b * 2) (b :: acc) in
    let bank_list = banks 1 [] in
    List.concat_map
      (fun banks ->
        [ { scheme = Cyclic; banks }; { scheme = Block; banks };
          { scheme = Block_cyclic 2; banks }; { scheme = Block_cyclic 4; banks } ])
      bank_list
  in
  let score cfg = ii_for cfg ~ports ~array_size ~unroll accesses in
  let best =
    List.fold_left
      (fun (best_cfg, best_ii) cfg ->
        let ii = score cfg in
        (* prefer fewer banks on ties: cheaper in BRAM *)
        if ii < best_ii || (ii = best_ii && cfg.banks < best_cfg.banks) then (cfg, ii)
        else (best_cfg, best_ii))
      ({ scheme = Cyclic; banks = 1 }, score { scheme = Cyclic; banks = 1 })
      candidates
  in
  best

(* Collect per-array accesses of a DFG. *)
let array_accesses (g : Cdfg.t) =
  List.map
    (fun (arr, size) ->
      let accs =
        Array.to_list g.Cdfg.nodes
        |> List.filter_map (fun (n : Cdfg.node) ->
               if n.Cdfg.array = Some arr then Some n.Cdfg.index else None)
      in
      (arr, size, accs))
    g.Cdfg.arrays

(* Optimize every array of a DFG; returns per-array configs and the final
   memory-induced II. *)
let optimize_dfg ?(max_banks = 16) ?(ports = 2) ?(unroll = 1) (g : Cdfg.t) =
  let per_array =
    List.map
      (fun (arr, size, accs) ->
        let cfg, ii = optimize ~max_banks ~ports ~array_size:size ~unroll accs in
        (arr, cfg, ii))
      (array_accesses g)
  in
  let mem_ii = List.fold_left (fun m (_, _, ii) -> max m ii) 1 per_array in
  (per_array, mem_ii)

let total_banks per_array =
  List.fold_left (fun acc (_, cfg, _) -> acc + cfg.banks) 0 per_array
