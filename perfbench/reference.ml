(* The host-speed reference: a fixed computation built from the
   benchmark's own code only, so no change to the libraries can move it.
   It mixes a cache-resident part (map inserts over 64 Ki keys, a short
   list sort) with a heap-heavy one (sorting a 400k-element list), since
   the workloads range from one to the other.  It prints the CPU seconds it
   took (as the iterations' host times are CPU seconds, time-sharing the
   CPU moves neither); run.py runs it around and during every iteration
   and scales host times by how fast this host ran it (see README.md,
   "Host-speed reference"). *)

module IM = Map.Make (Int)

let cache_resident () =
  let m = ref IM.empty in
  for i = 0 to 20_000 do
    m := IM.add (i * 7919 land 0xffff) (float_of_int i) !m
  done;
  let l = List.sort compare (List.init 20_000 (fun i -> i * 104729 mod 65521)) in
  IM.fold (fun _ v a -> a +. v) !m 0.0 +. float_of_int (List.length l)

let heap_heavy () =
  let l = List.init 400_000 (fun i -> i * 104729 land 0xfffff) in
  float_of_int (List.length (List.sort compare l))

let () =
  let t0 = Sys.time () in
  for _ = 1 to 8 do
    ignore (Sys.opaque_identity (cache_resident ()))
  done;
  ignore (Sys.opaque_identity (heap_heavy ()));
  Printf.printf "%.9f\n" (Sys.time () -. t0)
