(* Durable recovery store: one directory holding a config fingerprint,
   numbered snapshots and numbered journal segments.

     dir/meta                EVEREST-META v1 + config fingerprint
     dir/snap-000042.esnap   snapshot 42 (Snapshot envelope)
     dir/journal-000042.ejrnl  chain records appended after snapshot 42

   Writing snapshot [n] atomically (tmp + rename) then starting segment
   [n] keeps the invariant that segment [n] only ever holds records
   sealed after snapshot [n].  Restore re-executes the run from t=0
   ({!Replay}): the whole journal, segments [0..last], is the replay
   tail and the newest valid snapshot is the integrity anchor checked on
   the way.  Snapshots that fail validation are skipped — restore falls
   back to the previous anchor, it never trusts damaged bytes.  Journal
   segments are stricter: only the last one may have a torn tail (it is
   truncated to its valid prefix); a torn earlier segment is [Corrupt]
   and a segment of another journal version is [Version_skew], and
   neither is rewritten.

   Crash injection for drills and the QCheck byte-identity property is
   armed here: after N appended records the store flushes (the record
   that triggered the crash is on disk) and raises
   {!Journal.Crashed}. *)

type error =
  | Corrupt of string
  | Version_skew of { found : int; expected : int }
  | Truncated of string
  | Config_mismatch of { found : string; expected : string }
  | Replay_divergence of { expected : string; got : string }
  | No_snapshot

exception Recovery_error of error

let error_to_string = function
  | Corrupt why -> Printf.sprintf "corrupt: %s" why
  | Version_skew { found; expected } ->
      Printf.sprintf "version skew: found v%d, expected v%d" found expected
  | Truncated why -> Printf.sprintf "truncated: %s" why
  | Config_mismatch { found; expected } ->
      Printf.sprintf "config mismatch: store %s, run %s" found expected
  | Replay_divergence { expected; got } ->
      Printf.sprintf "replay divergence: journal %S, re-derived %S" expected
        got
  | No_snapshot -> "no valid snapshot in store"

let of_snapshot_error = function
  | Snapshot.Corrupt w -> Corrupt w
  | Snapshot.Version_skew { found; expected } ->
      Version_skew { found; expected }
  | Snapshot.Truncated w -> Truncated w

type t = {
  dir : string;
  fingerprint : string;
  mutable chan : out_channel option;
  mutable seg_index : int;
  mutable crash_after : int option;
  mutable records_written : int;
  mutable snapshots_written : int;
  mutable journal_bytes : int;
  mutable snapshot_bytes : int;
  mutable work_s : float;
      (* Wall time the client attributes to recovery work (digesting
         events, appending chain records, writing anchors).  Benches
         gate on [work_s /. (total -. work_s)]: both sides of that
         fraction come from the same run, so host-noise
         multipliers (frequency scaling, co-tenant contention) cancel,
         unlike an A/B comparison of separate timed runs. *)
}

let meta_magic = "EVEREST-META v1"

let snap_path t i = Filename.concat t.dir (Printf.sprintf "snap-%06d.esnap" i)

let seg_path t i =
  Filename.concat t.dir (Printf.sprintf "journal-%06d.ejrnl" i)

let rec mkdirs d =
  if d = "" || d = "/" || d = "." || Sys.file_exists d then ()
  else begin
    mkdirs (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

(* Indices of on-disk artifacts with the given prefix/suffix. *)
let indices t ~prefix ~suffix =
  Sys.readdir t.dir |> Array.to_list
  |> List.filter_map (fun name ->
         let pl = String.length prefix and sl = String.length suffix in
         let nl = String.length name in
         if
           nl > pl + sl
           && String.equal (String.sub name 0 pl) prefix
           && String.equal (String.sub name (nl - sl) sl) suffix
         then int_of_string_opt (String.sub name pl (nl - pl - sl))
         else None)
  |> List.sort compare

let snapshot_indices t = indices t ~prefix:"snap-" ~suffix:".esnap"
let segment_indices t = indices t ~prefix:"journal-" ~suffix:".ejrnl"

let wipe t =
  List.iter (fun i -> try Sys.remove (snap_path t i) with Sys_error _ -> ())
    (snapshot_indices t);
  List.iter (fun i -> try Sys.remove (seg_path t i) with Sys_error _ -> ())
    (segment_indices t)

let open_store ?(fresh = false) ~dir ~fingerprint () =
  mkdirs dir;
  let t =
    {
      dir;
      fingerprint;
      chan = None;
      seg_index = -1;
      crash_after = None;
      records_written = 0;
      snapshots_written = 0;
      journal_bytes = 0;
      snapshot_bytes = 0;
      work_s = 0.0;
    }
  in
  let meta = Filename.concat dir "meta" in
  if fresh then begin
    wipe t;
    write_file meta (Printf.sprintf "%s\n%s\n" meta_magic fingerprint)
  end
  else if Sys.file_exists meta then begin
    match String.split_on_char '\n' (read_file meta) with
    | m :: fp :: _ when String.equal m meta_magic ->
        if not (String.equal fp fingerprint) then
          raise
            (Recovery_error
               (Config_mismatch { found = fp; expected = fingerprint }))
    | _ -> raise (Recovery_error (Corrupt "bad meta file"))
  end
  else write_file meta (Printf.sprintf "%s\n%s\n" meta_magic fingerprint);
  t

let arm_crash t ~after_records =
  t.crash_after <- (if after_records <= 0 then None else Some after_records)

let close t =
  match t.chan with
  | None -> ()
  | Some oc ->
      close_out_noerr oc;
      t.chan <- None

(* Open journal segment [i] for appending, writing the magic line when
   the file does not exist yet. *)
let open_segment t i ~truncate =
  close t;
  let path = seg_path t i in
  let existed = (not truncate) && Sys.file_exists path in
  let flags =
    if truncate then [ Open_wronly; Open_creat; Open_trunc; Open_binary ]
    else [ Open_wronly; Open_creat; Open_append; Open_binary ]
  in
  let oc = open_out_gen flags 0o644 path in
  if not existed then output_string oc (Journal.magic_line ^ "\n");
  t.chan <- Some oc;
  t.seg_index <- i

let append t payload =
  let oc =
    match t.chan with
    | Some oc -> oc
    | None ->
        if t.seg_index < 0 then
          invalid_arg "Store.append: no journal segment open";
        open_segment t t.seg_index ~truncate:false;
        Option.get t.chan
  in
  let line = Journal.encode_record payload in
  output_string oc line;
  t.records_written <- t.records_written + 1;
  t.journal_bytes <- t.journal_bytes + String.length line;
  match t.crash_after with
  | Some n when n <= 1 ->
      t.crash_after <- None;
      (* the record that triggers the crash is on disk: flush before
         dying *)
      flush oc;
      raise Journal.Crashed
  | Some n ->
      t.crash_after <- Some (n - 1)
  | None -> ()

let write_snapshot t ~index body =
  let raw = Snapshot.encode body in
  let path = snap_path t index in
  let tmp = path ^ ".tmp" in
  write_file tmp raw;
  Sys.rename tmp path;
  t.snapshots_written <- t.snapshots_written + 1;
  t.snapshot_bytes <- t.snapshot_bytes + String.length raw;
  open_segment t index ~truncate:true

let load_snapshot t ~index =
  let path = snap_path t index in
  if not (Sys.file_exists path) then Error No_snapshot
  else
    match Snapshot.decode (read_file path) with
    | Ok body -> Ok body
    | Error e -> Error (of_snapshot_error e)

type resume = {
  r_state : string;                 (* body of the newest valid snapshot *)
  r_index : int;                    (* its index *)
  r_fallbacks : int;                (* newer snapshots rejected as invalid *)
  r_skipped : (int * error) list;   (* what was wrong with each of them *)
  r_tail : string list;             (* chain records to re-derive *)
  r_torn : bool;                    (* a torn segment tail was truncated *)
  r_next_snapshot_index : int;      (* where the resumed run snapshots next *)
}

(* Read every journal segment without touching it: a header of another
   journal version is [Version_skew], and a torn segment that is not the
   last is [Corrupt] — only a crash mid-append tears a tail, and that
   can only be the newest segment's. *)
let read_segments t =
  let segs = segment_indices t in
  let last = List.fold_left max (-1) segs in
  List.map
    (fun i ->
      let seg =
        try Journal.read_segment (seg_path t i)
        with Journal.Foreign_version found ->
          raise
            (Recovery_error
               (Version_skew { found; expected = Journal.version }))
      in
      if seg.Journal.sg_torn && i <> last then
        raise
          (Recovery_error
             (Corrupt (Printf.sprintf "journal segment %d is torn" i)));
      (i, seg))
    segs

(* Truncate the torn last segment to its valid prefix so the resumed run
   can keep appending to a clean file. *)
let heal_segment t i (seg : Journal.segment) =
  let path = seg_path t i in
  let keep =
    if seg.Journal.sg_valid_bytes = 0 then Journal.magic_line ^ "\n"
    else String.sub (read_file path) 0 seg.Journal.sg_valid_bytes
  in
  write_file path keep

(* Every client restores by deterministic re-execution verified against
   the journal ({!Replay}), so the tail is the whole journal from segment
   0 and the chosen snapshot serves as the integrity anchor. *)
let plan_resume t =
  close t;
  let segs = read_segments t in
  let snaps = List.rev (snapshot_indices t) in  (* newest first *)
  if snaps = [] then raise (Recovery_error No_snapshot);
  let rec pick skipped = function
    | [] -> raise (Recovery_error No_snapshot)
    | i :: rest -> (
        match load_snapshot t ~index:i with
        | Ok body -> (i, body, List.rev skipped)
        | Error e -> pick ((i, e) :: skipped) rest)
  in
  let index, state, skipped = pick [] snaps in
  let torn = List.exists (fun (_, seg) -> seg.Journal.sg_torn) segs in
  List.iter
    (fun (i, seg) -> if seg.Journal.sg_torn then heal_segment t i seg)
    segs;
  let tail = List.concat_map (fun (_, seg) -> seg.Journal.sg_records) segs in
  (* Keep appending to the newest segment on disk; the next snapshot
     gets a fresh index above everything present (including rejected
     snapshots, which are left in place as evidence). *)
  let last_seg = List.fold_left (fun acc (i, _) -> max acc i) index segs in
  open_segment t last_seg ~truncate:false;
  let next_snap = 1 + List.fold_left max index (List.map fst skipped) in
  {
    r_state = state;
    r_index = index;
    r_fallbacks = List.length skipped;
    r_skipped = skipped;
    r_tail = tail;
    r_torn = torn;
    r_next_snapshot_index = next_snap;
  }

let flush t = match t.chan with Some oc -> flush oc | None -> ()
