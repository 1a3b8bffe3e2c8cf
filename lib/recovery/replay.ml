(* Deterministic replay shared by every journaled engine (the
   serving fabric and the workflow executor).

   Both engines are deterministic functions of their inputs, so neither
   saves its state: a crashed run is restored by re-executing it from
   t=0 against the store.

   - Records: a live run appends each write-ahead record before the
     effect it describes ([record]).  A resumed run re-derives the same
     records and byte-compares each one against the journal, read from
     segment 0 on.  When the journal runs dry the run is live again and
     appends where the journal ended.
   - Anchors: at boundaries the engine numbers deterministically
     ([boundary]), a live run writes a small snapshot holding the
     boundary count and a digest of the engine's state.  A resumed run
     re-derives the digest when it passes the boundary of the newest
     valid snapshot and byte-compares it.  Corrupt snapshots are skipped
     by {!Store.plan_resume}, so a damaged anchor costs nothing but a
     weaker check.

   Any mismatch — a record, the anchor, an anchor never reached, or
   journal left over when the run ends ([finish]) — raises a typed
   [Replay_divergence], never a silently different answer. *)

type t = {
  store : Store.t;
  mutable tail : string list;  (* journal records not yet re-derived *)
  mutable replayed : int;
  mutable next_snap : int;  (* index of the next snapshot written *)
  anchor : (int * string) option;  (* boundary count, state digest *)
  mutable anchor_seen : bool;
  plan : Store.resume option;  (* what [resume] found on disk *)
}

let create store =
  { store; tail = []; replayed = 0; next_snap = 0; anchor = None;
    anchor_seen = false; plan = None }

let resume store =
  let plan = Store.plan_resume store in
  let anchor =
    try
      let r = Codec.reader plan.Store.r_state in
      let count = Codec.r_int r in
      (count, Codec.r_str r)
    with Codec.Decode why ->
      raise (Store.Recovery_error (Store.Corrupt ("snapshot schema: " ^ why)))
  in
  { store; tail = plan.Store.r_tail; replayed = 0;
    next_snap = plan.Store.r_next_snapshot_index; anchor = Some anchor;
    anchor_seen = false; plan = Some plan }

let diverged ~expected ~got =
  raise (Store.Recovery_error (Store.Replay_divergence { expected; got }))

(* Append-or-verify one write-ahead record. *)
let record t payload =
  match t.tail with
  | [] -> Store.append t.store payload
  | expected :: rest ->
      if not (String.equal expected payload) then diverged ~expected ~got:payload;
      t.replayed <- t.replayed + 1;
      t.tail <- rest

(* Write-or-verify the anchor at boundary [count].  [state] is called
   only when a digest is written or checked. *)
let boundary t ~count ~state =
  match t.anchor with
  | Some (c, expected) when c = count ->
      let got = state () in
      if not (String.equal expected got) then diverged ~expected ~got;
      t.anchor_seen <- true
  | _ when t.tail = [] ->
      let w = Codec.writer () in
      Codec.int w count;
      Codec.str w (state ());
      Store.write_snapshot t.store ~index:t.next_snap (Codec.contents w);
      t.next_snap <- t.next_snap + 1
  | _ -> ()

(* End of run: a resumed run must have re-derived the whole journal and
   passed its anchor. *)
let finish t =
  (match t.tail with
  | expected :: _ -> diverged ~expected ~got:"<end of run>"
  | [] -> ());
  match t.anchor with
  | Some (count, expected) when not t.anchor_seen ->
      diverged ~expected
        ~got:(Printf.sprintf "<run ended before boundary %d>" count)
  | _ -> ()
