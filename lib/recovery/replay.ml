(* Deterministic replay shared by every journaled engine (the
   serving fabric and the workflow executor).

   Both engines are deterministic functions of their inputs, so neither
   saves its state: a crashed run is restored by re-executing it from
   t=0 against the store.  The journal therefore carries nothing the run
   cannot recompute; it only has to say where a re-executed run departs
   from the original, and how far the original got.

   - Events: the engine mixes each event's fields into one rolling
     63-bit digest ([mix_int], [mix_float], [mix_string], none of which
     allocates) and counts it ([event]).  Every [chunk_events] events, at
     every anchor boundary and at the end of the run the digest is sealed
     into one chain record, "<first event id> <event count> <digest>".
     The digest is never reset, so each record covers the whole run up
     to its last event.  A live run appends the record; a resumed run
     re-derives it and compares it with the journal, read from segment 0
     on.  When the journal runs dry the run is live again and appends
     where the journal ended.
   - Anchors: at boundaries the engine numbers deterministically
     ([boundary]), a live run writes a small snapshot "<count> <digest>"
     of the engine's state, digested with the same mixer.  A resumed run
     re-derives the digest when it passes the boundary of the newest
     valid snapshot and compares it.  Corrupt snapshots are skipped by
     {!Store.plan_resume}, so a damaged anchor costs nothing but a weaker
     check.

   Any mismatch — a chain record, the anchor, an anchor never reached,
   or journal left over when the run ends ([finish]) — raises a typed
   [Replay_divergence] naming the first chunk that differs, never a
   silently different answer. *)

(* ---- the rolling digest --------------------------------------------------------- *)

(* A multiply-xorshift mixer over OCaml's 63-bit ints.  Floats enter as
   their IEEE-754 bit pattern, split into two 32-bit halves so the
   top bit survives; strings enter length first, so adjacent fields
   cannot run into each other. *)
type digest = { mutable h : int }

let digest_seed = 0x2545f4914f6cdd1d

let digest () = { h = digest_seed }

let[@inline] mix_int d x =
  let h = (d.h lxor x) * 0x100000001b3 in
  d.h <- h lxor (h lsr 29)

let[@inline] mix_bool d b = mix_int d (Bool.to_int b)

let[@inline] mix_float d f =
  let bits = Int64.bits_of_float f in
  mix_int d (Int64.to_int (Int64.shift_right_logical bits 32));
  mix_int d (Int64.to_int bits land 0xffffffff)

(* Bytes are packed seven to a mix, so a short name costs two mixes. *)
let mix_string d s =
  let n = String.length s in
  mix_int d n;
  let i = ref 0 in
  while !i < n do
    let stop = if !i + 7 < n then !i + 7 else n in
    let acc = ref 0 in
    for j = !i to stop - 1 do
      acc := (!acc lsl 8) lor Char.code (String.unsafe_get s j)
    done;
    mix_int d !acc;
    i := stop
  done

let to_hex d = Printf.sprintf "%016x" d.h

(* ---- replay --------------------------------------------------------------------- *)

(* Events per chain record.  A crash loses at most the chunk not yet
   sealed, which the resumed run re-executes live anyway. *)
let chunk_events = 64

type t = {
  store : Store.t;
  mutable tail : string list;  (* chain records not yet re-derived *)
  mutable replayed : int;  (* events replay-verified *)
  chain : digest;  (* the engine mixes each event's fields here *)
  mutable chunk_first : int;  (* id of the first event of the open chunk *)
  mutable chunk_n : int;  (* events in the open chunk *)
  mutable next_snap : int;  (* index of the next snapshot written *)
  anchor : (int * string) option;  (* boundary count, state digest *)
  mutable anchor_seen : bool;
  plan : Store.resume option;  (* what [resume] found on disk *)
}

let make store ~tail ~next_snap ~anchor ~plan =
  { store; tail; replayed = 0; chain = digest (); chunk_first = 0;
    chunk_n = 0; next_snap; anchor; anchor_seen = false; plan }

let create store = make store ~tail:[] ~next_snap:0 ~anchor:None ~plan:None

let resume store =
  let plan = Store.plan_resume store in
  let anchor =
    match String.split_on_char ' ' plan.Store.r_state with
    | [ count; hex ] when hex <> "" && int_of_string_opt count <> None ->
        (int_of_string count, hex)
    | _ ->
        raise
          (Store.Recovery_error
             (Store.Corrupt
                (Printf.sprintf "snapshot body %S" plan.Store.r_state)))
  in
  make store ~tail:plan.Store.r_tail
    ~next_snap:plan.Store.r_next_snapshot_index ~anchor:(Some anchor)
    ~plan:(Some plan)

let diverged ~expected ~got =
  raise (Store.Recovery_error (Store.Replay_divergence { expected; got }))

(* Seal the open chunk into a chain record: append it (live) or verify
   it against the journal (replay). *)
let seal t =
  if t.chunk_n > 0 then begin
    let record =
      Printf.sprintf "%d %d %016x" t.chunk_first t.chunk_n t.chain.h
    in
    (match t.tail with
    | [] -> Store.append t.store record
    | expected :: rest ->
        if not (String.equal expected record) then
          diverged ~expected ~got:record;
        t.replayed <- t.replayed + t.chunk_n;
        t.tail <- rest);
    t.chunk_n <- 0
  end

(* Count one event whose fields the engine has just mixed into
   [t.chain]. *)
let event t ~id =
  if t.chunk_n = 0 then t.chunk_first <- id;
  t.chunk_n <- t.chunk_n + 1;
  if t.chunk_n >= chunk_events then seal t

(* Write-or-verify the anchor at boundary [count], after sealing the
   chunk that ends there.  [state] is called only when a digest is
   written or checked. *)
let boundary t ~count ~state =
  seal t;
  match t.anchor with
  | Some (c, expected) when c = count ->
      let got = state () in
      if not (String.equal expected got) then diverged ~expected ~got;
      t.anchor_seen <- true
  | _ when t.tail = [] ->
      Store.write_snapshot t.store ~index:t.next_snap
        (Printf.sprintf "%d %s" count (state ()));
      t.next_snap <- t.next_snap + 1
  | _ -> ()

(* End of run: seal the last chunk; a resumed run must have re-derived
   the whole journal and passed its anchor. *)
let finish t =
  seal t;
  (match t.tail with
  | expected :: _ -> diverged ~expected ~got:"<end of run>"
  | [] -> ());
  match t.anchor with
  | Some (count, expected) when not t.anchor_seen ->
      diverged ~expected
        ~got:(Printf.sprintf "<run ended before boundary %d>" count)
  | _ -> ()
