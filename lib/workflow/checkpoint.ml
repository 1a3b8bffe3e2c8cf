(* Crash-consistent checkpointing for the workflow executor.

   The executor is a deterministic function of (cluster, plan, faults,
   policy), so it restores by journaled replay, with the code shared
   with the serving fabric ({!Everest_recovery.Replay}): every first
   completion of a task (task, finish time, node) is mixed into the
   replay's rolling digest, sealed into a chain record every chunk and
   at each boundary, and a restarted run re-executes the plan from t=0
   while *verifying* each re-derived chain record against the journal.
   Snapshots are integrity anchors: every [every] completions the
   executor's resumable digest — completion counts, finish times,
   lineage, RNG position — is written, and replay compares the
   re-derived digest when it passes the same completion count.  This
   module keeps the executor's own parts: the completion's fields, that
   cadence, and lineage pruning at each boundary, which bounds
   replica-tracking memory on long runs (and, because pruning happens at
   the same counts in the original and the replayed run, never perturbs
   byte-identity). *)

module Replay = Everest_recovery.Replay

type t = {
  ck_replay : Replay.t;
  ck_every : int;
  mutable ck_completions : int;
}

let make ~every open_replay =
  if every <= 0 then invalid_arg "Checkpoint: every <= 0";
  { ck_replay = open_replay (); ck_every = every; ck_completions = 0 }

let create ~store ~every = make ~every (fun () -> Replay.create store)
let resume ~store ~every = make ~every (fun () -> Replay.resume store)
let resumed t = t.ck_replay.Replay.plan <> None
let replayed t = t.ck_replay.Replay.replayed
let completions t = t.ck_completions

(* Genesis: executed before the first task launches.  A fresh run anchors
   snapshot 0 at zero completions; a resumed run whose anchor *is* the
   genesis snapshot verifies the zero-state digest immediately. *)
let start t ~state = Replay.boundary t.ck_replay ~count:0 ~state

(* One first-completion into the replay's chain, then, at
   [every]-completion boundaries, prune + anchor.  [state] must be a
   pure digest of the resumable state; [prune] runs at boundaries in
   *both* modes so pruning never makes the replayed run diverge. *)
let on_complete t ~task ~now ~node ~state ~prune =
  let d = t.ck_replay.Replay.chain in
  Replay.mix_int d task;
  Replay.mix_float d now;
  Replay.mix_string d node;
  Replay.event t.ck_replay ~id:task;
  t.ck_completions <- t.ck_completions + 1;
  if t.ck_completions mod t.ck_every = 0 then begin
    ignore (prune () : int);
    Replay.boundary t.ck_replay ~count:t.ck_completions ~state
  end

let finish t = Replay.finish t.ck_replay
