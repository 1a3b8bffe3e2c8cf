(* E19: crash-consistent checkpoint/restore cost on the serving fabric.

     dune exec bench/recovery_bench.exe              # full sweep, writes BENCH_e19.json
     dune exec bench/recovery_bench.exe -- --quick   # reduced sweep for CI

   Journaling is only worth having if the fault-free run barely notices
   it, so the headline gate is the wall-time overhead of a
   journaled+snapshotted e16-scale serving run over the identical
   unjournaled run — <5% in the full sweep — with an absolute budget
   beside it: recovery work of at most 1 µs per request.  The journal is
   a hash chain: every event is mixed into a rolling digest and one
   chain record is sealed per chunk of events.  The sweep also records what
   the snapshot interval costs and buys.  Resume re-executes the run
   from t=0 against the journal, with snapshots as small integrity
   anchors, so snapshot bytes stay near zero at every interval and
   resume time does not depend on the interval: it replays the whole
   journal prefix up to the crash.  The sweep crashes the fabric halfway
   through the journal at each interval, resumes, and reports recovery
   time plus the replay-verified event count — and byte-compares every resumed
   report against the uninterrupted run, so the bench doubles as an
   end-to-end identity check at bench scale. *)

module Srv = Everest_serving
module Res = Everest_resilience
module Rec = Everest_recovery
module Tel = Everest_telemetry
module Json = Everest_telemetry.Json

(* Measuring a 5% effect on a shared host is the hard part of this
   bench: identical back-to-back runs drift by ±15-30% in run time
   (frequency scaling and co-tenant contention change the cycles a fixed
   workload costs), so an A-vs-B comparison of separately timed runs
   cannot resolve the gate.  The gated overhead is therefore measured by
   ATTRIBUTION: the fabric clocks its recovery code paths (event
   digests, chain-record appends, anchor writes) into
   [Store.work_s], and the fraction work/(total-work) comes from a
   single run — numerator and denominator share whatever noise
   multiplier the host applied, so it cancels.  The A/B median over
   interleaved pairs is still reported per row as a sanity cross-check,
   but it carries the host noise. *)

type row = {
  r_interval_s : float;
  r_run_s : float;  (* best journaled run wall time *)
  r_overhead : float;  (* median attributed work/(total-work) fraction *)
  r_us_per_request : float;  (* median attributed work per request, µs *)
  r_ab_overhead : float;  (* median interleaved-pair A/B ratio - 1 (noisy) *)
  r_records : int;
  r_journal_kib : float;
  r_snapshots : int;
  r_snapshot_kib : float;
  r_resume_s : float;  (* resume wall time (replay from t=0) after a mid-run kill *)
  r_replayed : int;  (* events replay-verified on resume *)
  r_sealed : int;  (* events sealed in the crashed run's chain records *)
  r_identical : bool;  (* resumed report == uninterrupted report *)
}

let row_json r =
  Json.Obj
    [ ("snapshot_every_s", Json.Num r.r_interval_s); ("run_s", Json.Num r.r_run_s);
      ("overhead_frac", Json.Num r.r_overhead);
      ("recovery_us_per_request", Json.Num r.r_us_per_request);
      ("ab_overhead_frac", Json.Num r.r_ab_overhead);
      ("journal_records", Json.int r.r_records);
      ("journal_kib", Json.Num r.r_journal_kib);
      ("snapshots", Json.int r.r_snapshots);
      ("snapshot_kib", Json.Num r.r_snapshot_kib);
      ("resume_s", Json.Num r.r_resume_s);
      ("replayed_events", Json.int r.r_replayed);
      ("sealed_events", Json.int r.r_sealed);
      ("byte_identical", Json.Bool r.r_identical) ]

(* Events sealed in the chain records a crashed run left in the store,
   read back from the journal: each record is
   "<first event id> <event count> <digest>". *)
let sealed_events ~dir ~fingerprint =
  let store = Rec.Store.open_store ~dir ~fingerprint () in
  let count_record acc record =
    match String.split_on_char ' ' record with
    | [ _; n; _ ] -> acc + int_of_string n
    | _ -> failwith ("E19: malformed chain record " ^ record)
  in
  let n =
    List.fold_left
      (fun acc (_, seg) ->
        List.fold_left count_record acc seg.Rec.Journal.sg_records)
      0
      (Rec.Store.read_segments store)
  in
  Rec.Store.close store;
  n

let () =
  let quick = Util.quick in
  (* Full mode runs at e16 scale: E16's headline sweep peaks at 16
     shards, and 800 req/s per shard sits on its sustained-rate ladder.
     The scale matters for the gate — balancer, batching and monitor
     work per request grows with fleet size and load while the journal
     writes the same bytes per event, so this is the configuration whose
     overhead fraction the <5% budget is defined against. *)
  let shards = if quick then 2 else 16 in
  let rate = if quick then 2000.0 else 12800.0 in
  let horizon = if quick then 0.3 else 1.0 in
  let reps = if quick then 2 else 5 in
  let intervals = if quick then [ 0.05; 0.1 ] else [ 0.05; 0.1; 0.2; 0.5 ] in
  let seed = 19 in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "everest-bench-e19" in
  let tenants = Util.e16_tenants ~rate in
  let config =
    { (Srv.Fabric.default_config ~n_shards:shards) with
      Srv.Fabric.seed;
      faults =
        Res.Faults.plan ~seed ~transient_prob:0.02 ~fpga_transient_prob:0.05
          () }
  in
  let fp = Srv.Fabric.fingerprint config ~tenants ~horizon in
  let run ?recovery () =
    Srv.Fabric.run ~registry:(Tel.Metrics.create_registry ()) ?recovery config
      ~deploy:(Srv.Fabric.demo_deploy ()) ~tenants ~horizon
  in

  Printf.printf
    "E19: recovery overhead + snapshot-interval sweep (%d shards, %.0f \
     req/s, %.1fs horizon%s)\n\n\
     %!"
    shards rate horizon
    (if quick then ", quick" else "");

  (* ---- baseline reference output (also warms the process) ---- *)
  let plain_r = run () in
  let plain = Util.render plain_r in
  let requests = List.length plain_r.Srv.Fabric.f_log in
  Printf.printf "unjournaled run: %d requests\n%!" requests;
  let global_plain = ref infinity in

  (* ---- sweep: journaled run + mid-run kill per snapshot interval ---- *)
  let rows =
    List.map
      (fun interval ->
        let recovery store =
          { Srv.Fabric.rv_store = store; rv_snapshot_every_s = interval }
        in
        (* interleaved pairs: plain rep, journaled rep, plain rep, ...
           per journaled rep the gated estimate is the attributed
           work/(total-work) fraction; the per-pair A/B ratio rides
           along as the noisy cross-check. *)
        let plain_best = ref infinity and j_best = ref infinity in
        let ratios = ref [] and attrs = ref [] and works = ref [] in
        let j_out = ref None in
        for _ = 1 to reps do
          let tp, _ = Util.time_one (fun () -> run ()) in
          if tp < !plain_best then plain_best := tp;
          (* only the run is timed, as on the plain side: rendering the
             report inside the timed block would count the renderer as
             journaling cost in the A/B ratio *)
          let store = Rec.Store.open_store ~fresh:true ~dir ~fingerprint:fp () in
          let tj, r = Util.time_one (fun () -> run ~recovery:(recovery store) ()) in
          let out =
            ( Util.render r,
              store.Rec.Store.records_written,
              store.Rec.Store.snapshots_written,
              store.Rec.Store.journal_bytes,
              store.Rec.Store.snapshot_bytes )
          in
          let work_s = store.Rec.Store.work_s in
          Rec.Store.close store;
          if tj < !j_best then j_best := tj;
          ratios := (tj /. tp) :: !ratios;
          attrs := (work_s /. Float.max 1e-9 (tj -. work_s)) :: !attrs;
          works := work_s :: !works;
          j_out := Some out
        done;
        let plain_s = !plain_best and run_s = !j_best in
        if plain_s < !global_plain then global_plain := plain_s;
        let attr_frac = Util.median !attrs in
        let ab_ratio = Util.median !ratios in
        let journaled, records, snapshots, jbytes, sbytes =
          Option.get !j_out
        in
        (* kill halfway through the journal, then restore *)
        let store = Rec.Store.open_store ~fresh:true ~dir ~fingerprint:fp () in
        Rec.Store.arm_crash store ~after_records:(max 1 (records / 2));
        (try ignore (run ~recovery:(recovery store) ())
         with Rec.Journal.Crashed -> ());
        Rec.Store.close store;
        let sealed = sealed_events ~dir ~fingerprint:fp in
        let resume_s, (resumed, report) =
          Util.time_one (fun () ->
              let store = Rec.Store.open_store ~dir ~fingerprint:fp () in
              let r, rep =
                Srv.Fabric.resume ~registry:(Tel.Metrics.create_registry ())
                  ~recovery:(recovery store) config
                  ~deploy:(Srv.Fabric.demo_deploy ()) ~tenants ~horizon
              in
              Rec.Store.close store;
              (Util.render r, rep))
        in
        let identical =
          String.equal plain journaled && String.equal plain resumed
        in
        let r =
          { r_interval_s = interval;
            r_run_s = run_s;
            r_overhead = attr_frac;
            r_us_per_request =
              1e6 *. Util.median !works /. float_of_int (max 1 requests);
            r_ab_overhead = ab_ratio -. 1.0;
            r_records = records;
            r_journal_kib = float_of_int jbytes /. 1024.0;
            r_snapshots = snapshots;
            r_snapshot_kib = float_of_int sbytes /. 1024.0;
            r_resume_s = resume_s;
            r_replayed = report.Srv.Fabric.rr_replayed;
            r_sealed = sealed;
            r_identical = identical }
        in
        Printf.printf
          "  every %.3fs: plain %s, run %s, attributed %+.2f%% = %.3f us/req \
           (A/B median %+.1f%%), %d records / %d snapshots, resume %s \
           replaying %d events (%d sealed), identical=%b\n\
           %!"
          interval (Util.time_str plain_s) (Util.time_str run_s)
          (100.0 *. r.r_overhead) r.r_us_per_request
          (100.0 *. r.r_ab_overhead)
          records snapshots (Util.time_str resume_s) r.r_replayed sealed
          identical;
        r)
      intervals
  in
  let plain_s = !global_plain in

  print_newline ();
  Util.table
    ~cols:
      [ "snapshot every"; "run"; "overhead"; "us/req"; "A/B"; "records"; "journal";
        "snapshots"; "snap KiB"; "resume"; "replayed" ]
    (List.map
       (fun r ->
         [ Printf.sprintf "%.3fs" r.r_interval_s; Util.time_str r.r_run_s;
           Printf.sprintf "%+.2f%%" (100.0 *. r.r_overhead);
           Printf.sprintf "%.3f" r.r_us_per_request;
           Printf.sprintf "%+.1f%%" (100.0 *. r.r_ab_overhead);
           string_of_int r.r_records;
           Printf.sprintf "%.0f KiB" r.r_journal_kib;
           string_of_int r.r_snapshots;
           Printf.sprintf "%.0f" r.r_snapshot_kib;
           Util.time_str r.r_resume_s; string_of_int r.r_replayed ])
       rows);

  (* ---- verdict ---- *)
  (* the gate reads the widest interval: that is the configuration where
     journaling itself (not snapshot serialization) dominates, i.e. the
     steady-state tax every fault-free run pays.  Quick CI runs at a
     fraction of e16 scale, where the per-event baseline is much lighter,
     so they only sanity-bound the fraction.  The absolute budget, 1 µs
     of recovery work per request, is ~5% of the ~22 µs a plain e16-scale
     request costs on the 2-CPU reference VM; a relative gate alone could
     pass by slowing the denominator. *)
  let overhead_budget = if quick then 0.5 else 0.05 in
  let us_budget = if quick then None else Some 1.0 in
  let steady =
    List.fold_left
      (fun acc r -> if r.r_interval_s > acc.r_interval_s then r else acc)
      (List.hd rows) rows
  in
  let overhead_ok = steady.r_overhead < overhead_budget in
  let us_ok =
    match us_budget with
    | Some b -> steady.r_us_per_request < b
    | None -> true
  in
  let identity_ok = List.for_all (fun r -> r.r_identical) rows in
  (* resume re-derives every chain record the crashed run left on disk,
     so it verifies exactly the events those records sealed *)
  let replay_ok = List.for_all (fun r -> r.r_replayed = r.r_sealed) rows in
  let passed = overhead_ok && us_ok && identity_ok && replay_ok in
  let json =
    Json.Obj
      [ ("shards", Json.int shards); ("rate_rps", Json.Num rate);
        ("horizon_s", Json.Num horizon); ("unjournaled_s", Json.Num plain_s);
        ("sweep", Json.Arr (List.map row_json rows));
        ("steady_state_overhead_frac", Json.Num steady.r_overhead);
        ("overhead_budget", Json.Num overhead_budget);
        ("recovery_us_per_request", Json.Num steady.r_us_per_request);
        ("recovery_us_per_request_budget",
         match us_budget with Some b -> Json.Num b | None -> Json.Null);
        ("byte_identity", Json.Bool identity_ok);
        ("replay_covers_journal", Json.Bool replay_ok);
        ("quick", Json.Bool quick);
        ("passed", Json.Bool passed) ]
  in
  Util.write_bench ~file:"BENCH_e19.json" ~passed json
    ~expected:
      (Printf.sprintf
         "Expected shape: journaling + snapshotting tax the fault-free run by\n\
          a few percent (gated <%.0f%%, and <1 us of recovery work per request\n\
          in the full sweep), anchor snapshots cost under a KiB at\n\
          every interval, resume replays the whole journal prefix (so its\n\
          time does not fall with a shorter interval), and every resumed\n\
          report is byte-identical to the uninterrupted same-seed run.\n"
         (100.0 *. overhead_budget))
    "E19 FAILED: overhead_ok=%b (%.3f at %.3fs interval) us_ok=%b (%.3f \
     us/request) identity_ok=%b replay_ok=%b"
    overhead_ok steady.r_overhead steady.r_interval_s us_ok
    steady.r_us_per_request identity_ok replay_ok
