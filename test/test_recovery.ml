(* Tests for everest_recovery and the crash-consistent checkpoint/restore
   paths built on it: the replay digest, the versioned snapshot envelope,
   journal segments (torn tails, foreign versions), the on-disk store
   (fingerprint checks, snapshot fallback), and the headline invariant —
   a run killed at a random journal point and resumed produces reports
   byte-identical to the uninterrupted same-seed run, for both the
   serving fabric and the workflow executor (journaled re-execution from
   t=0 with snapshot anchors, one replay module for both). *)

module Replay = Everest_recovery.Replay
module Snapshot = Everest_recovery.Snapshot
module Journal = Everest_recovery.Journal
module Store = Everest_recovery.Store
module Fabric = Everest_serving.Fabric
module Workload = Everest_serving.Workload
module Faults = Everest_resilience.Faults
module Metrics = Everest_telemetry.Metrics
module Watch = Everest_watch.Watch
module Rules = Everest_watch.Rules
module Executor = Everest_workflow.Executor
module Checkpoint = Everest_workflow.Checkpoint
module Dag = Everest_workflow.Dag
module Scheduler = Everest_workflow.Scheduler
module Cluster = Everest_platform.Cluster

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let tmp_dir name =
  Filename.concat (Filename.get_temp_dir_name ()) ("everest-recovery-" ^ name)

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

(* Chain records are "<first event id> <event count> <digest>". *)
let chain_records dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".ejrnl")
  |> List.sort compare
  |> List.concat_map (fun f ->
         (Journal.read_segment (Filename.concat dir f)).Journal.sg_records)

let chain_events records =
  List.fold_left
    (fun acc r -> acc + int_of_string (List.nth (String.split_on_char ' ' r) 1))
    0 records

(* ---- digest --------------------------------------------------------------- *)

let digest_of f =
  let d = Replay.digest () in
  f d;
  Replay.to_hex d

let test_digest_separates_fields () =
  let base d =
    Replay.mix_int d 7;
    Replay.mix_float d 0.25;
    Replay.mix_string d "acme"
  in
  checks "deterministic" (digest_of base) (digest_of base);
  checki "16 hex digits" 16 (String.length (digest_of base));
  List.iter
    (fun (what, f) ->
      checkb what true (not (String.equal (digest_of base) (digest_of f))))
    [ ("int", fun d -> Replay.mix_int d 8; Replay.mix_float d 0.25;
                       Replay.mix_string d "acme");
      ("float", fun d -> Replay.mix_int d 7; Replay.mix_float d 0.2500001;
                         Replay.mix_string d "acme");
      ("string", fun d -> Replay.mix_int d 7; Replay.mix_float d 0.25;
                          Replay.mix_string d "acmf");
      ("order", fun d -> Replay.mix_float d 0.25; Replay.mix_int d 7;
                         Replay.mix_string d "acme") ];
  let strings a b d = Replay.mix_string d a; Replay.mix_string d b in
  checkb "string boundaries" true
    (digest_of (strings "ab" "c") <> digest_of (strings "a" "bc"));
  checkb "signed zero" true
    (digest_of (fun d -> Replay.mix_float d 0.0)
    <> digest_of (fun d -> Replay.mix_float d (-0.0)));
  checkb "float sign bit" true
    (digest_of (fun d -> Replay.mix_float d 1.5)
    <> digest_of (fun d -> Replay.mix_float d (-1.5)));
  let distinct xs = List.length (List.sort_uniq compare xs) = List.length xs in
  checkb "no collisions over 10^4 ints" true
    (distinct (List.init 10_000 (fun i -> digest_of (fun d -> Replay.mix_int d i))));
  checkb "no collisions over 10^4 event times" true
    (distinct
       (List.init 10_000 (fun i ->
            digest_of (fun d -> Replay.mix_float d (float_of_int i *. 1e-4)))))

(* The digest runs once per journaled event, so it must not allocate.
   The floats sit boxed in tuples, as they do in the engines' records (a
   float read out of a flat float array would be boxed to pass it). *)
let test_digest_does_not_allocate () =
  let d = Replay.digest () in
  let fields =
    [| (0.0, "acme"); (1.5, "mm"); (-3.25e-7, "hw"); (Float.infinity, "") |]
  in
  let before = Gc.minor_words () in
  for i = 1 to 100_000 do
    let f, s = Array.unsafe_get fields (i land 3) in
    Replay.mix_int d i;
    Replay.mix_float d f;
    Replay.mix_string d s
  done;
  let words = Gc.minor_words () -. before in
  checkb "changed" true (Replay.to_hex d <> digest_of ignore);
  Alcotest.check (Alcotest.float 0.0) "minor words" 0.0 words

(* ---- snapshot envelope ---------------------------------------------------- *)

let test_snapshot_roundtrip () =
  let body = "state body \n with % bytes \x00\xff" in
  match Snapshot.decode (Snapshot.encode body) with
  | Ok got -> checks "body back" body got
  | Error e -> Alcotest.fail (Snapshot.error_to_string e)

let test_snapshot_detects_bitflip () =
  let raw = Snapshot.encode "some serious state" in
  let b = Bytes.of_string raw in
  let off = Bytes.length b - 3 in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x40));
  match Snapshot.decode (Bytes.to_string b) with
  | Error (Snapshot.Corrupt _) -> ()
  | Ok _ -> Alcotest.fail "bit-flip accepted"
  | Error e -> Alcotest.fail ("wrong error: " ^ Snapshot.error_to_string e)

let test_snapshot_detects_truncation () =
  let raw = Snapshot.encode "some serious state" in
  match Snapshot.decode (String.sub raw 0 (String.length raw - 5)) with
  | Error (Snapshot.Truncated _) -> ()
  | Ok _ -> Alcotest.fail "truncation accepted"
  | Error e -> Alcotest.fail ("wrong error: " ^ Snapshot.error_to_string e)

let test_snapshot_detects_version_skew () =
  let raw = Snapshot.encode "state" in
  let skewed =
    "EVEREST-SNAP v9"
    ^ String.sub raw 15 (String.length raw - 15)
  in
  match Snapshot.decode skewed with
  | Error (Snapshot.Version_skew { found = 9; expected = 2 }) -> ()
  | Ok _ -> Alcotest.fail "version skew accepted"
  | Error e -> Alcotest.fail ("wrong error: " ^ Snapshot.error_to_string e)

(* ---- journal -------------------------------------------------------------- *)

let test_journal_record_roundtrip () =
  let payload = "17 0x1.91eb851eb851fp+1 A 42" in
  match Journal.decode_record (String.trim (Journal.encode_record payload)) with
  | Some got -> checks "payload back" payload got
  | None -> Alcotest.fail "record did not decode"

let test_journal_heals_torn_tail () =
  let dir = tmp_dir "torn" in
  let store = Store.open_store ~fresh:true ~dir ~fingerprint:"fp" () in
  Store.write_snapshot store ~index:0 "state-zero";
  Store.append store "rec-one";
  Store.append store "rec-two";
  Store.close store;
  (* simulate a crash mid-write: a half-record with no checksum *)
  let seg = Filename.concat dir "journal-000000.ejrnl" in
  write_file seg (read_file seg ^ "rec-three #ab");
  let store = Store.open_store ~dir ~fingerprint:"fp" () in
  let plan = Store.plan_resume store in
  checkb "torn detected" true plan.Store.r_torn;
  checkb "valid prefix kept" true (plan.Store.r_tail = [ "rec-one"; "rec-two" ]);
  Store.append store "rec-three";
  Store.close store;
  (* after healing + append the segment reads back clean *)
  let seg2 = Journal.read_segment seg in
  checkb "healed" false seg2.Journal.sg_torn;
  checkb "records" true
    (seg2.Journal.sg_records = [ "rec-one"; "rec-two"; "rec-three" ])

(* A segment whose header names another journal version is foreign data,
   not a torn write: resume refuses it with [Version_skew] and leaves the
   bytes as they were. *)
let test_journal_refuses_foreign_version () =
  let dir = tmp_dir "foreign" in
  let store = Store.open_store ~fresh:true ~dir ~fingerprint:"fp" () in
  Store.write_snapshot store ~index:0 "0 00";
  Store.append store "rec-one";
  Store.close store;
  let seg = Filename.concat dir "journal-000000.ejrnl" in
  let foreign = "EVEREST-JRNL v9\nsomebody else's record #00000000\n" in
  write_file seg foreign;
  let store = Store.open_store ~dir ~fingerprint:"fp" () in
  checkb "version skew" true
    (match Store.plan_resume store with
    | exception Store.Recovery_error (Store.Version_skew { found = 9; expected = 2 })
      -> true
    | _ -> false);
  Store.close store;
  checks "segment untouched" foreign (read_file seg)

(* Only a crash mid-append tears a tail, and only the newest segment is
   appended to: a torn earlier segment is corruption, refused untouched. *)
let test_journal_refuses_torn_earlier_segment () =
  let dir = tmp_dir "torn-early" in
  let store = Store.open_store ~fresh:true ~dir ~fingerprint:"fp" () in
  Store.write_snapshot store ~index:0 "0 00";
  Store.append store "a";
  Store.write_snapshot store ~index:1 "1 00";
  Store.append store "b";
  Store.close store;
  let seg0 = Filename.concat dir "journal-000000.ejrnl" in
  let torn = read_file seg0 ^ "half a rec" in
  write_file seg0 torn;
  let store = Store.open_store ~dir ~fingerprint:"fp" () in
  checkb "corrupt" true
    (match Store.plan_resume store with
    | exception Store.Recovery_error (Store.Corrupt _) -> true
    | _ -> false);
  Store.close store;
  checks "segment untouched" torn (read_file seg0)

(* ---- store ---------------------------------------------------------------- *)

let test_store_rejects_config_mismatch () =
  let dir = tmp_dir "fp" in
  let store = Store.open_store ~fresh:true ~dir ~fingerprint:"alpha" () in
  Store.close store;
  checkb "mismatch rejected" true
    (match Store.open_store ~dir ~fingerprint:"beta" () with
    | exception Store.Recovery_error (Store.Config_mismatch _) -> true
    | _ -> false);
  (* same fingerprint reopens fine *)
  Store.close (Store.open_store ~dir ~fingerprint:"alpha" ())

let test_store_no_snapshot () =
  let dir = tmp_dir "empty" in
  let store = Store.open_store ~fresh:true ~dir ~fingerprint:"fp" () in
  checkb "no snapshot" true
    (match Store.plan_resume store with
    | exception Store.Recovery_error Store.No_snapshot -> true
    | _ -> false);
  Store.close store

let test_store_falls_back_over_corrupt_snapshot () =
  let dir = tmp_dir "fallback" in
  let store = Store.open_store ~fresh:true ~dir ~fingerprint:"fp" () in
  Store.write_snapshot store ~index:0 "state-zero";
  Store.append store "a";
  Store.append store "b";
  Store.write_snapshot store ~index:1 "state-one";
  Store.append store "c";
  Store.close store;
  (* flip a body byte of the newest snapshot *)
  let snap1 = Filename.concat dir "snap-000001.esnap" in
  let b = Bytes.of_string (read_file snap1) in
  Bytes.set b (Bytes.length b - 2) 'X';
  write_file snap1 (Bytes.to_string b);
  let store = Store.open_store ~dir ~fingerprint:"fp" () in
  let plan = Store.plan_resume store in
  checki "fell back to 0" 0 plan.Store.r_index;
  checki "one fallback" 1 plan.Store.r_fallbacks;
  checks "anchor body" "state-zero" plan.Store.r_state;
  (* the tail re-replays both segments *)
  checkb "tail spans segments" true (plan.Store.r_tail = [ "a"; "b"; "c" ]);
  (* the next snapshot index clears the rejected one *)
  checki "next index" 2 plan.Store.r_next_snapshot_index;
  Store.close store

(* ---- fabric crash/restore ------------------------------------------------- *)

let tenants =
  [ Workload.open_tenant ~diurnal_amplitude:0.3
      ~features:(fun seq -> [ ("size", float_of_int (1024 + (64 * (seq mod 4)))) ])
      ~name:"acme" ~kernel:"mm" ~rate_rps:60.0 ();
    Workload.closed_tenant ~name:"globex" ~kernel:"mm" ~users:4 ~think_s:0.05 () ]

let horizon = 1.2

let fabric_config ~seed =
  { (Fabric.default_config ~n_shards:2) with
    Fabric.seed;
    faults = Faults.plan ~seed:5 ~transient_prob:0.05 ~fpga_transient_prob:0.1 () }

let render r =
  Fabric.render_log r ^ "\n" ^ Fabric.render_slos r ^ "\n"
  ^ Fabric.render_summary r

let fabric_run ?recovery config =
  let registry = Metrics.create_registry () in
  Fabric.run ~registry ?recovery config ~deploy:(Fabric.demo_deploy ())
    ~tenants ~horizon

(* Full run with recovery on; returns the rendering and the journal size. *)
let fabric_baseline ?(every = 0.3) ~dir config =
  let fp = Fabric.fingerprint config ~tenants ~horizon in
  let store = Store.open_store ~fresh:true ~dir ~fingerprint:fp () in
  let recovery = { Fabric.rv_store = store; rv_snapshot_every_s = every } in
  let r = fabric_run ~recovery config in
  let records = store.Store.records_written in
  Store.close store;
  (render r, records)

(* Run with a crash armed after [after] journal records; the store is
   left as the crash left it. *)
let fabric_crash ?(every = 0.3) ~dir config ~after =
  let fp = Fabric.fingerprint config ~tenants ~horizon in
  let store = Store.open_store ~fresh:true ~dir ~fingerprint:fp () in
  Store.arm_crash store ~after_records:after;
  let recovery = { Fabric.rv_store = store; rv_snapshot_every_s = every } in
  (try
     ignore (fabric_run ~recovery config);
     Alcotest.fail "armed crash did not fire"
   with Journal.Crashed -> ());
  Store.close store

let fabric_resume ?(every = 0.3) ~dir config =
  let fp = Fabric.fingerprint config ~tenants ~horizon in
  let store = Store.open_store ~dir ~fingerprint:fp () in
  let recovery = { Fabric.rv_store = store; rv_snapshot_every_s = every } in
  let registry = Metrics.create_registry () in
  Fun.protect
    ~finally:(fun () -> Store.close store)
    (fun () ->
      let r, report =
        Fabric.resume ~registry ~recovery config
          ~deploy:(Fabric.demo_deploy ()) ~tenants ~horizon
      in
      (render r, report))

let fabric_crash_resume ?every ~dir config ~after =
  fabric_crash ?every ~dir config ~after;
  fabric_resume ?every ~dir config

let test_fabric_journaling_is_transparent () =
  let config = fabric_config ~seed:7 in
  let plain = render (fabric_run config) in
  let dir = tmp_dir "transparent" in
  let journaled, records = fabric_baseline ~dir config in
  checks "recovery on/off identical" plain journaled;
  let chain = chain_records dir in
  checki "records written" records (List.length chain);
  checkb "several chain records" true (records > 1);
  checkb "journal non-trivial" true (chain_events chain > 100);
  checkb "one record per chunk or boundary" true
    (records < chain_events chain / Replay.chunk_events + 20);
  checkb "no chunk longer than chunk_events" true
    (List.for_all
       (fun r -> chain_events [ r ] <= Replay.chunk_events)
       chain)

let test_fabric_crash_resume_byte_identical () =
  let config = fabric_config ~seed:7 in
  let base, records = fabric_baseline ~dir:(tmp_dir "fab-base") config in
  List.iter
    (fun after ->
      let resumed, report =
        fabric_crash_resume ~dir:(tmp_dir "fab-crash") config ~after
      in
      checks
        (Printf.sprintf "crash@%d byte-identical" after)
        base resumed;
      checkb "replayed tail" true (report.Fabric.rr_replayed >= 0);
      checkb "no fallbacks" true (report.Fabric.rr_fallbacks = 0))
    [ 1; records / 3; records - 1 ]

(* Random shard counts, anchor intervals from 0.05 s to beyond the
   horizon (the genesis anchor is then the only one) and crash points. *)
let prop_fabric_crash_point_irrelevant =
  let gen =
    QCheck.Gen.(
      quad (int_range 1 1000) (int_range 1 4)
        (frequency
           [ (3, float_range 0.05 1.0);
             (1, float_range (horizon +. 0.5) (4.0 *. horizon)) ])
        (int_range 0 1_000_000))
  in
  let print (seed, shards, every, crash_raw) =
    Printf.sprintf "seed=%d shards=%d every=%g crash=%d" seed shards every
      crash_raw
  in
  QCheck.Test.make ~count:32
    ~name:"fabric: resume from any crash point is byte-identical"
    (QCheck.make ~print gen)
    (fun (seed, shards, every, crash_raw) ->
      let config = { (fabric_config ~seed) with Fabric.n_shards = shards } in
      let base, records =
        fabric_baseline ~every ~dir:(tmp_dir "fab-qbase") config
      in
      QCheck.assume (records > 1);
      let after = 1 + (crash_raw mod (records - 1)) in
      let resumed, _ =
        fabric_crash_resume ~every ~dir:(tmp_dir "fab-qcrash") config ~after
      in
      String.equal base resumed)

let newest_snap dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".esnap")
  |> List.sort compare |> List.rev |> List.hd |> Filename.concat dir

let corrupt_flip path =
  let b = Bytes.of_string (read_file path) in
  let off = Bytes.length b - 7 in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x01));
  write_file path (Bytes.to_string b)

let corrupt_truncate path =
  let s = read_file path in
  write_file path (String.sub s 0 (String.length s / 2))

let corrupt_version path =
  let s = read_file path in
  write_file path ("EVEREST-SNAP v9" ^ String.sub s 15 (String.length s - 15))

let test_fabric_falls_back_over_corrupt_snapshot () =
  let config = fabric_config ~seed:11 in
  let fp = Fabric.fingerprint config ~tenants ~horizon in
  List.iter
    (fun (kind, corrupt) ->
      let dir = tmp_dir "fab-corrupt" in
      let base, records = fabric_baseline ~dir config in
      checkb "has snapshots beyond genesis" true (records > 0);
      corrupt (newest_snap dir);
      let store = Store.open_store ~dir ~fingerprint:fp () in
      let recovery = { Fabric.rv_store = store; rv_snapshot_every_s = 0.3 } in
      let registry = Metrics.create_registry () in
      let r, report =
        Fabric.resume ~registry ~recovery config
          ~deploy:(Fabric.demo_deploy ()) ~tenants ~horizon
      in
      Store.close store;
      checks (kind ^ ": still byte-identical") base (render r);
      checkb (kind ^ ": fell back") true (report.Fabric.rr_fallbacks >= 1);
      checkb (kind ^ ": reported why") true (report.Fabric.rr_skipped <> []))
    [ ("bit-flip", corrupt_flip); ("truncation", corrupt_truncate);
      ("version-skew", corrupt_version) ]

let test_fabric_all_snapshots_corrupt () =
  let config = fabric_config ~seed:13 in
  let fp = Fabric.fingerprint config ~tenants ~horizon in
  let dir = tmp_dir "fab-allcorrupt" in
  let _ = fabric_baseline ~dir config in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".esnap")
  |> List.iter (fun f -> corrupt_flip (Filename.concat dir f));
  let store = Store.open_store ~dir ~fingerprint:fp () in
  let recovery = { Fabric.rv_store = store; rv_snapshot_every_s = 0.3 } in
  checkb "typed refusal" true
    (match
       Fabric.resume ~recovery config ~deploy:(Fabric.demo_deploy ()) ~tenants
         ~horizon
     with
    | exception Store.Recovery_error Store.No_snapshot -> true
    | _ -> false);
  Store.close store

(* Replay must stop with a typed divergence, as it does on a journal
   mismatch, whenever the store does not describe this run: an anchor
   whose envelope is valid but whose digest differs, an anchor at a
   boundary the run never reaches, or journal records past the end of
   the run. *)
let test_fabric_replay_detects_divergence () =
  let config = fabric_config ~seed:7 in
  let diverges dir =
    match fabric_resume ~dir config with
    | exception Store.Recovery_error (Store.Replay_divergence _) -> true
    | _ -> false
  in
  let _, records = fabric_baseline ~dir:(tmp_dir "fab-div-base") config in
  List.iter
    (fun (what, tamper) ->
      let dir = tmp_dir "fab-div" in
      fabric_crash ~dir config ~after:(records / 2);
      let snap = newest_snap dir in
      let body =
        match Snapshot.decode (read_file snap) with
        | Ok body -> body
        | Error e -> Alcotest.fail (Snapshot.error_to_string e)
      in
      let count, digest =
        match String.split_on_char ' ' body with
        | [ count; digest ] -> tamper (int_of_string count, digest)
        | _ -> Alcotest.failf "anchor body %S" body
      in
      write_file snap
        (Snapshot.encode (Printf.sprintf "%d %s" count digest));
      checkb what true (diverges dir))
    [ ("anchor digest differs", fun (c, d) -> (c, "0" ^ d));
      ("anchor boundary never reached", fun (c, d) -> (c + 1000, d)) ];
  let dir = tmp_dir "fab-div-extra" in
  ignore (fabric_baseline ~dir config);
  let seg =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ejrnl")
    |> List.sort compare |> List.rev |> List.hd |> Filename.concat dir
  in
  write_file seg (read_file seg ^ Journal.encode_record "0 extra");
  checkb "journal left over" true (diverges dir)

(* Every chain record seals the run's digest so far, so a tampered
   record in the middle of the journal — reframed with a valid checksum,
   so only replay can tell — stops the resumed run at exactly that
   chunk, and the divergence names its first event id. *)
let test_fabric_replay_detects_tampered_chain_record () =
  let config = fabric_config ~seed:7 in
  let _, records = fabric_baseline ~dir:(tmp_dir "fab-chain-base") config in
  let dir = tmp_dir "fab-chain" in
  fabric_crash ~dir config ~after:(records - 1);
  let chain = chain_records dir in
  checkb "several chain records" true (List.length chain >= 3);
  let victim = List.nth chain (List.length chain / 2) in
  let first_id, tampered =
    match String.split_on_char ' ' victim with
    | [ first; count; digest ] ->
        let flipped = if digest.[15] = '0' then '1' else '0' in
        ( first,
          String.concat " "
            [ first; count; String.sub digest 0 15 ^ String.make 1 flipped ] )
    | _ -> Alcotest.failf "chain record %S" victim
  in
  let line = Journal.encode_record victim in
  let seg =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ejrnl")
    |> List.map (Filename.concat dir)
    |> List.find (fun f ->
           Astring.String.is_infix ~affix:line (read_file f))
  in
  write_file seg
    (Astring.String.cuts ~sep:line (read_file seg)
    |> String.concat (Journal.encode_record tampered));
  match fabric_resume ~dir config with
  | exception
      Store.Recovery_error (Store.Replay_divergence { expected; got }) ->
      checks "journal side is the tampered record" tampered expected;
      checks "re-derived side is the original record" victim got;
      let names_first s =
        String.starts_with ~prefix:(first_id ^ " ") s
      in
      checkb "both name the chunk's first event id" true
        (names_first expected && names_first got)
  | _ -> Alcotest.fail "tampered chain record not detected"

(* A store written by the codec-era format (journal and snapshot
   version 1) must fail loudly, never be replayed as if it were torn. *)
let test_fabric_refuses_v1_store () =
  let config = fabric_config ~seed:7 in
  let _, records = fabric_baseline ~dir:(tmp_dir "fab-v1-base") config in
  let dir = tmp_dir "fab-v1" in
  fabric_crash ~dir config ~after:(records / 2);
  let set_version ~magic path =
    let s = read_file path in
    let nl = String.index s '\n' in
    write_file path
      (magic ^ " v1" ^ String.sub s nl (String.length s - nl))
  in
  Sys.readdir dir |> Array.to_list
  |> List.iter (fun f ->
         let path = Filename.concat dir f in
         if Filename.check_suffix f ".ejrnl" then
           set_version ~magic:"EVEREST-JRNL" path
         else if Filename.check_suffix f ".esnap" then
           set_version ~magic:"EVEREST-SNAP" path);
  let before = List.map (fun f -> read_file (Filename.concat dir f))
      (List.sort compare (Array.to_list (Sys.readdir dir))) in
  checkb "version skew" true
    (match fabric_resume ~dir config with
    | exception
        Store.Recovery_error (Store.Version_skew { found = 1; expected = 2 })
      -> true
    | _ -> false);
  checkb "store untouched" true
    (before = List.map (fun f -> read_file (Filename.concat dir f))
       (List.sort compare (Array.to_list (Sys.readdir dir))))

(* A resumed run re-executes from t=0, so a watch attached to it sees the
   whole run: same scrape ticks, samples and alerts, and the same
   serving counters in the registry, as the uninterrupted watched run. *)
let test_fabric_resumed_watch_sees_whole_run () =
  let tenants =
    [ Workload.open_tenant ~name:"acme" ~kernel:"mm" ~rate_rps:400.0 ();
      Workload.closed_tenant ~name:"globex" ~kernel:"mm" ~users:4
        ~think_s:0.05 () ]
  and horizon = 1.0 in
  let config = fabric_config ~seed:7 in
  let fp = Fabric.fingerprint config ~tenants ~horizon in
  let watched ~store run =
    let registry = Metrics.create_registry () in
    let watch =
      Watch.create
        ~rules:
          [ Rules.alert "in-flight"
              (Rules.Last ("fabric:outstanding", []))
              (Rules.Above 0.0) ]
        ()
    in
    let recovery = { Fabric.rv_store = store; rv_snapshot_every_s = 0.2 } in
    run ~registry ~watch ~recovery;
    let counters =
      List.filter_map
        (fun (m : Metrics.metric) ->
          match m.Metrics.value with
          | Metrics.Counter c
            when String.starts_with ~prefix:"serving_" m.Metrics.mname ->
              Some (m.Metrics.mname, m.Metrics.labels, !c)
          | _ -> None)
        (Metrics.metrics registry)
    in
    (Watch.ticks watch, Watch.samples watch, Watch.alerts_total watch, counters)
  in
  let fabric_run ~registry ~watch ~recovery =
    ignore
      (Fabric.run ~registry ~watch ~recovery config
         ~deploy:(Fabric.demo_deploy ()) ~tenants ~horizon)
  in
  let open_fresh dir = Store.open_store ~fresh:true ~dir ~fingerprint:fp () in
  let base_store = open_fresh (tmp_dir "fab-watch-base") in
  let ticks, samples, alerts, counters =
    watched ~store:base_store fabric_run
  in
  let records = base_store.Store.records_written in
  Store.close base_store;
  let dir = tmp_dir "fab-watch-crash" in
  let store = open_fresh dir in
  Store.arm_crash store ~after_records:(records / 2);
  (try
     ignore (watched ~store fabric_run);
     Alcotest.fail "armed crash did not fire"
   with Journal.Crashed -> ());
  Store.close store;
  let store = Store.open_store ~dir ~fingerprint:fp () in
  let ticks', samples', alerts', counters' =
    watched ~store (fun ~registry ~watch ~recovery ->
        ignore
          (Fabric.resume ~registry ~watch ~recovery config
             ~deploy:(Fabric.demo_deploy ()) ~tenants ~horizon))
  in
  Store.close store;
  checkb "watch ticked" true (ticks > 1);
  checkb "alerts fired" true (alerts > 0);
  checki "ticks" ticks ticks';
  checki "samples" samples samples';
  checki "alerts_total" alerts alerts';
  checkb "serving counters" true (counters = counters')

(* ---- executor crash/restore ----------------------------------------------- *)

let exec_faults =
  Faults.plan ~seed:3
    ~windows:[ { Faults.w_node = "p9"; w_down = 0.004; w_up = Some 0.02 } ]
    ~transient_prob:0.02 ()

let render_stats (s : Executor.stats) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "makespan=%.9f retries=%d timeouts=%d spec=%d recomp=%d bytes=%d xfers=%d\n"
       s.Executor.makespan s.Executor.retries s.Executor.timeouts
       s.Executor.speculative s.Executor.recomputed s.Executor.bytes_moved
       s.Executor.transfers);
  Array.iteri
    (fun i f -> Buffer.add_string buf (Printf.sprintf "%d=%.9f\n" i f))
    s.Executor.task_finish;
  List.iter
    (fun (n, k) -> Buffer.add_string buf (Printf.sprintf "%s:%d\n" n k))
    s.Executor.per_node_tasks;
  Buffer.contents buf

let exec_run ~seed ?checkpoint () =
  let d = Dag.layered ~seed ~layers:5 ~width:6 ~flops:1e9 ~bytes:1e6 () in
  let c = Cluster.everest_demonstrator () in
  let plan = Scheduler.heft c d in
  let registry = Metrics.create_registry () in
  Executor.execute ~faults:exec_faults ~registry ?checkpoint c plan

let test_executor_crash_resume_byte_identical () =
  let dir = tmp_dir "exec-base" in
  let store = Store.open_store ~fresh:true ~dir ~fingerprint:"exec" () in
  let base =
    render_stats (exec_run ~seed:5 ~checkpoint:(Checkpoint.create ~store ~every:7) ())
  in
  let records = store.Store.records_written in
  Store.close store;
  let chain = chain_records dir in
  checki "records written" records (List.length chain);
  checki "every task's completion in the chain" 30 (chain_events chain);
  List.iter
    (fun after ->
      let dir = tmp_dir "exec-crash" in
      let store = Store.open_store ~fresh:true ~dir ~fingerprint:"exec" () in
      Store.arm_crash store ~after_records:after;
      (try
         ignore (exec_run ~seed:5 ~checkpoint:(Checkpoint.create ~store ~every:7) ());
         Alcotest.fail "armed crash did not fire"
       with Journal.Crashed -> ());
      Store.close store;
      let store = Store.open_store ~dir ~fingerprint:"exec" () in
      let ck = Checkpoint.resume ~store ~every:7 in
      let resumed = render_stats (exec_run ~seed:5 ~checkpoint:ck ()) in
      Store.close store;
      checks (Printf.sprintf "crash@%d byte-identical" after) base resumed;
      checki
        (Printf.sprintf "crash@%d replayed whole prefix" after)
        (chain_events (List.filteri (fun i _ -> i < after) chain))
        (Checkpoint.replayed ck))
    [ 1; records / 2; records - 1 ]

let prop_executor_crash_point_irrelevant =
  QCheck.Test.make ~count:6
    ~name:"executor: resume from any crash point is byte-identical"
    QCheck.(pair (int_range 1 1000) (int_range 0 1_000_000))
    (fun (seed, crash_raw) ->
      let dir = tmp_dir "exec-qbase" in
      let store = Store.open_store ~fresh:true ~dir ~fingerprint:"exec" () in
      let base =
        render_stats
          (exec_run ~seed ~checkpoint:(Checkpoint.create ~store ~every:5) ())
      in
      let records = store.Store.records_written in
      Store.close store;
      QCheck.assume (records > 1);
      let after = 1 + (crash_raw mod (records - 1)) in
      let dir = tmp_dir "exec-qcrash" in
      let store = Store.open_store ~fresh:true ~dir ~fingerprint:"exec" () in
      Store.arm_crash store ~after_records:after;
      let crashed =
        match exec_run ~seed ~checkpoint:(Checkpoint.create ~store ~every:5) () with
        | _ -> false
        | exception Journal.Crashed -> true
      in
      Store.close store;
      let store = Store.open_store ~dir ~fingerprint:"exec" () in
      let ck = Checkpoint.resume ~store ~every:5 in
      let resumed = render_stats (exec_run ~seed ~checkpoint:ck ()) in
      Store.close store;
      crashed && String.equal base resumed)

let test_executor_replay_detects_divergence () =
  (* resume under a different workload: replay must fault, not produce a
     quietly different report *)
  let dir = tmp_dir "exec-diverge" in
  let store = Store.open_store ~fresh:true ~dir ~fingerprint:"exec" () in
  Store.arm_crash store ~after_records:2;
  (try
     ignore (exec_run ~seed:5 ~checkpoint:(Checkpoint.create ~store ~every:7) ());
     Alcotest.fail "armed crash did not fire"
   with Journal.Crashed -> ());
  Store.close store;
  let store = Store.open_store ~dir ~fingerprint:"exec" () in
  let ck = Checkpoint.resume ~store ~every:7 in
  checkb "divergence detected" true
    (match exec_run ~seed:6 ~checkpoint:ck () with
    | exception Store.Recovery_error (Store.Replay_divergence _) -> true
    | _ -> false);
  Store.close store

let () =
  Alcotest.run "everest_recovery"
    [ ( "digest",
        [ Alcotest.test_case "separates fields" `Quick
            test_digest_separates_fields;
          Alcotest.test_case "does not allocate" `Quick
            test_digest_does_not_allocate ] );
      ( "snapshot",
        [ Alcotest.test_case "round-trip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "bit-flip" `Quick test_snapshot_detects_bitflip;
          Alcotest.test_case "truncation" `Quick test_snapshot_detects_truncation;
          Alcotest.test_case "version skew" `Quick
            test_snapshot_detects_version_skew ] );
      ( "journal",
        [ Alcotest.test_case "record round-trip" `Quick
            test_journal_record_roundtrip;
          Alcotest.test_case "torn tail healed" `Quick
            test_journal_heals_torn_tail;
          Alcotest.test_case "foreign version refused" `Quick
            test_journal_refuses_foreign_version;
          Alcotest.test_case "torn earlier segment refused" `Quick
            test_journal_refuses_torn_earlier_segment ] );
      ( "store",
        [ Alcotest.test_case "config mismatch" `Quick
            test_store_rejects_config_mismatch;
          Alcotest.test_case "no snapshot" `Quick test_store_no_snapshot;
          Alcotest.test_case "snapshot fallback" `Quick
            test_store_falls_back_over_corrupt_snapshot ] );
      ( "fabric",
        [ Alcotest.test_case "journaling is transparent" `Quick
            test_fabric_journaling_is_transparent;
          Alcotest.test_case "crash/resume byte-identical" `Quick
            test_fabric_crash_resume_byte_identical;
          Alcotest.test_case "corrupt snapshot fallback" `Quick
            test_fabric_falls_back_over_corrupt_snapshot;
          Alcotest.test_case "all snapshots corrupt" `Quick
            test_fabric_all_snapshots_corrupt;
          Alcotest.test_case "replay detects divergence" `Quick
            test_fabric_replay_detects_divergence;
          Alcotest.test_case "replay detects a tampered chain record" `Quick
            test_fabric_replay_detects_tampered_chain_record;
          Alcotest.test_case "refuses a version-1 store" `Quick
            test_fabric_refuses_v1_store;
          Alcotest.test_case "resumed watch sees the whole run" `Quick
            test_fabric_resumed_watch_sees_whole_run;
          QCheck_alcotest.to_alcotest prop_fabric_crash_point_irrelevant ] );
      ( "executor",
        [ Alcotest.test_case "crash/resume byte-identical" `Quick
            test_executor_crash_resume_byte_identical;
          Alcotest.test_case "replay detects divergence" `Quick
            test_executor_replay_detects_divergence;
          QCheck_alcotest.to_alcotest prop_executor_crash_point_irrelevant ] )
    ]
