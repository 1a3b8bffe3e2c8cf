(* Tests for everest_recovery and the crash-consistent checkpoint/restore
   paths built on it: the token codec, the versioned snapshot envelope,
   write-ahead journal segments (including torn tails), the on-disk store
   (fingerprint checks, snapshot fallback), and the headline invariant —
   a run killed at a random journal point and resumed produces reports
   byte-identical to the uninterrupted same-seed run, for both the
   serving fabric and the workflow executor (journaled re-execution from
   t=0 with snapshot anchors, one replay module for both). *)

module Codec = Everest_recovery.Codec
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

(* ---- codec ---------------------------------------------------------------- *)

let test_codec_roundtrip () =
  let w = Codec.writer () in
  Codec.int w 0;
  Codec.int w (-42);
  Codec.int w max_int;
  Codec.float w 0.0;
  Codec.float w (1.0 /. 3.0);
  Codec.float w (-1.7976931348623157e308);
  Codec.float w 5e-324;
  Codec.bool w true;
  Codec.bool w false;
  List.iter (Codec.str w)
    [ ""; "%"; "plain"; "a b"; "line\nbreak"; "\x00\xff\x7f~"; "100%" ];
  Codec.list w [ 1; 2; 3 ] ~item:Codec.int;
  Codec.assoc_floats w [ ("size", 1024.0); ("alpha", 0.5) ];
  let r = Codec.reader (Codec.contents w) in
  checki "int 0" 0 (Codec.r_int r);
  checki "int neg" (-42) (Codec.r_int r);
  checki "int max" max_int (Codec.r_int r);
  checkb "float 0" true (Codec.r_float r = 0.0);
  checkb "float third" true (Codec.r_float r = 1.0 /. 3.0);
  checkb "float -max" true (Codec.r_float r = -1.7976931348623157e308);
  checkb "float denormal" true (Codec.r_float r = 5e-324);
  checkb "bool t" true (Codec.r_bool r);
  checkb "bool f" false (Codec.r_bool r);
  List.iter
    (fun s -> checks "str" s (Codec.r_str r))
    [ ""; "%"; "plain"; "a b"; "line\nbreak"; "\x00\xff\x7f~"; "100%" ];
  checkb "list" true (Codec.r_list r ~item:Codec.r_int = [ 1; 2; 3 ]);
  checkb "assoc" true
    (Codec.r_assoc_floats r = [ ("size", 1024.0); ("alpha", 0.5) ]);
  checkb "at end" true (Codec.at_end r)

let test_codec_is_deterministic () =
  let enc () =
    let w = Codec.writer () in
    Codec.float w (Float.atan 1.0);
    Codec.str w "x%y z";
    Codec.contents w
  in
  checks "same bytes" (enc ()) (enc ())

let test_codec_rejects_garbage () =
  checkb "bad int" true
    (match Codec.r_int (Codec.reader "nope") with
    | exception Codec.Decode _ -> true
    | _ -> false);
  checkb "truncated" true
    (match
       let r = Codec.reader "5" in
       let _ = Codec.r_int r in
       Codec.r_int r
     with
    | exception Codec.Decode _ -> true
    | _ -> false)

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
  | Error (Snapshot.Version_skew { found = 9; expected = 1 }) -> ()
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
  let journaled, records = fabric_baseline ~dir:(tmp_dir "transparent") config in
  checks "recovery on/off identical" plain journaled;
  checkb "journal non-trivial" true (records > 100)

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
      let r = Codec.reader body in
      let count = Codec.r_int r in
      let count, digest = tamper (count, Codec.r_str r) in
      let w = Codec.writer () in
      Codec.int w count;
      Codec.str w digest;
      write_file snap (Snapshot.encode (Codec.contents w));
      checkb what true (diverges dir))
    [ ("anchor digest differs", fun (c, d) -> (c, d ^ " 1"));
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
  checki "one record per task" 30 records;
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
        after (Checkpoint.replayed ck))
    [ 1; 14; records - 1 ]

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
      (try ignore (exec_run ~seed ~checkpoint:(Checkpoint.create ~store ~every:5) ())
       with Journal.Crashed -> ());
      Store.close store;
      let store = Store.open_store ~dir ~fingerprint:"exec" () in
      let ck = Checkpoint.resume ~store ~every:5 in
      let resumed = render_stats (exec_run ~seed ~checkpoint:ck ()) in
      Store.close store;
      String.equal base resumed)

let test_executor_replay_detects_divergence () =
  (* resume under a different workload: replay must fault, not produce a
     quietly different report *)
  let dir = tmp_dir "exec-diverge" in
  let store = Store.open_store ~fresh:true ~dir ~fingerprint:"exec" () in
  Store.arm_crash store ~after_records:10;
  (try ignore (exec_run ~seed:5 ~checkpoint:(Checkpoint.create ~store ~every:7) ())
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
    [ ( "codec",
        [ Alcotest.test_case "round-trip" `Quick test_codec_roundtrip;
          Alcotest.test_case "deterministic" `Quick test_codec_is_deterministic;
          Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage
        ] );
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
            test_journal_heals_torn_tail ] );
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
