(* Deterministic simulation testing: the lib/dst harness itself, the
   determinism contract it relies on, and targeted fault coverage that the
   generated scenarios only hit probabilistically (log truncation vs.
   media restore, unique-violation rollback under a concurrent build). *)

open Oib_core
open Oib_dst
module Sched = Oib_sim.Sched
module Driver = Oib_workload.Driver
module Trace = Oib_obs.Trace
module Btree = Oib_btree.Btree
module Rid = Oib_util.Rid
module Ikey = Oib_util.Ikey
module Record = Oib_util.Record

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let setup ?(seed = 3) () =
  let ctx = Engine.create ~seed ~page_capacity:512 () in
  let _ = Catalog.create_table ctx.Ctx.catalog ctx.Ctx.pool ~table_id:1 in
  ctx

let check_clean ctx =
  Alcotest.(check (list string))
    "oracle clean" [] (Engine.consistency_errors ctx)

let phase ctx id = (Catalog.index ctx.Ctx.catalog id).Catalog.phase

(* Populate with distinct col-0 values (Driver.populate draws duplicates,
   which a unique build legitimately cancels on). *)
let populate_distinct ctx ~rows =
  let i = ref 0 in
  while !i < rows do
    let upto = min rows (!i + 64) in
    (match
       Engine.run_txn ctx (fun txn ->
           for j = !i to upto - 1 do
             ignore
               (Table_ops.insert ctx txn ~table:1
                  (Record.make
                     [|
                       Printf.sprintf "pk%06d" j; Printf.sprintf "s%04d" (j mod 89);
                     |]))
           done)
     with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "populate aborted");
    i := upto
  done

let build_to_ready ?(cfg = Ib.default_config Ib.Nsf) ?(unique = false) ctx =
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         Ib.build_index ctx cfg ~table:1
           { Ib.index_id = 10; key_cols = [ 0 ]; unique }));
  Sched.run ctx.Ctx.sched;
  Alcotest.(check bool) "build ready" true (phase ctx 10 = Catalog.Ready)

(* --- determinism regression: the contract lib/dst is built on --- *)

let traced_run seed =
  let buf = Buffer.create (1 lsl 16) in
  let tr = Trace.create () in
  Trace.add_jsonl_buffer_sink tr ~name:"capture" buf;
  let sc =
    Scenario.generate ~seed
    |> Scenario.override ~faults:[ Scenario.Crash_at 120 ]
  in
  let o = Runner.run ~trace:tr sc in
  (o, Buffer.contents buf)

let test_identical_traces () =
  (* two engines, same seed, same build + workload + crash plan: the JSONL
     event streams must match event for event *)
  let o1, t1 = traced_run 11 in
  let o2, t2 = traced_run 11 in
  Alcotest.(check bool) "runs clean" false
    (Runner.failed o1 || Runner.failed o2);
  Alcotest.(check bool) "crash actually taken" true (o1.Runner.incarnations >= 2);
  Alcotest.(check int) "same shape" o1.Runner.total_steps o2.Runner.total_steps;
  Alcotest.(check bool) "trace non-trivial" true (String.length t1 > 2000);
  Alcotest.(check string) "event-for-event identical" t1 t2

let test_seeds_diverge () =
  let _, t1 = traced_run 11 in
  let _, t2 = traced_run 12 in
  Alcotest.(check bool) "different seed, different trace" true (t1 <> t2)

(* --- truncate_log vs. crash and vs. media restore (footnote 8) --- *)

let test_truncate_then_crash () =
  let ctx = setup () in
  let _ = Driver.populate ctx ~table:1 ~rows:200 ~seed:5 in
  build_to_ready ctx;
  ignore (Engine.truncate_log ctx);
  (* post-truncation activity, then a crash: restart recovery must need
     nothing older than the truncation point *)
  let wcfg =
    { Driver.default with Driver.seed = 5; workers = 2; txns_per_worker = 6 }
  in
  let _ = Driver.spawn_workers ctx wcfg ~table:1 in
  Sched.run ctx.Ctx.sched;
  let ctx' = Engine.crash ctx in
  check_clean ctx';
  Alcotest.(check bool) "index survived" true (phase ctx' 10 = Catalog.Ready)

let test_truncate_forfeits_media_restore () =
  let ctx = setup ~seed:7 () in
  let _ = Driver.populate ctx ~table:1 ~rows:150 ~seed:7 in
  build_to_ready ctx;
  let stale = Engine.backup ctx in
  (* committed work past the backup, then truncation: the log no longer
     reaches back to the backup point, so the restore is forfeited *)
  let wcfg =
    { Driver.default with Driver.seed = 8; workers = 2; txns_per_worker = 5 }
  in
  let _ = Driver.spawn_workers ctx wcfg ~table:1 in
  Sched.run ctx.Ctx.sched;
  ignore (Engine.truncate_log ctx);
  (match Engine.media_restore ctx stale with
  | _ -> Alcotest.fail "media_restore accepted a forfeited backup"
  | exception Engine.Media_recovery_forfeited { backup_lsn; log_start } ->
    Alcotest.(check bool) "log starts past the backup" true
      (log_start > backup_lsn));
  (* loud, not corrupt: the pre-failure engine is untouched... *)
  check_clean ctx;
  (* ...and a fresh post-truncation backup restores fine *)
  let fresh = Engine.backup ctx in
  let _ = Driver.spawn_workers ctx wcfg ~table:1 in
  Sched.run ctx.Ctx.sched;
  let ctx' = Engine.media_restore ctx fresh in
  check_clean ctx';
  Alcotest.(check bool) "index restored" true (phase ctx' 10 = Catalog.Ready)

(* --- unique-violation rollback under a concurrent NSF build (§2.2.2) --- *)

let test_unique_violation_rollback_during_build () =
  let rows = 400 in
  let ctx = setup ~seed:13 () in
  populate_distinct ctx ~rows;
  let heap_before = List.length (Driver.live_rids ctx ~table:1) in
  let violations = ref 0 in
  let during_build = ref false in
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         Ib.build_index ctx (Ib.default_config Ib.Nsf) ~table:1
           { Ib.index_id = 10; key_cols = [ 0 ]; unique = true }));
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"dup-inserter" (fun () ->
         (* wait until the builder has indexed an early key, so the
            transaction's direct maintenance finds it Present while the
            build is still in flight *)
         let indexed () =
           match Catalog.index ctx.Ctx.catalog 10 with
           | info -> Btree.find_kv info.Catalog.tree "pk000005" <> []
           | exception Invalid_argument _ -> false
         in
         while not (indexed ()) do
           Sched.yield ctx.Ctx.sched
         done;
         (match phase ctx 10 with
         | Catalog.Nsf_building _ -> during_build := true
         | _ -> ());
         match
           Engine.run_txn ctx (fun txn ->
               ignore
                 (Table_ops.insert ctx txn ~table:1
                    (Record.make [| "pk000005"; "duplicate" |])))
         with
         | Ok () -> Alcotest.fail "duplicate insert committed"
         | Error (`Unique_violation (idx, kv)) ->
           Alcotest.(check int) "violating index" 10 idx;
           Alcotest.(check string) "violating key" "pk000005" kv;
           incr violations
         | Error `Deadlock -> ()));
  Sched.run ctx.Ctx.sched;
  Alcotest.(check bool) "violation raised" true (!violations = 1);
  Alcotest.(check bool) "while build in progress" true !during_build;
  (* the transaction rolled back completely: heap row gone again, and the
     finished index holds exactly one entry per original row *)
  Alcotest.(check int) "heap unchanged" heap_before
    (List.length (Driver.live_rids ctx ~table:1));
  Alcotest.(check bool) "build finished ready" true (phase ctx 10 = Catalog.Ready);
  Alcotest.(check int) "one entry per row" rows
    (Btree.present_count (Catalog.index ctx.Ctx.catalog 10).Catalog.tree);
  check_clean ctx

(* --- crash-only repros that once left a wrong index ---

   A restart in the scan stage regresses SF visibility to the sort
   checkpoint, so side-file entries already written above it are stale:
   the drain must skip them. Each line is the oib-fuzz repro of a failure
   (the key-order build resumes in RID order from the start). *)

let check_repro ~seed ~alg ~rows ~workers ~txns ~ops ~post ~crash ~unique =
  let sc =
    Scenario.generate ~seed
    |> Scenario.override ~alg ~rows ~workers ~txns ~ops ~post ~unique
         ~faults:[ Scenario.Crash_at crash ]
  in
  let o = Runner.run sc in
  Alcotest.(check (list string)) "oracle clean" [] o.Runner.errors;
  Alcotest.(check bool) "failed" false (Runner.failed o)

let test_sf_scan_crash_repro () =
  check_repro ~seed:8 ~alg:Scenario.Sf ~rows:119 ~workers:3 ~txns:4 ~ops:2
    ~post:1 ~crash:32 ~unique:false

let test_iot_scan_crash_repro () =
  check_repro ~seed:88 ~alg:Scenario.Iot ~rows:193 ~workers:2 ~txns:7 ~ops:4
    ~post:2 ~crash:85 ~unique:true

(* A transaction routed a change to the secondary's side-file under the
   page latch, then waited in the Ready primary's unique guard while the
   drain finished: its deferred append once found the build Ready and
   raised. *)
let test_iot_route_outlives_drain () =
  check_repro ~seed:28 ~alg:Scenario.Iot ~rows:122 ~workers:3 ~txns:1 ~ops:5
    ~post:6 ~crash:20 ~unique:true

(* --- the harness catches, shrinks, and reproduces planted violations --- *)

(* Same corruption oib-fuzz's --sabotage plants: a phantom entry inserted
   behind the WAL's back just before the final battery. *)
let plant_phantom (ctx : Ctx.t) =
  match Catalog.index ctx.Ctx.catalog 10 with
  | info ->
    ignore
      (Btree.set_state info.Catalog.tree
         (Ikey.make "zzz-phantom" (Rid.make ~page:999_983 ~slot:0))
         Oib_wal.Log_record.Present)
  | exception Invalid_argument _ -> ()

let test_harness_catches_planted_violation () =
  let sc = Scenario.generate ~seed:3 |> Scenario.override ~alg:Scenario.Nsf in
  let clean = Runner.run sc in
  Alcotest.(check bool) "clean without sabotage" false (Runner.failed clean);
  let o = Runner.run ~inject:plant_phantom sc in
  Alcotest.(check bool) "sabotage caught" true (Runner.failed o);
  Alcotest.(check (option string)) "at the final battery" (Some "final")
    o.Runner.failed_at

(* The failure dump holds the ring as it stood when the failing run
   handed over to the battery (here: right after the planted phantom),
   not the battery's own latch traffic, which the live ring still
   records. *)
let test_failure_dump_precedes_battery () =
  let sc = Scenario.generate ~seed:3 |> Scenario.override ~alg:Scenario.Nsf in
  let trace = Oib_obs.Trace.create () in
  let recorder = Oib_obs.Trace.attach_recorder trace ~capacity:64 in
  let module FR = Oib_obs.Flight_recorder in
  let at_handover = ref ([], 0) in
  let inject ctx =
    plant_phantom ctx;
    at_handover := (FR.contents recorder, FR.total recorder)
  in
  let o = Runner.run ~trace ~inject sc in
  Alcotest.(check (option string)) "at the final battery" (Some "final")
    o.Runner.failed_at;
  let ring = Option.get o.Runner.ring_before_battery in
  let contents, total = !at_handover in
  Alcotest.(check int) "events recorded up to the handover" total
    (FR.total ring);
  Alcotest.(check (list string)) "ring as the run left it"
    (List.map Oib_obs.Event.to_line contents)
    (List.map Oib_obs.Event.to_line (FR.contents ring));
  Alcotest.(check bool) "the battery recorded more" true
    (FR.total recorder > total)

let test_shrinker_minimizes_and_repro_round_trips () =
  let sc = Scenario.generate ~seed:3 |> Scenario.override ~alg:Scenario.Nsf in
  let reproduces c = Runner.failed (Runner.run ~inject:plant_phantom c) in
  let small, runs = Shrink.shrink ~budget:60 ~reproduces sc in
  Alcotest.(check bool) "runs counted" true (runs > 0 && runs <= 60);
  Alcotest.(check bool) "still reproduces" true (reproduces small);
  (* the phantom reproduces everywhere, so the greedy walk must reach the
     floor of every dimension it shrinks *)
  Alcotest.(check int) "rows minimized" 10 small.Scenario.rows;
  Alcotest.(check int) "workers minimized" 0 small.Scenario.workers;
  Alcotest.(check string) "faults dropped" "none"
    (Scenario.faults_to_string small.Scenario.faults);
  (* the printed repro line round-trips through the CLI's own parsers *)
  let fs = Scenario.faults_to_string small.Scenario.faults in
  Alcotest.(check bool) "fault plan round-trips" true
    (Scenario.faults_of_string fs = small.Scenario.faults);
  let line = Scenario.repro_command ~sabotage:true small in
  Alcotest.(check bool) "repro names seed and sabotage" true
    (contains line "--seed 3" && contains line "--sabotage")

let test_fault_plan_parser () =
  let fs =
    [
      Scenario.Backup_at 14;
      Scenario.Checkpoint_at 40;
      Scenario.Truncate_log_at 77;
      Scenario.Media_failure_at 210;
      Scenario.Crash_at 300;
    ]
  in
  Alcotest.(check bool) "parse inverts print" true
    (Scenario.faults_of_string (Scenario.faults_to_string fs) = fs);
  Alcotest.(check bool) "empty plan" true (Scenario.faults_of_string "none" = []);
  Alcotest.(check bool) "generate is deterministic" true
    (Scenario.generate ~seed:42 = Scenario.generate ~seed:42)

(* --- sweep: every k-th step, and a clean pass over a real scenario --- *)

let test_sweep_crash_point_spacing () =
  Alcotest.(check (list int)) "every 10th"
    [ 10; 20; 30; 40; 50; 60; 70; 80; 90; 100 ]
    (Sweep.crash_points ~base_steps:100 ~points:10);
  Alcotest.(check (list int)) "floored at every step" [ 1; 2; 3; 4; 5; 6; 7 ]
    (Sweep.crash_points ~base_steps:7 ~points:55)

let test_sweep_small_scenario_clean () =
  let sc =
    Scenario.generate ~seed:1
    |> Scenario.override ~alg:Scenario.Sf ~rows:60 ~workers:2 ~txns:6 ~post:2
  in
  let r = Sweep.sweep sc ~points:12 in
  Alcotest.(check (list string)) "base clean" [] r.Sweep.base_errors;
  Alcotest.(check bool) "points attempted" true (List.length r.Sweep.points >= 10);
  Alcotest.(check int) "no failures" 0 (List.length (Sweep.failures r));
  Alcotest.(check bool) "scan oracle saw checkpoints" true
    (r.Sweep.checkpoints > 0)

let test_sweep_reports_poisoned_base () =
  let sc =
    Scenario.generate ~seed:1 |> Scenario.override ~alg:Scenario.Nsf ~rows:40
  in
  let r = Sweep.sweep ~inject:plant_phantom sc ~points:10 in
  Alcotest.(check bool) "base failure reported" true (r.Sweep.base_errors <> []);
  Alcotest.(check int) "no points wasted" 0 (List.length r.Sweep.points)

(* --- the scan oracle, driven by planted builder events --- *)

(* index 10's scan: fresh start, pages 0..3, a checkpoint at 3, pages 4..5
   that no checkpoint captured *)
let scan_to_checkpoint chk =
  let ev e = Scan_check.observe chk e in
  ev (Ib.Scan_start { index = 10; pos = -1 });
  for page = 0 to 3 do
    ev (Ib.Page_extracted { index = 10; page })
  done;
  ev (Ib.Scan_checkpoint { index = 10; pos = 3 });
  for page = 4 to 5 do
    ev (Ib.Page_extracted { index = 10; page })
  done

let flagged chk needle =
  List.exists (fun e -> contains e needle) (Scan_check.errors chk)

let test_scan_check_reextract_below_mark () =
  let chk = Scan_check.create () in
  scan_to_checkpoint chk;
  Scan_check.new_epoch chk;
  Scan_check.observe chk (Ib.Scan_start { index = 10; pos = 3 });
  (* page 4 was not captured: extracting it again is legal *)
  Scan_check.observe chk (Ib.Page_extracted { index = 10; page = 4 });
  Alcotest.(check (list string)) "rescan above the mark" []
    (Scan_check.errors chk);
  Scan_check.observe chk (Ib.Page_extracted { index = 10; page = 2 });
  Alcotest.(check bool) "page 2 reported" true
    (flagged chk "page 2 extracted again")

let test_scan_check_double_in_epoch () =
  let chk = Scan_check.create () in
  scan_to_checkpoint chk;
  Scan_check.observe chk (Ib.Page_extracted { index = 10; page = 5 });
  Alcotest.(check bool) "page 5 reported" true
    (flagged chk "page 5 extracted twice within epoch 0")

let test_scan_check_resume_below_mark () =
  let chk = Scan_check.create () in
  scan_to_checkpoint chk;
  Scan_check.new_epoch chk;
  Scan_check.observe chk (Ib.Scan_start { index = 10; pos = 2 });
  Alcotest.(check bool) "resume at 2 reported" true
    (flagged chk "scan resumed at page 2, but its last checkpoint is at 3");
  Scan_check.observe chk (Ib.Scan_checkpoint { index = 10; pos = 2 });
  Alcotest.(check bool) "falling mark reported" true
    (flagged chk "checkpoint went down from 3 to 2")

let test_scan_check_fresh_start_resets () =
  let chk = Scan_check.create () in
  scan_to_checkpoint chk;
  (* a unique violation cancels the build; the same index id is rebuilt
     from scratch, in the same incarnation and again after a crash *)
  scan_to_checkpoint chk;
  Scan_check.new_epoch chk;
  scan_to_checkpoint chk;
  Alcotest.(check (list string)) "rebuilds are clean" []
    (Scan_check.errors chk);
  Alcotest.(check int) "mark of the last rebuild" 3 (Scan_check.mark chk 10);
  Alcotest.(check int) "checkpoints counted" 3 (Scan_check.checkpoints chk)

(* --- bounded mini-fuzz: generated fault plans, every oracle, in-tree --- *)

let test_generated_scenarios_clean () =
  for seed = 1 to 6 do
    let sc = Scenario.generate ~seed in
    let o = Runner.run sc in
    if Runner.failed o then
      Alcotest.failf "seed %d (%s) failed at %s: %s" seed
        (Scenario.alg_to_string sc.Scenario.alg)
        (Option.value o.Runner.failed_at ~default:"?")
        (String.concat "; " o.Runner.errors)
  done

let test_oracle_battery_clean_engine () =
  let ctx = setup () in
  let _ = Driver.populate ctx ~table:1 ~rows:80 ~seed:3 in
  build_to_ready ctx;
  Alcotest.(check (list string)) "battery clean" [] (Oracle.battery ctx)

let () =
  Alcotest.run "dst"
    [
      ( "determinism",
        [
          Alcotest.test_case "identical traces, same seed" `Quick
            test_identical_traces;
          Alcotest.test_case "traces diverge across seeds" `Quick
            test_seeds_diverge;
        ] );
      ( "truncate-log",
        [
          Alcotest.test_case "truncate then crash" `Quick test_truncate_then_crash;
          Alcotest.test_case "truncate forfeits stale media restore" `Quick
            test_truncate_forfeits_media_restore;
        ] );
      ( "unique-violation",
        [
          Alcotest.test_case "rollback during concurrent NSF build" `Quick
            test_unique_violation_rollback_during_build;
        ] );
      ( "stale-sidefile",
        [
          Alcotest.test_case "sf crash in the scan" `Quick
            test_sf_scan_crash_repro;
          Alcotest.test_case "iot crash in the key-order scan" `Quick
            test_iot_scan_crash_repro;
          Alcotest.test_case "iot append routed before the drain ends" `Quick
            test_iot_route_outlives_drain;
        ] );
      ( "harness",
        [
          Alcotest.test_case "catches planted violation" `Quick
            test_harness_catches_planted_violation;
          Alcotest.test_case "failure dump precedes the battery" `Quick
            test_failure_dump_precedes_battery;
          Alcotest.test_case "shrinks and reproduces" `Quick
            test_shrinker_minimizes_and_repro_round_trips;
          Alcotest.test_case "fault-plan parser" `Quick test_fault_plan_parser;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "crash-point spacing" `Quick
            test_sweep_crash_point_spacing;
          Alcotest.test_case "small scenario clean" `Quick
            test_sweep_small_scenario_clean;
          Alcotest.test_case "poisoned base reported" `Quick
            test_sweep_reports_poisoned_base;
        ] );
      ( "scan-check",
        [
          Alcotest.test_case "re-extraction below the mark" `Quick
            test_scan_check_reextract_below_mark;
          Alcotest.test_case "double extraction in one epoch" `Quick
            test_scan_check_double_in_epoch;
          Alcotest.test_case "resume below the mark" `Quick
            test_scan_check_resume_below_mark;
          Alcotest.test_case "fresh start after cancel resets" `Quick
            test_scan_check_fresh_start_resets;
        ] );
      ( "mini-fuzz",
        [
          Alcotest.test_case "generated scenarios clean" `Quick
            test_generated_scenarios_clean;
          Alcotest.test_case "oracle battery on clean engine" `Quick
            test_oracle_battery_clean_engine;
        ] );
    ]
