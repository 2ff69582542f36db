(* Crash injection during online index builds: at any scheduler step, the
   system may die; after restart recovery, the interrupted build must be
   resumable from its checkpoints and the final index must be exactly
   consistent with the table. *)

open Oib_core
module Sched = Oib_sim.Sched
module Driver = Oib_workload.Driver

let test_cfg alg =
  {
    (Ib.default_config alg) with
    ckpt_every_pages = 8;
    ckpt_every_keys = 64;
    memory_keys = 64;
  }

let setup ~seed =
  let ctx = Engine.create ~seed ~page_capacity:512 () in
  let _ = Catalog.create_table ctx.Ctx.catalog ctx.Ctx.pool ~table_id:1 in
  ctx

(* One full scenario: populate, run workload + build, crash at [crash_step],
   recover, resume the build (or start it if it never began), run more
   workload, verify. Returns the oracle errors and whether the index is
   Ready. *)
let crash_scenario ~alg ~seed ~crash_step =
  let ctx = setup ~seed in
  let _ = Driver.populate ctx ~table:1 ~rows:150 ~seed in
  let wcfg = { Driver.default with seed; workers = 3; txns_per_worker = 40 } in
  let _ = Driver.spawn_workers ctx wcfg ~table:1 in
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         Ib.build_index ctx (test_cfg alg) ~table:1
           { Ib.index_id = 10; key_cols = [ 0 ]; unique = false }));
  Sched.set_crash_trap ctx.Ctx.sched (fun steps -> steps >= crash_step);
  let crashed =
    match Sched.run ctx.Ctx.sched with
    | () -> false
    | exception Sched.Crashed -> true
  in
  (* random steal before the lights go out *)
  Oib_storage.Buffer_pool.flush_some ctx.Ctx.pool
    (Oib_util.Rng.create (seed + 7))
    0.5;
  let ctx' = Engine.crash ~seed:(seed + 1) ctx in
  (* second life *)
  ignore
    (Sched.spawn ctx'.Ctx.sched ~name:"ib-resume" (fun () ->
         Ib.resume_builds ctx' (test_cfg alg);
         (* if the crash predated the descriptor, build from scratch *)
         match Catalog.index ctx'.Ctx.catalog 10 with
         | _ -> ()
         | exception Invalid_argument _ ->
           Ib.build_index ctx' (test_cfg alg) ~table:1
             { Ib.index_id = 10; key_cols = [ 0 ]; unique = false }));
  let wcfg' = { wcfg with seed = seed + 50; txns_per_worker = 15 } in
  let _ = Driver.spawn_workers ctx' wcfg' ~table:1 in
  Sched.run ctx'.Ctx.sched;
  let ready = (Catalog.index ctx'.Ctx.catalog 10).phase = Catalog.Ready in
  ( Engine.consistency_errors ctx' @ Engine.lifecycle_errors ~final:true ctx',
    ready,
    crashed )

let check_scenario ~alg ~seed ~crash_step =
  let errs, ready, _ = crash_scenario ~alg ~seed ~crash_step in
  Alcotest.(check (list string))
    (Printf.sprintf "oracle clean (alg=%s seed=%d step=%d)"
       (match alg with Ib.Nsf -> "nsf" | Ib.Sf -> "sf")
       seed crash_step)
    [] errs;
  Alcotest.(check bool) "index ready" true ready

(* measure how many steps a full run takes, to aim crash points at every
   stage *)
let full_run_steps alg =
  let ctx = setup ~seed:2 in
  let _ = Driver.populate ctx ~table:1 ~rows:150 ~seed:2 in
  let wcfg = { Driver.default with seed = 2; workers = 3; txns_per_worker = 40 } in
  let _ = Driver.spawn_workers ctx wcfg ~table:1 in
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         Ib.build_index ctx (test_cfg alg) ~table:1
           { Ib.index_id = 10; key_cols = [ 0 ]; unique = false }));
  Sched.run ctx.Ctx.sched;
  Sched.steps ctx.Ctx.sched

let test_nsf_early_crash () = check_scenario ~alg:Ib.Nsf ~seed:2 ~crash_step:50

let test_nsf_mid_crash () =
  let steps = full_run_steps Ib.Nsf in
  check_scenario ~alg:Ib.Nsf ~seed:2 ~crash_step:(steps / 2)

let test_nsf_late_crash () =
  let steps = full_run_steps Ib.Nsf in
  check_scenario ~alg:Ib.Nsf ~seed:2 ~crash_step:(9 * steps / 10)

let test_sf_early_crash () = check_scenario ~alg:Ib.Sf ~seed:2 ~crash_step:50

let test_sf_mid_crash () =
  let steps = full_run_steps Ib.Sf in
  check_scenario ~alg:Ib.Sf ~seed:2 ~crash_step:(steps / 2)

let test_sf_late_crash () =
  let steps = full_run_steps Ib.Sf in
  check_scenario ~alg:Ib.Sf ~seed:2 ~crash_step:(19 * steps / 20)

(* A crash early in the SF scan: entries the side-file took for RIDs
   above the restored scan position are superseded by the rescan. These
   two cases of the qcheck property below once left a spurious entry. *)
let test_sf_stale_sidefile_seed3 () =
  check_scenario ~alg:Ib.Sf ~seed:3 ~crash_step:30

let test_sf_stale_sidefile_seed7 () =
  check_scenario ~alg:Ib.Sf ~seed:7 ~crash_step:30

let test_double_crash () =
  (* crash, recover, crash again immediately, recover, then finish *)
  let ctx = setup ~seed:5 in
  let _ = Driver.populate ctx ~table:1 ~rows:120 ~seed:5 in
  let wcfg = { Driver.default with seed = 5; workers = 2; txns_per_worker = 30 } in
  let _ = Driver.spawn_workers ctx wcfg ~table:1 in
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         Ib.build_index ctx (test_cfg Ib.Sf) ~table:1
           { Ib.index_id = 10; key_cols = [ 0 ]; unique = false }));
  Sched.set_crash_trap ctx.Ctx.sched (fun steps -> steps >= 2000);
  (try Sched.run ctx.Ctx.sched with Sched.Crashed -> ());
  let ctx' = Engine.crash ctx in
  (* second life crashes very quickly too *)
  ignore
    (Sched.spawn ctx'.Ctx.sched ~name:"ib-resume" (fun () ->
         Ib.resume_builds ctx' (test_cfg Ib.Sf)));
  Sched.set_crash_trap ctx'.Ctx.sched (fun steps -> steps >= 300);
  (try Sched.run ctx'.Ctx.sched with Sched.Crashed -> ());
  let ctx'' = Engine.crash ctx' in
  ignore
    (Sched.spawn ctx''.Ctx.sched ~name:"ib-resume2" (fun () ->
         Ib.resume_builds ctx'' (test_cfg Ib.Sf);
         match Catalog.index ctx''.Ctx.catalog 10 with
         | _ -> ()
         | exception Invalid_argument _ ->
           Ib.build_index ctx'' (test_cfg Ib.Sf) ~table:1
             { Ib.index_id = 10; key_cols = [ 0 ]; unique = false }));
  Sched.run ctx''.Ctx.sched;
  Alcotest.(check (list string)) "oracle clean after two crashes" []
    (Engine.consistency_errors ctx''
    @ Engine.lifecycle_errors ~final:true ctx'');
  Alcotest.(check bool) "ready" true
    ((Catalog.index ctx''.Ctx.catalog 10).phase = Catalog.Ready)

let test_resume_does_not_rescan_everything () =
  (* the point of the restartable sort: after a crash late in the scan, the
     resumed build rescans only the tail *)
  let ctx = setup ~seed:3 in
  let _ = Driver.populate ctx ~table:1 ~rows:400 ~seed:3 in
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         Ib.build_index ctx (test_cfg Ib.Sf) ~table:1
           { Ib.index_id = 10; key_cols = [ 0 ]; unique = false }));
  (* let it scan a while: each page costs ~1 step (one yield per page) *)
  Sched.set_crash_trap ctx.Ctx.sched (fun steps -> steps >= 60);
  (try Sched.run ctx.Ctx.sched with Sched.Crashed -> ());
  let before = Oib_sim.Metrics.get ctx.Ctx.metrics Sequential_reads in
  let ctx' = Engine.crash ctx in
  ignore
    (Sched.spawn ctx'.Ctx.sched ~name:"ib-resume" (fun () ->
         Ib.resume_builds ctx' (test_cfg Ib.Sf)));
  Sched.run ctx'.Ctx.sched;
  let rescan = Oib_sim.Metrics.get ctx'.Ctx.metrics Sequential_reads - before in
  let total_pages =
    Oib_storage.Heap_file.page_count (Catalog.table ctx'.Ctx.catalog 1).heap
  in
  Alcotest.(check bool)
    (Printf.sprintf "rescanned %d of %d pages" rescan total_pages)
    true
    (rescan < total_pages);
  Alcotest.(check (list string)) "oracle clean" []
    (Engine.consistency_errors ctx')

(* Regression: after a crash mid-build the recovered engine's in-memory
   Build_status must already agree with the restored catalog phase —
   BEFORE any resume fiber runs. It used to stay empty (or claim Init)
   until resume_builds recreated it, so a post-recovery progress display
   disagreed with Catalog.set_phase's restored state. *)
let check_status_agrees alg =
  let ctx = setup ~seed:9 in
  let _ = Driver.populate ctx ~table:1 ~rows:200 ~seed:9 in
  let _ =
    Driver.spawn_workers ctx
      { Driver.default with seed = 9; workers = 3; txns_per_worker = 40 }
      ~table:1
  in
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         Ib.build_index ctx (test_cfg alg) ~table:1
           { Ib.index_id = 10; key_cols = [ 0 ]; unique = false }));
  (* crash once the build is demonstrably mid-flight (its durable
     progress record exists from admission on) *)
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"monitor" (fun () ->
         let continue = ref true in
         while !continue do
           (match Engine.build_progress ctx with
           | st :: _
             when Build_status.rank st.Build_status.phase
                  >= Build_status.rank Build_status.Scan
                  && st.Build_status.phase <> Build_status.Ready ->
             Sched.request_crash ctx.Ctx.sched;
             continue := false
           | _ -> ());
           Sched.yield ctx.Ctx.sched
         done));
  (match Sched.run ctx.Ctx.sched with
  | () -> Alcotest.fail "build finished before the monitor crashed it"
  | exception Sched.Crashed -> ());
  let ctx' = Engine.crash ctx in
  (* nothing resumed yet: the status must come from rehydration alone *)
  (match Ib.interrupted_builds ctx' with
  | [] -> Alcotest.fail "mid-flight crash left no interrupted build"
  | _ -> ());
  match Engine.build_progress ctx' with
  | [] -> Alcotest.fail "no Build_status after recovery"
  | sts ->
    List.iter
      (fun (st : Build_status.t) ->
        let info = Catalog.index ctx'.Ctx.catalog st.Build_status.index_id in
        let agrees =
          match (info.Catalog.phase, st.Build_status.phase) with
          | Catalog.Ready, Build_status.Ready -> true
          | Catalog.Nsf_building _, (Build_status.Scan | Build_status.Merge
                                    | Build_status.Insert) -> true
          | Catalog.Sf_building _, (Build_status.Scan | Build_status.Merge
                                   | Build_status.Bulk | Build_status.Drain)
            -> true
          | _ -> false
        in
        Alcotest.(check bool)
          (Printf.sprintf "status phase %s consistent with catalog"
             (Build_status.phase_name st.Build_status.phase))
          true agrees)
      sts

let test_status_agrees_nsf () = check_status_agrees Ib.Nsf
let test_status_agrees_sf () = check_status_agrees Ib.Sf

(* A finished or cancelled build leaves nothing under ib/<id>/, so a
   later build with the same index id starts fresh instead of resuming a
   stale sort checkpoint and skipping the pages it names. *)
let check_cancel_then_rebuild alg =
  let ctx = setup ~seed:4 in
  let _ = Driver.populate ctx ~table:1 ~rows:200 ~seed:4 in
  let build () =
    ignore
      (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
           Ib.build_index ctx (test_cfg alg) ~table:1
             { Ib.index_id = 10; key_cols = [ 0 ]; unique = false }));
    Sched.run ctx.Ctx.sched
  in
  build ();
  Ib.cancel_build ctx ~index_id:10;
  let _ = Driver.populate ctx ~table:1 ~rows:50 ~seed:5 in
  build ();
  Alcotest.(check (list string)) "oracle clean" []
    (Engine.consistency_errors ctx @ Engine.lifecycle_errors ~final:true ctx)

let test_cancel_then_rebuild_nsf () = check_cancel_then_rebuild Ib.Nsf
let test_cancel_then_rebuild_sf () = check_cancel_then_rebuild Ib.Sf

(* --- every record kind through one restart --- *)

module LR = Oib_wal.Log_record

(* The kind of each record, named by an exhaustive match (warning 4 as an
   error: a new constructor must be named here). A CLR is named with its
   action, an undo-only index key op apart from a redoable one. *)
let[@warning "@4"] rec kind_name : LR.body -> string = function
  | LR.Begin -> "Begin"
  | LR.Commit -> "Commit"
  | LR.Abort -> "Abort"
  | LR.End -> "End"
  | LR.Heap _ -> "Heap"
  | LR.Index_key { redoable = true; _ } -> "Index_key"
  | LR.Index_key { redoable = false; _ } -> "Index_key(undo-only)"
  | LR.Index_bulk_insert _ -> "Index_bulk_insert"
  | LR.Sidefile_append _ -> "Sidefile_append"
  | LR.Clr { action; _ } -> "Clr(" ^ kind_name action ^ ")"
  | LR.Build_start _ -> "Build_start"
  | LR.Build_done _ -> "Build_done"
  | LR.Heap_extend _ -> "Heap_extend"
  | LR.Create_table _ -> "Create_table"
  | LR.Create_index _ -> "Create_index"
  | LR.Drop_index _ -> "Drop_index"

(* the 15 constructors, with a CLR's three actions and the undo-only
   index key op told apart *)
let every_kind =
  [
    "Begin"; "Commit"; "Abort"; "End"; "Heap"; "Index_key";
    "Index_key(undo-only)"; "Index_bulk_insert"; "Sidefile_append";
    "Clr(Heap)"; "Clr(Index_key)"; "Clr(Sidefile_append)"; "Build_start";
    "Build_done"; "Heap_extend"; "Create_table"; "Create_index";
    "Drop_index";
  ]

let oracle_errors ?final ctx =
  Engine.consistency_errors ctx @ Engine.lifecycle_errors ?final ctx

let spawn_build ctx alg ?(unique = false) ?(key_cols = [ 0 ]) index_id =
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         Ib.build_index ctx (test_cfg alg) ~table:1
           { Ib.index_id; key_cols; unique }))

let build_phase ctx index_id =
  match
    List.find_opt
      (fun (st : Build_status.t) -> st.index_id = index_id)
      (Engine.build_progress ctx)
  with
  | Some st -> st.phase
  | None -> Build_status.Init

(* §2.1.1's undo-only record, set up on purpose. [t] inserts a record
   ahead of an NSF build's scan, then waits in the unique index's check on
   [h]'s uncommitted rival until the builder has inserted [t]'s key
   itself; [h] rolls back, and [t]'s own insert of that key finds it
   present. *)
let ib_inserts_first ctx =
  spawn_build ctx Ib.Nsf ~unique:true ~key_cols:[ 1 ] 13;
  Sched.run ctx.Ctx.sched;
  let rec wait cond =
    if not (cond ()) then begin
      Sched.yield ctx.Ctx.sched;
      wait cond
    end
  in
  (* free two slots on the last heap page, so both inserts land on a page
     the build's scan has yet to reach *)
  let last_two =
    match List.rev (Driver.live_rids ctx ~table:1) with
    | a :: b :: _ -> [ a; b ]
    | _ -> Alcotest.fail "table too small"
  in
  (match
     Engine.run_txn ctx (fun txn ->
         List.iter (Table_ops.delete ctx txn ~table:1) last_two)
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "delete did not commit");
  let record = Oib_util.Record.make [| "v-first"; "rival" |] in
  let h_inserted = ref false in
  spawn_build ctx Ib.Nsf 14;
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"h" (fun () ->
         wait (fun () -> build_phase ctx 14 = Build_status.Scan);
         let h = Oib_txn.Txn_manager.begin_txn ctx.Ctx.txns in
         ignore (Table_ops.insert ctx h ~table:1 record);
         h_inserted := true;
         wait (fun () -> build_phase ctx 14 = Build_status.Ready);
         Table_ops.rollback ctx h));
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"t" (fun () ->
         wait (fun () -> !h_inserted);
         match
           Engine.run_txn ctx (fun t -> Table_ops.insert ctx t ~table:1 record)
         with
         | Ok _ -> ()
         | Error _ -> Alcotest.fail "t did not commit"));
  Sched.run ctx.Ctx.sched

(* An NSF build and a cancelled one under updaters with rollbacks, then an
   SF build under updaters cut off by a crash: the durable log holds every
   record kind, in-progress SF build and losers included. Restart must
   leave both oracles clean, and so must a second restart over the log the
   first one extended; the build then finishes. *)
let test_every_record_kind () =
  let seed = 1 in
  let ctx = setup ~seed in
  let _ = Driver.populate ctx ~table:1 ~rows:150 ~seed in
  let wcfg =
    { Driver.default with seed; workers = 3; txns_per_worker = 30; abort_pct = 0.4 }
  in
  ib_inserts_first ctx;
  let _ = Driver.spawn_workers ctx wcfg ~table:1 in
  spawn_build ctx Ib.Nsf 10;
  Sched.run ctx.Ctx.sched;
  spawn_build ctx Ib.Nsf 12;
  Sched.run ctx.Ctx.sched;
  Ib.cancel_build ctx ~index_id:12;
  let _ = Driver.spawn_workers ctx { wcfg with seed = seed + 1 } ~table:1 in
  spawn_build ctx Ib.Sf 11;
  (* crash once the scan is done: the side-file holds the updaters'
     appends and their rollbacks' compensations *)
  Sched.set_crash_trap ctx.Ctx.sched (fun _ ->
      Build_status.rank (build_phase ctx 11) >= Build_status.rank Build_status.Bulk);
  (try Sched.run ctx.Ctx.sched with Sched.Crashed -> ());
  let kinds =
    List.map
      (fun (r : LR.t) -> kind_name r.body)
      (Oib_wal.Log_manager.durable_records ctx.Ctx.log)
  in
  Alcotest.(check (list string)) "no record kind missing from the durable log"
    [] (List.filter (fun k -> not (List.mem k kinds)) every_kind);
  let ctx' = Engine.crash ~seed:(seed + 10) ctx in
  Alcotest.(check (list string)) "oracles clean after restart" []
    (oracle_errors ctx');
  Alcotest.(check (list int)) "the SF build is in progress" [ 11 ]
    (List.map fst (Engine.unfinished_builds ctx'));
  let ctx'' = Engine.crash ~seed:(seed + 11) ctx' in
  Alcotest.(check (list string)) "oracles clean after a second restart" []
    (oracle_errors ctx'');
  ignore
    (Sched.spawn ctx''.Ctx.sched ~name:"ib-resume" (fun () ->
         Ib.resume_builds ctx'' (test_cfg Ib.Sf)));
  Sched.run ctx''.Ctx.sched;
  Alcotest.(check (list string)) "oracles clean once the build finished" []
    (oracle_errors ~final:true ctx'')

let prop_crash_anywhere_nsf =
  QCheck.Test.make ~name:"NSF: crash anywhere, recover, finish" ~count:14
    QCheck.(pair small_nat (int_bound 99))
    (fun (seed, pct) ->
      let steps = 14000 in
      let crash_step = max 30 (steps * pct / 100) in
      let errs, ready, _ = crash_scenario ~alg:Ib.Nsf ~seed ~crash_step in
      errs = [] && ready)

let prop_crash_anywhere_sf =
  QCheck.Test.make ~name:"SF: crash anywhere, recover, finish" ~count:14
    QCheck.(pair small_nat (int_bound 99))
    (fun (seed, pct) ->
      let steps = 14000 in
      let crash_step = max 30 (steps * pct / 100) in
      let errs, ready, _ = crash_scenario ~alg:Ib.Sf ~seed ~crash_step in
      errs = [] && ready)

let () =
  Alcotest.run "restart"
    [
      ( "nsf",
        [
          Alcotest.test_case "early crash" `Quick test_nsf_early_crash;
          Alcotest.test_case "mid crash" `Quick test_nsf_mid_crash;
          Alcotest.test_case "late crash" `Quick test_nsf_late_crash;
        ] );
      ( "sf",
        [
          Alcotest.test_case "early crash" `Quick test_sf_early_crash;
          Alcotest.test_case "mid crash" `Quick test_sf_mid_crash;
          Alcotest.test_case "late crash" `Quick test_sf_late_crash;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "double crash" `Quick test_double_crash;
          Alcotest.test_case "bounded rescan" `Quick
            test_resume_does_not_rescan_everything;
          Alcotest.test_case "status rehydrated (nsf)" `Quick
            test_status_agrees_nsf;
          Alcotest.test_case "status rehydrated (sf)" `Quick
            test_status_agrees_sf;
          Alcotest.test_case "stale side-file (seed 3)" `Quick
            test_sf_stale_sidefile_seed3;
          Alcotest.test_case "stale side-file (seed 7)" `Quick
            test_sf_stale_sidefile_seed7;
          Alcotest.test_case "cancel then rebuild (nsf)" `Quick
            test_cancel_then_rebuild_nsf;
          Alcotest.test_case "every record kind through restart" `Quick
            test_every_record_kind;
          Alcotest.test_case "cancel then rebuild (sf)" `Quick
            test_cancel_then_rebuild_sf;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_crash_anywhere_nsf; prop_crash_anywhere_sf ] );
    ]
