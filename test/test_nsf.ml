open Oib_core
module Sched = Oib_sim.Sched
module Driver = Oib_workload.Driver

let setup ?(seed = 3) () =
  let ctx = Engine.create ~seed ~page_capacity:512 () in
  let _ = Catalog.create_table ctx.Ctx.catalog ctx.Ctx.pool ~table_id:1 in
  ctx

let online_build ?(seed = 3) ?(rows = 300) ?(workers = 4) ?(txns = 25)
    ?(cfg = Ib.default_config Ib.Nsf) () =
  let ctx = setup ~seed () in
  let _ = Driver.populate ctx ~table:1 ~rows ~seed in
  let wcfg = { Driver.default with seed; workers; txns_per_worker = txns } in
  let stats = Driver.spawn_workers ctx wcfg ~table:1 in
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         Ib.build_index ctx cfg ~table:1
           { Ib.index_id = 10; key_cols = [ 0 ]; unique = false }));
  Sched.run ctx.Ctx.sched;
  (ctx, stats)

let check_clean ctx =
  Alcotest.(check (list string)) "oracle clean" [] (Engine.consistency_errors ctx)

let test_build_quiet_table () =
  let ctx = setup () in
  let _ = Driver.populate ctx ~table:1 ~rows:500 ~seed:9 in
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         Ib.build_index ctx (Ib.default_config Ib.Nsf) ~table:1
           { Ib.index_id = 10; key_cols = [ 0 ]; unique = false }));
  Sched.run ctx.Ctx.sched;
  check_clean ctx;
  let info = Catalog.index ctx.Ctx.catalog 10 in
  Alcotest.(check bool) "ready" true (info.phase = Catalog.Ready);
  Alcotest.(check int) "all keys present" 500
    (Oib_btree.Btree.present_count info.tree)

let test_build_under_fire () =
  let ctx, stats = online_build () in
  Alcotest.(check bool) "transactions ran during build" true
    ((!stats).committed > 30);
  check_clean ctx;
  Alcotest.(check bool) "ready" true
    ((Catalog.index ctx.Ctx.catalog 10).phase = Catalog.Ready)

let test_duplicate_rejections_happen () =
  (* under concurrent inserts, IB must hit duplicate rejections (the §2.1.1
     race is real) across at least some seeds *)
  let hits = ref 0 in
  for seed = 1 to 8 do
    let ctx, _ = online_build ~seed () in
    check_clean ctx;
    if Oib_sim.Metrics.get ctx.Ctx.metrics Keys_rejected_duplicate > 0 then incr hits
  done;
  Alcotest.(check bool)
    (Printf.sprintf "races exercised in %d/8 seeds" !hits)
    true (!hits >= 1)

let test_bulk_logging_batches () =
  let ctx, _ = online_build ~workers:1 ~txns:5 () in
  check_clean ctx;
  let bulk = ref 0 and bulk_keys = ref 0 in
  List.iter
    (fun (r : Oib_wal.Log_record.t) ->
      match r.body with
      | Oib_wal.Log_record.Index_bulk_insert { keys; _ } ->
        incr bulk;
        bulk_keys := !bulk_keys + List.length keys
      | _ -> ())
    (Oib_wal.Log_manager.all_records ctx.Ctx.log);
  Alcotest.(check bool) "IB keys logged in batches" true
    (!bulk > 0 && !bulk_keys / !bulk > 5)

let test_quiesce_blocks_then_releases () =
  (* a long-running updater delays descriptor creation; afterwards both
     proceed *)
  let ctx = setup () in
  let _ = Driver.populate ctx ~table:1 ~rows:50 ~seed:1 in
  let order = ref [] in
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"updater" (fun () ->
         let txn = Oib_txn.Txn_manager.begin_txn ctx.Ctx.txns in
         ignore
           (Table_ops.insert ctx txn ~table:1 (Oib_util.Record.make [| "x"; "y" |]));
         for _ = 1 to 20 do
           Sched.yield ctx.Ctx.sched
         done;
         order := "updater-commit" :: !order;
         Oib_txn.Txn_manager.commit ctx.Ctx.txns txn));
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         (* give the updater a head start *)
         Sched.yield ctx.Ctx.sched;
         Sched.yield ctx.Ctx.sched;
         Ib.build_index ctx (Ib.default_config Ib.Nsf) ~table:1
           { Ib.index_id = 10; key_cols = [ 0 ]; unique = false };
         order := "build-done" :: !order));
  Sched.run ctx.Ctx.sched;
  check_clean ctx;
  Alcotest.(check (list string)) "updater commits before descriptor"
    [ "updater-commit"; "build-done" ] (List.rev !order)

let test_unique_build_success () =
  let ctx = setup () in
  (* distinct key values *)
  (match
     Engine.run_txn ctx (fun txn ->
         for i = 0 to 199 do
           ignore
             (Table_ops.insert ctx txn ~table:1
                (Oib_util.Record.make [| Printf.sprintf "u%04d" i; "p" |]))
         done)
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "populate failed");
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         Ib.build_index ctx (Ib.default_config Ib.Nsf) ~table:1
           { Ib.index_id = 10; key_cols = [ 0 ]; unique = true }));
  Sched.run ctx.Ctx.sched;
  check_clean ctx;
  Alcotest.(check bool) "ready" true
    ((Catalog.index ctx.Ctx.catalog 10).phase = Catalog.Ready)

let test_unique_build_violation_cancels () =
  let ctx = setup () in
  (match
     Engine.run_txn ctx (fun txn ->
         ignore (Table_ops.insert ctx txn ~table:1 (Oib_util.Record.make [| "dup"; "1" |]));
         ignore (Table_ops.insert ctx txn ~table:1 (Oib_util.Record.make [| "dup"; "2" |])))
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "populate failed");
  let got_violation = ref false in
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         match
           Ib.build_index ctx (Ib.default_config Ib.Nsf) ~table:1
             { Ib.index_id = 10; key_cols = [ 0 ]; unique = true }
         with
        | () -> ()
        | exception Ib.Build_unique_violation { kv = "dup"; _ } ->
          got_violation := true));
  Sched.run ctx.Ctx.sched;
  Alcotest.(check bool) "violation detected" true !got_violation;
  (* descriptor removed: updates no longer see index 10 *)
  (match Catalog.index ctx.Ctx.catalog 10 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "descriptor not dropped");
  (match
     Engine.run_txn ctx (fun txn ->
         ignore (Table_ops.insert ctx txn ~table:1 (Oib_util.Record.make [| "z"; "3" |])))
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "table unusable after cancel")

(* A unique index's guard runs before every key. With [batch_size] 5 and
   [ckpt_every_keys] 7, the second "u0030" is key 31 of the sorted run,
   inside the stretch from key 28 to the pace after key 32 that a
   nonunique build inserts under one leaf latch. *)
let test_unique_guard_every_key () =
  let ctx = setup () in
  (match
     Engine.run_txn ctx (fun txn ->
         List.iter
           (fun i ->
             ignore
               (Table_ops.insert ctx txn ~table:1
                  (Oib_util.Record.make [| Printf.sprintf "u%04d" i; "p" |])))
           (List.init 40 Fun.id @ [ 30 ]))
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "populate failed");
  let cfg =
    { (Ib.default_config Ib.Nsf) with batch_size = 5; ckpt_every_keys = 7 }
  in
  let got = ref None in
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         match
           Ib.build_index ctx cfg ~table:1
             { Ib.index_id = 10; key_cols = [ 0 ]; unique = true }
         with
         | () -> ()
         | exception Ib.Build_unique_violation { kv; _ } -> got := Some kv));
  Sched.run ctx.Ctx.sched;
  Alcotest.(check (option string)) "violation detected" (Some "u0030") !got

let test_multi_index_one_scan () =
  let ctx = setup () in
  let _ = Driver.populate ctx ~table:1 ~rows:200 ~seed:2 in
  let wcfg = { Driver.default with workers = 2; txns_per_worker = 15 } in
  let _ = Driver.spawn_workers ctx wcfg ~table:1 in
  let seq_before = Oib_sim.Metrics.get ctx.Ctx.metrics Sequential_reads in
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         Ib.build_indexes ctx (Ib.default_config Ib.Nsf) ~table:1
           [
             { Ib.index_id = 10; key_cols = [ 0 ]; unique = false };
             { Ib.index_id = 11; key_cols = [ 1 ]; unique = false };
           ]));
  Sched.run ctx.Ctx.sched;
  check_clean ctx;
  Alcotest.(check bool) "both ready" true
    ((Catalog.index ctx.Ctx.catalog 10).phase = Catalog.Ready
    && (Catalog.index ctx.Ctx.catalog 11).phase = Catalog.Ready);
  (* one scan: sequential reads bounded by the page count of one pass *)
  let pages =
    Oib_storage.Heap_file.page_count (Catalog.table ctx.Ctx.catalog 1).heap
  in
  Alcotest.(check bool) "single data scan" true
    (Oib_sim.Metrics.get ctx.Ctx.metrics Sequential_reads - seq_before <= pages + 2)

let test_cancel_build_mid_flight () =
  let ctx = setup () in
  let _ = Driver.populate ctx ~table:1 ~rows:200 ~seed:2 in
  (* run only the scan phase, then cancel from another fiber *)
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"canceller" (fun () ->
         (* wait until the descriptor exists *)
         let rec wait () =
           match Catalog.index ctx.Ctx.catalog 10 with
           | _ -> ()
           | exception Invalid_argument _ ->
             Sched.yield ctx.Ctx.sched;
             wait ()
         in
         wait ();
         Ib.cancel_build ctx ~index_id:10));
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         match
           Ib.build_index ctx (Ib.default_config Ib.Nsf) ~table:1
             { Ib.index_id = 10; key_cols = [ 0 ]; unique = false }
         with
        | () -> ()
        | exception Invalid_argument _ -> () (* build lost its descriptor *)
        | exception Not_found -> ()));
  (match Sched.run ctx.Ctx.sched with
  | () -> ()
  | exception Invalid_argument _ -> ());
  (* whatever the interleaving, the table remains usable *)
  match
    Engine.run_txn ctx (fun txn ->
        ignore (Table_ops.insert ctx txn ~table:1 (Oib_util.Record.make [| "a"; "b" |])))
  with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "table unusable after cancel"

let test_gc_after_build () =
  let ctx, _ =
    online_build ~seed:5
      ~cfg:{ (Ib.default_config Ib.Nsf) with specialized_split = true }
      ()
  in
  check_clean ctx;
  let info = Catalog.index ctx.Ctx.catalog 10 in
  let pseudo_before = Oib_btree.Btree.pseudo_count info.tree in
  let collected = Ib.gc_pseudo_deleted ctx ~index_id:10 in
  Alcotest.(check int) "gc collects all (system quiescent)" pseudo_before collected;
  Alcotest.(check int) "no tombstones left" 0
    (Oib_btree.Btree.pseudo_count info.tree);
  check_clean ctx

(* Where the insert phase acts between keys: the multi-key insert takes
   keys in runs under one leaf latch, and a run must end exactly where the
   per-key loop flushed a batch, checkpointed or paced. [batch_size] 5 and
   [ckpt_every_keys] 7 line up with neither each other nor the pace step
   of 16. The literals were recorded with the per-key loop. *)
let insert_boundaries ~unique ~level =
  let trace = Oib_obs.Trace.create () in
  let ctx = Engine.create ~seed:3 ~page_capacity:512 ~trace () in
  let _ = Catalog.create_table ctx.Ctx.catalog ctx.Ctx.pool ~table_id:1 in
  if level > 0 then begin
    (* one raised health signal, evaluated before the table fills the
       pool so that only it is raised, backs the throttle off one level *)
    Oib_obs.Signal.register ctx.Ctx.signals ~name:"overload.fg_p99"
      ~raise_above:60.0 ~clear_below:25.0 ~source:(fun () -> 100.0);
    ignore (Oib_obs.Signal.eval ctx.Ctx.signals)
  end;
  Alcotest.(check int) "throttle level" level (Throttle.level ctx.Ctx.throttle);
  if unique then begin
    match
      Engine.run_txn ctx (fun txn ->
          for i = 0 to 39 do
            ignore
              (Table_ops.insert ctx txn ~table:1
                 (Oib_util.Record.make [| Printf.sprintf "u%04d" (i * 7 mod 40); "p" |]))
          done)
    with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "populate failed"
  end
  else begin
    let _ = Driver.populate ctx ~table:1 ~rows:60 ~seed:3 in
    let wcfg =
      { Driver.default with seed = 3; workers = 2; txns_per_worker = 8 }
    in
    ignore (Driver.spawn_workers ctx wcfg ~table:1)
  end;
  (* an insert-stage checkpoint's highest key is the last key processed,
     so the count of keys processed at the checkpoint pins it *)
  let status () =
    List.find
      (fun (st : Build_status.t) -> st.index_id = 10)
      (Engine.build_progress ctx)
  in
  let ckpts = ref [] in
  Oib_obs.Trace.add_sink trace ~name:"ckpt" (fun s ->
      match s.Oib_obs.Event.event with
      | Oib_obs.Event.Ib_checkpoint { stage = "insert"; _ } ->
        ckpts := (status ()).keys_processed :: !ckpts
      | _ -> ());
  let cfg =
    { (Ib.default_config Ib.Nsf) with batch_size = 5; ckpt_every_keys = 7 }
  in
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         Ib.build_index ctx cfg ~table:1
           { Ib.index_id = 10; key_cols = [ 0 ]; unique }));
  Sched.run ctx.Ctx.sched;
  check_clean ctx;
  let rid (k : Oib_util.Ikey.t) =
    Printf.sprintf "%d.%d" k.rid.Oib_util.Rid.page k.rid.Oib_util.Rid.slot
  in
  let batches =
    List.filter_map
      (fun (r : Oib_wal.Log_record.t) ->
        match r.body with
        | Oib_wal.Log_record.Index_bulk_insert { keys; _ } ->
          Some (String.concat " " (List.map rid keys))
        | _ -> None)
      (Oib_wal.Log_manager.all_records ctx.Ctx.log)
  in
  let steps =
    List.map
      (fun (ph, step) -> Printf.sprintf "%s@%d" (Build_status.phase_name ph) step)
      (Build_status.history (status ()))
  in
  (batches, List.rev !ckpts, steps)

let check_boundaries ~unique ~level ~batches ~ckpts ~steps () =
  let b, h, s = insert_boundaries ~unique ~level in
  Alcotest.(check (list string)) "Index_bulk_insert keys" batches b;
  Alcotest.(check (list int)) "keys processed at each checkpoint" ckpts h;
  Alcotest.(check (list string)) "phase steps" steps s

let prop_nsf_seeds =
  QCheck.Test.make ~name:"NSF online build consistent across seeds" ~count:12
    QCheck.small_nat (fun seed ->
      let ctx, _ = online_build ~seed ~rows:120 ~workers:3 ~txns:12 () in
      Engine.consistency_errors ctx = []
      && (Catalog.index ctx.Ctx.catalog 10).phase = Catalog.Ready)

let prop_nsf_no_specialized_split =
  QCheck.Test.make ~name:"NSF correct without specialized split" ~count:6
    QCheck.small_nat (fun seed ->
      let cfg = { (Ib.default_config Ib.Nsf) with specialized_split = false } in
      let ctx, _ = online_build ~seed ~rows:100 ~workers:3 ~txns:10 ~cfg () in
      Engine.consistency_errors ctx = [])

let () =
  Alcotest.run "nsf"
    [
      ( "build",
        [
          Alcotest.test_case "quiet table" `Quick test_build_quiet_table;
          Alcotest.test_case "under concurrent updates" `Quick
            test_build_under_fire;
          Alcotest.test_case "duplicate races exercised" `Quick
            test_duplicate_rejections_happen;
          Alcotest.test_case "multi-key log records" `Quick
            test_bulk_logging_batches;
          Alcotest.test_case "descriptor quiesce" `Quick
            test_quiesce_blocks_then_releases;
          Alcotest.test_case "insert run boundaries" `Quick
            (check_boundaries ~unique:false ~level:0
               ~batches:
                 [ "0.12 2.2 0.10 3.9 1.12"; "3.13"; "0.11 2.11 0.0 1.14 3.7";
                   "2.9"; "1.1 3.11 0.6 3.1 2.13"; "2.3 2.4";
                   "0.1 0.7 1.7 3.6 3.8"; "1.9 1.5 0.3 0.14 2.1"; "3.5";
                   "2.14 3.12 3.0 3.14 2.10"; "1.0"; "1.6 0.9 1.10 0.4 1.2";
                   "1.8"; "2.6 1.4 3.4 1.13 3.3"; "3.10"; "2.5 2.8" ]
               ~ckpts:[ 66; 73; 80; 87; 94; 101; 108; 115 ]
               ~steps:
                 [ "init@0"; "quiesce@1"; "scan@1"; "merge@16"; "insert@16";
                   "ready@28" ]);
          Alcotest.test_case "insert run boundaries, unique, backed off"
            `Quick
            (check_boundaries ~unique:true ~level:1
               ~batches:
                 [ "0.0 1.0"; "0.6 1.6"; "0.12 1.12"; "0.18"; "0.1 1.1";
                   "0.7 1.7"; "0.13 1.13"; "0.19"; "0.2 1.2"; "0.8 1.8";
                   "0.14 1.14"; "0.20"; "0.3 1.3"; "0.9 1.9"; "0.15 1.15";
                   "0.21"; "0.4 1.4"; "0.10 1.10"; "0.16 1.16"; "0.22";
                   "0.5 1.5"; "0.11 1.11"; "0.17" ]
               ~ckpts:[ 47; 54; 61; 68; 75 ]
               ~steps:
                 [ "init@0"; "quiesce@1"; "scan@1"; "merge@5"; "insert@5";
                   "ready@11" ]);
        ] );
      ( "unique",
        [
          Alcotest.test_case "unique build success" `Quick
            test_unique_build_success;
          Alcotest.test_case "violation cancels build" `Quick
            test_unique_build_violation_cancels;
          Alcotest.test_case "guard runs for every key" `Quick
            test_unique_guard_every_key;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "multi-index one scan" `Quick
            test_multi_index_one_scan;
          Alcotest.test_case "cancel mid-flight" `Quick
            test_cancel_build_mid_flight;
          Alcotest.test_case "pseudo-delete gc" `Quick test_gc_after_build;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_nsf_seeds; prop_nsf_no_specialized_split ] );
    ]
