(* Unit tests for the restart passes themselves (the engine-level behaviour
   is covered by test_core / test_restart). *)

open Oib_util
open Oib_testsupport
module LR = Oib_wal.Log_record
module Lsn = Oib_wal.Lsn
module LM = Oib_wal.Log_manager
module Restart = Oib_core.Restart

let heap_insert page slot v =
  LR.Heap
    {
      page;
      visible_indexes = 0;
      sidefiled = [];
      op = LR.Heap_insert { rid = Rid.make ~page ~slot; record = Record.make [| v |] };
    }

let heap_delete page slot v =
  LR.Heap
    {
      page;
      visible_indexes = 0;
      sidefiled = [];
      op = LR.Heap_delete { rid = Rid.make ~page ~slot; record = Record.make [| v |] };
    }

(* --- analysis --- *)

let test_analysis_classifies () =
  let env = Tenv.make () in
  let log = env.Tenv.log in
  let a1 = LM.append log ~txn:(Some 1) ~prev_lsn:Lsn.nil LR.Begin in
  let a2 = LM.append log ~txn:(Some 1) ~prev_lsn:a1 LR.Commit in
  let _ = LM.append log ~txn:(Some 1) ~prev_lsn:a2 LR.End in
  let b1 = LM.append log ~txn:(Some 2) ~prev_lsn:Lsn.nil LR.Begin in
  let b2 = LM.append log ~txn:(Some 2) ~prev_lsn:b1 (heap_insert 5 0 "x") in
  let _ = LM.append log ~txn:None ~prev_lsn:Lsn.nil (LR.Build_start { index = 9; table = 1; algorithm = LR.Nsf }) in
  let _ = LM.append log ~txn:None ~prev_lsn:Lsn.nil (LR.Build_start { index = 8; table = 1; algorithm = LR.Sf }) in
  let _ = LM.append log ~txn:None ~prev_lsn:Lsn.nil (LR.Build_done { index = 8 }) in
  LM.flush_all log;
  let a = Restart.analyze (LM.durable_records (LM.crash log)) in
  Alcotest.(check (list (pair int int))) "losers at their last lsn"
    [ (2, Lsn.to_int b2) ]
    (List.map
       (fun (id, chain) -> (id, Lsn.to_int (List.hd chain).LR.lsn))
       a.losers);
  Alcotest.(check bool) "build 9 in progress, with its algorithm" true
    (a.builds_in_progress = [ (9, LR.Nsf) ]);
  Alcotest.(check int) "max txn id" 2 a.max_txn_id

let test_analysis_completed_rollback_not_loser () =
  let env = Tenv.make () in
  let log = env.Tenv.log in
  let a1 = LM.append log ~txn:(Some 4) ~prev_lsn:Lsn.nil LR.Begin in
  let a2 = LM.append log ~txn:(Some 4) ~prev_lsn:a1 LR.Abort in
  let _ = LM.append log ~txn:(Some 4) ~prev_lsn:a2 LR.End in
  LM.flush_all log;
  let a = Restart.analyze (LM.durable_records (LM.crash log)) in
  Alcotest.(check int) "no losers" 0 (List.length a.losers)

(* --- heap redo --- *)

let test_redo_rebuilds_lost_page () =
  let env = Tenv.make () in
  let log = env.Tenv.log in
  (* a page that never reached the stable store is rebuilt from the log *)
  let l1 = LM.append log ~txn:(Some 1) ~prev_lsn:Lsn.nil (heap_insert 3 0 "a") in
  let l2 = LM.append log ~txn:(Some 1) ~prev_lsn:l1 (heap_insert 3 1 "b") in
  let _ = LM.append log ~txn:(Some 1) ~prev_lsn:l2 (heap_delete 3 0 "a") in
  LM.flush_all log;
  let env' = Tenv.crash env in
  Restart.redo_heap
    (Restart.analyze (LM.durable_records env'.Tenv.log))
    env'.Tenv.pool ~page_capacity:256;
  let page =
    Oib_storage.Buffer_pool.get env'.Tenv.pool ~kind:Oib_storage.Heap_page.kind 3
  in
  let hp = Oib_storage.Heap_page.of_payload page.Oib_storage.Page.payload in
  Alcotest.(check int) "one record" 1 (Oib_storage.Heap_page.record_count hp);
  Alcotest.(check (option (of_pp Record.pp))) "slot 1 content"
    (Some (Record.make [| "b" |]))
    (Oib_storage.Heap_page.get hp 1)

let test_redo_page_lsn_idempotence () =
  let env = Tenv.make () in
  let log = env.Tenv.log in
  let l1 = LM.append log ~txn:(Some 1) ~prev_lsn:Lsn.nil (heap_insert 3 0 "a") in
  LM.flush_all log;
  (* apply + flush the page so its page_LSN covers the record *)
  let p =
    Oib_storage.Buffer_pool.install env.Tenv.pool
      ~kind:Oib_storage.Heap_page.kind 3
      ~payload:(Oib_storage.Heap_page.Heap (Oib_storage.Heap_page.create ~capacity:256))
  in
  Oib_storage.Heap_page.put
    (Oib_storage.Heap_page.of_payload p.Oib_storage.Page.payload)
    0 (Record.make [| "a" |]);
  Oib_storage.Page.set_lsn p l1;
  Oib_storage.Buffer_pool.flush_page env.Tenv.pool p;
  let env' = Tenv.crash env in
  Restart.redo_heap
    (Restart.analyze (LM.durable_records env'.Tenv.log))
    env'.Tenv.pool ~page_capacity:256;
  let page =
    Oib_storage.Buffer_pool.get env'.Tenv.pool ~kind:Oib_storage.Heap_page.kind 3
  in
  let hp = Oib_storage.Heap_page.of_payload page.Oib_storage.Page.payload in
  Alcotest.(check int) "no double apply" 1 (Oib_storage.Heap_page.record_count hp)

(* --- index replay --- *)

let key i = Ikey.make (Printf.sprintf "k%03d" i) (Rid.make ~page:0 ~slot:i)

let test_replay_from_image () =
  let env = Tenv.make () in
  let log = env.Tenv.log in
  let tree =
    Oib_btree.Btree.create env.Tenv.pool env.Tenv.kv ~index_id:5
      ~page_capacity:256 ~unique:false
  in
  (* pre-image state *)
  for i = 0 to 9 do
    ignore (Oib_btree.Btree.set_state tree (key i) LR.Present)
  done;
  LM.flush_all log;
  Oib_btree.Btree.checkpoint_image tree ~lsn:(LM.flushed_lsn log);
  (* post-image, logged operations *)
  let ops =
    [
      (key 3, LR.Pseudo_deleted);
      (key 10, LR.Present);
      (key 3, LR.Absent);
      (key 11, LR.Pseudo_deleted);
    ]
  in
  let prev = ref Lsn.nil in
  List.iter
    (fun (k, after) ->
      ignore (Oib_btree.Btree.set_state tree k after);
      prev :=
        LM.append log ~txn:(Some 1) ~prev_lsn:!prev
          (LR.Index_key
             { redoable = true; op = { index = 5; key = k; before = LR.Absent; after } }))
    ops;
  (* an undo-only record must NOT be replayed *)
  let _ =
    LM.append log ~txn:(Some 1) ~prev_lsn:!prev
      (LR.Index_key
         {
           redoable = false;
           op = { index = 5; key = key 50; before = LR.Absent; after = LR.Present };
         })
  in
  (* an op for another index must not leak in *)
  let _ =
    LM.append log ~txn:(Some 2) ~prev_lsn:Lsn.nil
      (LR.Index_key
         {
           redoable = true;
           op = { index = 6; key = key 60; before = LR.Absent; after = LR.Present };
         })
  in
  LM.flush_all log;
  let env' = Tenv.crash env in
  let tree' = Oib_btree.Btree.open_from_image env'.Tenv.pool env'.Tenv.kv ~index_id:5 in
  Restart.replay_index (Restart.analyze (LM.durable_records env'.Tenv.log)) tree';
  Alcotest.(check bool) "k3 gone" true
    (Oib_btree.Btree.read_state tree' (key 3) = LR.Absent);
  Alcotest.(check bool) "k10 present" true
    (Oib_btree.Btree.read_state tree' (key 10) = LR.Present);
  Alcotest.(check bool) "k11 tombstone" true
    (Oib_btree.Btree.read_state tree' (key 11) = LR.Pseudo_deleted);
  Alcotest.(check bool) "undo-only skipped" true
    (Oib_btree.Btree.read_state tree' (key 50) = LR.Absent);
  Alcotest.(check bool) "other index ignored" true
    (Oib_btree.Btree.read_state tree' (key 60) = LR.Absent);
  Alcotest.(check (list string)) "structure" [] (Oib_btree.Bt_check.check tree')

let test_replay_bulk_inserts () =
  let env = Tenv.make () in
  let log = env.Tenv.log in
  let tree =
    Oib_btree.Btree.create env.Tenv.pool env.Tenv.kv ~index_id:5
      ~page_capacity:256 ~unique:false
  in
  let keys = List.init 30 key in
  List.iter (fun k -> ignore (Oib_btree.Btree.set_state tree k LR.Present)) keys;
  let _ =
    LM.append log ~txn:None ~prev_lsn:Lsn.nil (LR.Index_bulk_insert { index = 5; keys })
  in
  LM.flush_all log;
  let env' = Tenv.crash env in
  let tree' = Oib_btree.Btree.open_from_image env'.Tenv.pool env'.Tenv.kv ~index_id:5 in
  Restart.replay_index (Restart.analyze (LM.durable_records env'.Tenv.log)) tree';
  Alcotest.(check int) "all bulk keys replayed" 30
    (Oib_btree.Btree.present_count tree')

let prop_replay_equals_live =
  QCheck.Test.make
    ~name:"replaying the logged suffix reproduces the live tree" ~count:30
    QCheck.(pair small_nat (int_bound 3))
    (fun (seed, ckpt_quarter) ->
      let env = Tenv.make ~seed () in
      let log = env.Tenv.log in
      let tree =
        Oib_btree.Btree.create env.Tenv.pool env.Tenv.kv ~index_id:5
          ~page_capacity:200 ~unique:false
      in
      let rng = Rng.create seed in
      let prev = ref Lsn.nil in
      for step = 0 to 199 do
        let k = key (Rng.int rng 40) in
        let after =
          match Rng.int rng 3 with
          | 0 -> LR.Present
          | 1 -> LR.Pseudo_deleted
          | _ -> LR.Absent
        in
        let before = Oib_btree.Btree.set_state tree k after in
        if before <> after then
          prev :=
            LM.append log ~txn:(Some 1) ~prev_lsn:!prev
              (LR.Index_key
                 { redoable = true; op = { index = 5; key = k; before; after } });
        if step = 50 * ckpt_quarter then begin
          LM.flush_all log;
          Oib_btree.Btree.checkpoint_image tree ~lsn:(LM.flushed_lsn log)
        end
      done;
      let live = Oib_btree.Bt_check.collect_entries tree in
      LM.flush_all log;
      let env' = Tenv.crash env in
      let tree' =
        Oib_btree.Btree.open_from_image env'.Tenv.pool env'.Tenv.kv ~index_id:5
      in
      Restart.replay_index (Restart.analyze (LM.durable_records env'.Tenv.log)) tree';
      Oib_btree.Bt_check.check tree' = []
      && Oib_btree.Bt_check.collect_entries tree' = live)

let () =
  Alcotest.run "recovery"
    [
      ( "analysis",
        [
          Alcotest.test_case "classifies" `Quick test_analysis_classifies;
          Alcotest.test_case "completed rollback not loser" `Quick
            test_analysis_completed_rollback_not_loser;
        ] );
      ( "heap-redo",
        [
          Alcotest.test_case "rebuilds lost page" `Quick test_redo_rebuilds_lost_page;
          Alcotest.test_case "page-lsn idempotence" `Quick
            test_redo_page_lsn_idempotence;
        ] );
      ( "index-replay",
        [
          Alcotest.test_case "from image" `Quick test_replay_from_image;
          Alcotest.test_case "bulk inserts" `Quick test_replay_bulk_inserts;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_replay_equals_live ] );
    ]
