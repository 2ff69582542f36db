open Oib_util
open Oib_core
module Sched = Oib_sim.Sched
module Txn = Oib_txn.Txn_manager

let rcd v p = Record.make [| v; p |]

let setup ?(seed = 11) () =
  let ctx = Engine.create ~seed ~page_capacity:512 () in
  let _ = Catalog.create_table ctx.Ctx.catalog ctx.Ctx.pool ~table_id:1 in
  ctx

let must = function
  | Ok v -> v
  | Error `Deadlock -> Alcotest.fail "unexpected deadlock"
  | Error (`Unique_violation _) -> Alcotest.fail "unexpected unique violation"

let record = Alcotest.testable Record.pp Record.equal

(* --- basic transactional record ops --- *)

let test_insert_read () =
  let ctx = setup () in
  let rid =
    must (Engine.run_txn ctx (fun txn -> Table_ops.insert ctx txn ~table:1 (rcd "a" "1")))
  in
  let r =
    must (Engine.run_txn ctx (fun txn -> Table_ops.read ctx txn ~table:1 rid))
  in
  Alcotest.(check (option record)) "read back" (Some (rcd "a" "1")) r

let test_delete_then_missing () =
  let ctx = setup () in
  let rid =
    must (Engine.run_txn ctx (fun txn -> Table_ops.insert ctx txn ~table:1 (rcd "a" "1")))
  in
  must (Engine.run_txn ctx (fun txn -> Table_ops.delete ctx txn ~table:1 rid));
  let r = must (Engine.run_txn ctx (fun txn -> Table_ops.read ctx txn ~table:1 rid)) in
  Alcotest.(check (option record)) "gone" None r

let test_update () =
  let ctx = setup () in
  let rid =
    must (Engine.run_txn ctx (fun txn -> Table_ops.insert ctx txn ~table:1 (rcd "a" "1")))
  in
  must (Engine.run_txn ctx (fun txn -> Table_ops.update ctx txn ~table:1 rid (rcd "b" "2")));
  let r = must (Engine.run_txn ctx (fun txn -> Table_ops.read ctx txn ~table:1 rid)) in
  Alcotest.(check (option record)) "updated" (Some (rcd "b" "2")) r

let test_rollback_restores_record () =
  let ctx = setup () in
  let rid =
    must (Engine.run_txn ctx (fun txn -> Table_ops.insert ctx txn ~table:1 (rcd "a" "1")))
  in
  (* delete + update inside an aborted transaction *)
  let txn = Txn.begin_txn ctx.Ctx.txns in
  Table_ops.delete ctx txn ~table:1 rid;
  (* the insert may legitimately reuse the slot our own delete freed *)
  let _rid2 = Table_ops.insert ctx txn ~table:1 (rcd "x" "9") in
  Table_ops.rollback ctx txn;
  let r = must (Engine.run_txn ctx (fun txn -> Table_ops.read ctx txn ~table:1 rid)) in
  Alcotest.(check (option record)) "delete undone" (Some (rcd "a" "1")) r;
  Alcotest.(check int) "exactly the original record remains" 1
    (Oib_storage.Heap_file.record_count (Catalog.table ctx.Ctx.catalog 1).heap)

let test_rollback_rid_reusable () =
  (* the paper's example depends on a rolled-back insert freeing its RID *)
  let ctx = setup () in
  let txn = Txn.begin_txn ctx.Ctx.txns in
  let rid = Table_ops.insert ctx txn ~table:1 (rcd "a" "1") in
  Table_ops.rollback ctx txn;
  let rid2 =
    must (Engine.run_txn ctx (fun txn -> Table_ops.insert ctx txn ~table:1 (rcd "b" "2")))
  in
  Alcotest.(check bool) "same RID reused" true (Rid.equal rid rid2)

(* --- index maintenance on a Ready index --- *)

let with_ready_index ?(unique = false) ctx =
  (* build an index the quick way: on an empty/small table via NSF with no
     concurrency, inside a fiber *)
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         Ib.build_index ctx (Ib.default_config Ib.Nsf) ~table:1
           { Ib.index_id = 10; key_cols = [ 0 ]; unique }));
  Sched.run ctx.Ctx.sched

let test_index_maintained_after_build () =
  let ctx = setup () in
  let _rid =
    must (Engine.run_txn ctx (fun txn -> Table_ops.insert ctx txn ~table:1 (rcd "a" "1")))
  in
  with_ready_index ctx;
  let rid2 =
    must (Engine.run_txn ctx (fun txn -> Table_ops.insert ctx txn ~table:1 (rcd "b" "2")))
  in
  must (Engine.run_txn ctx (fun txn -> Table_ops.update ctx txn ~table:1 rid2 (rcd "c" "2")));
  Alcotest.(check (list string)) "no oracle errors" [] (Engine.consistency_errors ctx);
  let hits =
    must (Engine.run_txn ctx (fun txn -> Table_ops.index_lookup ctx txn ~index:10 "c"))
  in
  Alcotest.(check int) "lookup via index" 1 (List.length hits);
  let miss =
    must (Engine.run_txn ctx (fun txn -> Table_ops.index_lookup ctx txn ~index:10 "b"))
  in
  Alcotest.(check int) "old key invisible" 0 (List.length miss)

let test_unique_violation_detected () =
  let ctx = setup () in
  with_ready_index ~unique:true ctx;
  must (Engine.run_txn ctx (fun txn -> ignore (Table_ops.insert ctx txn ~table:1 (rcd "dup" "1"))));
  match
    Engine.run_txn ctx (fun txn ->
        ignore (Table_ops.insert ctx txn ~table:1 (rcd "dup" "2")))
  with
  | Error (`Unique_violation (10, "dup")) -> ()
  | Ok () -> Alcotest.fail "duplicate accepted"
  | Error _ -> Alcotest.fail "wrong error"

let test_unique_same_txn_delete_then_insert () =
  let ctx = setup () in
  with_ready_index ~unique:true ctx;
  let rid =
    must (Engine.run_txn ctx (fun txn -> Table_ops.insert ctx txn ~table:1 (rcd "k" "1")))
  in
  (* delete + reinsert of the same key value in one transaction is legal *)
  must
    (Engine.run_txn ctx (fun txn ->
         Table_ops.delete ctx txn ~table:1 rid;
         ignore (Table_ops.insert ctx txn ~table:1 (rcd "k" "2"))));
  Alcotest.(check (list string)) "consistent" [] (Engine.consistency_errors ctx)

let test_unique_waits_for_deleter () =
  (* deleter active: a rival inserter must wait; after the deleter commits
     the insert succeeds *)
  let ctx = setup () in
  with_ready_index ~unique:true ctx;
  let rid =
    must (Engine.run_txn ctx (fun txn -> Table_ops.insert ctx txn ~table:1 (rcd "k" "1")))
  in
  let order = ref [] in
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"deleter" (fun () ->
         let txn = Txn.begin_txn ctx.Ctx.txns in
         Table_ops.delete ctx txn ~table:1 rid;
         Sched.yield ctx.Ctx.sched;
         Sched.yield ctx.Ctx.sched;
         order := "deleter-commit" :: !order;
         Txn.commit ctx.Ctx.txns txn));
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"inserter" (fun () ->
         (* wait until the delete happened *)
         Sched.yield ctx.Ctx.sched;
         match
           Engine.run_txn ctx (fun txn ->
               ignore (Table_ops.insert ctx txn ~table:1 (rcd "k" "2")))
         with
         | Ok () -> order := "insert-done" :: !order
         | Error _ -> order := "insert-failed" :: !order));
  Sched.run ctx.Ctx.sched;
  Alcotest.(check bool)
    (Printf.sprintf "order: %s" (String.concat "," (List.rev !order)))
    true
    (List.rev !order = [ "deleter-commit"; "insert-done" ]
    || List.rev !order = [ "insert-failed"; "deleter-commit" ]
       (* if the scheduler ran the inserter before the delete, the row
          still existed: a genuine violation *)
    || List.rev !order = [ "deleter-commit"; "insert-failed" ]);
  Alcotest.(check (list string)) "consistent" [] (Engine.consistency_errors ctx)

(* --- free-space reports from the record operations ---

   On 512-byte pages a [big] record costs 103 bytes, so four fill a page
   and leave 100 free; a [probe] costs 317. Placement passes over a page
   whose free-space bound is below the record's cost, so each operation
   that frees bytes must report it or the probe lands on a new page. *)

let big v = rcd v (String.make 86 'x')

let probe = rcd "p" (String.make 300 'y')

let insert_committed ctx r =
  must (Engine.run_txn ctx (fun txn -> Table_ops.insert ctx txn ~table:1 r))

let test_update_shrink_reported () =
  let ctx = setup () in
  let rids = List.init 8 (fun i -> insert_committed ctx (big (string_of_int i))) in
  let first = List.hd rids in
  List.iter
    (fun (rid : Rid.t) ->
      if rid.page = first.page then
        must
          (Engine.run_txn ctx (fun txn ->
               Table_ops.update ctx txn ~table:1 rid (rcd "a" ""))))
    rids;
  let rid = insert_committed ctx probe in
  Alcotest.(check int) "probe fits only the shrunk page" first.page rid.page

let test_undo_insert_reported () =
  let ctx = setup () in
  List.iter (fun i -> ignore (insert_committed ctx (big (string_of_int i)))) [ 0; 1; 2; 3 ];
  let txn = Txn.begin_txn ctx.Ctx.txns in
  let rid = Table_ops.insert ctx txn ~table:1 probe in
  Table_ops.rollback ctx txn;
  let again = insert_committed ctx probe in
  Alcotest.(check bool) "rolled-back space reused" true (Rid.equal rid again)

let test_cancelled_reservation_reported () =
  (* the inserter's first choice is the slot an uncommitted delete freed:
     it cancels the reservation, waits out the deleter, and must then find
     the same slot again *)
  let ctx = setup () in
  let rids = List.init 4 (fun i -> insert_committed ctx (big (string_of_int i))) in
  let victim = List.hd rids in
  let deleted = ref false and inserting = ref false and landed = ref None in
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"deleter" (fun () ->
         let txn = Txn.begin_txn ctx.Ctx.txns in
         Table_ops.delete ctx txn ~table:1 victim;
         deleted := true;
         while not !inserting do Sched.yield ctx.Ctx.sched done;
         Txn.commit ctx.Ctx.txns txn));
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"inserter" (fun () ->
         while not !deleted do Sched.yield ctx.Ctx.sched done;
         inserting := true;
         landed := Some (insert_committed ctx (big "n"))));
  Sched.run ctx.Ctx.sched;
  Alcotest.(check bool) "lands in the freed slot" true
    (Option.equal Rid.equal (Some victim) !landed)

(* --- crash recovery (no index builds) --- *)

let test_committed_survive_crash () =
  let ctx = setup () in
  let rid =
    must (Engine.run_txn ctx (fun txn -> Table_ops.insert ctx txn ~table:1 (rcd "a" "1")))
  in
  (* commit forces the log; pages are NOT flushed *)
  let ctx' = Engine.crash ctx in
  let r = must (Engine.run_txn ctx' (fun txn -> Table_ops.read ctx' txn ~table:1 rid)) in
  Alcotest.(check (option record)) "redo recovered it" (Some (rcd "a" "1")) r

let test_loser_rolled_back_at_restart () =
  let ctx = setup () in
  let rid =
    must (Engine.run_txn ctx (fun txn -> Table_ops.insert ctx txn ~table:1 (rcd "a" "1")))
  in
  (* an uncommitted transaction's changes, partially stolen to disk *)
  let txn = Txn.begin_txn ctx.Ctx.txns in
  Table_ops.delete ctx txn ~table:1 rid;
  let _rid2 = Table_ops.insert ctx txn ~table:1 (rcd "loser" "x") in
  Oib_wal.Log_manager.flush_all ctx.Ctx.log;
  Oib_storage.Buffer_pool.flush_some ctx.Ctx.pool (Rng.create 3) 0.7;
  let ctx' = Engine.crash ctx in
  let r = must (Engine.run_txn ctx' (fun txn -> Table_ops.read ctx' txn ~table:1 rid)) in
  Alcotest.(check (option record)) "loser delete undone" (Some (rcd "a" "1")) r;
  Alcotest.(check int) "loser insert gone" 1
    (Oib_storage.Heap_file.record_count (Catalog.table ctx'.Ctx.catalog 1).heap)

let test_crash_is_idempotent () =
  let ctx = setup () in
  let rid =
    must (Engine.run_txn ctx (fun txn -> Table_ops.insert ctx txn ~table:1 (rcd "a" "1")))
  in
  let txn = Txn.begin_txn ctx.Ctx.txns in
  Table_ops.update ctx txn ~table:1 rid (rcd "dirty" "z");
  Oib_wal.Log_manager.flush_all ctx.Ctx.log;
  let ctx' = Engine.crash ctx in
  let ctx'' = Engine.crash ctx' in
  let r = must (Engine.run_txn ctx'' (fun txn -> Table_ops.read ctx'' txn ~table:1 rid)) in
  Alcotest.(check (option record)) "double restart ok" (Some (rcd "a" "1")) r

let test_index_recovered_after_crash () =
  let ctx = setup () in
  with_ready_index ctx;
  let _ =
    must (Engine.run_txn ctx (fun txn -> Table_ops.insert ctx txn ~table:1 (rcd "a" "1")))
  in
  let _ =
    must (Engine.run_txn ctx (fun txn -> Table_ops.insert ctx txn ~table:1 (rcd "b" "2")))
  in
  let ctx' = Engine.crash ctx in
  Alcotest.(check (list string)) "index consistent after restart" []
    (Engine.consistency_errors ctx');
  let hits =
    must (Engine.run_txn ctx' (fun txn -> Table_ops.index_lookup ctx' txn ~index:10 "a"))
  in
  Alcotest.(check int) "index answers" 1 (List.length hits)

let test_loser_index_ops_undone_at_restart () =
  let ctx = setup () in
  with_ready_index ctx;
  let rid =
    must (Engine.run_txn ctx (fun txn -> Table_ops.insert ctx txn ~table:1 (rcd "a" "1")))
  in
  let txn = Txn.begin_txn ctx.Ctx.txns in
  Table_ops.update ctx txn ~table:1 rid (rcd "zzz" "9");
  ignore (Table_ops.insert ctx txn ~table:1 (rcd "loser" "l"));
  Oib_wal.Log_manager.flush_all ctx.Ctx.log;
  let ctx' = Engine.crash ctx in
  Alcotest.(check (list string)) "oracle clean" [] (Engine.consistency_errors ctx');
  let hits =
    must (Engine.run_txn ctx' (fun txn -> Table_ops.index_lookup ctx' txn ~index:10 "a"))
  in
  Alcotest.(check int) "old key back" 1 (List.length hits)

(* --- concurrent mixed workload sanity (no build) --- *)

let test_mixed_workload_consistent () =
  let ctx = setup ~seed:21 () in
  let _ = Oib_workload.Driver.populate ctx ~table:1 ~rows:150 ~seed:5 in
  with_ready_index ctx;
  let cfg =
    { Oib_workload.Driver.default with workers = 4; txns_per_worker = 30 }
  in
  let stats = Oib_workload.Driver.spawn_workers ctx cfg ~table:1 in
  Sched.run ctx.Ctx.sched;
  Alcotest.(check bool) "work happened" true ((!stats).committed > 50);
  Alcotest.(check (list string)) "oracle clean" [] (Engine.consistency_errors ctx)

let prop_mixed_workload_seeds =
  QCheck.Test.make ~name:"mixed workload consistent across seeds" ~count:10
    QCheck.small_nat (fun seed ->
      let ctx = setup ~seed () in
      let _ = Oib_workload.Driver.populate ctx ~table:1 ~rows:80 ~seed in
      with_ready_index ctx;
      let cfg =
        {
          Oib_workload.Driver.default with
          seed;
          workers = 3;
          txns_per_worker = 15;
        }
      in
      let _ = Oib_workload.Driver.spawn_workers ctx cfg ~table:1 in
      Sched.run ctx.Ctx.sched;
      Engine.consistency_errors ctx = [])

let () =
  Alcotest.run "core"
    [
      ( "record-ops",
        [
          Alcotest.test_case "insert/read" `Quick test_insert_read;
          Alcotest.test_case "delete" `Quick test_delete_then_missing;
          Alcotest.test_case "update" `Quick test_update;
          Alcotest.test_case "rollback restores" `Quick
            test_rollback_restores_record;
          Alcotest.test_case "rollback frees RID" `Quick
            test_rollback_rid_reusable;
        ] );
      ( "free-space",
        [
          Alcotest.test_case "shrinking update" `Quick
            test_update_shrink_reported;
          Alcotest.test_case "rolled-back insert" `Quick
            test_undo_insert_reported;
          Alcotest.test_case "cancelled reservation" `Quick
            test_cancelled_reservation_reported;
        ] );
      ( "index-maintenance",
        [
          Alcotest.test_case "maintained after build" `Quick
            test_index_maintained_after_build;
          Alcotest.test_case "unique violation" `Quick
            test_unique_violation_detected;
          Alcotest.test_case "unique delete+insert same txn" `Quick
            test_unique_same_txn_delete_then_insert;
          Alcotest.test_case "unique waits for deleter" `Quick
            test_unique_waits_for_deleter;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "committed survive" `Quick
            test_committed_survive_crash;
          Alcotest.test_case "loser rolled back" `Quick
            test_loser_rolled_back_at_restart;
          Alcotest.test_case "restart idempotent" `Quick test_crash_is_idempotent;
          Alcotest.test_case "index recovered" `Quick
            test_index_recovered_after_crash;
          Alcotest.test_case "loser index ops undone" `Quick
            test_loser_index_ops_undone_at_restart;
        ] );
      ( "workload",
        [
          Alcotest.test_case "mixed workload" `Quick test_mixed_workload_consistent;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_mixed_workload_seeds ] );
    ]
