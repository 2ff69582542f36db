module Txn = Oib_txn.Txn_manager
module LR = Oib_wal.Log_record
module Lsn = Oib_wal.Lsn
module LM = Oib_wal.Log_manager
module Restart = Oib_core.Restart

let mk () =
  let sched = Oib_sim.Sched.create () in
  let metrics = Oib_sim.Metrics.create () in
  let log = LM.create metrics in
  let locks = Oib_lock.Lock_manager.create sched metrics in
  (log, locks, Txn.create log locks metrics)

let heap_body page =
  LR.Heap
    {
      page;
      visible_indexes = 0;
      sidefiled = [];
      op =
        LR.Heap_insert
          {
            rid = Oib_util.Rid.make ~page ~slot:0;
            record = Oib_util.Record.make [| "x" |];
          };
    }

let index_body i =
  LR.Index_key
    {
      redoable = true;
      op =
        {
          index = 1;
          key = Oib_util.Ikey.make (Printf.sprintf "k%04d" i) Oib_util.Rid.minus_infinity;
          before = LR.Absent;
          after = LR.Present;
        };
    }

(* The actions of [txn_id]'s CLRs, in log order. *)
let clr_actions records txn_id =
  List.filter_map
    (fun (r : LR.t) ->
      match r.body with
      | LR.Clr { action; _ } when r.txn = Some txn_id -> Some action
      | _ -> None)
    records

(* An undo executor that compensates each record by logging it back as the
   CLR action, raising [Failure] after the [cut]-th CLR. *)
let undo_cut_after cut =
  let n = ref 0 in
  fun body ~clr ->
    ignore (clr body);
    incr n;
    if !n = cut then failwith "cut"

let test_commit_forces_log () =
  let log, _, tm = mk () in
  let txn = Txn.begin_txn tm in
  let lsn = Txn.log_op tm txn (heap_body 1) in
  Alcotest.(check bool) "not yet durable" true (Lsn.( < ) (LM.flushed_lsn log) lsn);
  Txn.commit tm txn;
  Alcotest.(check bool) "durable after commit" true
    (Lsn.( >= ) (LM.flushed_lsn log) lsn);
  Alcotest.(check bool) "status" true (Txn.status txn = Txn.Committed)

let test_commit_releases_locks () =
  let _, locks, tm = mk () in
  let txn = Txn.begin_txn tm in
  let name = Oib_lock.Lock_manager.Table 1 in
  ignore (Oib_lock.Lock_manager.lock locks ~txn:(Txn.id txn) name X);
  Txn.commit tm txn;
  Alcotest.(check bool) "released" true
    (Oib_lock.Lock_manager.try_lock locks ~txn:999 name X)

let test_rollback_undoes_in_reverse () =
  let _, _, tm = mk () in
  let txn = Txn.begin_txn tm in
  ignore (Txn.log_op tm txn (heap_body 1));
  ignore (Txn.log_op tm txn (heap_body 2));
  ignore (Txn.log_op tm txn (heap_body 3));
  let undone = ref [] in
  Txn.rollback tm txn ~undo:(fun body ~clr ->
      (match body with
      | LR.Heap { page; _ } -> undone := page :: !undone
      | _ -> ());
      ignore (clr body));
  Alcotest.(check (list int)) "reverse order" [ 3; 2; 1 ] (List.rev !undone);
  Alcotest.(check bool) "status" true (Txn.status txn = Txn.Aborted)

let test_clr_chain_skips_on_restart () =
  (* interrupting a rollback and restarting it must not undo anything
     twice: the CLR's undo_next pointers skip compensated records *)
  let log, _, tm = mk () in
  let txn = Txn.begin_txn tm in
  ignore (Txn.log_op tm txn (heap_body 1));
  ignore (Txn.log_op tm txn (heap_body 2));
  (* partial rollback: undo only the newest record, then "crash" *)
  let steps = ref 0 in
  (try
     Txn.rollback tm txn ~undo:(fun body ~clr ->
         incr steps;
         ignore (clr body);
         if !steps = 1 then failwith "crash")
   with Failure _ -> ());
  LM.flush_all log;
  (* restart: adopt at the last CLR and finish the rollback *)
  let survivor = LM.crash log in
  let metrics = Oib_sim.Metrics.create () in
  let locks = Oib_lock.Lock_manager.create (Oib_sim.Sched.create ()) metrics in
  let tm' = Txn.create survivor locks metrics in
  let chain =
    List.rev
      (List.filter (fun (r : LR.t) -> r.txn = Some 1) (LM.durable_records survivor))
  in
  let txn' = Txn.adopt tm' ~txn_id:1 ~chain in
  let undone = ref [] in
  Txn.rollback tm' txn' ~undo:(fun body ~clr ->
      (match body with
      | LR.Heap { page; _ } -> undone := page :: !undone
      | _ -> ());
      ignore (clr body));
  Alcotest.(check (list int)) "only the uncompensated record" [ 1 ] !undone

let test_commit_lsn_tracks_oldest () =
  let log, _, tm = mk () in
  let t1 = Txn.begin_txn tm in
  let t2 = Txn.begin_txn tm in
  ignore (Txn.log_op tm t2 (heap_body 1));
  Alcotest.(check int) "oldest active begin"
    (Lsn.to_int (Txn.last_lsn t1))
    (Lsn.to_int (Txn.commit_lsn tm));
  Txn.commit tm t1;
  Txn.commit tm t2;
  Alcotest.(check int) "none active: log end"
    (Lsn.to_int (LM.last_lsn log))
    (Lsn.to_int (Txn.commit_lsn tm))

let test_active_tracking () =
  let _, _, tm = mk () in
  let t1 = Txn.begin_txn tm in
  let t2 = Txn.begin_txn tm in
  Alcotest.(check int) "two active" 2 (Txn.active_count tm);
  Txn.commit tm t1;
  Txn.rollback tm t2 ~undo:(fun _ ~clr:_ -> ());
  Alcotest.(check int) "none active" 0 (Txn.active_count tm)

let test_adopt_prevents_id_reuse () =
  let _, _, tm = mk () in
  let _ = Txn.adopt tm ~txn_id:41 ~chain:[] in
  let t = Txn.begin_txn tm in
  Alcotest.(check bool) "fresh id above adopted" true (Txn.id t > 41)

(* A loser whose rollback a crash cut off after two CLRs became durable
   (a third was lost with the tail): restart hands it its durable chain,
   and the resumed rollback compensates each record exactly once. *)
let test_restart_resumes_cut_rollback () =
  let log, _, tm = mk () in
  let loser = Txn.begin_txn tm in
  let other = Txn.begin_txn tm in
  List.iter
    (fun i ->
      ignore (Txn.log_op tm loser (heap_body i));
      ignore (Txn.log_op tm other (index_body i)))
    [ 1; 2; 3; 4 ];
  Txn.commit tm other;
  let cut = ref 0 in
  (try
     Txn.rollback tm loser ~undo:(fun body ~clr ->
         ignore (clr body);
         incr cut;
         if !cut = 2 then LM.flush_all log;
         if !cut = 3 then failwith "crash")
   with Failure _ -> ());
  let survivor = LM.crash log in
  let records = LM.durable_records survivor in
  Alcotest.(check int) "two CLRs durable" 2
    (List.length (clr_actions records (Txn.id loser)));
  let a = Restart.analyze records in
  Alcotest.(check (list int)) "one loser" [ Txn.id loser ] (List.map fst a.losers);
  let metrics = Oib_sim.Metrics.create () in
  let locks = Oib_lock.Lock_manager.create (Oib_sim.Sched.create ()) metrics in
  let tm' = Txn.create survivor locks metrics in
  let chain = List.assoc (Txn.id loser) a.losers in
  let resumed = Txn.adopt tm' ~txn_id:(Txn.id loser) ~chain in
  let undone = ref [] in
  Txn.rollback tm' resumed ~undo:(fun body ~clr ->
      (match body with LR.Heap { page; _ } -> undone := page :: !undone | _ -> ());
      ignore (clr body));
  Alcotest.(check (list int)) "the lost CLR's record and the older one" [ 2; 1 ]
    (List.rev !undone);
  LM.flush_all survivor;
  Alcotest.(check (list int)) "each record compensated once" [ 4; 3; 2; 1 ]
    (List.filter_map
       (function LR.Heap { page; _ } -> Some page | _ -> None)
       (clr_actions (LM.durable_records survivor) (Txn.id loser)))

(* Undo by the log itself: index every record by LSN and walk from [last]
   by prev_lsn, jumping at CLRs to their undo_next. *)
let reference_undo records last =
  let by_lsn = Hashtbl.create 64 in
  List.iter (fun (r : LR.t) -> Hashtbl.replace by_lsn (Lsn.to_int r.lsn) r) records;
  let rec walk lsn acc =
    match Hashtbl.find_opt by_lsn (Lsn.to_int lsn) with
    | None -> List.rev acc
    | Some (r : LR.t) -> (
      match r.body with
      | LR.Clr { undo_next; _ } -> walk undo_next acc
      | body when LR.is_undoable body -> walk r.prev_lsn (body :: acc)
      | _ -> walk r.prev_lsn acc)
  in
  walk last []

(* 2-4 transactions log heap and index records in a random interleaving,
   with log flushes at random points; one rolls back, cut off once by an
   exception and then resumed. Its CLRs must compensate exactly what the
   log's own chain names, in the same order. *)
let prop_rollback_matches_log_walk =
  QCheck.Test.make ~name:"CLRs = walk of the log's chain" ~count:300
    QCheck.(
      quad (int_range 2 4)
        (list_of_size (Gen.int_range 1 40) (triple small_nat bool (int_bound 3)))
        small_nat (int_range 1 12))
    (fun (n, ops, victim, cut) ->
      let log, _, tm = mk () in
      let txns = Array.init n (fun _ -> Txn.begin_txn tm) in
      List.iteri
        (fun i (who, heap, flush) ->
          let txn = txns.(who mod n) in
          ignore (Txn.log_op tm txn (if heap then heap_body i else index_body i));
          if flush = 0 then LM.flush_all log)
        ops;
      let victim = txns.(victim mod n) in
      let expected = reference_undo (LM.all_records log) (Txn.last_lsn victim) in
      (try Txn.rollback tm victim ~undo:(undo_cut_after cut)
       with Failure _ ->
         Txn.rollback tm victim ~undo:(fun body ~clr -> ignore (clr body)));
      clr_actions (LM.all_records log) (Txn.id victim) = expected)

(* The log keeps bytes, not decoded records: after 2,000 committed
   transactions of five records each, everything the log manager reaches
   fits in the durable buffer's doubling slack. *)
let test_log_memory_is_its_bytes () =
  let log, _, tm = mk () in
  for i = 1 to 2_000 do
    let txn = Txn.begin_txn tm in
    ignore (Txn.log_op tm txn (heap_body i));
    ignore (Txn.log_op tm txn (index_body i));
    Txn.commit tm txn
  done;
  LM.flush_all log;
  let bytes = Obj.reachable_words (Obj.repr log) * (Sys.word_size / 8) in
  (* The log buffer is whole segments: the durable bytes, the unused
     rest of the tail segment, and per segment its headers and the end
     a frame did not fit into (under 100 bytes for these records); 4 KiB
     covers the log's own fields, metrics included. *)
  let segments = (LM.durable_bytes log / LM.segment_size) + 1 in
  let bound =
    LM.durable_bytes log + LM.segment_size + (256 * segments) + 4096
  in
  if bytes > bound then
    Alcotest.failf "log manager reaches %d bytes, bound %d (%d durable)" bytes
      bound (LM.durable_bytes log)

let () =
  Alcotest.run "txn"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "commit forces log" `Quick test_commit_forces_log;
          Alcotest.test_case "commit releases locks" `Quick
            test_commit_releases_locks;
          Alcotest.test_case "active tracking" `Quick test_active_tracking;
          Alcotest.test_case "adopt prevents id reuse" `Quick
            test_adopt_prevents_id_reuse;
          Alcotest.test_case "log memory is its bytes" `Quick
            test_log_memory_is_its_bytes;
        ] );
      ( "rollback",
        [
          Alcotest.test_case "reverse order" `Quick test_rollback_undoes_in_reverse;
          Alcotest.test_case "CLR chain skips compensated" `Quick
            test_clr_chain_skips_on_restart;
          Alcotest.test_case "restart resumes cut rollback" `Quick
            test_restart_resumes_cut_rollback;
          QCheck_alcotest.to_alcotest prop_rollback_matches_log_walk;
        ] );
      ( "commit-lsn",
        [ Alcotest.test_case "tracks oldest active" `Quick test_commit_lsn_tracks_oldest ]
      );
    ]
