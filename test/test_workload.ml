(* The workload driver (determinism, registry consistency) and — crucially
   — negative tests of the consistency oracle: a checker that cannot detect
   planted corruption proves nothing about the algorithms it blesses. *)

open Oib_core
open Oib_util
module Sched = Oib_sim.Sched
module Driver = Oib_workload.Driver
module LR = Oib_wal.Log_record

let setup ?(seed = 17) () =
  let ctx = Engine.create ~seed ~page_capacity:512 () in
  let _ = Catalog.create_table ctx.Ctx.catalog ctx.Ctx.pool ~table_id:1 in
  ctx

(* --- driver --- *)

let test_populate_counts () =
  let ctx = setup () in
  let rids = Driver.populate ctx ~table:1 ~rows:123 ~seed:1 in
  Alcotest.(check int) "rids returned" 123 (Array.length rids);
  Alcotest.(check int) "records stored" 123
    (Oib_storage.Heap_file.record_count (Catalog.table ctx.Ctx.catalog 1).heap)

let run_workload seed =
  let ctx = setup ~seed () in
  let _ = Driver.populate ctx ~table:1 ~rows:100 ~seed in
  let stats =
    Driver.spawn_workers ctx
      { Driver.default with seed; workers = 3; txns_per_worker = 20 }
      ~table:1
  in
  Sched.run ctx.Ctx.sched;
  (ctx, !stats)

let test_driver_deterministic () =
  let _, s1 = run_workload 5 in
  let _, s2 = run_workload 5 in
  Alcotest.(check bool) "same seed, same outcome" true (s1 = s2);
  let _, s3 = run_workload 6 in
  Alcotest.(check bool) "different seed, different outcome" true (s1 <> s3)

let test_driver_registry_consistent () =
  (* after the run, live_rids must be exactly the committed records *)
  let ctx, stats = run_workload 9 in
  Alcotest.(check bool) "some commits" true (stats.committed > 20);
  let from_heap = List.length (Driver.live_rids ctx ~table:1) in
  Alcotest.(check int) "heap record count agrees" from_heap
    (Oib_storage.Heap_file.record_count (Catalog.table ctx.Ctx.catalog 1).heap)

let test_value_distribution_skewed () =
  let cfg = { Driver.default with theta = 0.9; key_space = 100 } in
  let rng = Rng.create 4 in
  let counts = Hashtbl.create 64 in
  for _ = 1 to 5000 do
    let v = Driver.value_for cfg rng in
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  let max_count = Hashtbl.fold (fun _ c acc -> max c acc) counts 0 in
  Alcotest.(check bool) "hot key dominates" true (max_count > 500)

(* --- the oracle detects planted corruption --- *)

let with_index () =
  let ctx = setup () in
  (match
     Engine.run_txn ctx (fun txn ->
         for i = 0 to 49 do
           ignore
             (Table_ops.insert ctx txn ~table:1
                (Record.make [| Printf.sprintf "k%03d" i; "p" |]))
         done)
   with
  | Ok () -> ()
  | Error _ -> assert false);
  ignore
    (Sched.spawn ctx.Ctx.sched (fun () ->
         Ib.build_index ctx (Ib.default_config Ib.Sf) ~table:1
           { Ib.index_id = 10; key_cols = [ 0 ]; unique = false }));
  Sched.run ctx.Ctx.sched;
  assert (Engine.consistency_errors ctx = []);
  (ctx, (Catalog.index ctx.Ctx.catalog 10).tree)

let contains sub s =
  let n = String.length sub and h = String.length s in
  let rec go i = i + n <= h && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_oracle_catches_spurious () =
  let ctx, tree = with_index () in
  ignore
    (Oib_btree.Btree.set_state tree
       (Ikey.make "ghost" (Rid.make ~page:0 ~slot:99))
       LR.Present);
  match Engine.consistency_errors ctx with
  | [] -> Alcotest.fail "spurious entry went unnoticed"
  | e :: _ -> Alcotest.(check bool) "names the ghost" true (contains "ghost" e)

let test_oracle_catches_missing () =
  let ctx, tree = with_index () in
  ignore
    (Oib_btree.Btree.set_state tree
       (Ikey.make "k010" (Rid.make ~page:0 ~slot:10))
       LR.Absent);
  match Engine.consistency_errors ctx with
  | [] -> Alcotest.fail "missing entry went unnoticed"
  | e :: _ -> Alcotest.(check bool) "reports missing" true (contains "missing" e)

let test_oracle_catches_shadowed_by_tombstone () =
  (* a live record whose entry is wrongly pseudo-deleted = missing *)
  let ctx, tree = with_index () in
  ignore
    (Oib_btree.Btree.set_state tree
       (Ikey.make "k011" (Rid.make ~page:0 ~slot:11))
       LR.Pseudo_deleted);
  Alcotest.(check bool) "detected" true (Engine.consistency_errors ctx <> [])

let test_oracle_catches_unique_violation () =
  let ctx = setup () in
  (match
     Engine.run_txn ctx (fun txn ->
         ignore (Table_ops.insert ctx txn ~table:1 (Record.make [| "a"; "1" |]));
         ignore (Table_ops.insert ctx txn ~table:1 (Record.make [| "b"; "2" |])))
   with
  | Ok () -> ()
  | Error _ -> assert false);
  ignore
    (Sched.spawn ctx.Ctx.sched (fun () ->
         Ib.build_index ctx (Ib.default_config Ib.Sf) ~table:1
           { Ib.index_id = 10; key_cols = [ 0 ]; unique = true }));
  Sched.run ctx.Ctx.sched;
  assert (Engine.consistency_errors ctx = []);
  (* plant a second live entry with the key value of an existing record;
     also plant the matching heap record so only uniqueness is violated *)
  let tree = (Catalog.index ctx.Ctx.catalog 10).tree in
  (match
     Engine.run_txn ctx (fun txn ->
         ignore (Table_ops.insert ctx txn ~table:1 (Record.make [| "c"; "3" |])))
   with
  | Ok () -> ()
  | Error _ -> assert false);
  (* rename c's entry to collide with a's key value *)
  let centry =
    List.find
      (fun ((k : Ikey.t), _) -> k.kv = "c")
      (Oib_btree.Btree.range tree ())
  in
  ignore (Oib_btree.Btree.set_state tree (fst centry) LR.Absent);
  ignore
    (Oib_btree.Btree.set_state tree
       (Ikey.make "a" (fst centry).Ikey.rid)
       LR.Present);
  Alcotest.(check bool) "unique violation reported" true
    (List.exists (contains "unique") (Engine.consistency_errors ctx))

let test_oracle_catches_structural_damage () =
  let ctx, tree = with_index () in
  (* structural damage: stomp a leaf's high key through the node API *)
  let rec find_leaf id =
    match Oib_btree.Btree.node_at tree id with
    | Oib_btree.Bt_node.Leaf _ -> id
    | Oib_btree.Bt_node.Internal n -> find_leaf n.children.(0)
  in
  let leaf_id = find_leaf (Oib_btree.Btree.root_page_id tree) in
  (match Oib_btree.Btree.node_at tree leaf_id with
  | Oib_btree.Bt_node.Leaf l ->
    Oib_btree.Bt_node.leaf_set_high l
      (Some (Ikey.make "" (Rid.make ~page:0 ~slot:0)))
  | Oib_btree.Bt_node.Internal _ -> assert false);
  Alcotest.(check bool) "structural error reported" true
    (List.exists (contains "structural") (Engine.consistency_errors ctx))

let () =
  Alcotest.run "workload"
    [
      ( "driver",
        [
          Alcotest.test_case "populate counts" `Quick test_populate_counts;
          Alcotest.test_case "deterministic" `Quick test_driver_deterministic;
          Alcotest.test_case "registry consistent" `Quick
            test_driver_registry_consistent;
          Alcotest.test_case "zipf skew" `Quick test_value_distribution_skewed;
        ] );
      ( "oracle-negative",
        [
          Alcotest.test_case "catches spurious entry" `Quick
            test_oracle_catches_spurious;
          Alcotest.test_case "catches missing entry" `Quick
            test_oracle_catches_missing;
          Alcotest.test_case "catches wrong tombstone" `Quick
            test_oracle_catches_shadowed_by_tombstone;
          Alcotest.test_case "catches unique violation" `Quick
            test_oracle_catches_unique_violation;
          Alcotest.test_case "catches structural damage" `Quick
            test_oracle_catches_structural_damage;
        ] );
    ]
