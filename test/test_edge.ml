(* Edge cases across the substrates: boundary conditions the main suites
   don't reach — oversized keys, duplicate key values spanning leaves, deep
   trees, empty sorts, multi-pass merges, lock conversions under
   contention, fiber exceptions. *)

open Oib_util
open Oib_btree
open Oib_testsupport
module LR = Oib_wal.Log_record
module Sched = Oib_sim.Sched
module LockM = Oib_lock.Lock_manager

let mk_tree ?(capacity = 256) ?(unique = false) env ~id =
  Btree.create env.Tenv.pool env.Tenv.kv ~index_id:id ~page_capacity:capacity
    ~unique

let healthy t =
  match Bt_check.check t with
  | [] -> ()
  | errs -> Alcotest.failf "invariants: %s" (String.concat "; " errs)

(* --- btree --- *)

(* Every path that can add an entry refuses a key over the size rule
   before it latches anything. The 412-byte key would fit a leaf of this
   1,024-byte tree, whose crabbing assumes entries of at most 256 bytes.
   After each refusal every latch is free, the tree checks clean and it
   still takes keys, through a descent and through the cursor. *)
let test_oversized_key_rejected () =
  let env = Tenv.make () in
  let t = mk_tree ~capacity:1024 env ~id:1 in
  let big = Ikey.make (String.make 401 'x') (Rid.make ~page:0 ~slot:0) in
  let cursor = Btree.new_cursor t in
  let next = ref 0 in
  let add_small () =
    ignore (Btree.set_state t (Tenv.keyn !next) LR.Present);
    ignore (Btree.insert_if_absent t ~cursor (Tenv.keyn (!next + 1)));
    next := !next + 2
  in
  for _ = 1 to 5 do add_small () done;
  let pair = [| Tenv.keyn 100; big |] in
  let run_to_big f = f ~key_at:(Array.get pair) ~from:0 ~upto:2 in
  let paths =
    [
      ("set_state", fun () -> ignore (Btree.set_state t big LR.Present));
      ( "set_state pseudo",
        fun () -> ignore (Btree.set_state t big LR.Pseudo_deleted) );
      ("insert_if_absent", fun () -> ignore (Btree.insert_if_absent t big));
      ( "insert_if_absent cursor",
        fun () -> ignore (Btree.insert_if_absent t ~cursor big) );
      ( "insert_run",
        fun () ->
          ignore
            (Btree.insert_run t ~cursor ~key_at:(fun _ -> big) ~from:0 ~upto:1
               (fun _ _ -> true)) );
      ( "insert_run, second key",
        fun () ->
          ignore
            (run_to_big (Btree.insert_run t ~ib_split:true ~cursor)
               (fun _ _ -> true)) );
      ( "set_run, second key",
        fun () ->
          ignore
            (run_to_big
               (Btree.set_run t ~cursor ~state_at:(fun _ -> LR.Present))
               (fun _ _ _ -> true)) );
    ]
  in
  List.iter
    (fun (name, f) ->
      Alcotest.check_raises name
        (Invalid_argument "Btree: key larger than max entry size") f;
      List.iter
        (fun id ->
          let p =
            Oib_storage.Buffer_pool.get env.Tenv.pool ~kind:Bt_node.kind id
          in
          if not (Oib_sim.Latch.is_free p.Oib_storage.Page.latch) then
            Alcotest.failf "%s: page %d left latched" name id)
        (Btree.page_ids t);
      healthy t;
      add_small ())
    paths;
  Alcotest.(check bool)
    "never entered" true
    (Btree.read_state t big = LR.Absent);
  healthy t;
  (* the bottom-up loader refuses it too, and goes on *)
  let t' = mk_tree ~capacity:1024 env ~id:2 in
  let b = Btree.Bulk.start t' in
  Btree.Bulk.add b (Tenv.keyn 1);
  Alcotest.check_raises "Bulk.add"
    (Invalid_argument "Btree: key larger than max entry size") (fun () ->
      Btree.Bulk.add b big);
  Btree.Bulk.add b (Ikey.make "y" (Rid.make ~page:0 ~slot:0));
  Btree.Bulk.finish b;
  healthy t';
  Alcotest.(check int) "bulk entries" 2 (Btree.entry_count t')

let test_duplicate_kv_across_leaves () =
  let env = Tenv.make () in
  let t = mk_tree ~capacity:128 env ~id:1 in
  (* hundreds of entries with one key value, forcing many leaf splits *)
  for i = 0 to 299 do
    ignore (Btree.set_state t (Ikey.make "same" (Rid.make ~page:i ~slot:0)) LR.Present)
  done;
  healthy t;
  Alcotest.(check int) "find_kv sees them all" 300
    (List.length (Btree.find_kv t "same"));
  Alcotest.(check int) "range sees them all" 300
    (List.length (Btree.range t ~lo:"same" ~hi:"same" ()));
  Alcotest.(check bool) "several leaves" true (Btree.leaf_count t > 3)

let test_empty_all_leaves_then_reuse () =
  let env = Tenv.make () in
  let t = mk_tree ~capacity:160 env ~id:1 in
  for i = 0 to 199 do
    ignore (Btree.set_state t (Tenv.keyn i) LR.Present)
  done;
  for i = 0 to 199 do
    ignore (Btree.set_state t (Tenv.keyn i) LR.Absent)
  done;
  healthy t;
  Alcotest.(check int) "empty" 0 (Btree.entry_count t);
  (* the hollowed-out structure keeps working *)
  for i = 0 to 199 do
    ignore (Btree.set_state t (Tenv.keyn i) LR.Present)
  done;
  healthy t;
  Alcotest.(check int) "refilled" 200 (Btree.entry_count t)

let test_deep_tree () =
  let env = Tenv.make () in
  let t = mk_tree ~capacity:96 env ~id:1 in
  for i = 0 to 999 do
    ignore (Btree.set_state t (Tenv.keyn i) LR.Present)
  done;
  healthy t;
  Alcotest.(check bool) "at least three levels" true (Btree.depth t >= 3);
  Alcotest.(check int) "probe works at depth" 0
    (compare (Btree.read_state t (Tenv.keyn 500)) LR.Present);
  Alcotest.(check int) "range across the deep tree" 100
    (List.length (Btree.range t ~lo:"k000400" ~hi:"k000499" ()))

let test_range_degenerate_bounds () =
  let env = Tenv.make () in
  let t = mk_tree env ~id:1 in
  for i = 0 to 49 do
    ignore (Btree.set_state t (Tenv.keyn i) LR.Present)
  done;
  Alcotest.(check int) "lo > hi is empty" 0
    (List.length (Btree.range t ~lo:"k000030" ~hi:"k000010" ()));
  Alcotest.(check int) "lo = hi is a point" 1
    (List.length (Btree.range t ~lo:"k000030" ~hi:"k000030" ()));
  Alcotest.(check int) "bounds beyond content" 0
    (List.length (Btree.range t ~lo:"z" ()))

let test_cursor_random_jumps_fall_back () =
  let env = Tenv.make () in
  let t = mk_tree ~capacity:160 env ~id:1 in
  let c = Btree.new_cursor t in
  let rng = Rng.create 3 in
  (* wildly non-local inserts through the cursor must stay correct: the
     first half one key per run, the rest in one run *)
  let n = 400 in
  let keys = Array.init n (fun _ -> Rng.int rng 10_000) in
  let seen = Hashtbl.create 64 in
  Array.iter (fun i -> Hashtbl.replace seen i ()) keys;
  let run from upto =
    ignore
      (Btree.set_run t ~cursor:c
         ~key_at:(fun j -> Tenv.keyn keys.(j))
         ~state_at:(fun _ -> LR.Present)
         ~from ~upto
         (fun _ _ _ -> true))
  in
  for j = 0 to (n / 2) - 1 do run j (j + 1) done;
  run (n / 2) n;
  healthy t;
  Alcotest.(check int) "count matches distinct keys" (Hashtbl.length seen)
    (Btree.entry_count t)

let test_open_missing_image () =
  let env = Tenv.make () in
  match Btree.open_from_image env.Tenv.pool env.Tenv.kv ~index_id:404 with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "phantom image"

let test_double_checkpoint_then_crash () =
  let env = Tenv.make () in
  let t = mk_tree env ~id:6 in
  for i = 0 to 99 do
    ignore (Btree.set_state t (Tenv.keyn i) LR.Present)
  done;
  Btree.checkpoint_image t ~lsn:(Oib_wal.Lsn.of_int 5);
  Btree.checkpoint_image t ~lsn:(Oib_wal.Lsn.of_int 6);
  let env' = Tenv.crash env in
  let t' = Btree.open_from_image env'.Tenv.pool env'.Tenv.kv ~index_id:6 in
  healthy t';
  Alcotest.(check int) "content stable across repeated images" 100
    (Btree.entry_count t')

let prop_interleaved_gc_and_ops =
  QCheck.Test.make ~name:"ops interleaved with gc keep invariants" ~count:20
    QCheck.small_nat (fun seed ->
      let env = Tenv.make ~seed () in
      let t = mk_tree ~capacity:200 env ~id:1 in
      let rng = Rng.create seed in
      for step = 1 to 600 do
        let k = Tenv.keyn (Rng.int rng 150) in
        (match Rng.int rng 3 with
        | 0 -> ignore (Btree.set_state t k LR.Present)
        | 1 -> ignore (Btree.set_state t k LR.Pseudo_deleted)
        | _ -> ignore (Btree.set_state t k LR.Absent));
        if step mod 97 = 0 then
          ignore (Btree.gc_pseudo_deleted t ~keep:(fun _ -> false))
      done;
      Bt_check.check t = [] && Btree.pseudo_count t >= 0)

let test_separator_truncation () =
  let k kv = Ikey.make kv (Rid.make ~page:0 ~slot:0) in
  let sep = Bt_node.separator ~before:(k "apple") ~first:(k "banana") in
  Alcotest.(check string) "one char suffices" "b" sep.Ikey.kv;
  let sep = Bt_node.separator ~before:(k "abcX") ~first:(k "abcdef") in
  Alcotest.(check string) "shared prefix extended" "abcd" sep.Ikey.kv;
  (* duplicates across the split: only the full entry discriminates *)
  let a = Ikey.make "same" (Rid.make ~page:1 ~slot:0) in
  let b = Ikey.make "same" (Rid.make ~page:2 ~slot:0) in
  Alcotest.(check bool) "equal kvs keep full key" true
    (Ikey.equal (Bt_node.separator ~before:a ~first:b) b);
  (* the ordering contract in general *)
  let check_contract before first =
    let s = Bt_node.separator ~before ~first in
    Alcotest.(check bool) "before < sep" true (Ikey.compare before s < 0);
    Alcotest.(check bool) "sep <= first" true (Ikey.compare s first <= 0)
  in
  check_contract (k "a") (k "a\x01");
  check_contract (k "") (k "z");
  check_contract (k "prefix") (k "prefixed")

let test_truncated_separators_shrink_internals () =
  (* long keys with a long shared prefix: internal nodes must not pay for
     the whole keys *)
  let env = Tenv.make () in
  let t = mk_tree ~capacity:512 env ~id:1 in
  for i = 0 to 499 do
    ignore
      (Btree.set_state t
         (Ikey.make
            (Printf.sprintf "tenant-0042/user-%06d/order" i)
            (Rid.make ~page:i ~slot:0))
         LR.Present)
  done;
  healthy t;
  let max_sep_len = ref 0 in
  let rec walk id =
    match Btree.node_at t id with
    | Bt_node.Leaf _ -> ()
    | Bt_node.Internal n ->
      for i = 0 to n.nc - 2 do
        max_sep_len := max !max_sep_len (String.length n.seps.(i).Ikey.kv)
      done;
      for i = 0 to n.nc - 1 do
        walk n.children.(i)
      done
  in
  walk (Btree.root_page_id t);
  Alcotest.(check bool)
    (Printf.sprintf "separators truncated (max %d < 27)" !max_sep_len)
    true
    (!max_sep_len < 27)

(* --- sort --- *)

let test_sort_empty_input () =
  let kv = Oib_storage.Durable_kv.create () in
  let store = Oib_sort.Run_store.create () in
  let s = Oib_sort.Sort_phase.start kv store ~ckpt_id:"e" ~memory_keys:8 in
  let runs = Oib_sort.Sort_phase.finish s in
  Alcotest.(check int) "one (empty) run" 1 (List.length runs);
  let out =
    Oib_sort.Merge_phase.merge kv store ~ckpt_id:"em" ~inputs:runs
      ~output:"eo" ~ckpt_every:10
  in
  Alcotest.(check int) "empty merge" 0 (Oib_sort.Run_store.length out)

let test_sort_single_key () =
  let kv = Oib_storage.Durable_kv.create () in
  let store = Oib_sort.Run_store.create () in
  let s = Oib_sort.Sort_phase.start kv store ~ckpt_id:"s" ~memory_keys:8 in
  Oib_sort.Sort_phase.feed_page s ~scan_pos:0 [ Tenv.keyn 1 ];
  let runs = Oib_sort.Sort_phase.finish s in
  let out =
    Oib_sort.Merge_phase.merge kv store ~ckpt_id:"sm" ~inputs:runs
      ~output:"so" ~ckpt_every:10
  in
  Alcotest.(check int) "one key through" 1 (Oib_sort.Run_store.length out)

let test_multipass_merge () =
  let kv = Oib_storage.Durable_kv.create () in
  let store = Oib_sort.Run_store.create () in
  (* tiny memory => many runs; fan-in 2 => several passes *)
  let s = Oib_sort.Sort_phase.start kv store ~ckpt_id:"m" ~memory_keys:8 in
  let rng = Rng.create 7 in
  let a = Array.init 600 Tenv.keyn in
  Rng.shuffle rng a;
  Array.iteri
    (fun i k -> Oib_sort.Sort_phase.feed_page s ~scan_pos:i [ k ])
    a;
  let runs = Oib_sort.Sort_phase.finish s in
  Alcotest.(check bool)
    (Printf.sprintf "many runs (%d)" (List.length runs))
    true
    (List.length runs > 4);
  let out =
    Oib_sort.Merge_phase.merge_all kv store ~ckpt_id:"mm" ~inputs:runs
      ~output:"mo" ~fan_in:2 ~ckpt_every:1000
  in
  Alcotest.(check int) "all keys" 600 (Oib_sort.Run_store.length out);
  Alcotest.(check bool) "sorted" true (Oib_sort.Run_store.is_sorted out)

let test_feed_page_monotone_positions () =
  let kv = Oib_storage.Durable_kv.create () in
  let store = Oib_sort.Run_store.create () in
  let s = Oib_sort.Sort_phase.start kv store ~ckpt_id:"p" ~memory_keys:8 in
  Oib_sort.Sort_phase.feed_page s ~scan_pos:5 [ Tenv.keyn 1 ];
  (match Oib_sort.Sort_phase.feed_page s ~scan_pos:5 [ Tenv.keyn 2 ] with
  | exception Assert_failure _ -> ()
  | () -> Alcotest.fail "non-monotone scan position accepted")

let test_resume_without_checkpoint () =
  let kv = Oib_storage.Durable_kv.create () in
  let store = Oib_sort.Run_store.create () in
  Alcotest.(check bool) "no checkpoint, no sorter" true
    (Oib_sort.Sort_phase.resume kv store ~ckpt_id:"nope" ~memory_keys:8 = None)

(* --- locks --- *)

let mk_locks ?(seed = 1) () =
  let sched = Sched.create ~seed () in
  (sched, LockM.create sched (Oib_sim.Metrics.create ()))

let rid i = LockM.Record (Rid.make ~page:i ~slot:0)

let test_upgrade_deadlock_between_readers () =
  (* two S holders both upgrading to X: a conversion deadlock; at least one
     must be chosen as victim *)
  let sched, lm = mk_locks () in
  ignore (LockM.lock lm ~txn:1 (rid 1) S);
  ignore (LockM.lock lm ~txn:2 (rid 1) S);
  let victims = ref 0 in
  for t = 1 to 2 do
    ignore
      (Sched.spawn sched (fun () ->
           (match LockM.lock lm ~txn:t (rid 1) X with
           | LockM.Deadlock ->
             incr victims;
             LockM.unlock_all lm ~txn:t
           | LockM.Granted -> LockM.unlock_all lm ~txn:t)))
  done;
  Sched.run sched;
  Alcotest.(check bool) "a victim was picked" true (!victims >= 1)

let test_is_blocked_by_x () =
  let _, lm = mk_locks () in
  ignore (LockM.lock lm ~txn:1 (LockM.Table 9) X);
  Alcotest.(check bool) "IS vs X" false (LockM.try_lock lm ~txn:2 (LockM.Table 9) IS)

let test_instant_on_own_lock () =
  let _, lm = mk_locks () in
  ignore (LockM.lock lm ~txn:1 (rid 1) X);
  Alcotest.(check bool) "instant on own lock trivially grants" true
    (LockM.try_instant_lock lm ~txn:1 (rid 1) S);
  Alcotest.(check bool) "still held in X" true (LockM.holds lm ~txn:1 (rid 1) X)

let test_unlock_all_idempotent () =
  let _, lm = mk_locks () in
  ignore (LockM.lock lm ~txn:1 (rid 1) X);
  LockM.unlock_all lm ~txn:1;
  LockM.unlock_all lm ~txn:1;
  Alcotest.(check (list (pair int (of_pp LockM.pp_mode)))) "clean" []
    (LockM.holders lm (rid 1))

(* --- scheduler --- *)

let test_fiber_exception_propagates () =
  let s = Sched.create () in
  ignore (Sched.spawn s (fun () -> failwith "boom"));
  (match Sched.run s with
  | exception Failure m -> Alcotest.(check string) "message" "boom" m
  | () -> Alcotest.fail "exception swallowed");
  Alcotest.(check int) "fiber accounted dead" 0 (Sched.live_fibers s)

let test_spawn_from_within_fiber () =
  let s = Sched.create () in
  let hits = ref 0 in
  ignore
    (Sched.spawn s (fun () ->
         incr hits;
         ignore (Sched.spawn s (fun () -> incr hits))));
  Sched.run s;
  Alcotest.(check int) "nested fiber ran" 2 !hits

let test_crash_trap_cleared () =
  let s = Sched.create () in
  Sched.set_crash_trap s (fun _ -> true);
  Sched.clear_crash_trap s;
  ignore (Sched.spawn s (fun () -> ()));
  Sched.run s (* must not raise *)

(* --- heap free-space inventory --- *)

let test_fsip_reuses_freed_space () =
  let env = Tenv.make () in
  let hf =
    Oib_storage.Heap_file.create env.Tenv.pool env.Tenv.kv ~table_id:1
      ~page_capacity:128
  in
  let r = Record.make [| "payload-xxxx" |] in
  let insert () =
    let page, slot = Oib_storage.Heap_file.prepare_insert hf r in
    Oib_storage.Heap_page.put
      (Oib_storage.Heap_page.of_payload page.Oib_storage.Page.payload)
      slot r;
    Oib_sim.Latch.release page.Oib_storage.Page.latch X;
    Rid.make ~page:page.Oib_storage.Page.id ~slot
  in
  let rids = List.init 40 (fun _ -> insert ()) in
  let pages_before = Oib_storage.Heap_file.page_count hf in
  (* free a record on the first page and advertise it *)
  let victim = List.hd rids in
  let p = Oib_storage.Heap_file.page hf victim.Rid.page in
  Oib_storage.Heap_page.remove
    (Oib_storage.Heap_page.of_payload p.Oib_storage.Page.payload)
    victim.Rid.slot;
  Oib_storage.Heap_file.note_free hf victim.Rid.page;
  let back = insert () in
  Alcotest.(check int) "lands on the freed page" victim.Rid.page back.Rid.page;
  Alcotest.(check int) "no growth" pages_before
    (Oib_storage.Heap_file.page_count hf)

(* --- page / node binary codecs --- *)

let gen_record =
  QCheck.Gen.(
    map Record.make (array_size (int_range 1 4) (string_size (int_range 0 12))))

let prop_heap_page_codec_roundtrip =
  QCheck.Test.make ~name:"heap page codec roundtrip" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 0 20) (make gen_record))
    (fun records ->
      let hp = Oib_storage.Heap_page.create ~capacity:100_000 in
      List.iteri
        (fun i r ->
          let s = Oib_storage.Heap_page.reserve hp r in
          Oib_storage.Heap_page.put hp s r;
          (* punch some holes *)
          if i mod 3 = 0 then Oib_storage.Heap_page.remove hp s)
        records;
      let hp' = Oib_storage.Heap_page.decode (Oib_storage.Heap_page.encode hp) in
      Oib_storage.Heap_page.records hp' = Oib_storage.Heap_page.records hp
      && Oib_storage.Heap_page.free_bytes hp' = Oib_storage.Heap_page.free_bytes hp)

let gen_ikey =
  QCheck.Gen.(
    let* kv = string_size (int_range 0 16) in
    let* page = int_bound 1000 in
    let* slot = int_bound 50 in
    return (Ikey.make kv (Rid.make ~page ~slot)))

let prop_leaf_codec_roundtrip =
  QCheck.Test.make ~name:"leaf node codec roundtrip" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 0 30) (make gen_ikey))
    (fun keys ->
      let keys = List.sort_uniq Ikey.compare keys in
      let l = Bt_node.new_leaf () in
      List.iteri (fun i k -> Bt_node.leaf_insert l k ~pseudo:(i mod 2 = 0)) keys;
      Bt_node.leaf_set_next l 42;
      Bt_node.leaf_set_high l (match keys with [] -> None | k :: _ -> Some k);
      match Bt_node.decode_node (Bt_node.encode_node (Bt_node.Leaf l)) with
      | Bt_node.Leaf l' ->
        let entries l = List.init (Bt_node.leaf_n l) (Bt_node.leaf_get l) in
        Bt_node.leaf_n l' = Bt_node.leaf_n l
        && Bt_node.leaf_bytes l' = Bt_node.leaf_bytes l
        && Bt_node.leaf_next l' = 42
        && Bt_node.leaf_high l' = Bt_node.leaf_high l
        && entries l' = entries l
      | Bt_node.Internal _ -> false)

let prop_internal_codec_roundtrip =
  QCheck.Test.make ~name:"internal node codec roundtrip" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 2 20) (make gen_ikey))
    (fun keys ->
      let seps =
        Array.of_list (List.tl (List.sort_uniq Ikey.compare keys))
      in
      QCheck.assume (Array.length seps >= 1);
      let children = Array.init (Array.length seps + 1) (fun i -> 100 + i) in
      let n = Bt_node.new_internal ~children ~seps in
      match Bt_node.decode_node (Bt_node.encode_node (Bt_node.Internal n)) with
      | Bt_node.Internal n' ->
        n'.Bt_node.nc = n.Bt_node.nc
        && n'.Bt_node.ibytes = n.Bt_node.ibytes
        && Array.sub n'.Bt_node.children 0 n'.Bt_node.nc
           = Array.sub n.Bt_node.children 0 n.Bt_node.nc
        && Array.sub n'.Bt_node.seps 0 (n'.Bt_node.nc - 1)
           = Array.sub n.Bt_node.seps 0 (n.Bt_node.nc - 1)
      | Bt_node.Leaf _ -> false)

(* Every truncation and every single-byte change of a valid image either
   raises [Binc.Corrupt] or decodes to a payload that re-encodes to the
   damaged bytes: a decoder never crashes on bad bytes, and never accepts
   bytes its encoder would not have written. *)
let damage_refused (kind : Oib_storage.Page.kind) image =
  let all_ok = ref true in
  let check s =
    match kind.decode s with
    | exception Binc.Corrupt _ -> ()
    | p -> if kind.encode p <> s then all_ok := false
  in
  let n = String.length image in
  for len = 0 to n - 1 do
    check (String.sub image 0 len)
  done;
  let b = Bytes.of_string image in
  for i = 0 to n - 1 do
    for c = 0 to 255 do
      if c <> Char.code image.[i] then begin
        Bytes.set b i (Char.chr c);
        check (Bytes.to_string b)
      end
    done;
    Bytes.set b i image.[i]
  done;
  !all_ok

let prop_heap_image_damage =
  QCheck.Test.make ~name:"heap image damage refused" ~count:20
    QCheck.(list_of_size (QCheck.Gen.int_range 0 4) (make gen_record))
    (fun records ->
      let hp = Oib_storage.Heap_page.create ~capacity:1_000 in
      List.iteri
        (fun i r ->
          let s = Oib_storage.Heap_page.reserve hp r in
          (* one slot of each state: occupied, free, reserved *)
          match i mod 3 with
          | 0 -> Oib_storage.Heap_page.put hp s r
          | 1 ->
            Oib_storage.Heap_page.put hp s r;
            Oib_storage.Heap_page.remove hp s
          | _ -> ())
        records;
      damage_refused Oib_storage.Heap_page.kind (Oib_storage.Heap_page.encode hp))

let prop_leaf_image_damage =
  QCheck.Test.make ~name:"leaf image damage refused" ~count:20
    QCheck.(list_of_size (QCheck.Gen.int_range 0 4) (make gen_ikey))
    (fun keys ->
      let keys = List.sort_uniq Ikey.compare keys in
      let l = Bt_node.new_leaf () in
      List.iteri (fun i k -> Bt_node.leaf_insert l k ~pseudo:(i mod 2 = 0)) keys;
      Bt_node.leaf_set_next l 42;
      Bt_node.leaf_set_high l (match keys with [] -> None | k :: _ -> Some k);
      damage_refused Bt_node.kind (Bt_node.encode_node (Bt_node.Leaf l)))

let prop_internal_image_damage =
  QCheck.Test.make ~name:"internal image damage refused" ~count:20
    QCheck.(list_of_size (QCheck.Gen.int_range 2 5) (make gen_ikey))
    (fun keys ->
      let seps = Array.of_list (List.tl (List.sort_uniq Ikey.compare keys)) in
      QCheck.assume (Array.length seps >= 1);
      let children = Array.init (Array.length seps + 1) (fun i -> 100 + i) in
      let n = Bt_node.new_internal ~children ~seps in
      damage_refused Bt_node.kind (Bt_node.encode_node (Bt_node.Internal n)))

(* Full leaves: about 60 entries with short key values, the size a
   1 KB page holds. *)
let prop_full_leaf_image_damage =
  QCheck.Test.make ~name:"full leaf image damage refused" ~count:2
    QCheck.(
      make
        Gen.(
          list_size (int_range 55 65)
            (let* kv = string_size ~gen:printable (int_range 0 6) in
             let* page = int_bound 100 in
             let* slot = int_bound 50 in
             return (Ikey.make kv (Rid.make ~page ~slot)))))
    (fun keys ->
      let keys = List.sort_uniq Ikey.compare keys in
      let l = Bt_node.new_leaf () in
      List.iteri (fun i k -> Bt_node.leaf_insert l k ~pseudo:(i mod 3 = 0)) keys;
      Bt_node.leaf_set_next l 7;
      Bt_node.leaf_set_high l
        (Some (Ikey.make "~~~~~~~~" (Rid.make ~page:1 ~slot:2)));
      damage_refused Bt_node.kind (Bt_node.encode_node (Bt_node.Leaf l)))

(* --- the leaf against a reference model --- *)

(* The leaf as it was when it held an [(Ikey.t * bool) array], and the
   image encoder of that time, written with [Buffer]: the byte-image
   leaf must keep the same entries, accounting, split results and
   images. *)
module Ref_leaf = struct
  type t = {
    mutable entries : (Ikey.t * bool) array;
    mutable n : int;
    mutable bytes : int;
    mutable next : int;
    mutable high : Ikey.t option;
  }

  let create () = { entries = [||]; n = 0; bytes = 0; next = -1; high = None }

  let entries t = Array.to_list (Array.sub t.entries 0 t.n)

  let lower_bound t key =
    let rec go i = if i < t.n && Ikey.compare (fst t.entries.(i)) key < 0 then go (i + 1) else i in
    go 0

  let mem t key =
    let i = lower_bound t key in
    i < t.n && Ikey.equal (fst t.entries.(i)) key

  let insert_at t i key pseudo =
    let l = entries t in
    let before = List.filteri (fun j _ -> j < i) l
    and after = List.filteri (fun j _ -> j >= i) l in
    t.entries <- Array.of_list (before @ [ (key, pseudo) ] @ after);
    t.n <- t.n + 1;
    t.bytes <- t.bytes + Ikey.encoded_size key

  let insert t key pseudo = insert_at t (lower_bound t key) key pseudo
  let append t key pseudo = insert_at t t.n key pseudo

  let remove_at t i =
    let k, _ = t.entries.(i) in
    t.entries <- Array.of_list (List.filteri (fun j _ -> j <> i) (entries t));
    t.n <- t.n - 1;
    t.bytes <- t.bytes - Ikey.encoded_size k

  let set_flag t i pseudo = t.entries.(i) <- (fst t.entries.(i), pseudo)

  let take_tail t from =
    let moved = Array.sub t.entries from (t.n - from) in
    let right =
      { entries = moved; n = Array.length moved;
        bytes = Array.fold_left (fun a (k, _) -> a + Ikey.encoded_size k) 0 moved;
        next = t.next; high = t.high }
    in
    t.entries <- Array.sub t.entries 0 from;
    t.n <- from;
    t.bytes <- t.bytes - right.bytes;
    let sep =
      if from = 0 then fst moved.(0)
      else Bt_node.separator ~before:(fst t.entries.(from - 1)) ~first:(fst moved.(0))
    in
    t.high <- Some sep;
    (right, sep)

  let encode t =
    let b = Buffer.create 256 in
    let i64 v = Buffer.add_int64_le b (Int64.of_int v) in
    let key (k : Ikey.t) =
      i64 (String.length k.kv);
      Buffer.add_string b k.kv;
      i64 k.rid.Rid.page;
      i64 k.rid.Rid.slot
    in
    Buffer.add_char b '\000';
    i64 t.n;
    i64 t.bytes;
    i64 t.next;
    (match t.high with
    | None -> Buffer.add_char b '\000'
    | Some h ->
      Buffer.add_char b '\001';
      key h);
    List.iter
      (fun (k, pseudo) ->
        key k;
        Buffer.add_char b (if pseudo then '\001' else '\000'))
      (entries t);
    Buffer.contents b
end

type leaf_op =
  | Insert of Ikey.t * bool
  | Append of int * int * bool
  | Remove of int
  | Set_flag of int * bool
  | Split_half
  | Split_above of Ikey.t
  | Links of int * Ikey.t option

(* Key values of 0-40 bytes; most share the 7-byte stem, so only bytes
   past the cached prefix tell them apart, and few RIDs, so one key
   value sits under many RIDs. *)
let gen_leaf_key =
  QCheck.Gen.(
    let* kv =
      oneof
        [
          map (fun s -> "pfxstem" ^ s) (string_size (int_range 0 33));
          map (fun n -> String.sub "pfxstem" 0 n) (int_range 0 7);
          string_size (int_range 0 40);
        ]
    in
    let* page = int_bound 3 in
    let* slot = int_bound 5 in
    return (Ikey.make kv (Rid.make ~page ~slot)))

let gen_leaf_op =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun k p -> Insert (k, p)) gen_leaf_key bool);
        (4, map3 (fun a b p -> Append (a, b, p)) (int_bound 2) (int_bound 3) bool);
        (3, map (fun i -> Remove i) nat);
        (2, map2 (fun i p -> Set_flag (i, p)) nat bool);
        (1, return Split_half);
        (1, map (fun k -> Split_above k) gen_leaf_key);
        (1, map2 (fun n h -> Links (n, h)) (int_range (-1) 1000) (opt gen_leaf_key));
      ])

let show_leaf_op = function
  | Insert (k, p) -> Printf.sprintf "Insert %s %b" (Ikey.to_string k) p
  | Append (a, b, p) -> Printf.sprintf "Append %d %d %b" a b p
  | Remove i -> Printf.sprintf "Remove %d" i
  | Set_flag (i, p) -> Printf.sprintf "Set_flag %d %b" i p
  | Split_half -> "Split_half"
  | Split_above k -> "Split_above " ^ Ikey.to_string k
  | Links (n, _) -> Printf.sprintf "Links %d" n

(* The key [Append (a, b, _)] adds past the last entry: the same key
   value under a higher RID, or a longer key value. *)
let append_key (r : Ref_leaf.t) a b =
  if r.n = 0 then Ikey.make "pfxstem" (Rid.make ~page:a ~slot:b)
  else
    let (last : Ikey.t), _ = r.entries.(r.n - 1) in
    if a = 0 then Ikey.make (last.kv ^ String.make (b + 1) 'a') last.rid
    else
      Ikey.make last.kv
        (Rid.make ~page:(last.rid.Rid.page + a) ~slot:b)

let same_leaf (l : Bt_node.leaf) (r : Ref_leaf.t) =
  Bt_node.leaf_n l = r.n
  && Bt_node.leaf_bytes l = r.bytes
  && Bt_node.leaf_next l = r.next
  && Option.equal Ikey.equal (Bt_node.leaf_high l) r.high
  && List.equal
       (fun (k, p) (k', p') -> Ikey.equal k k' && p = p')
       (List.init (Bt_node.leaf_n l) (Bt_node.leaf_get l))
       (Ref_leaf.entries r)
  && String.equal (Bt_node.encode_node (Bt_node.Leaf l)) (Ref_leaf.encode r)
  &&
  match Bt_node.decode_node (Ref_leaf.encode r) with
  | Bt_node.Leaf d ->
    List.for_all
      (fun i ->
        Bt_node.leaf_compare d i (fst r.entries.(i)) = 0
        && Bt_node.leaf_pseudo d i = snd r.entries.(i))
      (List.init r.n Fun.id)
  | Bt_node.Internal _ -> false

let prop_leaf_matches_reference =
  QCheck.Test.make ~name:"byte-image leaf = reference leaf" ~count:300
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map show_leaf_op ops))
        Gen.(list_size (int_range 0 150) gen_leaf_op))
    (fun ops ->
      (* the leaf being worked on, plus every right leaf a split made *)
      let l = ref (Bt_node.new_leaf ()) and r = ref (Ref_leaf.create ()) in
      let ok = ref true in
      let check () = if not (same_leaf !l !r) then ok := false in
      List.iter
        (fun op ->
          (match op with
          | Insert (k, p) ->
            if not (Ref_leaf.mem !r k) then begin
              Bt_node.leaf_insert !l k ~pseudo:p;
              Ref_leaf.insert !r k p
            end
          | Append (a, b, p) ->
            let k = append_key !r a b in
            Bt_node.leaf_append !l k ~pseudo:p;
            Ref_leaf.append !r k p
          | Remove i ->
            if !r.n > 0 then begin
              Bt_node.leaf_remove_at !l (i mod !r.n);
              Ref_leaf.remove_at !r (i mod !r.n)
            end
          | Set_flag (i, p) ->
            if !r.n > 0 then begin
              Bt_node.leaf_set_flag !l (i mod !r.n) p;
              Ref_leaf.set_flag !r (i mod !r.n) p
            end
          | Split_half ->
            if !r.n >= 2 then begin
              let right, sep = Bt_node.leaf_split_half !l in
              let right', sep' = Ref_leaf.take_tail !r (!r.n / 2) in
              if not (Ikey.equal sep sep' && same_leaf right right') then
                ok := false;
              (* keep working on the right leaf half the time *)
              if Hashtbl.hash sep mod 2 = 0 then begin
                l := right;
                r := right'
              end
            end
          | Split_above k ->
            let i = Ref_leaf.lower_bound !r k in
            if i < !r.n && not (Ref_leaf.mem !r k) then begin
              let right, sep = Bt_node.leaf_split_above !l k in
              let right', sep' = Ref_leaf.take_tail !r i in
              if not (Ikey.equal sep sep' && same_leaf right right') then
                ok := false
            end
          | Links (next, high) ->
            Bt_node.leaf_set_next !l next;
            Bt_node.leaf_set_high !l high;
            !r.next <- next;
            !r.high <- high);
          check ())
        ops;
      !ok)

let test_negative_slot_count_rejected () =
  let image =
    Bytes.of_string
      (Oib_storage.Heap_page.encode (Oib_storage.Heap_page.create ~capacity:64))
  in
  (* the slot count follows the 8-byte capacity *)
  Bytes.set_int64_le image 8 (-5L);
  match Oib_storage.Heap_page.decode (Bytes.to_string image) with
  | exception Binc.Corrupt _ -> ()
  | _ -> Alcotest.fail "heap codec accepted a negative slot count"

let test_codec_rejects_garbage () =
  (match Oib_storage.Heap_page.decode "garbage" with
  | exception Binc.Corrupt _ -> ()
  | _ -> Alcotest.fail "heap codec accepted garbage");
  match Bt_node.decode_node "\xffgarbage" with
  | exception Binc.Corrupt _ -> ()
  | _ -> Alcotest.fail "node codec accepted garbage"

let () =
  Alcotest.run "edge"
    [
      ( "btree",
        [
          Alcotest.test_case "oversized key" `Quick test_oversized_key_rejected;
          Alcotest.test_case "duplicate kv across leaves" `Quick
            test_duplicate_kv_across_leaves;
          Alcotest.test_case "empty and refill" `Quick
            test_empty_all_leaves_then_reuse;
          Alcotest.test_case "deep tree" `Quick test_deep_tree;
          Alcotest.test_case "degenerate range bounds" `Quick
            test_range_degenerate_bounds;
          Alcotest.test_case "cursor random jumps" `Quick
            test_cursor_random_jumps_fall_back;
          Alcotest.test_case "open missing image" `Quick test_open_missing_image;
          Alcotest.test_case "double checkpoint" `Quick
            test_double_checkpoint_then_crash;
          Alcotest.test_case "separator truncation" `Quick
            test_separator_truncation;
          Alcotest.test_case "truncated separators shrink internals" `Quick
            test_truncated_separators_shrink_internals;
        ] );
      ( "sort",
        [
          Alcotest.test_case "empty input" `Quick test_sort_empty_input;
          Alcotest.test_case "single key" `Quick test_sort_single_key;
          Alcotest.test_case "multi-pass merge" `Quick test_multipass_merge;
          Alcotest.test_case "monotone scan positions" `Quick
            test_feed_page_monotone_positions;
          Alcotest.test_case "resume without checkpoint" `Quick
            test_resume_without_checkpoint;
        ] );
      ( "locks",
        [
          Alcotest.test_case "upgrade deadlock" `Quick
            test_upgrade_deadlock_between_readers;
          Alcotest.test_case "IS blocked by X" `Quick test_is_blocked_by_x;
          Alcotest.test_case "instant on own lock" `Quick test_instant_on_own_lock;
          Alcotest.test_case "unlock_all idempotent" `Quick
            test_unlock_all_idempotent;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "exception propagates" `Quick
            test_fiber_exception_propagates;
          Alcotest.test_case "spawn within fiber" `Quick
            test_spawn_from_within_fiber;
          Alcotest.test_case "crash trap cleared" `Quick test_crash_trap_cleared;
        ] );
      ( "heap-fsip",
        [ Alcotest.test_case "reuses freed space" `Quick test_fsip_reuses_freed_space ]
      );
      ( "codecs",
        [
          Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
          Alcotest.test_case "rejects negative slot count" `Quick
            test_negative_slot_count_rejected;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_interleaved_gc_and_ops;
            prop_heap_page_codec_roundtrip;
            prop_leaf_codec_roundtrip;
            prop_internal_codec_roundtrip;
            prop_heap_image_damage;
            prop_leaf_image_damage;
            prop_full_leaf_image_damage;
            prop_internal_image_damage;
            prop_leaf_matches_reference;
          ] );
    ]
