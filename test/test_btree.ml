open Oib_util
open Oib_btree
open Oib_testsupport
module LR = Oib_wal.Log_record

let mk_tree ?(capacity = 256) ?(unique = false) env ~id =
  Btree.create env.Tenv.pool env.Tenv.kv ~index_id:id ~page_capacity:capacity
    ~unique

let check_healthy t =
  match Bt_check.check t with
  | [] -> ()
  | errs -> Alcotest.failf "tree invariants violated: %s" (String.concat "; " errs)

let state = Alcotest.testable
    (fun ppf s -> LR.pp_key_state ppf s)
    (fun a b -> a = b)

(* --- basic operations --- *)

let test_insert_ascending () =
  let env = Tenv.make () in
  let t = mk_tree env ~id:1 in
  for i = 0 to 499 do
    ignore (Btree.set_state t (Tenv.keyn i) LR.Present)
  done;
  check_healthy t;
  Alcotest.(check int) "count" 500 (Btree.entry_count t);
  Alcotest.(check bool) "sorted" true (Bt_check.entries_sorted t);
  Alcotest.(check state) "probe" LR.Present (Btree.read_state t (Tenv.keyn 250));
  Alcotest.(check state) "missing" LR.Absent (Btree.read_state t (Tenv.keyn 1000))

let test_insert_descending () =
  let env = Tenv.make () in
  let t = mk_tree env ~id:1 in
  for i = 499 downto 0 do
    ignore (Btree.set_state t (Tenv.keyn i) LR.Present)
  done;
  check_healthy t;
  Alcotest.(check int) "count" 500 (Btree.entry_count t)

let test_set_state_transitions () =
  let env = Tenv.make () in
  let t = mk_tree env ~id:1 in
  let k = Tenv.keyn 7 in
  Alcotest.(check state) "absent->present" LR.Absent
    (Btree.set_state t k LR.Present);
  Alcotest.(check state) "present->pseudo" LR.Present
    (Btree.set_state t k LR.Pseudo_deleted);
  Alcotest.(check state) "probe pseudo" LR.Pseudo_deleted (Btree.read_state t k);
  Alcotest.(check state) "pseudo->present (reactivate)" LR.Pseudo_deleted
    (Btree.set_state t k LR.Present);
  Alcotest.(check state) "present->absent" LR.Present
    (Btree.set_state t k LR.Absent);
  Alcotest.(check state) "gone" LR.Absent (Btree.read_state t k);
  Alcotest.(check state) "absent->pseudo (tombstone insert)" LR.Absent
    (Btree.set_state t k LR.Pseudo_deleted);
  Alcotest.(check int) "one entry" 1 (Btree.entry_count t);
  Alcotest.(check int) "zero present" 0 (Btree.present_count t);
  check_healthy t

let test_insert_if_absent () =
  let env = Tenv.make () in
  let t = mk_tree env ~id:1 in
  let k = Tenv.keyn 1 in
  (match Btree.insert_if_absent t k with
  | `Inserted -> ()
  | `Rejected _ -> Alcotest.fail "fresh insert rejected");
  (match Btree.insert_if_absent t k with
  | `Rejected LR.Present -> ()
  | _ -> Alcotest.fail "duplicate not rejected");
  ignore (Btree.set_state t k LR.Pseudo_deleted);
  (match Btree.insert_if_absent t k with
  | `Rejected LR.Pseudo_deleted -> ()
  | _ -> Alcotest.fail "tombstone did not reject IB insert");
  check_healthy t

let test_find_kv_duplicates () =
  let env = Tenv.make () in
  let t = mk_tree env ~id:1 in
  (* nonunique index: same key value, many RIDs, spanning page splits *)
  for i = 0 to 99 do
    ignore
      (Btree.set_state t (Ikey.make "dup" (Rid.make ~page:i ~slot:0)) LR.Present)
  done;
  for i = 0 to 49 do
    ignore (Btree.set_state t (Tenv.keyn i) LR.Present)
  done;
  let found = Btree.find_kv t "dup" in
  Alcotest.(check int) "all duplicates found" 100 (List.length found);
  Alcotest.(check int) "none for missing kv" 0
    (List.length (Btree.find_kv t "nope"));
  check_healthy t

(* --- randomized model check --- *)

let random_ops_agree seed =
  let env = Tenv.make ~seed () in
  let t = mk_tree ~capacity:200 env ~id:1 in
  let rng = Rng.create seed in
  let model : (string * int, LR.key_state) Hashtbl.t = Hashtbl.create 64 in
  let keys =
    Array.init 120 (fun i ->
        Ikey.make (Printf.sprintf "key%03d" (i mod 60)) (Rid.make ~page:(i / 60) ~slot:0))
  in
  for _ = 1 to 2000 do
    let k = Rng.pick rng keys in
    let mk = (k.Ikey.kv, k.Ikey.rid.Rid.page) in
    let target =
      match Rng.int rng 3 with
      | 0 -> LR.Present
      | 1 -> LR.Pseudo_deleted
      | _ -> LR.Absent
    in
    let before = Btree.set_state t k target in
    let model_before =
      Option.value ~default:LR.Absent (Hashtbl.find_opt model mk)
    in
    if before <> model_before then failwith "model divergence on before-state";
    if target = LR.Absent then Hashtbl.remove model mk
    else Hashtbl.replace model mk target
  done;
  (match Bt_check.check t with [] -> () | e -> failwith (String.concat ";" e));
  let tree_entries = Bt_check.collect_entries t in
  List.length tree_entries = Hashtbl.length model
  && List.for_all
       (fun (k, pseudo) ->
         let st = if pseudo then LR.Pseudo_deleted else LR.Present in
         Hashtbl.find_opt model (k.Ikey.kv, k.Ikey.rid.Rid.page) = Some st)
       tree_entries

let prop_random_model =
  QCheck.Test.make ~name:"random set_state agrees with model" ~count:25
    QCheck.small_nat random_ops_agree

(* --- bulk build --- *)

let test_bulk_build () =
  let env = Tenv.make () in
  let t = mk_tree env ~id:1 in
  let b = Btree.Bulk.start t in
  for i = 0 to 999 do
    Btree.Bulk.add b (Tenv.keyn i)
  done;
  Btree.Bulk.finish b;
  check_healthy t;
  Alcotest.(check int) "count" 1000 (Btree.entry_count t);
  Alcotest.(check bool) "sorted" true (Bt_check.entries_sorted t);
  Alcotest.(check (float 0.0001)) "perfectly clustered" 1.0 (Bt_check.clustering t)

let test_bulk_rejects_unsorted () =
  let env = Tenv.make () in
  let t = mk_tree env ~id:1 in
  let b = Btree.Bulk.start t in
  Btree.Bulk.add b (Tenv.keyn 10);
  Alcotest.check_raises "descending add rejected"
    (Invalid_argument "Btree.Bulk.add: keys must be ascending") (fun () ->
      Btree.Bulk.add b (Tenv.keyn 5))

let test_bulk_no_latching () =
  let env = Tenv.make () in
  let t = mk_tree env ~id:1 in
  let before = Oib_sim.Metrics.get env.Tenv.metrics Latch_acquires in
  let b = Btree.Bulk.start t in
  for i = 0 to 499 do
    Btree.Bulk.add b (Tenv.keyn i)
  done;
  Alcotest.(check int) "bulk build acquires no latches" before
    (Oib_sim.Metrics.get env.Tenv.metrics Latch_acquires)

(* A bulk resumed after the top entries were deleted restarts one above
   the highest entry left, 264 here, which is below the right spine's
   last separator. *)
let test_bulk_refuses_below_fence () =
  let env = Tenv.make () in
  let t = mk_tree ~capacity:128 env ~id:1 in
  let cursor = Btree.new_cursor t in
  let bulk start n =
    let b = Btree.Bulk.resume t in
    for i = start to start + n - 1 do
      Btree.Bulk.add b (Tenv.keyn i)
    done;
    Btree.Bulk.finish b
  in
  bulk 0 39;
  ignore (Btree.set_state t (Tenv.keyn 156) LR.Present);
  ignore (Btree.set_state t (Tenv.keyn 320) LR.Present);
  ignore (Btree.insert_if_absent t ~ib_split:true ~cursor (Tenv.keyn 321));
  ignore (Btree.insert_if_absent t ~ib_split:true ~cursor (Tenv.keyn 263));
  ignore (Btree.set_state t (Tenv.keyn 321) LR.Absent);
  ignore (Btree.set_state t (Tenv.keyn 320) LR.Absent);
  let start =
    List.fold_left
      (fun acc ((k : Ikey.t), _) -> max acc (k.rid.Rid.page + 1))
      0 (Bt_check.collect_entries t)
  in
  Alcotest.(check int) "restarts above the entries left" 264 start;
  let fence =
    match bulk start 69 with
    | () -> Alcotest.fail "a key below the fence was appended"
    | exception Btree.Bulk.Below_fence { key; fence } ->
      Alcotest.(check string) "the first key is refused"
        (Tenv.keyn 264).Ikey.kv key.Ikey.kv;
      fence
  in
  check_healthy t;
  (* a key equal to the fence belongs to the rightmost leaf, as
     child_for routes it: accepted, and the tree stays well formed *)
  let b = Btree.Bulk.resume t in
  Btree.Bulk.add b fence;
  Btree.Bulk.finish b;
  Alcotest.(check state) "the fence key is reachable" LR.Present
    (Btree.read_state t fence);
  check_healthy t

(* --- cursor fast path --- *)

let test_cursor_fast_path () =
  let env = Tenv.make () in
  let t = mk_tree env ~id:1 in
  let c = Btree.new_cursor t in
  for i = 0 to 499 do
    match Btree.insert_if_absent t ~cursor:c (Tenv.keyn i) with
    | `Inserted -> ()
    | `Rejected _ -> Alcotest.fail "unexpected rejection"
  done;
  check_healthy t;
  Alcotest.(check int) "count" 500 (Btree.entry_count t);
  Alcotest.(check bool) "fast path used" true
    (Oib_sim.Metrics.get env.Tenv.metrics Fast_path_inserts > 100);
  Alcotest.(check bool) "traversals avoided" true
    (Oib_sim.Metrics.get env.Tenv.metrics Tree_traversals < 400)

(* --- specialized IB split --- *)

let test_ib_split_specialized () =
  let env = Tenv.make () in
  let t = mk_tree env ~id:1 in
  (* transactions inserted scattered high keys first *)
  List.iter
    (fun i -> ignore (Btree.set_state t (Tenv.keyn i) LR.Present))
    [ 990; 991; 995; 999 ];
  (* IB inserts the sorted base load with the specialized split *)
  let c = Btree.new_cursor t in
  for i = 0 to 899 do
    ignore (Btree.insert_if_absent t ~ib_split:true ~cursor:c (Tenv.keyn i))
  done;
  check_healthy t;
  Alcotest.(check int) "count" 904 (Btree.entry_count t);
  Alcotest.(check bool) "sorted" true (Bt_check.entries_sorted t)

let test_ib_split_denser_tree () =
  (* same insertion pattern with and without the specialized split: by
     moving only the transaction-inserted higher keys at each split, the
     specialized split mimics a bottom-up build and leaves fuller pages
     (§2.3.1), hence fewer leaves. *)
  let build ~ib_split =
    let env = Tenv.make () in
    let t = mk_tree env ~id:1 in
    List.iter
      (fun i -> ignore (Btree.set_state t (Tenv.keyn i) LR.Present))
      [ 950; 960; 970; 980; 990 ];
    let c = Btree.new_cursor t in
    for i = 0 to 899 do
      ignore (Btree.insert_if_absent t ~ib_split ~cursor:c (Tenv.keyn i))
    done;
    check_healthy t;
    (Btree.leaf_count t, Bt_check.avg_leaf_fill t)
  in
  let special_leaves, special_fill = build ~ib_split:true in
  let normal_leaves, normal_fill = build ~ib_split:false in
  Alcotest.(check bool)
    (Printf.sprintf "specialized %d leaves (fill %.2f) <= normal %d (fill %.2f)"
       special_leaves special_fill normal_leaves normal_fill)
    true
    (special_leaves <= normal_leaves && special_fill >= normal_fill)

(* --- garbage collection --- *)

let test_gc_pseudo_deleted () =
  let env = Tenv.make () in
  let t = mk_tree env ~id:1 in
  for i = 0 to 199 do
    ignore (Btree.set_state t (Tenv.keyn i) LR.Present)
  done;
  for i = 0 to 99 do
    ignore (Btree.set_state t (Tenv.keyn i) LR.Pseudo_deleted)
  done;
  (* keep tombstones on odd keys (as if their deleters were uncommitted) *)
  let removed =
    Btree.gc_pseudo_deleted t ~keep:(fun k -> k.Ikey.rid.Rid.page mod 2 = 1)
  in
  Alcotest.(check int) "even tombstones collected" 50 removed;
  Alcotest.(check int) "entries left" 150 (Btree.entry_count t);
  Alcotest.(check int) "pseudo left" 50 (Btree.pseudo_count t);
  check_healthy t

(* --- checkpoint image / reopen --- *)

let test_image_survives_crash () =
  let env = Tenv.make () in
  let t = mk_tree env ~id:9 in
  for i = 0 to 299 do
    ignore (Btree.set_state t (Tenv.keyn i) LR.Present)
  done;
  Btree.checkpoint_image t ~lsn:(Oib_wal.Lsn.of_int 77);
  (* post-checkpoint changes are volatile *)
  for i = 300 to 399 do
    ignore (Btree.set_state t (Tenv.keyn i) LR.Present)
  done;
  let env' = Tenv.crash env in
  let t' = Btree.open_from_image env'.Tenv.pool env'.Tenv.kv ~index_id:9 in
  check_healthy t';
  Alcotest.(check int) "image content only" 300 (Btree.entry_count t');
  Alcotest.(check int) "image lsn" 77 (Oib_wal.Lsn.to_int (Btree.image_lsn t'))

let test_empty_tree_recoverable_at_create () =
  let env = Tenv.make () in
  let _t = mk_tree env ~id:4 in
  let env' = Tenv.crash env in
  let t' = Btree.open_from_image env'.Tenv.pool env'.Tenv.kv ~index_id:4 in
  Alcotest.(check int) "empty" 0 (Btree.entry_count t');
  check_healthy t'

(* --- dirty list and page inventory --- *)

let page_writes env = Oib_sim.Metrics.get env.Tenv.metrics Page_writes

(* the pages reachable from the root, which the inventory must name *)
let reachable t =
  let rec go id acc =
    match Btree.node_at t id with
    | Bt_node.Leaf _ -> id :: acc
    | Bt_node.Internal n ->
      let acc = ref (id :: acc) in
      for i = 0 to n.nc - 1 do
        acc := go n.children.(i) !acc
      done;
      !acc
  in
  List.sort compare (go (Btree.root_page_id t) [])

let test_reopened_tree_starts_clean () =
  let env = Tenv.make () in
  let t = mk_tree env ~id:2 in
  for i = 0 to 299 do
    ignore (Btree.set_state t (Tenv.keyn i) LR.Present)
  done;
  Btree.checkpoint_image t ~lsn:(Oib_wal.Lsn.of_int 3);
  let env' = Tenv.crash env in
  let t' = Btree.open_from_image env'.Tenv.pool env'.Tenv.kv ~index_id:2 in
  Alcotest.(check (list int)) "inventory from the image"
    (List.sort compare (Btree.page_ids t)) (reachable t');
  let w0 = page_writes env' in
  Btree.checkpoint_image t' ~lsn:(Oib_wal.Lsn.of_int 4);
  Alcotest.(check int) "nothing dirty after reopening" 0 (page_writes env' - w0);
  ignore (Btree.set_state t' (Tenv.keyn 150) LR.Pseudo_deleted);
  Btree.checkpoint_image t' ~lsn:(Oib_wal.Lsn.of_int 5);
  Alcotest.(check int) "one changed leaf written" 1 (page_writes env' - w0);
  check_healthy t'

type tree_op =
  | Ins of int
  | Ib_ins of int
  | Del of int
  | Bulk of int
  | Ckpt

let show_tree_op = function
  | Ins k -> Printf.sprintf "Ins %d" k
  | Ib_ins k -> Printf.sprintf "Ib_ins %d" k
  | Del k -> Printf.sprintf "Del %d" k
  | Bulk n -> Printf.sprintf "Bulk %d" n
  | Ckpt -> "Ckpt"

let gen_tree_op =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun k -> Ins k) (int_bound 400));
        (4, map (fun k -> Ib_ins k) (int_bound 400));
        (2, map (fun k -> Del k) (int_bound 400));
        (2, map (fun n -> Bulk n) (int_range 1 150));
        (1, return Ckpt);
      ])

let prop_inventory_is_reachable =
  QCheck.Test.make ~name:"page inventory = reachable pages" ~count:60
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map show_tree_op ops))
        Gen.(list_size (int_range 1 30) (gen_tree_op)))
    (fun ops ->
      let env = Tenv.make () in
      let t = mk_tree ~capacity:128 env ~id:1 in
      let cursor = Btree.new_cursor t in
      let ok = ref true in
      (* one above every key ever added: a separator can outlive the
         entries it was copied from *)
      let above = ref 0 in
      let added k = above := max !above (k + 1) in
      List.iter
        (fun op ->
          (match op with
          | Ins k ->
            added k;
            ignore (Btree.set_state t (Tenv.keyn k) LR.Present)
          | Ib_ins k ->
            added k;
            ignore (Btree.insert_if_absent t ~ib_split:true ~cursor (Tenv.keyn k))
          | Del k -> ignore (Btree.set_state t (Tenv.keyn k) LR.Absent)
          | Bulk n ->
            (* bulk keys go above every separator, as after an SF restart *)
            let start = !above in
            added (start + n - 1);
            let b = Btree.Bulk.resume t in
            for i = start to start + n - 1 do
              Btree.Bulk.add b (Tenv.keyn i)
            done;
            Btree.Bulk.finish b
          | Ckpt -> Btree.checkpoint_image t ~lsn:Oib_wal.Lsn.nil);
          if List.sort compare (Btree.page_ids t) <> reachable t then ok := false)
        ops;
      !ok && Bt_check.check t = [])

(* --- multi-key insert --- *)

type run_step =
  | Run of int * int (* offer up to n keys, stop after k inserted *)
  | Txn of int * bool (* a transaction's insert (pseudo-deleted if true) *)
  | Evict of int (* image the tree, then evict the pages with id mod 3 = r *)

let show_run_step = function
  | Run (n, k) -> Printf.sprintf "Run (%d, %d)" n k
  | Txn (k, p) -> Printf.sprintf "Txn (%d, %b)" k p
  | Evict r -> Printf.sprintf "Evict %d" r

type run_case = {
  capacity : int;
  ib_split : bool;
  pre : (int * bool) list; (* entries present before the run *)
  late_cursor : bool; (* cursor made after [pre], at the root it left *)
  keys : int list; (* the sorted run *)
  steps : run_step list;
}

let show_run_case c =
  Printf.sprintf
    "capacity=%d ib_split=%b late_cursor=%b\npre=[%s]\nkeys=[%s]\nsteps=[%s]"
    c.capacity c.ib_split c.late_cursor
    (String.concat "; "
       (List.map (fun (k, p) -> Printf.sprintf "%d%s" k (if p then "p" else ""))
          c.pre))
    (String.concat "; " (List.map string_of_int c.keys))
    (String.concat "; " (List.map show_run_step c.steps))

let gen_run_case =
  QCheck.Gen.(
    let* capacity = oneofl [ 128; 256 ] in
    let* ib_split = bool in
    let* pre = list_size (int_range 0 40) (pair (int_bound 300) bool) in
    let* late_cursor = bool in
    let* keys = list_size (int_range 1 200) (int_bound 300) in
    let+ steps =
      list_size (int_range 1 30)
        (frequency
           [
             (6, map2 (fun n k -> Run (n, k)) (int_range 1 40) (int_range 1 12));
             (2, map2 (fun k p -> Txn (k, p)) (int_bound 300) bool);
             (1, map (fun r -> Evict r) (int_bound 2));
           ])
    in
    { capacity; ib_split; pre; late_cursor;
      keys = List.sort_uniq compare keys; steps })

(* [insert_run] on one tree and per-key [insert_if_absent] on a twin take
   the same keys through the same cursor history: the outcomes, entries
   and counters agree, and the run takes no more latches. With a cursor,
   [insert_if_absent] is [insert_run] over one key, so the twin shares
   the per-key body (duplicate check, insert position, counters): the
   twin checks where runs start and stop, and the [model] below, kept
   apart from the tree code, is the independent check of each outcome,
   of the entries and of the insert and rejection counts. *)
let run_matches_per_key c =
  (* every key's state, and the inserts and rejections it implies *)
  let model = Hashtbl.create 64 in
  let state k = Option.value ~default:LR.Absent (Hashtbl.find_opt model k) in
  let inserts = ref 0 and rejects = ref 0 and run_inserts = ref 0 in
  let set k pseudo =
    if state k = LR.Absent then incr inserts;
    Hashtbl.replace model k (if pseudo then LR.Pseudo_deleted else LR.Present)
  in
  List.iter (fun (k, pseudo) -> set k pseudo) c.pre;
  let side () =
    let env = Tenv.make () in
    let t = mk_tree ~capacity:c.capacity env ~id:1 in
    let early = Btree.new_cursor t in
    List.iter
      (fun (k, pseudo) ->
        ignore
          (Btree.set_state t (Tenv.keyn k)
             (if pseudo then LR.Pseudo_deleted else LR.Present)))
      c.pre;
    (env, t, if c.late_cursor then Btree.new_cursor t else early)
  in
  let ((ea, a, ca) as ra) = side () and ((eb, b, cb) as rb) = side () in
  let keys = Array.of_list c.keys in
  let n = Array.length keys in
  let key_at i = Tenv.keyn keys.(i) in
  let pos = ref 0 and ok = ref true in
  let fail fmt = Printf.ksprintf (fun m -> ok := false; print_endline m) fmt in
  List.iter
    (fun step ->
      match step with
      | Run (len, max_inserts) when !pos < n ->
        let from = !pos and upto = min n (!pos + len) in
        let got = ref [] and inserted = ref 0 in
        let stop =
          Btree.insert_run a ~ib_split:c.ib_split ~cursor:ca ~key_at ~from
            ~upto (fun k r ->
              got := (k, r) :: !got;
              if r = `Inserted then incr inserted;
              !inserted < max_inserts)
        in
        let got = List.rev !got in
        List.iteri
          (fun j (_, r) ->
            let k = keys.(from + j) in
            match (r, state k) with
            | `Inserted, LR.Absent ->
              incr run_inserts;
              Hashtbl.replace model k LR.Present
            | `Rejected st, st' when st = st' && st <> LR.Absent -> incr rejects
            | _ -> fail "key %d: outcome disagrees with its state" k)
          got;
        let want =
          List.init (stop - from) (fun j ->
              let k = key_at (from + j) in
              (k, Btree.insert_if_absent b ~ib_split:c.ib_split ~cursor:cb k))
        in
        if got <> want then fail "outcomes differ in [%d, %d)" from stop;
        let inserted = !inserted in
        let last_inserted =
          match List.rev got with (_, `Inserted) :: _ -> true | _ -> false
        in
        if
          stop <= from
          || inserted > max_inserts
          || (stop < upto && not (inserted = max_inserts && last_inserted))
        then
          fail "run [%d, %d) max %d stopped at %d after %d inserts" from upto
            max_inserts stop inserted;
        pos := stop
      | Run _ -> ()
      | Txn (k, pseudo) ->
        set k pseudo;
        let target = if pseudo then LR.Pseudo_deleted else LR.Present in
        List.iter
          (fun (_, t, _) -> ignore (Btree.set_state t (Tenv.keyn k) target))
          [ ra; rb ]
      | Evict r ->
        List.iter
          (fun ((env : Tenv.t), t, _) ->
            Btree.checkpoint_image t ~lsn:Oib_wal.Lsn.nil;
            List.iter
              (fun id ->
                if id mod 3 = r then Oib_storage.Buffer_pool.evict env.pool id)
              (Btree.page_ids t))
          [ ra; rb ])
    c.steps;
  let count (env : Tenv.t) m = Oib_sim.Metrics.get env.metrics m in
  List.iter
    (fun (name, m) ->
      if count ea m <> count eb m then
        fail "%s: run %d, per key %d" name (count ea m) (count eb m))
    [
      ("Keys_inserted", Oib_obs.Resource.Keys_inserted);
      ("Fast_path_inserts", Fast_path_inserts);
      ("Keys_rejected_duplicate", Keys_rejected_duplicate);
      ("Page_splits", Page_splits);
      ("Tree_traversals", Tree_traversals);
      ("Page_reads", Page_reads);
    ];
  if
    count ea Keys_inserted <> !inserts + !run_inserts
    || count ea Keys_rejected_duplicate <> !rejects
    || count ea Fast_path_inserts > !run_inserts
  then fail "counters disagree with the outcomes";
  if count ea Latch_acquires > count eb Latch_acquires then
    fail "Latch_acquires: run %d > per key %d" (count ea Latch_acquires)
      (count eb Latch_acquires);
  let entries = Bt_check.collect_entries a in
  if entries <> Bt_check.collect_entries b then fail "entries differ";
  let modelled =
    Hashtbl.fold
      (fun k st acc -> (Tenv.keyn k, st = LR.Pseudo_deleted) :: acc)
      model []
  in
  if entries <> List.sort compare modelled then fail "entries lost or gained";
  if Bt_check.check a <> [] || Bt_check.check b <> [] then fail "tree malformed";
  !ok

let prop_run_matches_per_key =
  QCheck.Test.make ~name:"insert_run = per-key insert_if_absent" ~count:200
    (QCheck.make ~print:show_run_case gen_run_case)
    run_matches_per_key

(* --- concurrent fibers --- *)

let test_concurrent_inserters () =
  let env = Tenv.make ~seed:7 () in
  let t = mk_tree ~capacity:256 env ~id:1 in
  for f = 0 to 3 do
    ignore
      (Oib_sim.Sched.spawn env.Tenv.sched ~name:(Printf.sprintf "ins-%d" f)
         (fun () ->
           for i = 0 to 249 do
             ignore (Btree.set_state t (Tenv.keyn ((i * 4) + f)) LR.Present);
             Oib_sim.Sched.yield env.Tenv.sched
           done))
  done;
  Oib_sim.Sched.run env.Tenv.sched;
  check_healthy t;
  Alcotest.(check int) "all inserted" 1000 (Btree.entry_count t);
  Alcotest.(check bool) "sorted" true (Bt_check.entries_sorted t)

let prop_concurrent_seeds =
  QCheck.Test.make ~name:"concurrent inserts healthy across seeds" ~count:20
    QCheck.small_nat (fun seed ->
      let env = Tenv.make ~seed () in
      let t = mk_tree ~capacity:200 env ~id:1 in
      for f = 0 to 2 do
        ignore
          (Oib_sim.Sched.spawn env.Tenv.sched (fun () ->
               for i = 0 to 99 do
                 ignore (Btree.set_state t (Tenv.keyn ((i * 3) + f)) LR.Present);
                 Oib_sim.Sched.yield env.Tenv.sched
               done))
      done;
      Oib_sim.Sched.run env.Tenv.sched;
      Bt_check.check t = [] && Btree.entry_count t = 300)

let () =
  Alcotest.run "btree"
    [
      ( "basic",
        [
          Alcotest.test_case "insert ascending" `Quick test_insert_ascending;
          Alcotest.test_case "insert descending" `Quick test_insert_descending;
          Alcotest.test_case "set_state transitions" `Quick
            test_set_state_transitions;
          Alcotest.test_case "insert_if_absent" `Quick test_insert_if_absent;
          Alcotest.test_case "find_kv duplicates" `Quick test_find_kv_duplicates;
        ] );
      ( "bulk",
        [
          Alcotest.test_case "bottom-up build" `Quick test_bulk_build;
          Alcotest.test_case "rejects unsorted" `Quick test_bulk_rejects_unsorted;
          Alcotest.test_case "no latching" `Quick test_bulk_no_latching;
          Alcotest.test_case "refuses below fence" `Quick
            test_bulk_refuses_below_fence;
        ] );
      ( "cursor",
        [ Alcotest.test_case "fast path" `Quick test_cursor_fast_path ] );
      ( "ib-split",
        [
          Alcotest.test_case "specialized split" `Quick test_ib_split_specialized;
          Alcotest.test_case "denser tree" `Quick
            test_ib_split_denser_tree;
        ] );
      ("gc", [ Alcotest.test_case "pseudo-delete gc" `Quick test_gc_pseudo_deleted ]);
      ( "image",
        [
          Alcotest.test_case "image survives crash" `Quick
            test_image_survives_crash;
          Alcotest.test_case "empty tree recoverable" `Quick
            test_empty_tree_recoverable_at_create;
          Alcotest.test_case "reopened tree starts clean" `Quick
            test_reopened_tree_starts_clean;
        ] );
      ( "concurrent",
        [
          Alcotest.test_case "four inserters" `Quick test_concurrent_inserters;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_random_model;
            prop_concurrent_seeds;
            prop_inventory_is_reachable;
            prop_run_matches_per_key;
          ] );
    ]
