open Oib_util
open Oib_storage
module LR = Oib_wal.Log_record
module LM = Oib_wal.Log_manager
module Lsn = Oib_wal.Lsn
module Btree = Oib_btree.Btree
module SF = Oib_sidefile.Side_file
module Txn = Oib_txn.Txn_manager

type ddl =
  | Create_table of int
  | Create_index of { index : int; table : int; key_cols : int list; uniq : bool }
  | Drop_index of int

type key_redo = { lsn : Lsn.t; keys : Ikey.t list; after : LR.key_state }

type analysis = {
  losers : (int * LR.t list) list;
  builds_in_progress : (int * LR.algorithm) list;
  max_txn_id : int;
  max_heap_page : int;
  ddl : ddl list;
  extends : (int * int) list;
  heap_redo : (Lsn.t * int * LR.heap_op) list;
  key_redo : (int, key_redo list) Hashtbl.t;
  sidefile_appends : (int, (bool * Ikey.t) list) Hashtbl.t;
}

let push tbl id x =
  Hashtbl.replace tbl id (x :: Option.value (Hashtbl.find_opt tbl id) ~default:[])

(* The one walk of the durable log. Every record kind is named, so a new
   [Log_record.body] constructor fails the build here until restart
   decides what to do with it. *)
let[@warning "@4"] analyze records =
  (* the records of every transaction not yet committed or ended, newest
     first: what each loser's rollback walks. A transaction that ended
     without commit completed its rollback and is no loser. *)
  let chains : (int, LR.t list) Hashtbl.t = Hashtbl.create 32 in
  let builds : (int, LR.algorithm) Hashtbl.t = Hashtbl.create 4 in
  let key_redo = Hashtbl.create 4 in
  let sidefile_appends = Hashtbl.create 4 in
  let max_txn = ref 0 and max_page = ref (-1) in
  let ddl = ref [] and extends = ref [] and heap_redo = ref [] in
  List.iter
    (fun (r : LR.t) ->
      let lsn = r.lsn in
      let redo_heap page op =
        max_page := Int.max !max_page page;
        heap_redo := (lsn, page, op) :: !heap_redo
      in
      let redo_key (op : LR.index_key_op) =
        push key_redo op.index { lsn; keys = [ op.key ]; after = op.after }
      in
      (* [true] for the records that close their transaction *)
      let closes =
        match r.body with
        | LR.Commit | LR.End -> true
        | LR.Begin | LR.Abort -> false
        | LR.Heap { page; op; _ } ->
          redo_heap page op;
          false
        | LR.Index_key { redoable; op } ->
          (* an undo-only record is never redone *)
          if redoable then redo_key op;
          false
        | LR.Index_bulk_insert { index; keys } ->
          push key_redo index { lsn; keys; after = LR.Present };
          false
        | LR.Sidefile_append { sidefile; insert; key } ->
          push sidefile_appends sidefile (insert, key);
          false
        | LR.Clr { action; _ } ->
          (match action with
          | LR.Heap { page; op; _ } -> redo_heap page op
          | LR.Index_key { op; _ } -> redo_key op
          | LR.Sidefile_append { sidefile; insert; key } ->
            push sidefile_appends sidefile (insert, key)
          | LR.Begin | LR.Commit | LR.Abort | LR.End | LR.Index_bulk_insert _
          | LR.Clr _ | LR.Build_start _ | LR.Build_done _ | LR.Heap_extend _
          | LR.Create_table _ | LR.Create_index _ | LR.Drop_index _ ->
            ());
          false
        | LR.Build_start { index; algorithm; _ } ->
          Hashtbl.replace builds index algorithm;
          false
        | LR.Build_done { index } ->
          Hashtbl.remove builds index;
          false
        | LR.Heap_extend { table; page } ->
          max_page := Int.max !max_page page;
          extends := (table, page) :: !extends;
          false
        | LR.Create_table { table } ->
          ddl := Create_table table :: !ddl;
          false
        | LR.Create_index { index; table; key_cols; uniq } ->
          ddl := Create_index { index; table; key_cols; uniq } :: !ddl;
          false
        | LR.Drop_index { index } ->
          ddl := Drop_index index :: !ddl;
          false
      in
      match r.txn with
      | Some id ->
        if id > !max_txn then max_txn := id;
        if closes then Hashtbl.remove chains id else push chains id r
      | None -> ())
    records;
  let in_log_order tbl = Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) tbl in
  in_log_order key_redo;
  in_log_order sidefile_appends;
  let losers = Hashtbl.fold (fun id chain acc -> (id, chain) :: acc) chains [] in
  {
    losers = List.sort (fun (a, _) (b, _) -> Int.compare a b) losers;
    builds_in_progress = Hashtbl.fold (fun i a acc -> (i, a) :: acc) builds [];
    max_txn_id = !max_txn;
    max_heap_page = !max_page;
    ddl = List.rev !ddl;
    extends = List.rev !extends;
    heap_redo = List.rev !heap_redo;
    key_redo;
    sidefile_appends;
  }

let redo_heap a pool ~page_capacity =
  let page_of id =
    match Buffer_pool.get pool ~kind:Heap_page.kind id with
    | p -> p
    | exception Not_found ->
      Buffer_pool.install pool ~kind:Heap_page.kind id
        ~payload:(Heap_page.Heap (Heap_page.create ~capacity:page_capacity))
  in
  let redo_one (lsn, page, op) =
    let p = page_of page in
    if Lsn.( < ) p.Page.lsn lsn then begin
      Table_ops.apply_heap_op (Heap_page.of_payload p.Page.payload) op;
      p.Page.lsn <- lsn;
      Page.mark_dirty p
    end
  in
  List.iter redo_one a.heap_redo

(* One run over the index's logged keys after its image, in log order:
   the leaf a key lands on stays X-latched while the keys that follow
   belong to it. *)
let replay_index a tree =
  let image = Btree.image_lsn tree in
  let ops =
    Array.of_list
      (List.concat_map
         (fun k ->
           if Lsn.( > ) k.lsn image then
             List.map (fun key -> (key, k.after)) k.keys
           else [])
         (Option.value ~default:[]
            (Hashtbl.find_opt a.key_redo (Btree.index_id tree))))
  in
  ignore
    (Btree.set_run tree ~cursor:(Btree.new_cursor tree)
       ~key_at:(fun i -> fst ops.(i))
       ~state_at:(fun i -> snd ops.(i))
       ~from:0 ~upto:(Array.length ops)
       (fun _ _ _ -> true)
      : int)

let sidefile a ~sidefile_id =
  let sf = SF.create ~sidefile_id in
  List.iter
    (fun (insert, key) -> ignore (SF.apply_append sf ~insert key))
    (Option.value ~default:[] (Hashtbl.find_opt a.sidefile_appends sidefile_id));
  sf

let recover (ctx : Ctx.t) =
  let pool = ctx.pool in
  let page_capacity = Catalog.page_capacity ctx.catalog in
  let recovery_step step detail =
    if Oib_obs.Trace.tracing ctx.trace then
      Oib_obs.Trace.emit ctx.trace (Oib_obs.Event.Recovery_step { step; detail })
  in
  (* decode the durable log once and walk it once *)
  let a = analyze (LM.durable_records ctx.log) in
  recovery_step "analysis"
    (Printf.sprintf "losers=%d builds_in_progress=%d" (List.length a.losers)
       (List.length a.builds_in_progress));
  Txn.ensure_next_id ctx.txns (a.max_txn_id + 1);
  (* heap pages named in the log but never flushed sit above the stable
     store's max id; reserve them before anything allocates *)
  if a.max_heap_page >= 0 then
    Buffer_pool.reserve_page_ids pool ~upto:a.max_heap_page;
  (* catalog objects over the surviving store *)
  Catalog.reopen ctx.catalog pool;
  (* ... and in the durable inventories: after a log truncation the
     Heap_extend records above are gone, but the heap files still own
     their pages *)
  List.iter
    (fun (tbl : Catalog.table_info) ->
      List.iter
        (fun id -> Buffer_pool.reserve_page_ids pool ~upto:id)
        (Heap_file.page_ids tbl.heap);
      List.iter
        (fun (info : Catalog.index_info) ->
          List.iter
            (fun id -> Buffer_pool.reserve_page_ids pool ~upto:id)
            (Btree.page_ids info.tree))
        tbl.indexes)
    (Catalog.tables ctx.catalog);
  (* replay DDL the restored metadata may predate (media recovery) *)
  List.iter
    (function
      | Create_table table -> (
        match Catalog.table ctx.catalog table with
        | _ -> ()
        | exception Invalid_argument _ ->
          ignore (Catalog.create_table ~log:false ctx.catalog pool ~table_id:table))
      | Create_index { index; table; key_cols; uniq } -> (
        match Catalog.index ctx.catalog index with
        | _ -> ()
        | exception Invalid_argument _ ->
          ignore
            (Catalog.add_index ~log:false ctx.catalog pool ~table_id:table
               ~index_id:index ~key_cols ~unique:uniq ~phase:Catalog.Ready))
      | Drop_index index -> (
        match Catalog.index ctx.catalog index with
        | _ -> Catalog.drop_index ctx.catalog index
        | exception Invalid_argument _ -> ()))
    a.ddl;
  (* re-register file extensions the restored metadata may predate *)
  List.iter
    (fun (table, page) ->
      match Catalog.table ctx.catalog table with
      | tbl -> Heap_file.ensure_page_registered tbl.heap page
      | exception Invalid_argument _ -> ())
    a.extends;
  (* repeat history on the data pages *)
  recovery_step "redo_heap" "";
  redo_heap a pool ~page_capacity;
  (* a page can be in the inventory yet exist nowhere: registered
     durably at extend time, then lost with the unflushed log tail. No
     durable record could touch it (commit would have flushed the log),
     so empty is its correct redone state. *)
  List.iter
    (fun (tbl : Catalog.table_info) ->
      List.iter
        (fun id ->
          if not (Buffer_pool.mem pool id) then
            ignore
              (Buffer_pool.install pool ~kind:Heap_page.kind id
                 ~payload:(Heap_page.Heap (Heap_page.create ~capacity:page_capacity))))
        (Heap_file.page_ids tbl.heap))
    (Catalog.tables ctx.catalog);
  (* bring every index from its image to the end of the durable log *)
  recovery_step "replay_indexes" "";
  List.iter
    (fun (tbl : Catalog.table_info) ->
      List.iter
        (fun (info : Catalog.index_info) -> replay_index a info.tree)
        tbl.indexes)
    (Catalog.tables ctx.catalog);
  (* in-progress builds: phase down from Ready, rebuild side-files *)
  List.iter
    (fun (index_id, algorithm) ->
      recovery_step "restore_build" (Printf.sprintf "index=%d" index_id);
      Ib.restore_phase_after_restart ctx ~algorithm
        ~sidefile:(sidefile a ~sidefile_id:index_id) ~index_id)
    a.builds_in_progress;
  (* roll back losers with the live-abort executor *)
  List.iter
    (fun (txn_id, chain) ->
      recovery_step "rollback_loser" (Printf.sprintf "txn=%d" txn_id);
      let txn = Txn.adopt ctx.txns ~txn_id ~chain in
      Table_ops.rollback ctx txn)
    a.losers;
  LM.flush_all ctx.log;
  recovery_step "done" ""
