open Oib_util
open Oib_storage
module LR = Oib_wal.Log_record
module LockM = Oib_lock.Lock_manager
module Txn = Oib_txn.Txn_manager
module Btree = Oib_btree.Btree
module Latch = Oib_sim.Latch
module SF = Oib_sidefile.Side_file

exception Unique_violation of { index : int; kv : string }

exception Txn_deadlock

let lock ctx txn name mode =
  match LockM.lock ctx.Ctx.locks ~txn:(Txn.id txn) name mode with
  | LockM.Granted -> ()
  | LockM.Deadlock -> raise Txn_deadlock

let instant ctx txn name mode =
  match LockM.instant_lock ctx.Ctx.locks ~txn:(Txn.id txn) name mode with
  | LockM.Granted -> ()
  | LockM.Deadlock -> raise Txn_deadlock

let heap_page (page : Page.t) = Heap_page.of_payload page.payload

(* --- direct index key maintenance (§2.2.3) --- *)

let log_key_move ctx txn info key ~before ~after =
  Catalog.log_key_move ~log:(Txn.log_op ctx.Ctx.txns txn) info key ~before
    ~after

(* Wait-dance around a rival entry's record lock: returns once the rival's
   writer has terminated. *)
let wait_for_record ctx txn rid = instant ctx txn (LockM.Record rid) S

let holds_x ctx txn rid =
  LockM.holds ctx.Ctx.locks ~txn:(Txn.id txn) (LockM.Record rid) X

(* Unique-index duplicate-key-value protocol for a transaction insert
   (§2.2.3): a Present rival with another RID belonging to a committed (or
   our own) record is a violation; an uncommitted rival - inserter or
   deleter - is waited out through its record lock. *)
let rec unique_guard ctx txn info (key : Ikey.t) =
  let rivals =
    List.filter
      (fun ((k : Ikey.t), _) -> not (Rid.equal k.rid key.rid))
      (Btree.find_kv info.Catalog.tree key.kv)
  in
  let live = List.filter (fun (_, pseudo) -> not pseudo) rivals in
  match live with
  | ((k : Ikey.t), _) :: _ ->
    if holds_x ctx txn k.rid then
      raise (Unique_violation { index = info.index_id; kv = key.kv })
    else begin
      wait_for_record ctx txn k.rid;
      (* the rival's writer ended; decide on fresh state *)
      let still =
        List.exists
          (fun ((k' : Ikey.t), pseudo') ->
            (not pseudo') && not (Rid.equal k'.rid key.rid))
          (Btree.find_kv info.tree key.kv)
      in
      if still then
        raise (Unique_violation { index = info.index_id; kv = key.kv })
      else unique_guard ctx txn info key
    end
  | [] ->
    (* pseudo-deleted rivals with active deleters could reactivate on
       rollback; wait them out (this replaces next-key locking, §2.2.3) *)
    let blocker =
      List.find_opt
        (fun ((k : Ikey.t), _) ->
          (not (holds_x ctx txn k.rid))
          && not
               (LockM.try_instant_lock ctx.Ctx.locks ~txn:(Txn.id txn)
                  (LockM.Record k.rid) S))
        rivals
    in
    (match blocker with
    | Some ((k : Ikey.t), _) ->
      wait_for_record ctx txn k.rid;
      unique_guard ctx txn info key
    | None -> ())

let rec key_insert ctx txn info (key : Ikey.t) =
  if info.Catalog.uniq then unique_guard ctx txn info key;
  let before = Btree.set_state info.Catalog.tree key LR.Present in
  (match before with
  | LR.Absent ->
    if info.uniq then begin
      (* close the probe/insert window: if a rival slipped in, retract our
         (not yet logged) entry and redo the dance *)
      let rival =
        List.exists
          (fun ((k : Ikey.t), pseudo) ->
            (not pseudo) && not (Rid.equal k.rid key.rid))
          (Btree.find_kv info.tree key.kv)
      in
      if rival then begin
        ignore (Btree.set_state info.tree key LR.Absent);
        key_insert ctx txn info key
      end
      else log_key_move ctx txn info key ~before ~after:LR.Present
    end
    else log_key_move ctx txn info key ~before ~after:LR.Present
  | LR.Pseudo_deleted ->
    (* reactivation (the paper's T2 example, §2.2.3) *)
    log_key_move ctx txn info key ~before ~after:LR.Present
  | LR.Present ->
    (* the index builder inserted it first: write the undo-only record so a
       rollback still removes the key (§2.1.1) *)
    ignore
      (Txn.log_op ctx.Ctx.txns txn
         (LR.Index_key
            {
              redoable = false;
              op =
                { index = info.index_id; key; before = LR.Absent;
                  after = LR.Present };
            })))

let key_delete ctx txn info (key : Ikey.t) =
  let before = Btree.set_state info.Catalog.tree key LR.Pseudo_deleted in
  match before with
  | LR.Present | LR.Absent ->
    (* found: pseudo-delete; not found: leave a tombstone so a late IB
       insert is rejected (§2.1.2) *)
    log_key_move ctx txn info key ~before ~after:LR.Pseudo_deleted
  | LR.Pseudo_deleted -> () (* no state change, nothing to compensate *)

(* --- side-file routing --- *)

let sf_state info =
  match info.Catalog.phase with
  | Catalog.Sf_building sf -> sf
  | Catalog.Ready | Catalog.Nsf_building _ ->
    invalid_arg "Table_ops: not an SF build"

(* count the append, grow the published backlog, emit the trace event *)
let note_sidefile_append ctx (info : Catalog.index_info) ~insert pos =
  Oib_sim.Metrics.add ctx.Ctx.metrics Sidefile_appends 1;
  (match Hashtbl.find_opt ctx.Ctx.builds info.Catalog.index_id with
  | Some st -> st.Build_status.backlog <- st.Build_status.backlog + 1
  | None -> ());
  let tr = Oib_sim.Sched.trace ctx.Ctx.sched in
  if Oib_obs.Trace.tracing tr then
    Oib_obs.Trace.emit tr
      (Oib_obs.Event.Sidefile_append
         { sidefile = info.Catalog.index_id; insert; pos })

let sidefile_entry ctx txn info ~insert key =
  let sf = sf_state info in
  ignore
    (Txn.log_op ctx.Ctx.txns txn
       (LR.Sidefile_append
          { sidefile = info.Catalog.index_id; insert; key }));
  (* The side-file is instantly durable but is not redone from the log; if
     this transaction's log tail were lost in a crash it would not be a
     loser, yet the entry would survive and the drain would apply it.
     Force the log so the writer is durably a known transaction first.
     The force never suspends (it only advances the durable offset), which
     [maintain_indexes] relies on. *)
  Oib_wal.Log_manager.flush_all ctx.Ctx.log;
  let pos = SF.apply_append sf.Catalog.sidefile ~insert key in
  note_sidefile_append ctx info ~insert pos

let directly_maintained (info : Catalog.index_info) =
  match info.Catalog.phase with
  | Catalog.Ready | Catalog.Nsf_building _ -> true
  | Catalog.Sf_building _ -> false

(* per-index forward maintenance for one record op. The side-file
   appends come first: nothing between the routing decision (made under
   the page latch) and them can suspend, so a drain never flips its build
   to Ready with a routed change not yet appended. That holds only
   because [sidefile_entry]'s [Log_manager.flush_all] never suspends; a
   force that waited on I/O would open the window. A directly maintained
   index can wait on a record lock, so it goes after (DESIGN §7). *)
let maintain_indexes ctx txn tbl ~rid ~sidefiled ops =
  (* ops: which keys to delete / insert, as functions of the index *)
  let routed, rest =
    List.partition
      (fun (info : Catalog.index_info) -> List.mem info.index_id sidefiled)
      tbl.Catalog.indexes
  in
  List.iter
    (fun info ->
      let dels, inss = ops info in
      List.iter (fun k -> sidefile_entry ctx txn info ~insert:false k) dels;
      List.iter (fun k -> sidefile_entry ctx txn info ~insert:true k) inss)
    routed;
  List.iter
    (fun info ->
      (* an SF build whose target IB has not reached gets nothing *)
      if directly_maintained info then begin
        let dels, inss = ops info in
        List.iter (fun k -> key_delete ctx txn info k) dels;
        List.iter (fun k -> key_insert ctx txn info k) inss
      end)
    rest;
  ignore rid

(* --- record operations (Figure 1) --- *)

let insert ctx txn ~table record =
  let tbl = Catalog.table ctx.Ctx.catalog table in
  lock ctx txn (LockM.Table table) IX;
  (* choose a slot with the page latched; the RID lock is conditional while
     latched (a freed slot can still be locked by an unfinished deleter) *)
  let[@lint.allow
       "L2: try_lock is conditional (lock_aux ~conditional:true never \
        suspends); the unconditional lock below runs only after the page \
        latch is released"] rec acquire () =
    let page, slot = Heap_file.prepare_insert tbl.heap record in
    let rid = Rid.make ~page:page.Page.id ~slot in
    if LockM.try_lock ctx.Ctx.locks ~txn:(Txn.id txn) (LockM.Record rid) X
    then (page, slot, rid)
    else begin
      (* the slot's previous owner has not committed: unlatch, acquire the
         lock unconditionally (and keep it — re-running the placement then
         finds either this slot lockable re-entrantly or a better one),
         and revalidate from scratch *)
      Heap_page.unreserve (heap_page page) slot;
      Heap_file.note_gain tbl.heap page.Page.id;
      Latch.release page.Page.latch X;
      lock ctx txn (LockM.Record rid) X;
      acquire ()
    end
  in
  let page, slot, rid = acquire () in
  let vis = Catalog.visible_count_for ctx.Ctx.catalog tbl ~target:rid ~record in
  let sidefiled = Catalog.sidefiled_for ctx.Ctx.catalog tbl ~target:rid ~record in
  Heap_page.put (heap_page page) slot record;
  let lsn =
    Txn.log_op ctx.Ctx.txns txn
      (LR.Heap
         {
           page = page.Page.id;
           visible_indexes = vis;
           sidefiled;
           op = LR.Heap_insert { rid; record };
         })
  in
  Page.set_lsn page lsn;
  Latch.release page.Page.latch X;
  maintain_indexes ctx txn tbl ~rid ~sidefiled (fun info ->
      ([], [ Catalog.key_of info record ~rid ]));
  rid

let fetch_locked ctx txn tbl rid =
  lock ctx txn (LockM.Record rid) X;
  let page = Heap_file.latch_rid tbl.Catalog.heap rid X in
  match Heap_page.get (heap_page page) rid.Rid.slot with
  | None ->
    Latch.release page.Page.latch X;
    raise Not_found
  | Some record -> (page, record)

let delete ctx txn ~table rid =
  let tbl = Catalog.table ctx.Ctx.catalog table in
  lock ctx txn (LockM.Table table) IX;
  let page, record = fetch_locked ctx txn tbl rid in
  let vis = Catalog.visible_count_for ctx.Ctx.catalog tbl ~target:rid ~record in
  let sidefiled = Catalog.sidefiled_for ctx.Ctx.catalog tbl ~target:rid ~record in
  Heap_page.remove (heap_page page) rid.Rid.slot;
  let lsn =
    Txn.log_op ctx.Ctx.txns txn
      (LR.Heap
         {
           page = page.Page.id;
           visible_indexes = vis;
           sidefiled;
           op = LR.Heap_delete { rid; record };
         })
  in
  Page.set_lsn page lsn;
  Latch.release page.Page.latch X;
  Heap_file.note_free tbl.Catalog.heap rid.Rid.page;
  maintain_indexes ctx txn tbl ~rid ~sidefiled (fun info ->
      ([ Catalog.key_of info record ~rid ], []))

let update ctx txn ~table rid new_record =
  let tbl = Catalog.table ctx.Ctx.catalog table in
  lock ctx txn (LockM.Table table) IX;
  let page, old_record = fetch_locked ctx txn tbl rid in
  (* the primary key is immutable by assumption (§6.2), so old and new
     records agree on key-order visibility *)
  let vis =
    Catalog.visible_count_for ctx.Ctx.catalog tbl ~target:rid ~record:old_record
  in
  let sidefiled =
    Catalog.sidefiled_for ctx.Ctx.catalog tbl ~target:rid ~record:old_record
  in
  Heap_page.put (heap_page page) rid.Rid.slot new_record;
  Heap_file.note_gain tbl.Catalog.heap rid.Rid.page;
  let lsn =
    Txn.log_op ctx.Ctx.txns txn
      (LR.Heap
         {
           page = page.Page.id;
           visible_indexes = vis;
           sidefiled;
           op = LR.Heap_update { rid; old_record; new_record };
         })
  in
  Page.set_lsn page lsn;
  Latch.release page.Page.latch X;
  maintain_indexes ctx txn tbl ~rid ~sidefiled (fun info ->
      let old_key = Catalog.key_of info old_record ~rid in
      let new_key = Catalog.key_of info new_record ~rid in
      if Ikey.equal old_key new_key then ([], [])
      else ([ old_key ], [ new_key ]))

let read ctx txn ~table rid =
  let tbl = Catalog.table ctx.Ctx.catalog table in
  lock ctx txn (LockM.Table table) IS;
  lock ctx txn (LockM.Record rid) S;
  Heap_file.read_record tbl.Catalog.heap rid

let index_lookup ctx txn ~index kv =
  let info = Catalog.index ctx.Ctx.catalog index in
  (* the build phase is the read gate: only [Ready] serves, with one
     carve-out — a building NSF index's completed prefix (gradual
     availability, footnote 3) *)
  (match info.Catalog.phase with
  | Catalog.Ready -> ()
  | Catalog.Nsf_building { avail_below = Some bound } when kv < bound -> ()
  | Catalog.Nsf_building _ | Catalog.Sf_building _ ->
    invalid_arg "Table_ops.index_lookup: index still being built");
  let tbl = Catalog.table ctx.Ctx.catalog info.table_id in
  lock ctx txn (LockM.Table info.table_id) IS;
  List.filter_map
    (fun ((k : Ikey.t), pseudo) ->
      if pseudo then None
      else begin
        lock ctx txn (LockM.Record k.rid) S;
        match Heap_file.read_record tbl.Catalog.heap k.rid with
        | Some record -> Some (k.rid, record)
        | None -> None
      end)
    (Btree.find_kv info.tree kv)

let range_lookup ctx txn ~index ?lo ?hi () =
  let info = Catalog.index ctx.Ctx.catalog index in
  (* ranges have no per-key gradual-availability carve-out: serve only
     once the index is [Ready] *)
  (match info.Catalog.phase with
  | Catalog.Ready -> ()
  | Catalog.Nsf_building _ | Catalog.Sf_building _ ->
    invalid_arg "Table_ops.range_lookup: index still being built");
  let tbl = Catalog.table ctx.Ctx.catalog info.table_id in
  lock ctx txn (LockM.Table info.table_id) IS;
  (* collect matching entries first (latch-coupled scan), then lock and
     fetch the records *)
  let hits = ref [] in
  Btree.iter_range info.tree ?lo ?hi (fun k ~pseudo ->
      if not pseudo then hits := k :: !hits);
  List.rev_map
    (fun (k : Ikey.t) ->
      lock ctx txn (LockM.Record k.rid) S;
      (k, Heap_file.read_record tbl.Catalog.heap k.rid))
    !hits
  |> List.filter_map (fun ((k : Ikey.t), r) ->
         match r with Some record -> Some (k.Ikey.rid, record) | None -> None)

(* --- undo (Figure 2) --- *)

let inverse_heap_op = function
  | LR.Heap_insert { rid; record } -> LR.Heap_delete { rid; record }
  | LR.Heap_delete { rid; record } -> LR.Heap_insert { rid; record }
  | LR.Heap_update { rid; old_record; new_record } ->
    LR.Heap_update { rid; old_record = new_record; new_record = old_record }

let apply_heap_op hp = function
  | LR.Heap_insert { rid; record } -> Heap_page.put hp rid.Rid.slot record
  | LR.Heap_delete { rid; _ } -> Heap_page.remove hp rid.Rid.slot
  | LR.Heap_update { rid; new_record; _ } ->
    Heap_page.put hp rid.Rid.slot new_record

let op_rid = function
  | LR.Heap_insert { rid; _ } | LR.Heap_delete { rid; _ }
  | LR.Heap_update { rid; _ } ->
    rid

(* inverse key actions for one index: (deletes, inserts) *)
let inverse_key_ops info ~rid = function
  | LR.Heap_insert { record; _ } -> ([ Catalog.key_of info record ~rid ], [])
  | LR.Heap_delete { record; _ } -> ([], [ Catalog.key_of info record ~rid ])
  | LR.Heap_update { old_record; new_record; _ } ->
    let old_key = Catalog.key_of info old_record ~rid in
    let new_key = Catalog.key_of info new_record ~rid in
    if Ikey.equal old_key new_key then ([], [])
    else ([ new_key ], [ old_key ])

(* direct logical undo in a tree, with the tombstone discipline: undo
   deletes become Present, undo inserts become tombstones *)
let logical_tree_undo info ~clr (dels, inss) =
  let set after key =
    Catalog.log_key_move ~log:clr info key ~after
      ~before:(Btree.set_state info.Catalog.tree key after)
  in
  List.iter (set LR.Pseudo_deleted) dels;
  List.iter (set LR.Present) inss

let sidefile_undo ctx info ~clr (dels, inss) =
  let sf = sf_state info in
  (* Same durability rule as [sidefile_entry]: the CLRs must be durable
     before their compensating appends hit the instantly-durable side-file,
     or a second crash would roll the transaction back again and append the
     compensation twice. *)
  let append ~insert key =
    ignore
      (clr
         (LR.Sidefile_append
            { sidefile = info.Catalog.index_id; insert; key }));
    Oib_wal.Log_manager.flush_all ctx.Ctx.log;
    let pos = SF.apply_append sf.Catalog.sidefile ~insert key in
    note_sidefile_append ctx info ~insert pos
  in
  List.iter (fun key -> append ~insert:false key) dels;
  List.iter (fun key -> append ~insert:true key) inss

let undo_heap ctx _txn ~clr ~page ~old_count ~old_sf op =
  (* 1. reverse the data-page change *)
  let tbl =
    (* the page belongs to exactly one table; find it through the catalog *)
    List.find
      (fun (t : Catalog.table_info) -> Heap_file.owns t.Catalog.heap page)
      (Catalog.tables ctx.Ctx.catalog)
  in
  let p = Buffer_pool.get ctx.Ctx.pool ~kind:Heap_page.kind page in
  Latch.acquire p.Page.latch X;
  let inverse = inverse_heap_op op in
  apply_heap_op (heap_page p) inverse;
  Heap_file.note_gain tbl.Catalog.heap page;
  let rid = op_rid op in
  let record_of_op =
    match op with
    | LR.Heap_insert { record; _ } | LR.Heap_delete { record; _ } -> record
    | LR.Heap_update { old_record; _ } -> old_record
  in
  let vis_now =
    Catalog.visible_count_for ctx.Ctx.catalog tbl ~target:rid
      ~record:record_of_op
  in
  let sf_now =
    Catalog.sidefiled_for ctx.Ctx.catalog tbl ~target:rid ~record:record_of_op
  in
  let lsn =
    clr
      (LR.Heap
         { page; visible_indexes = vis_now; sidefiled = sf_now; op = inverse })
  in
  Page.set_lsn p lsn;
  Latch.release p.Page.latch X;
  (* 2. index compensation: indexes whose forward maintenance is not
     represented by Index_key records in this transaction's chain *)
  List.iteri
    (fun pos (info : Catalog.index_info) ->
      let visible_then = pos < old_count in
      let sidefiled_then = List.mem info.index_id old_sf in
      let ops = inverse_key_ops info ~rid op in
      let visible_now =
        Catalog.visible_to info ~target:rid ~record:record_of_op
      in
      if visible_then && sidefiled_then then
        match info.phase with
        | Catalog.Sf_building _ -> sidefile_undo ctx info ~clr ops
        | Catalog.Ready -> logical_tree_undo info ~clr ops
        | Catalog.Nsf_building _ -> assert false
      else if (not visible_then) && visible_now then
        (* Figure 2's transition branch: the index became visible after the
           forward action *)
        match info.phase with
        | Catalog.Sf_building _ -> sidefile_undo ctx info ~clr ops
        | Catalog.Ready | Catalog.Nsf_building _ ->
          logical_tree_undo info ~clr ops)
    tbl.Catalog.indexes

let undo_index_key ctx ~clr (op : LR.index_key_op) =
  let info = Catalog.index ctx.Ctx.catalog op.index in
  let target =
    match op.after with
    | LR.Present -> (
      match op.before with LR.Absent -> LR.Pseudo_deleted | b -> b)
    | LR.Pseudo_deleted -> LR.Present
    | LR.Absent -> op.before
  in
  Catalog.log_key_move ~log:clr info op.key ~after:target
    ~before:(Btree.set_state info.tree op.key target)

(* no wildcard arm (warning 4 is an error): a new record kind must be
   given an undo here *)
let[@warning "@4"] undo_executor ctx txn body ~clr =
  match body with
  | LR.Heap { page; visible_indexes; sidefiled; op } ->
    undo_heap ctx txn ~clr ~page ~old_count:visible_indexes ~old_sf:sidefiled
      op
  | LR.Index_key { op; _ } -> undo_index_key ctx ~clr op
  | LR.Index_bulk_insert _ ->
    (* only the index builder writes these, outside any transaction *)
    assert false
  | LR.Begin | LR.Commit | LR.Abort | LR.End | LR.Sidefile_append _
  | LR.Clr _ | LR.Build_start _ | LR.Build_done _ | LR.Heap_extend _
  | LR.Create_table _ | LR.Create_index _ | LR.Drop_index _ ->
    assert false

let rollback ctx txn =
  Txn.rollback ctx.Ctx.txns txn ~undo:(undo_executor ctx txn)
