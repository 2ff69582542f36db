open Oib_storage
module LR = Oib_wal.Log_record
module Lsn = Oib_wal.Lsn

type analysis = {
  losers : (int * LR.t list) list;
  winners : int list;
  builds_in_progress : (int * int) list;
  builds_done : int list;
  index_states : (int * int) list;
  max_lsn : Lsn.t;
  max_txn_id : int;
}

let analyze records =
  (* the records of every transaction not yet committed or ended, newest
     first: what each loser's rollback walks. A transaction that ended
     without commit completed its rollback and is no loser. *)
  let chains : (int, LR.t list) Hashtbl.t = Hashtbl.create 32 in
  let committed : (int, unit) Hashtbl.t = Hashtbl.create 32 in
  let builds : (int, int) Hashtbl.t = Hashtbl.create 4 in
  let states : (int, int) Hashtbl.t = Hashtbl.create 4 in
  let done_builds = ref [] in
  let max_lsn = ref Lsn.nil in
  let max_txn = ref 0 in
  List.iter
    (fun (r : LR.t) ->
      if Lsn.( > ) r.lsn !max_lsn then max_lsn := r.lsn;
      (match r.txn with
      | Some id ->
        if id > !max_txn then max_txn := id;
        (match r.body with
        | LR.Commit ->
          Hashtbl.replace committed id ();
          Hashtbl.remove chains id
        | LR.End -> Hashtbl.remove chains id
        | _ ->
          Hashtbl.replace chains id
            (r :: Option.value (Hashtbl.find_opt chains id) ~default:[]))
      | None -> ());
      match r.body with
      | LR.Build_start { index; table } -> Hashtbl.replace builds index table
      | LR.Build_done { index } ->
        Hashtbl.remove builds index;
        done_builds := index :: !done_builds
      | LR.Index_state { index; state } ->
        (* records are in LSN order: last one per index wins *)
        Hashtbl.replace states index state
      | LR.Drop_index { index } -> Hashtbl.remove states index
      | _ -> ())
    records;
  let losers = Hashtbl.fold (fun id chain acc -> (id, chain) :: acc) chains [] in
  let winners = Hashtbl.fold (fun id () acc -> id :: acc) committed [] in
  {
    losers = List.sort (fun (a, _) (b, _) -> compare a b) losers;
    winners = List.sort compare winners;
    builds_in_progress = Hashtbl.fold (fun i t acc -> (i, t) :: acc) builds [];
    builds_done = !done_builds;
    index_states =
      List.sort compare (Hashtbl.fold (fun i s acc -> (i, s) :: acc) states []);
    max_lsn = !max_lsn;
    max_txn_id = !max_txn;
  }

let apply_heap_op page_payload op =
  let hp = Heap_page.of_payload page_payload in
  match op with
  | LR.Heap_insert { rid; record } -> Heap_page.put hp rid.Oib_util.Rid.slot record
  | LR.Heap_delete { rid; record = _ } -> Heap_page.remove hp rid.Oib_util.Rid.slot
  | LR.Heap_update { rid; new_record; _ } ->
    Heap_page.put hp rid.Oib_util.Rid.slot new_record

let redo_heap records pool ~page_capacity =
  let page_of id =
    match Buffer_pool.get pool ~kind:Heap_page.kind id with
    | p -> p
    | exception Not_found ->
      Buffer_pool.install pool ~kind:Heap_page.kind id
        ~payload:(Heap_page.Heap (Heap_page.create ~capacity:page_capacity))
  in
  let redo_one lsn page op =
    let p = page_of page in
    if Lsn.( < ) p.Page.lsn lsn then begin
      apply_heap_op p.Page.payload op;
      p.Page.lsn <- lsn;
      Page.mark_dirty p
    end
  in
  List.iter
    (fun (r : LR.t) ->
      match r.body with
      | LR.Heap { page; op; _ } -> redo_one r.lsn page op
      | LR.Clr { action = LR.Heap { page; op; _ }; _ } -> redo_one r.lsn page op
      | _ -> ())
    records

let replay_index records tree =
  let index_id = Oib_btree.Btree.index_id tree in
  let after = Oib_btree.Btree.image_lsn tree in
  let apply_op (op : LR.index_key_op) =
    if op.index = index_id then
      ignore (Oib_btree.Btree.set_state tree op.key op.after)
  in
  List.iter
    (fun (r : LR.t) ->
      if Lsn.( > ) r.lsn after then
        match r.body with
        | LR.Index_key { redoable = true; op } -> apply_op op
        | LR.Index_bulk_insert { index; keys } when index = index_id ->
          List.iter
            (fun key -> ignore (Oib_btree.Btree.set_state tree key LR.Present))
            keys
        | LR.Clr { action = LR.Index_key { op; _ }; _ } -> apply_op op
        | _ -> ())
    records
