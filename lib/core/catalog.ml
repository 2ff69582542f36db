open Oib_util
open Oib_storage

type build_phase =
  | Ready
  | Nsf_building of nsf_state
  | Sf_building of sf_state

and nsf_state = { mutable avail_below : string option }

and sf_state = {
  sidefile : Oib_sidefile.Side_file.t;
  mutable current_rid : Rid.t;
  mutable current_key : string option;
  key_scan : int list option;
  mutable draining : bool;
}

type index_info = {
  index_id : int;
  table_id : int;
  key_cols : int list;
  uniq : bool;
  tree : Oib_btree.Btree.t;
  mutable phase : build_phase;
}

type table_info = {
  table_id : int;
  heap : Heap_file.t;
  mutable indexes : index_info list;
}

type t = {
  kv : Durable_kv.t;
  page_capacity : int;
  tables : (int, table_info) Hashtbl.t;
  indexes : (int, index_info) Hashtbl.t;
}

type Durable_kv.value +=
  | Table_cat of { table_id : int }
  | Index_cat of {
      index_id : int;
      table_id : int;
      key_cols : int list;
      uniq : bool;
      seq : int; (* creation position within the table *)
    }
  | Table_list of int list
  | Index_list of int list

let table_cat_key id = Printf.sprintf "cat/table/%d" id
let index_cat_key id = Printf.sprintf "cat/index/%d" id

let create kv ~page_capacity =
  {
    kv;
    page_capacity;
    tables = Hashtbl.create 8;
    indexes = Hashtbl.create 16;
  }

let kv t = t.kv
let page_capacity t = t.page_capacity

let persist_lists t =
  Durable_kv.set t.kv "cat/tables"
    (Table_list (Hashtbl.fold (fun id _ acc -> id :: acc) t.tables []));
  Durable_kv.set t.kv "cat/indexes"
    (Index_list (Hashtbl.fold (fun id _ acc -> id :: acc) t.indexes []))

let log_ddl pool body =
  ignore
    (Oib_wal.Log_manager.append (Buffer_pool.log pool) ~txn:None
       ~prev_lsn:Oib_wal.Lsn.nil body);
  Oib_wal.Log_manager.flush_all (Buffer_pool.log pool)

let create_table ?(log = true) t pool ~table_id =
  if Hashtbl.mem t.tables table_id then
    invalid_arg "Catalog.create_table: exists";
  let heap =
    Heap_file.create pool t.kv ~table_id ~page_capacity:t.page_capacity
  in
  let info = { table_id; heap; indexes = [] } in
  Hashtbl.replace t.tables table_id info;
  Durable_kv.set t.kv (table_cat_key table_id) (Table_cat { table_id });
  persist_lists t;
  if log then log_ddl pool (Oib_wal.Log_record.Create_table { table = table_id });
  info

let table t id =
  match Hashtbl.find_opt t.tables id with
  | Some info -> info
  | None -> invalid_arg (Printf.sprintf "Catalog.table: no table %d" id)

let index t id =
  match Hashtbl.find_opt t.indexes id with
  | Some info -> info
  | None -> invalid_arg (Printf.sprintf "Catalog.index: no index %d" id)

let tables t = Hashtbl.fold (fun _ info acc -> info :: acc) t.tables []

let indexes_of t table_id = (table t table_id).indexes

let add_index ?(log = true) t pool ~table_id ~index_id ~key_cols ~unique
    ~phase =
  let tbl = table t table_id in
  if Hashtbl.mem t.indexes index_id then
    invalid_arg "Catalog.add_index: index exists";
  let tree =
    Oib_btree.Btree.create pool t.kv ~index_id ~page_capacity:t.page_capacity
      ~unique
  in
  let info = { index_id; table_id; key_cols; uniq = unique; tree; phase } in
  (* the forced catalog entry *)
  Durable_kv.set t.kv (index_cat_key index_id)
    (Index_cat
       { index_id; table_id; key_cols; uniq = unique;
         seq = List.length tbl.indexes });
  tbl.indexes <- tbl.indexes @ [ info ];
  Hashtbl.replace t.indexes index_id info;
  persist_lists t;
  if log then
    log_ddl pool
      (Oib_wal.Log_record.Create_index
         { index = index_id; table = table_id; key_cols; uniq = unique });
  info

let drop_index t index_id =
  let info = index t index_id in
  let tbl = table t info.table_id in
  tbl.indexes <- List.filter (fun i -> i.index_id <> index_id) tbl.indexes;
  Hashtbl.remove t.indexes index_id;
  (* scrub the tree's durable image too: recovery replays Create_index
     before this drop's record, and Btree.create refuses a stale meta *)
  Oib_btree.Btree.destroy info.tree;
  Durable_kv.remove t.kv (index_cat_key index_id);
  persist_lists t

let key_of info record ~rid = Ikey.make (Record.key_value record info.key_cols) rid

let key_at info hp ~rid =
  Ikey.make (Heap_page.key_value hp rid.Rid.slot info.key_cols) rid

(* Visibility of one index for an operation on [target] (Figure 1; for
   key-order scans, §6.2's current-key rule — <= because the extraction of
   the record with that exact key happened under its page latch, so an
   equal-key operation is ordered after the extraction). *)
let sf_visible sf ~target ~record =
  Rid.is_infinity sf.current_rid
  ||
  match sf.key_scan with
  | None -> Rid.compare target sf.current_rid < 0
  | Some cols -> (
    match sf.current_key with
    | None -> false
    | Some ck -> String.compare (Record.key_value record cols) ck <= 0)

let visible_to info ~target ~record =
  match info.phase with
  | Ready | Nsf_building _ -> true
  | Sf_building sf -> sf_visible sf ~target ~record

let visible_count_for _t (tbl : table_info) ~target ~record =
  List.length (List.filter (visible_to ~target ~record) tbl.indexes)

let sidefiled_for _t (tbl : table_info) ~target ~record =
  List.filter_map
    (fun info ->
      match info.phase with
      | Sf_building sf when sf_visible sf ~target ~record ->
        Some info.index_id
      | _ -> None)
    tbl.indexes

let set_phase t index_id phase = (index t index_id).phase <- phase

let reopen t pool =
  Hashtbl.reset t.tables;
  Hashtbl.reset t.indexes;
  let table_ids =
    match Durable_kv.get t.kv "cat/tables" with
    | Some (Table_list l) -> List.sort compare l
    | _ -> []
  in
  List.iter
    (fun table_id ->
      let heap = Heap_file.open_existing pool t.kv ~table_id in
      Hashtbl.replace t.tables table_id { table_id; heap; indexes = [] })
    table_ids;
  let index_ids =
    match Durable_kv.get t.kv "cat/indexes" with
    | Some (Index_list l) -> List.sort compare l
    | _ -> []
  in
  (* gather index cat entries and attach in seq order per table *)
  let entries =
    List.filter_map
      (fun id ->
        match Durable_kv.get t.kv (index_cat_key id) with
        | Some (Index_cat c) ->
          Some (c.table_id, c.seq, id, c.key_cols, c.uniq)
        | _ -> None)
      index_ids
  in
  let entries = List.sort compare entries in
  List.iter
    (fun (table_id, _seq, index_id, key_cols, uniq) ->
      let tree = Oib_btree.Btree.open_from_image pool t.kv ~index_id in
      let info = { index_id; table_id; key_cols; uniq; tree; phase = Ready } in
      let tbl = table t table_id in
      tbl.indexes <- tbl.indexes @ [ info ];
      Hashtbl.replace t.indexes index_id info)
    entries
