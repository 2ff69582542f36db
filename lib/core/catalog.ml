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

(* Lifecycle state machine (after the FDB Record Layer online indexer):
   Disabled -> Write_only at build admission, Write_only -> Readable at the
   catch-up flip, and either may be disabled again (cancel / take offline).
   Write_only indexes receive NSF/SF maintenance but never serve reads;
   transitions are WAL-logged before the catalog's durable entry is
   rewritten, so recovery lands every index in its last logged state. *)
type index_state = Disabled | Write_only | Readable

exception
  Illegal_transition of {
    index : int;
    from_ : index_state;
    to_ : index_state;
  }

exception Invalid_index_state of int

let state_name = function
  | Disabled -> "disabled"
  | Write_only -> "write-only"
  | Readable -> "readable"

let state_to_int = function Disabled -> 0 | Write_only -> 1 | Readable -> 2

let state_of_int = function
  | 0 -> Disabled
  | 1 -> Write_only
  | 2 -> Readable
  | n -> raise (Invalid_index_state n)

let legal_transition ~from_ ~to_ =
  match (from_, to_) with
  | Disabled, Write_only -> true
  | Write_only, Readable -> true
  | Write_only, Disabled -> true
  | Readable, Disabled -> true
  | (Disabled | Write_only | Readable), _ -> false

type index_info = {
  index_id : int;
  table_id : int;
  key_cols : int list;
  uniq : bool;
  tree : Oib_btree.Btree.t;
  mutable phase : build_phase;
  mutable state : index_state;
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
  mutable trace : Oib_obs.Trace.t;  (* sanitizer events only *)
}

type Durable_kv.value +=
  | Table_cat of { table_id : int }
  | Index_cat of {
      index_id : int;
      table_id : int;
      key_cols : int list;
      uniq : bool;
      seq : int; (* creation position within the table *)
      state : int; (* index_state, via state_to_int *)
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
    trace = Oib_obs.Trace.null;
  }

let set_trace t trace = t.trace <- trace

(* Shared-state events for the sanitizer's L12 interference automaton.
   The key carries the index instance — the per-index state words are
   independent, exactly as the linter keys accesses by instance — and
   the sanitizer strips the "(i)" suffix back to the class when diffing
   against the static table. *)
let emit_shared t index_id ~write site =
  if Oib_obs.Trace.tracing t.trace then
    Oib_obs.Trace.emit t.trace
      (Oib_obs.Event.Shared
         {
           key = Printf.sprintf "Catalog.state(%d)" index_id;
           write;
           site;
         })

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

(* rewrite an index's durable catalog entry (creation and every state
   transition; the kv is forced, so this is the state's durable home) *)
let persist_index t (info : index_info) =
  let tbl = table t info.table_id in
  let seq =
    let rec pos i = function
      | [] -> invalid_arg "Catalog.persist_index: detached info"
      | x :: rest -> if x.index_id = info.index_id then i else pos (i + 1) rest
    in
    pos 0 tbl.indexes
  in
  Durable_kv.set t.kv (index_cat_key info.index_id)
    (Index_cat
       {
         index_id = info.index_id;
         table_id = info.table_id;
         key_cols = info.key_cols;
         uniq = info.uniq;
         seq;
         state = state_to_int info.state;
       })

let add_index ?(log = true) ?state t pool ~table_id ~index_id ~key_cols
    ~unique ~phase =
  let tbl = table t table_id in
  if Hashtbl.mem t.indexes index_id then
    invalid_arg "Catalog.add_index: index exists";
  let tree =
    Oib_btree.Btree.create pool t.kv ~index_id ~page_capacity:t.page_capacity
      ~unique
  in
  (* default lifecycle state derived from the phase: a Ready descriptor
     (recovery replay, tests) is readable, a building one is write-only.
     Builders pass ~state:Disabled and log the Write_only admission
     explicitly. *)
  let state =
    match state with
    | Some s -> s
    | None -> ( match phase with Ready -> Readable | _ -> Write_only)
  in
  let info =
    { index_id; table_id; key_cols; uniq = unique; tree; phase; state }
  in
  tbl.indexes <- tbl.indexes @ [ info ];
  Hashtbl.replace t.indexes index_id info;
  persist_index t info;
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
  (* a Disabled index receives no maintenance at all: it either has not
     been admitted yet or is being torn down *)
  if info.state = Disabled then false
  else
    match info.phase with
    | Ready | Nsf_building _ -> true
    | Sf_building sf -> sf_visible sf ~target ~record

let visible_count_for _t (tbl : table_info) ~target ~record =
  List.length (List.filter (visible_to ~target ~record) tbl.indexes)

let sidefiled_for _t (tbl : table_info) ~target ~record =
  List.filter_map
    (fun info ->
      match info.phase with
      | Sf_building sf
        when info.state <> Disabled && sf_visible sf ~target ~record ->
        Some info.index_id
      | _ -> None)
    tbl.indexes

let set_phase t index_id phase = (index t index_id).phase <- phase

let state t index_id =
  emit_shared t index_id ~write:false "catalog.state";
  (index t index_id).state

(* Durability order: WAL record first (appended + flushed), then the
   forced catalog entry, then memory. A crash between the two leaves the
   log ahead of the kv; recovery applies the last logged state per index
   after reopen, so the logged transition wins either way. *)
let set_state t pool index_id to_ =
  let info = index t index_id in
  emit_shared t index_id ~write:false "catalog.set_state";
  let from_ = info.state in
  if not (legal_transition ~from_ ~to_) then
    raise (Illegal_transition { index = index_id; from_; to_ });
  log_ddl pool
    (Oib_wal.Log_record.Index_state
       { index = index_id; state = state_to_int to_ });
  (* log_ddl forces the WAL, which may suspend this fiber; another DDL
     fiber could have transitioned the index meanwhile. Re-validate
     against the current state before installing, so a raced transition
     surfaces as Illegal_transition instead of silently clobbering it
     (the logged record is then a no-op replay of a rejected change). *)
  emit_shared t index_id ~write:false "catalog.set_state.revalidate";
  let cur = info.state in
  if not (legal_transition ~from_:cur ~to_) then
    raise (Illegal_transition { index = index_id; from_ = cur; to_ });
  info.state <- to_;
  emit_shared t index_id ~write:true "catalog.set_state";
  persist_index t info

(* recovery-only: apply a replayed state without legality checks or
   logging (the transition is already in the log) *)
let restore_state t index_id state =
  match Hashtbl.find_opt t.indexes index_id with
  | None -> ()
  | Some info ->
    info.state <- state;
    persist_index t info

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
          Some (c.table_id, c.seq, id, c.key_cols, c.uniq, c.state)
        | _ -> None)
      index_ids
  in
  let entries = List.sort compare entries in
  List.iter
    (fun (table_id, _seq, index_id, key_cols, uniq, state) ->
      let tree = Oib_btree.Btree.open_from_image pool t.kv ~index_id in
      let info =
        {
          index_id;
          table_id;
          key_cols;
          uniq;
          tree;
          phase = Ready;
          state = state_of_int state;
        }
      in
      let tbl = table t table_id in
      tbl.indexes <- tbl.indexes @ [ info ];
      Hashtbl.replace t.indexes index_id info)
    entries
