open Oib_util

type txn_id = int
type index_id = int

type key_state = Absent | Present | Pseudo_deleted

type algorithm = Nsf | Sf

type heap_op =
  | Heap_insert of { rid : Rid.t; record : Record.t }
  | Heap_delete of { rid : Rid.t; record : Record.t }
  | Heap_update of { rid : Rid.t; old_record : Record.t; new_record : Record.t }

type index_key_op = {
  index : index_id;
  key : Ikey.t;
  before : key_state;
  after : key_state;
}

type body =
  | Begin
  | Commit
  | Abort
  | End
  | Heap of {
      page : int;
      visible_indexes : int;
      sidefiled : index_id list;
      op : heap_op;
    }
  | Index_key of { redoable : bool; op : index_key_op }
  | Index_bulk_insert of { index : index_id; keys : Ikey.t list }
  | Sidefile_append of { sidefile : index_id; insert : bool; key : Ikey.t }
  | Clr of { action : body; undo_next : Lsn.t }
  | Build_start of { index : index_id; table : int; algorithm : algorithm }
  | Build_done of { index : index_id }
  | Heap_extend of { table : int; page : int }
  | Create_table of { table : int }
  | Create_index of {
      index : index_id;
      table : int;
      key_cols : int list;
      uniq : bool;
    }
  | Drop_index of { index : index_id }

type t = { lsn : Lsn.t; txn : txn_id option; prev_lsn : Lsn.t; body : body }

(* no wildcard arm (warning 4 is an error): a new kind must be classified *)
let[@warning "@4"] is_undoable = function
  | Heap _ | Index_key _ | Index_bulk_insert _ -> true
  | Begin | Commit | Abort | End | Sidefile_append _ | Clr _ | Build_start _
  | Build_done _ | Heap_extend _ | Create_table _ | Create_index _
  | Drop_index _ ->
    false

let pp_key_state ppf = function
  | Absent -> Format.pp_print_string ppf "absent"
  | Present -> Format.pp_print_string ppf "present"
  | Pseudo_deleted -> Format.pp_print_string ppf "pseudo-del"

let pp_heap_op ppf = function
  | Heap_insert { rid; record } ->
    Format.fprintf ppf "ins %a %a" Rid.pp rid Record.pp record
  | Heap_delete { rid; record } ->
    Format.fprintf ppf "del %a %a" Rid.pp rid Record.pp record
  | Heap_update { rid; old_record; new_record } ->
    Format.fprintf ppf "upd %a %a -> %a" Rid.pp rid Record.pp old_record
      Record.pp new_record

let rec pp_body ppf = function
  | Begin -> Format.pp_print_string ppf "BEGIN"
  | Commit -> Format.pp_print_string ppf "COMMIT"
  | Abort -> Format.pp_print_string ppf "ABORT"
  | End -> Format.pp_print_string ppf "END"
  | Heap { page; visible_indexes; sidefiled; op } ->
    Format.fprintf ppf "HEAP p%d vis=%d sf=[%s] %a" page visible_indexes
      (String.concat "," (List.map string_of_int sidefiled))
      pp_heap_op op
  | Index_key { redoable; op } ->
    Format.fprintf ppf "IXKEY%s i%d %a %a->%a"
      (if redoable then "" else "(undo-only)")
      op.index Ikey.pp op.key pp_key_state op.before pp_key_state op.after
  | Index_bulk_insert { index; keys } ->
    Format.fprintf ppf "IXBULK i%d %d keys" index (List.length keys)
  | Sidefile_append { sidefile; insert; key } ->
    Format.fprintf ppf "SF i%d %s %a" sidefile
      (if insert then "ins" else "del")
      Ikey.pp key
  | Clr { action; undo_next } ->
    Format.fprintf ppf "CLR[%a] undo_next=%a" pp_body action Lsn.pp undo_next
  | Build_start { index; table; algorithm } ->
    Format.fprintf ppf "BUILD_START i%d t%d %s" index table
      (match algorithm with Nsf -> "nsf" | Sf -> "sf")
  | Build_done { index } -> Format.fprintf ppf "BUILD_DONE i%d" index
  | Heap_extend { table; page } ->
    Format.fprintf ppf "HEAP_EXTEND t%d p%d" table page
  | Create_table { table } -> Format.fprintf ppf "CREATE_TABLE t%d" table
  | Create_index { index; table; key_cols; uniq } ->
    Format.fprintf ppf "CREATE_INDEX i%d t%d cols=[%s]%s" index table
      (String.concat "," (List.map string_of_int key_cols))
      (if uniq then " unique" else "")
  | Drop_index { index } -> Format.fprintf ppf "DROP_INDEX i%d" index

let pp ppf t =
  Format.fprintf ppf "%a txn=%s prev=%a %a" Lsn.pp t.lsn
    (match t.txn with Some x -> string_of_int x | None -> "-")
    Lsn.pp t.prev_lsn pp_body t.body
