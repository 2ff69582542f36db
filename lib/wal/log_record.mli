(** Typed log records.

    The paper distinguishes undo-redo, redo-only and undo-only records
    (§1.1 "Recovery"). Here that distinction is captured per record kind:

    - heap operations and ordinary index key operations are undo-redo;
    - a transaction's index insert that found the key already present
      (inserted first by the index builder, NSF §2.1.1) is undo-only
      ([Index_key] with [redoable = false]): on rollback the key must be
      removed even though this transaction never physically inserted it;
    - side-file appends are redo-only (§3.1 assumptions);
    - compensation records (CLRs) written during rollback are redo-only and
      carry [undo_next], the next record of the transaction left to undo.

    Index key operations are logged as absolute state transitions
    ([before] -> [after] of the key's state), and only *performed* actions
    are logged (a rejected duplicate insert writes nothing, NSF §2.2.3), so
    replaying the suffix of the log in LSN order — setting each key to its
    [after] state — is idempotent logical redo. *)

open Oib_util

type txn_id = int
type index_id = int

type key_state = Absent | Present | Pseudo_deleted

type algorithm = Nsf | Sf  (** an index build's algorithm (§2, §3) *)

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
      (** [visible_indexes] is the count of indexes visible to this
          transaction at update time — the extra field SF needs to detect,
          during rollback, that an index became visible after the forward
          action (paper §3.1.2). [sidefiled] lists the indexes whose key
          maintenance was routed to a side-file rather than applied
          directly; the paper infers this from the count alone, which is
          ambiguous once several builds overlap a transaction — we log it
          explicitly (same information under the paper's assumptions). *)
  | Index_key of { redoable : bool; op : index_key_op }
  | Index_bulk_insert of { index : index_id; keys : Ikey.t list }
      (** NSF's index builder logs one record for all the keys it placed on
          one leaf page (§2.2.3 "the log record can contain multiple
          keys"). *)
  | Sidefile_append of { sidefile : index_id; insert : bool; key : Ikey.t }
  | Clr of { action : body; undo_next : Lsn.t }
      (** Compensation: [action] is the change applied by undo (itself a
          [Heap], [Index_key] or [Sidefile_append] body); redo-only. *)
  | Build_start of { index : index_id; table : int; algorithm : algorithm }
      (** An index build was admitted; until its [Build_done] the index is
          being built and serves no reads. The algorithm lets restart give
          the index its building phase from the log alone. *)
  | Build_done of { index : index_id }
  | Heap_extend of { table : int; page : int }
      (** redo-only: a data file grew by one page — media recovery must be
          able to rebuild the file's page inventory from the log alone *)
  | Create_table of { table : int }
  | Create_index of {
      index : index_id;
      table : int;
      key_cols : int list;
      uniq : bool;
    }
  | Drop_index of { index : index_id }
      (** DDL records (redo-only): catalog changes are recoverable from the
          log so media recovery can recreate descriptors born after the
          last image copy *)

type t = {
  lsn : Lsn.t;
  txn : txn_id option;  (** [None] for records written by the index builder
                            outside any transaction *)
  prev_lsn : Lsn.t;  (** previous record of the same transaction (undo chain);
                         [Lsn.nil] for the first *)
  body : body;
}

val is_undoable : body -> bool

val pp_key_state : Format.formatter -> key_state -> unit
val pp_body : Format.formatter -> body -> unit
val pp : Format.formatter -> t -> unit
