(** ARIES-style restart recovery.

    {!analyze} walks the durable log ({!Oib_wal.Log_manager.durable_records},
    decoded once) exactly once, with one match that names every record
    kind, and collects everything restart needs. {!recover} applies it:

    - DDL and file extensions the restored metadata may predate (media
      recovery);
    - {!redo_heap} repeats history on the data pages: every heap action,
      CLRs included, is reapplied unless the page's page_LSN shows it
      already there; a page never flushed is recreated empty first;
    - {!replay_index} brings one index from its checkpoint image to the
      durable end of the log by *logical redo*: index key operations are
      logged as absolute state transitions and only performed actions are
      logged, so setting each logged key to its [after] state in LSN order
      reproduces the tree's logical content (DESIGN.md §2 says why the
      no-steal index-page policy makes this sound);
    - every build with a [Build_start] and no [Build_done] gets its
      building phase back, an SF build its {!sidefile};
    - losers are rolled back through {!Oib_txn.Txn_manager.adopt} with the
      undo executor of a live abort. *)

type ddl =
  | Create_table of int
  | Create_index of { index : int; table : int; key_cols : int list; uniq : bool }
  | Drop_index of int

type key_redo = {
  lsn : Oib_wal.Lsn.t;
  keys : Oib_util.Ikey.t list;
  after : Oib_wal.Log_record.key_state;
}
(** The keys of one logged index-key action (an [Index_key], its CLR, or
    an [Index_bulk_insert]) and the state each is set to. *)

type analysis = {
  losers : (int * Oib_wal.Log_record.t list) list;
      (** transaction id and its durable records, newest first (the undo
          starts from the head); ordered by id *)
  builds_in_progress : (int * Oib_wal.Log_record.algorithm) list;
      (** index id and algorithm of each [Build_start] with no
          [Build_done] *)
  max_txn_id : int;
  max_heap_page : int;  (** highest heap page the log names; -1 if none *)
  ddl : ddl list;
  extends : (int * int) list;  (** [Heap_extend]: table, page *)
  heap_redo : (Oib_wal.Lsn.t * int * Oib_wal.Log_record.heap_op) list;
      (** every heap action and heap CLR: LSN, page, action *)
  key_redo : (int, key_redo list) Hashtbl.t;  (** per index *)
  sidefile_appends : (int, (bool * Oib_util.Ikey.t) list) Hashtbl.t;
      (** per side-file: insert?, key; CLRs included *)
}
(** Every list is in log order. *)

val analyze : Oib_wal.Log_record.t list -> analysis

val redo_heap :
  analysis -> Oib_storage.Buffer_pool.t -> page_capacity:int -> unit

val replay_index : analysis -> Oib_btree.Btree.t -> unit
(** Replay this index's key actions with LSN above its image LSN. *)

val sidefile : analysis -> sidefile_id:int -> Oib_sidefile.Side_file.t
(** The side-file rebuilt from its durable appends. *)

val recover : Ctx.t -> unit
(** Restart recovery over a freshly built incarnation whose log is the
    crash survivor, ending with a log flush. *)
