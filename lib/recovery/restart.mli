(** ARIES-style restart recovery passes.

    Every pass reads the same list, the durable log decoded once by the
    caller ({!Oib_wal.Log_manager.durable_records}).

    - {!analyze} scans the durable log and classifies transactions
      (winners / losers) and index builds (done / in progress), and
      collects each loser's records for its rollback.
    - {!redo_heap} repeats history on the data pages: every redoable heap
      action (including CLR actions) is reapplied unless the page's
      page_LSN shows it already there. Pages that were never flushed are
      recreated empty and rebuilt entirely from the log.
    - {!replay_index} brings one index from its checkpoint image to the
      durable end of the log by *logical redo*: index key operations are
      logged as absolute state transitions and only performed actions are
      logged, so setting each logged key to its [after] state in LSN order
      reproduces the tree's logical content exactly (see DESIGN.md §2 for
      why the no-steal index-page policy makes this sound).
    - Loser undo is driven by the caller through {!Oib_txn.Txn_manager}
      with the same undo executor used for normal rollback: each loser's
      chain goes to [Txn_manager.adopt].

    The whole restart sequence is orchestrated by the engine layer
    ([Oib_core.Engine.restart]), which owns the catalog. *)

type analysis = {
  losers : (int * Oib_wal.Log_record.t list) list;
      (** transaction id and its durable records, newest first (the undo
          starts from the head); ordered by id *)
  winners : int list;
  builds_in_progress : (int * int) list; (** index id, table id *)
  builds_done : int list;
  index_states : (int * int) list;
      (** index id -> last WAL-logged lifecycle state (encoded as in
          [Oib_wal.Log_record.Index_state]); indexes dropped later in the
          log are omitted. The engine applies these after its catalog
          reopen so a crash between the [Index_state] record and the
          catalog's durable rewrite still lands the index in the logged
          state. *)
  max_lsn : Oib_wal.Lsn.t;
  max_txn_id : int;
}

val analyze : Oib_wal.Log_record.t list -> analysis

val redo_heap :
  Oib_wal.Log_record.t list -> Oib_storage.Buffer_pool.t -> page_capacity:int ->
  unit

val replay_index : Oib_wal.Log_record.t list -> Oib_btree.Btree.t -> unit
(** Replay operations for this index with LSN greater than the tree's image
    LSN. *)
