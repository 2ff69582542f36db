(** Record operations by transactions, with index maintenance — the
    implementation of Figure 1 (forward processing) and Figure 2 (rollback)
    plus the NSF key insert/delete protocol of §2.2.3.

    Every operation: locks the record (X), latches its data page, applies
    the change, logs it with the visible-index count and the side-filed
    index list, stamps the page_LSN, unlatches — then appends side-file
    entries for SF-visible indexes and maintains the other visible indexes
    directly:

    - a direct key insert that finds the full key already Present (the
      index builder won it, §2.1.1) writes an *undo-only* record;
    - a direct key insert that finds the key Pseudo_deleted reactivates it
      (the paper's T2 example);
    - a direct key delete pseudo-deletes, and when the key is not found it
      inserts a pseudo-deleted tombstone (§2.1.2);
    - unique indexes get the committed-duplicate check via instant locks on
      the rival key's record (data-only locking, §6.2).

    The undo executor reverses heap changes, and compensates index state
    per the visibility rules: operations routed to a side-file at forward
    time produce inverse side-file entries (or direct logical undo if that
    build has since completed); operations from before an index became
    visible produce the Figure-2 transition compensation. *)

open Oib_util
module LR := Oib_wal.Log_record

exception Unique_violation of { index : int; kv : string }
(** The transaction must roll back (or the caller may treat it as a failed
    statement); raised before any index damage is done. *)

exception Txn_deadlock
(** Lock-manager victim: the caller must roll the transaction back. *)

val insert : Ctx.t -> Oib_txn.Txn_manager.txn -> table:int -> Record.t -> Rid.t

val delete : Ctx.t -> Oib_txn.Txn_manager.txn -> table:int -> Rid.t -> unit
(** Raises [Not_found] if no record lives at the RID. *)

val update :
  Ctx.t -> Oib_txn.Txn_manager.txn -> table:int -> Rid.t -> Record.t -> unit

val read : Ctx.t -> Oib_txn.Txn_manager.txn -> table:int -> Rid.t -> Record.t option
(** S-locks the record. *)

val index_lookup :
  Ctx.t -> Oib_txn.Txn_manager.txn -> index:int -> string ->
  (Rid.t * Record.t) list
(** Equality lookup through a [Ready] index (S-locks qualifying records;
    pseudo-deleted entries are invisible). During an NSF build, lookups
    below the builder's gradual-availability bound are also served (paper
    footnote 3); otherwise raises [Invalid_argument] while the build is in
    progress. *)

val range_lookup :
  Ctx.t -> Oib_txn.Txn_manager.txn -> index:int -> ?lo:string -> ?hi:string ->
  unit -> (Rid.t * Record.t) list
(** Range lookup [lo <= key <= hi] through a [Ready] index, in key order
    (S-locks qualifying records). *)

val rollback : Ctx.t -> Oib_txn.Txn_manager.txn -> unit
(** Roll back with this layer's undo executor. *)

val apply_heap_op : Oib_storage.Heap_page.t -> LR.heap_op -> unit
(** Perform a heap action on its page (forward, undo and restart redo). *)

val undo_executor :
  Ctx.t -> Oib_txn.Txn_manager.txn -> LR.body ->
  clr:(LR.body -> Oib_wal.Lsn.t) -> unit
(** Exposed for restart recovery (losers are rolled back with the same
    logic as a live abort). *)
