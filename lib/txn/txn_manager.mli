(** Transactions: begin / commit / rollback over the WAL.

    Each transaction chains its log records through [prev_lsn], and its
    handle keeps those records (Begin, operations and CLRs) newest first
    while it is active: the log itself offers no random access. Rollback
    walks that chain by [prev_lsn] and [undo_next], calls an *undo
    executor* supplied by the record-operations layer (which knows how to
    reverse heap and index changes, including the index-visibility
    compensation of Figure 2), and writes a compensation record (CLR) per
    undone action. The chain dies at commit or abort. Records logged
    without a transaction (index-builder batches, DDL, file extensions)
    belong to no chain. Commit forces the log and releases locks.

    The manager also maintains Commit_LSN [Moha90b]: the begin-LSN of the
    oldest transaction still active. Any page whose page_LSN is below it
    contains no uncommitted data — the cheap test the pseudo-delete garbage
    collector applies before falling back to conditional locks (§2.2.4). *)

module LR := Oib_wal.Log_record

type t

type txn

type status = Active | Committed | Aborted

val create :
  ?trace:Oib_obs.Trace.t ->
  Oib_wal.Log_manager.t -> Oib_lock.Lock_manager.t -> Oib_sim.Metrics.t -> t
(** [trace] (default {!Oib_obs.Trace.null}) receives txn begin / commit /
    abort / rollback-step events and a ["txn_latency"] histogram of
    virtual-time latencies (commit/abort step minus begin step). *)

val log : t -> Oib_wal.Log_manager.t
val locks : t -> Oib_lock.Lock_manager.t

val begin_txn : t -> txn
val id : txn -> int
val status : txn -> status
val last_lsn : txn -> Oib_wal.Lsn.t

val log_op : t -> txn -> LR.body -> Oib_wal.Lsn.t
(** Append a record to the log and to the transaction's chain. *)

val commit : t -> txn -> unit
(** Commit record, log force, lock release, End record. *)

val rollback :
  t -> txn -> undo:(LR.body -> clr:(LR.body -> Oib_wal.Lsn.t) -> unit) -> unit
(** Walk the transaction's chain from its last record, skipping the
    records older CLRs already compensated. The walk stops where the chain
    ends, which is before [Lsn.nil] only when the log was truncated below
    it. For each undoable record the executor performs the
    inverse action(s), logging each as a compensation record through the
    supplied [clr] function (so it can stamp page_LSNs while still holding
    the page latch); an SF-era undo may write several CLRs — the heap
    compensation plus a side-file append, Figure 2. The manager then writes
    the Abort and End records and releases locks. Restart recovery uses the
    same executor for loser transactions. *)

val adopt : t -> txn_id:int -> chain:LR.t list -> txn
(** Re-create a loser transaction's handle during restart so it can be
    rolled back with {!rollback}. [chain] is the loser's durable records,
    newest first, as [Oib_core.Restart.analyze] collects them; the
    rollback starts from its head ([Lsn.nil] when empty), and a resumed
    rollback finds its earlier CLRs there. Writes no Begin record. *)

val ensure_next_id : t -> int -> unit
(** Guarantee future transaction ids are at least [n] (restart must not
    reuse the ids of pre-crash transactions). *)

val commit_lsn : t -> Oib_wal.Lsn.t
(** Begin-LSN of the oldest active transaction; [Lsn.nil] means "no bound"
    when no transaction was ever started, and the current log end when none
    is active. *)

val active_count : t -> int
val active_ids : t -> int list
