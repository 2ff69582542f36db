(** System façade: assemble the engine, simulate failures, run restart
    recovery.

    [crash] models a system failure followed by restart: volatile state
    (buffer pool, unflushed log tail, unfinished fibers, latches, locks) is
    discarded; the stable store, the durable log prefix, forced metadata
    and forced sorted runs survive. Recovery then runs: analysis over the
    durable log, heap redo (page-LSN test), logical index replay from each
    index's checkpoint image, restoration of in-progress build phases, and
    rollback of loser transactions with the same undo logic as a live
    abort. Interrupted index builds are *not* continued automatically —
    spawn [Ib.resume_builds] in a fiber to carry them forward, as the
    paper's restartable IB would. *)

type t = Ctx.t

val create :
  ?seed:int -> ?page_capacity:int -> ?trace:Oib_obs.Trace.t -> unit -> t
(** [trace] (default {!Oib_obs.Trace.null}) is wired through every
    subsystem: the scheduler stamps events with its step clock and fiber,
    the WAL / lock manager / buffer pool / transaction manager / builders
    emit events into it, and its flight recorder is dumped on deadlock,
    crash, or a consistency-oracle failure. It survives {!crash} and
    {!media_restore}. *)

val crash : ?seed:int -> t -> t
(** Survivor engine, recovery completed. *)

type backup
(** An image copy of the stable store, durable metadata and forced sorted
    runs, taken at a clean point. *)

exception
  Media_recovery_forfeited of { backup_lsn : int; log_start : int }
(** Raised by {!media_restore} when {!truncate_log} has discarded log
    records the restore would need to redo history from the backup point
    (footnote 8's proviso). Nothing has been modified when this is raised;
    the pre-failure engine remains usable. *)

val backup : t -> backup

val media_restore : ?seed:int -> t -> backup -> t
(** Media recovery: the data disk is lost; restore the image copy and redo
    the (surviving) log from the backup point — the recovery mode that
    motivates the NSF builder's logging (§2.2.3: "media recovery can be
    supported without the user being forced to take an image copy of the
    index immediately after the index build completes"). Raises
    {!Media_recovery_forfeited} if the log no longer reaches back to the
    backup point. *)

val run_txn :
  t ->
  (Oib_txn.Txn_manager.txn -> 'a) ->
  ('a, [ `Deadlock | `Unique_violation of int * string ]) result
(** Begin a transaction, run [f], commit. On [Table_ops.Txn_deadlock] or
    [Table_ops.Unique_violation] the transaction is rolled back and the
    reason returned. Other exceptions roll back and re-raise. *)

val checkpoint : t -> unit
(** Flush the log and all (stealable) dirty pages — shrinks recovery work,
    like a DBMS system checkpoint. *)

val truncate_log : t -> int
(** Discard the durable log prefix that restart recovery can no longer
    need (paper footnote 8): checkpoints the system, re-images every
    [Ready] index, and keeps everything from the oldest active
    transaction's begin and any in-progress build's start onward. Returns
    bytes reclaimed. Media recovery to a backup older than the new start
    is forfeited — take a fresh {!backup} first. *)

val build_progress : t -> Build_status.t list
(** Live status of every index build this engine incarnation has run or
    resumed, ordered by index id. *)

val active_txns : t -> int
(** Transactions currently in flight — the consistency oracle's
    precondition is that this is 0. *)

val unfinished_builds : t -> (int * string) list
(** [(index_id, phase)] for every index not yet [Ready] — after a scenario
    has run to completion this must be empty (the side-file drained, the
    flip done). *)

val undrained_sidefiles : t -> (int * int) list
(** [(index_id, entries)] for every SF-building index whose side-file
    still holds appended entries. *)

val consistency_errors : t -> string list
(** The oracle: for every table, every [Ready] index must contain exactly
    one Present entry per record key (and its tree invariants must hold);
    pseudo-deleted entries must not shadow live keys. Empty = consistent.
    Call when no transaction is active. *)

val lifecycle_errors : ?final:bool -> t -> string list
(** The index-lifecycle oracle, for quiescent points (after recovery or at
    the end of a run). Always: every index in a building phase has durable
    build progress, so its build can resume. With [final] (default
    false), additionally: a [Ready] index keeps no build state — no
    durable key and no sorted run under ["ib/<id>/"]. Empty =
    consistent. *)
