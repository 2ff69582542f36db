(** The write-ahead log: what a log disk plus a log buffer would hold.

    An append encodes the record into the volatile tail (the log buffer);
    [flush] moves a prefix of the tail to the durable bytes (the disk). No
    decoded record is kept, so the log offers no random access: live
    rollback walks the transaction's own chain ({!Oib_txn.Txn_manager}),
    and restart decodes the durable bytes once ({!durable_records}) and
    hands the list to every pass. A simulated crash discards the volatile
    tail and keeps the durable bytes as they are. Transactions force the
    log at commit; the buffer pool forces it up to a page's page_LSN before
    writing that page (the write-ahead rule). *)

type t

val create : ?trace:Oib_obs.Trace.t -> Oib_sim.Metrics.t -> t
(** [trace] (default {!Oib_obs.Trace.null}) receives [log.append] /
    [log.flush] events; it survives {!crash}. *)

val append :
  t -> txn:Log_record.txn_id option -> prev_lsn:Lsn.t -> Log_record.body ->
  Lsn.t
(** Assign the next LSN, buffer the record, return its LSN. *)

val flush : t -> upto:Lsn.t -> unit
(** Make all records with LSN <= [upto] durable. No-op if already done. *)

val flush_all : t -> unit

val flushed_lsn : t -> Lsn.t
val last_lsn : t -> Lsn.t

val crash : t -> t
(** Volatile tail is lost; the result holds only the flushed bytes. Decodes
    nothing. *)

val durable_records : t -> Log_record.t list
(** Decode the durable log, in LSN order (what restart recovery sees).
    Each call decodes every durable byte again. *)

val all_records : t -> Log_record.t list
(** Durable + volatile records, decoded — for tests and debugging only. *)

val durable_bytes : t -> int

val unflushed_bytes : t -> int
(** Encoded bytes sitting in the volatile tail — the flush backlog the
    [wal.backlog] health signal watches. *)

val truncate : t -> below:Lsn.t -> int
(** Discard durable records with LSN < [below] (paper footnote 8: log can
    be discarded once image copies make it unnecessary for restart, undo
    and media recovery — the *caller* must have established that). Returns
    the bytes reclaimed. Volatile records are never truncated. *)

val start_lsn : t -> Lsn.t
(** LSN of the earliest retained record ([Lsn.nil] when never truncated). *)
