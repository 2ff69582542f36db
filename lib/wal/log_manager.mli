(** The write-ahead log: what a log disk plus a log buffer would hold.

    The log is one buffer of fixed-size byte segments ({!segment_size}).
    An append encodes the record in place at the end of the last segment
    (the volatile tail); [flush] moves the durable position forward over
    whole frames, so the durable log is the prefix before that position
    and flushing copies nothing. No decoded record is kept, so the log
    offers no random access: live rollback walks the transaction's own
    chain ({!Oib_txn.Txn_manager}), and restart decodes the durable frames
    once ({!durable_records}) and hands the list to every pass. A
    simulated crash discards the volatile tail and keeps the durable
    frames as they are. Transactions force the log at commit; the buffer
    pool forces it up to a page's page_LSN before writing that page (the
    write-ahead rule). *)

type t

val segment_size : int
(** Bytes in one log-buffer segment (64 KiB). A frame never straddles two
    segments; a frame larger than this gets a segment of its own size. *)

val create : ?trace:Oib_obs.Trace.t -> Oib_sim.Metrics.t -> t
(** [trace] (default {!Oib_obs.Trace.null}) receives [log.append] /
    [log.flush] events; it survives {!crash}. *)

val append :
  t -> txn:Log_record.txn_id option -> prev_lsn:Lsn.t -> Log_record.body ->
  Lsn.t
(** Assign the next LSN, buffer the record, return its LSN. *)

val flush : t -> upto:Lsn.t -> unit
(** Make all records with LSN <= [upto] durable. No-op if already done.
    Never suspends the calling fiber: the simulated force only advances
    the durable offset. The linter's L2 still counts it as blocking,
    because a real force is I/O. *)

val flush_all : t -> unit
(** [flush] up to the last appended record; never suspends. *)

val flushed_lsn : t -> Lsn.t
val last_lsn : t -> Lsn.t

val crash : t -> t
(** Volatile tail is lost; the result holds only the flushed bytes. Decodes
    nothing. The result shares [t]'s sealed segments and copies only the
    durable prefix of the segment holding the last durable frame, so
    appending to either log never changes what the other reads. *)

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
    the bytes reclaimed. Volatile records are never truncated. Memory is
    released a whole segment at a time: the segment holding the first
    retained record stays until everything in it is cut. *)

val start_lsn : t -> Lsn.t
(** LSN of the earliest retained record ([Lsn.nil] when never truncated). *)
