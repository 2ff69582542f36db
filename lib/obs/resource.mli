(** The engine's counter set.

    The paper's performance arguments are about counts — log records
    written, tree traversals avoided, latch acquisitions, pages read and
    written, lock calls saved. A [Resource.t] is one bag of those counts,
    and it serves two owners through {!Oib_sim.Metrics}: the engine
    totals ("what did the whole engine do") and one account per online
    index build ("what did {e this build} cost", which is what
    {e Engine.build_progress} and the bench trajectory report). Both are
    bumped together through [Metrics.add], so they always share one
    vocabulary.

    {!counter} is the one counter list; every derived operation
    ([to_assoc], [reset], [snapshot], [diff], [add_into], [to_json])
    walks it. *)

type counter =
  | Page_reads  (** buffer-pool cache misses read from the store *)
  | Page_writes  (** pages written back to the store *)
  | Pages_evicted  (** cached pages evicted or dropped *)
  | Sequential_reads  (** data pages read by an index build's scan *)
  | Log_records  (** WAL records appended *)
  | Log_bytes  (** encoded WAL bytes appended *)
  | Log_flushes  (** WAL flush calls that did work *)
  | Latch_acquires
  | Latch_waits  (** latch acquisitions that had to wait *)
  | Latch_wait_steps  (** scheduler steps blocked on latches *)
  | Lock_calls
  | Lock_waits  (** lock requests that had to wait *)
  | Lock_wait_steps  (** scheduler steps blocked on locks *)
  | Tree_traversals  (** root-to-leaf B+-tree descents *)
  | Fast_path_inserts
      (** index inserts that skipped the root-to-leaf traversal
          (remembered path or bottom-up build) *)
  | Page_splits
  | Keys_inserted
  | Keys_rejected_duplicate
  | Pseudo_deletes
  | Sidefile_appends
  | Sort_compares  (** key comparisons in sort/merge *)
  | Run_spills  (** sorted runs spilled to the run store *)
  | Txn_commits
  | Txn_aborts

val all : counter list
(** Every counter, in report order. *)

val name : counter -> string
(** Snake-case key used by {!to_assoc}, {!to_json} and the sampler's
    [metrics.*] and [rate.*] keys, e.g. ["page_reads"]. *)

type t

val create : unit -> t
val get : t -> counter -> int
val add : t -> counter -> int -> unit

val to_assoc : t -> (string * int) list
(** Every counter as [(name, value)], in report order. *)

val reset : t -> unit

val snapshot : t -> t
(** Independent deep copy. *)

val diff : after:t -> before:t -> t

val add_into : into:t -> t -> unit
(** Accumulate [t]'s counters into [into]. *)

val to_json : t -> string
(** One flat JSON object of counter name -> value. *)
