(** Restartable sort phase (paper §5.1).

    Keys arrive pipelined from the index builder's data scan, page by page,
    and flow through a replacement-selection tournament into sorted runs in
    a {!Run_store}. The tournament is a tree of losers over flat arrays
    (Knuth's Algorithm R): one slot per key in memory holding its run tag,
    cached key prefix and key. Each fed key takes the slot of the key it
    pushes out and replays one leaf-to-root path, about log2
    [memory_keys] matches. Slots not yet filled carry a tag that wins
    every match, so the slot being filled is always the winner; slots at
    or above [memory_keys] (the leaf count is a power of two) and emptied
    slots carry a tag that loses every match. Run formation charges
    [Sort_compares] for each match between two keys of the same run and
    for the compare that tags a fed key against the last key output;
    matches that tags decide are free.

    A checkpoint drains the tournament (unfilled slots are retired first,
    as none holds a key), forces the runs, and records durably: the
    completed run names, the current run and its length, the scan
    position up to which keys have been extracted and sorted, and the
    highest key output to the current run.

    After a crash, {!resume} rebuilds the sorter from the checkpoint: runs
    under [ckpt_id ^ "/"] that did not exist then are discarded (a run
    named otherwise is never touched), the current run is repositioned
    to the recorded end, and — per the paper — subsequently produced keys
    continue in the same run only if they sort above the recorded highest
    key (the tag rule of replacement selection enforces this for free). *)

open Oib_util
open Oib_storage

type t

val start :
  ?charge:Oib_sim.Metrics.target ->
  Durable_kv.t -> Run_store.t -> ckpt_id:string -> memory_keys:int -> t
(** [memory_keys] (at least 1) is the tournament capacity (run length ~
    2x this for random input). Key comparisons and run spills are charged to
    [charge] when given. *)

val feed_page : t -> scan_pos:int -> Ikey.t list -> unit
(** Feed the keys extracted from one data page; [scan_pos] identifies that
    page. Pages must be fed in ascending [scan_pos] order. *)

val checkpoint : t -> unit

val finish : t -> string list
(** Drain, force, checkpoint; returns all run names oldest-first. The sort
    phase is complete. *)

val scan_pos : t -> int
(** Last page position fully fed (−1 initially); after {!resume} this is
    where the data scan must be repositioned. *)

val run_count : t -> int

val resume :
  ?charge:Oib_sim.Metrics.target ->
  Durable_kv.t -> Run_store.t -> ckpt_id:string -> memory_keys:int ->
  t option
(** Rebuild from the last checkpoint; [None] if no checkpoint exists. *)

val checkpointed_scan_pos : Durable_kv.t -> ckpt_id:string -> int option
(** Peek at the checkpointed scan position without rebuilding the sorter —
    restart uses it to restore the SF builder's Current-RID before any
    transaction runs. *)
