(** The index builder (IB): the NSF and SF algorithms.

    Both algorithms share the front half — a share-latch-only scan of the
    data pages, extracting keys pipelined into a restartable sort (§5) —
    and differ in how the tree is populated and how transactions interact:

    - {b NSF} (§2): a short quiesce (S table lock) creates the descriptor;
      from then on transactions maintain the index directly. IB inserts the
      sorted keys through the normal tree interface (duplicates rejected,
      pseudo-deleted tombstones respected), batching multiple keys per log
      record, using a remembered-path cursor and the specialized split that
      mimics a bottom-up build. Progress is checkpointed as the highest key
      inserted.

    - {b SF} (§3): no quiesce at all. Visibility is governed by the scan's
      Current-RID; transactions append to the side-file once IB's scan has
      passed their target. IB bulk-builds the tree bottom-up (no latching,
      no logging, no traversals), checkpointing images with the highest
      built key, then drains the side-file — logging those changes like a
      transaction would — and finally flips the index to Ready.

    Every build runs through one stage driver: admission (descriptors,
    [Build_start], the durable scan stage), then the scan (several indexes
    may share one, §6.2), the merge, NSF's insert phase or SF's bulk load
    and side-file drain, and the finish. Each stage is recorded before it
    runs and checkpoints its own position, so {!resume_builds} re-enters
    the driver at the recorded stage after restart recovery.

    A restart in the scan stage regresses SF visibility to the sort
    checkpoint, which makes the side-file entries already written for
    RIDs above it stale: the resume durably notes (side-file length,
    restored position), and the drain skips the entries that pair covers.
    A build keeps all its durable state under ["ib/<id>/"]; finishing or
    cancelling it deletes all of it. *)

type algorithm = Oib_wal.Log_record.algorithm = Nsf | Sf

type config = {
  algorithm : algorithm;
  memory_keys : int;  (** replacement-selection tournament capacity *)
  batch_size : int;  (** NSF: keys per multi-key insert call / log record *)
  ckpt_every_pages : int;  (** sort-phase checkpoint cadence *)
  ckpt_every_keys : int;  (** insert/bulk/drain checkpoint cadence *)
  specialized_split : bool;  (** NSF's IB split variant (§2.3.1) *)
  sort_sidefile : bool;
      (** SF: sort the side-file (stably) before applying it (§3.2.5) *)
}

val default_config : algorithm -> config

exception Build_unique_violation of { index : int; kv : string }
(** The table holds two committed records with the same key value: a
    unique index cannot be built (§2.2.3). The build is cancelled before
    this is raised. *)

exception Build_paused of { index : int }
(** Raised out of a build when {!Throttle.request_pause} was called on the
    engine's throttle. Only raised immediately after a durable checkpoint,
    so the paused build is in exactly the state a crash would leave it in:
    {!resume_builds} continues it (in-process or after a restart). *)

type spec = { index_id : int; key_cols : int list; unique : bool }

(** What the heap scan tells {!set_scan_observer}. *)
type scan_event =
  | Scan_start of { index : int; pos : int }
      (** a scan of [index] begins with its sorter at [pos]: the restored
          checkpoint's scan position, or -1 for a fresh sorter *)
  | Page_extracted of { index : int; page : int }
      (** the keys of heap page [page] were fed to [index]'s sorter *)
  | Scan_checkpoint of { index : int; pos : int }
      (** a sort checkpoint durably captured every page up to [pos] *)

val set_scan_observer : (scan_event -> unit) option -> unit
(** Test hook (DST scan accounting). Process-global — survives engine
    crash/restart — so a harness can check across incarnations that no
    page a sort checkpoint captured is ever extracted again. [None]
    uninstalls. *)

val build_index : Ctx.t -> config -> table:int -> spec -> unit
(** Run a complete build in the calling fiber. *)

val build_indexes : Ctx.t -> config -> table:int -> spec list -> unit
(** Build several indexes in one scan of the data (§6.2). *)

val build_index_offline : Ctx.t -> config -> table:int -> spec -> unit
(** The pre-paper baseline (§1: "current DBMSs do not allow updates to a
    table while building an index on it"): hold an S table lock for the
    whole build, stalling every updater. Readers still proceed. Used by
    the availability experiment (E0). *)

val build_secondary_via_primary :
  Ctx.t -> config -> table:int -> primary:int -> spec -> unit
(** §6.2's index-organized storage model: build a secondary index by
    range-scanning a unique [Ready] primary index in key order; the SF
    visibility rule uses the scan's *current key* in place of Current-RID.
    Always a side-file build. Only the scan is its own: admission and the
    later stages are the heap build's. A crash during the scan resumes as a
    RID-order rescan from the start (the sort makes the two orders
    equivalent), and the drain skips every side-file entry written before
    that resume; crashes in later stages resume from their checkpoints. *)

val resume_builds : Ctx.t -> config -> unit
(** Continue every interrupted build found in durable state (call in a
    fiber after [Engine.crash] or [Engine.media_restore], or in-process
    after {!Build_paused}): the stage driver is re-entered at each build's
    recorded stage. A build whose finish was already durable only has its
    state collected. *)

val cancel_build : Ctx.t -> index_id:int -> unit
(** §2.3.2: quiesce updaters briefly, remove the descriptor, the index
    and the build's durable state. *)

val gc_pseudo_deleted : Ctx.t -> index_id:int -> int
(** §2.2.4: physically remove committed pseudo-deleted keys. Uses the
    system-quiescent Commit_LSN shortcut when possible, else conditional
    instant locks; removals are logged (redo-only) for recovery. Returns
    the number collected. *)

val spawn_gc_daemon :
  Ctx.t -> index_id:int -> every:int -> (unit -> unit) * int ref
(** Run garbage collection as a background fiber, sweeping once every
    [every] of its scheduling turns while the index is [Ready] (§2.2.4
    "scheduled as a background activity"). Returns a stop function and the
    running total of collected tombstones. *)

val restore_phase_after_restart :
  Ctx.t -> algorithm:algorithm -> sidefile:Oib_sidefile.Side_file.t ->
  index_id:int -> unit
(** Used by [Restart.recover] for each build whose [Build_start] has no
    durable [Build_done]: give the reopened index the building phase of
    [algorithm], so it refuses reads whether or not its progress record
    survived. An SF build gets [sidefile], rebuilt by restart from the
    durable log. With a progress record, also restore the SF visibility
    frontier and the published {!Build_status} from it, so status and
    catalog agree before the resuming builder runs. *)

val scan_checkpoint : Ctx.t -> index_id:int -> int option
(** The scan position of the build's last sort checkpoint: every heap page
    up to it is durably captured, and a resumed scan starts after it.
    [None] when the build has no sort checkpoint. *)

val interrupted_builds : Ctx.t -> int list
(** Index ids with a durable in-progress build record. *)
