(** Typed engine events: one stream for the trace and the sanitizer.

    One constructor per observable engine action. Payloads are primitives
    only (ints / strings) so that [oib_obs] can sit below every other
    library: subsystems render their own types (lock names, modes, RIDs,
    LSNs) to strings and ints at the emission site.

    Two kinds of consumer read the stream. The renderers (flight
    recorder, JSONL sinks, profiler, dashboards) read the engine's story;
    the oib-san sanitizer ([lib/san]) reads its synchronization and WAL
    facts. The constructors only the sanitizer needs are marked by
    {!sanitizer_only}, and the stock renderers skip them. Conventions for
    the sanitizer payloads: [page] is a buffer-pool page id ([-1] when a
    latch guards no page); LSNs are [Lsn.to_int] renderings; [txn -1]
    means "no transaction". *)

type t =
  | Fiber_spawn of { fiber : int; name : string }
      (** [fiber] was registered; the spawner is the stamped fiber *)
  | Fiber_exit  (** the stamped fiber's body returned *)
  | Resume of { fiber : int }
      (** the stamped fiber made [fiber] runnable again (latch grant,
          lock-queue pump, condition signal — every blocking primitive
          funnels through [Sched.suspend], so this one edge covers all
          of them) *)
  | Latch_wait of { latch : string; mode : string; holders : string }
      (** [holders] is the comma-joined names of the fibers currently
          holding the latch, oldest grant first — the blockers the
          profiler charges this wait to *)
  | Latch_grant of { uid : int; role : string; page : int; excl : bool }
      (** the stamped fiber was granted the latch, with or without a
          wait; [uid] is process-wide unique *)
  | Latch_acquired of { latch : string; mode : string; waited : int }
      (** a grant that followed a [Latch_wait] *)
  | Latch_released of {
      latch : string;
      mode : string;
      uid : int;
      role : string;
      page : int;
    }
  | Lock_wait of { owner : int; target : string; mode : string; blockers : string }
  | Lock_grant of { txn : int; target : string; table : bool; cond : bool }
      (** manual-duration lock grant, with or without a wait
          (instant-duration grants are not reported: they impose no
          release-to-acquire ordering) *)
  | Lock_acquired of { owner : int; target : string; mode : string; waited : int }
      (** a grant that followed a [Lock_wait] *)
  | Lock_denied of { owner : int; target : string; mode : string; blockers : string }
  | Lock_rel of { txn : int; target : string; table : bool }
      (** one lock of a transaction's release; [Lock_released_all] is
          the transaction-level summary *)
  | Lock_released_all of { owner : int }
  | Page_read of { page : int; role : string }
      (** a buffer-pool miss read the page from the stable store; [role]
          names the page's owner (e.g. [Heap_file], [Btree]), as on the
          latch events *)
  | Page_write of {
      page : int;
      role : string;
      page_lsn : int;
      flushed_lsn : int;
    }
      (** write-back to the stable store; [flushed_lsn] is the log's
          durable horizon at that moment (WAL rule: must be
          [>= page_lsn]) *)
  | Access of { page : int; write : bool; site : string }
      (** a data access to the page ([site] names the emission point) *)
  | Lsn_set of { page : int; old_lsn : int; new_lsn : int; site : string }
  | Page_evict of { page : int; role : string }
      (** the volatile page object was discarded; a later re-read builds
          a new object (new latch) from the stable image *)
  | Log_append of { lsn : int; kind : string; bytes : int; txn : int }
  | Log_flush of { upto : int }
  | Txn_begin of { txn : int }
  | Txn_commit of { txn : int; latency : int }
  | Txn_abort of { txn : int; latency : int }
  | Txn_rollback_step of { txn : int; lsn : int }
  | Undo_begin of { txn : int }  (** rollback of [txn] starts *)
  | Undo_end of { txn : int }
  | Ib_phase of { index : int; phase : string }
  | Ib_checkpoint of { index : int; stage : string }
  | Ib_throttle of { level : int; reason : string }
      (** admission-control level change; [reason] names the health
          signal edge that drove it *)
  | Sidefile_append of { sidefile : int; insert : bool; pos : int }
  | Sidefile_drained of { sidefile : int; from_pos : int; upto : int }
  | Checkpoint of { scope : string }
  | Recovery_step of { step : string; detail : string }
  | Crash of { reason : string }
  | Span_begin of { span : int; parent : int; cat : string; name : string }
  | Span_end of { span : int }
  | Sample of { key : string; value : int }
      (** One point of a named time series, emitted in batches by the
          periodic sampler. The key namespace is a contract with the
          offline tools (oib-trace, bench): within one batch
          every key appears at most once, and keys follow
          - [metrics.<counter>] — the engine's counter totals;
          - [pool.*] / [wal.*] / [throttle.level] — gauges read at
            sample time (dirty/cached pages, unflushed and durable WAL
            bytes, the build throttle's level);
          - [window.fg.latency.p50|.p95|.p99|.count] — the sliding
            window of foreground commit latencies;
          - [rate.<counter>] — EWMA rates scaled to events per 1000
            steps;
          - [build.<index_id>.keys_processed|backlog|phase] and
            [build.<index_id>.cost.pages|log_bytes|wait_steps|compares]
            — per-build progress and attributed resource cost;
          - [signal.<name>] — health-signal state, 0 or 1. *)
  | Prof_sample of {
      fiber : int;
      fname : string;
      state : string;
      path : string;
      resource : string;
      blocker : string;
    }
      (** One profiler observation of one live fiber, emitted by the
          step-hook sampler (stamped as ["main"]: sampling happens
          between fiber steps). [state] is exactly one of
          [oncpu|latch|lock|io|logflush|sched]; [path] is the fiber's
          open-span stack as ';'-joined [cat:name] segments,
          outermost first, with digit runs normalized to ['#'];
          [resource] names the blocking resource (empty when on-cpu)
          and [blocker] the fiber name(s) holding it (comma-joined,
          empty when unknown). *)
  | Epoch of { label : string }
      (** engine-incarnation boundary on a trace that survives a
          restart; the step clock restarts at the next event *)
  | Run_start
      (** the DST runner is about to build a fresh engine on a trace
          that outlives it: fiber ids and pages restart *)

type stamped = { step : int; fiber : int; fiber_name : string; event : t }
(** An event stamped with the scheduler's virtual step clock and the
    emitting fiber ([fiber] = -1 / ["main"] outside any fiber). *)

val kind : t -> string
(** Stable dotted tag, e.g. ["latch.wait"], ["ib.phase"]. *)

val sanitizer_only : t -> bool
(** True for the constructors only the sanitizer reads: [Fiber_exit],
    [Resume], [Latch_grant], [Lock_grant], [Lock_rel], [Access],
    [Lsn_set], [Page_evict], [Undo_begin], [Undo_end] and [Run_start].
    The flight recorder and the stock JSONL sinks skip them. *)

val pp : Format.formatter -> t -> unit
val pp_stamped : Format.formatter -> stamped -> unit

val to_line : stamped -> string
(** One human-readable line (what the flight-recorder dump prints). *)

val to_json : stamped -> string
(** One JSON object (one JSONL line), no trailing newline. *)
