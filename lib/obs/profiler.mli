(** Deterministic virtual-time sampling profiler.

    A sampling round (driven from a scheduler step hook by
    [Obs_sampler.install_profiler]) hands the profiler one row per live
    fiber; each row is classified into exactly one of six buckets —
    [oncpu], [sched], or blocked-on [latch]/[lock]/[io]/[logflush] —
    with waits attributed to the blocking resource and, for latches and
    locks, to the blocker fiber(s). Every classified row is emitted as a
    {!Event.Prof_sample} and added to a {!fold}, keyed by the fiber's
    open-span path. The offline analyzer ([Oib_obs_analysis.Profile])
    feeds the same {!fold} from a capture's events, so the online and
    offline views agree byte for byte by construction.

    The profiler attaches an event sink (which also flips {!Trace.tracing}
    on) to keep its blocker bookkeeping current; a [Crash] or [Epoch]
    event resets the fold, so after a multi-incarnation run the online
    state describes the final incarnation only. Sampling is a pure
    function of the seeded schedule: same seed ⇒ byte-identical
    profiles. *)

val norm : string -> string
(** Collapse every maximal digit run to ['#'] ("worker-3" →
    "worker-#") so paths aggregate across fibers, pages and rows. *)

val frames :
  fname:string -> path:string -> state:string -> resource:string ->
  string list
(** The frame list of one sample (normalized fiber name, span path
    outermost-first, then a ["wait:<state>[:<resource>]"] frame unless
    on-cpu). [path] is the ';'-joined normalized form carried by
    [Prof_sample]. *)

(** {1 The fold} *)

type fold
(** Sample weights by frame path, by state and by fiber. *)

val new_fold : unit -> fold

val add :
  fold -> fname:string -> path:string -> state:string -> resource:string ->
  unit
(** Add one sample of weight 1 (its path is its {!frames}, joined). *)

val total : fold -> int
(** Samples added. *)

val weights : fold -> (string * int) list
(** [(";"-joined frames, weight)], sorted by path under
    [String.compare]; weights sum to {!total}. *)

val folded : fold -> string
(** Standard folded-stack lines ["f1;f2;f3 W\n"] in {!weights} order,
    flamegraph-ready. *)

val by_state : fold -> (string * int) list
(** Samples per bucket, sorted by bucket name. *)

val by_fiber : fold -> (string * int) list
(** Samples per normalized fiber name, sorted. *)

(** {1 The online profiler} *)

type t

(** The caller's view of a fiber's run state, mirroring
    [Sched.fiber_state] (this library sits below the scheduler). *)
type fiber_run_state = Running | Runnable | Blocked

val states : string list
(** The six bucket names: [oncpu; latch; lock; io; logflush; sched]. *)

val create : Trace.t -> t
(** Attach the profiler's sink to the trace. Raises [Invalid_argument]
    on the null trace. *)

val detach : t -> unit
(** Remove the sink; the accumulated fold remains readable. *)

val sample : t -> fibers:(int * string * fiber_run_state) list -> unit
(** One sampling round: classify each [(id, name, state)] row, emit one
    [Prof_sample] per row, {!add} each row to the fold. *)

val ticks : t -> int
(** Sampling rounds since creation (or the last crash/epoch reset). *)

val fold : t -> fold
(** The samples taken since creation (or the last crash/epoch reset):
    one per (round, live fiber). *)
