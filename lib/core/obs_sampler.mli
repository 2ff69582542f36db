(** Periodic metrics/build-progress/signal sampler — one tick of the
    metrics plane.

    [install ctx ~every] hooks the scheduler's tick so that every
    [every] virtual steps one full sample runs: the EWMA rates
    ([Ctx.rates]) fold in the latest counter totals, the health signals
    are evaluated (firing any subscribers), one batch of [Sample] events
    is emitted into the trace, and the foreground latency window
    ({!Oib_sim.Metrics.latency}) rotates one slot. Signal evaluation and
    window rotation happen even when nothing is tracing, so DST runs
    reproduce signal flips with or without a sink attached.

    A batch reads each key straight from its source, so no key repeats.
    In order (see {!Oib_obs.Event} for the namespace contract):
    [window.fg.latency.p50/.p95/.p99/.count]; [metrics.<counter>] for
    every engine total, by name; [pool.cached_pages],
    [pool.dirty_pages]; [rate.<counter>] scaled to events per 1000
    steps, once the rate has a baseline; [throttle.level];
    [wal.durable_bytes], [wal.unflushed_bytes]; three progress and four
    cost keys per live build ([build.<id>.keys_processed], [.backlog],
    [.phase], [.cost.pages], [.cost.log_bytes], [.cost.wait_steps],
    [.cost.compares]); and one [signal.<name>] (0/1) per registered
    signal. *)

val install : Ctx.t -> every:int -> unit
(** Claims the scheduler's single tick hook. [every] must be positive. *)

val uninstall : Ctx.t -> unit

val sample : ?rate_steps:int -> Ctx.t -> unit
(** Run one full tick immediately (what the tick hook calls, with
    [rate_steps = every]). Without [rate_steps] the EWMA rates are left
    untouched — a manual call has no well-defined step delta. Note a
    call advances the window clock (rotates the latency window). *)

val install_profiler :
  Ctx.t -> ?every:int -> unit -> Oib_obs.Profiler.t * (unit -> unit)
(** Attach a {!Oib_obs.Profiler} to the engine: a scheduler step hook
    samples every live fiber every [every] (default 10) virtual steps
    (plus once at the scheduler's first step, so runs shorter than one
    period still profile),
    classifying each into on-cpu / blocked-on-{latch,lock,io,logflush} /
    sched and emitting one [Prof_sample] event per fiber per round.
    Returns the profiler (for the online fold) and an uninstall thunk
    (removes the hook and the profiler's sink). Uses [add_step_hook],
    not the tick slot, so it coexists with {!install}. Hooks never
    advance virtual time, so installing the profiler does not perturb
    the schedule. [every] must be positive. *)
