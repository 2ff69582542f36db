(** Admission control for the index builder.

    The throttle watches the engine's hysteresis health signals (PR-6
    window quantiles: foreground p99, WAL backlog, dirty-page ratio) and
    converts pressure into a backoff {e level}: each signal raise deepens
    the level, and when the last watched signal clears the level resets.
    The builder consults the level at its pacing points — NSF batch sizes
    are halved per level and extra yields are injected per processed
    page/key — so a hot foreground workload reclaims the scheduler without
    any change to the build's durable protocol. Hysteresis lives in the
    signals themselves ([raise_above]/[clear_below]), so the backoff
    cannot flap on a noisy boundary.

    At level 0 the throttle is inert: scaled batches equal their base and
    no yields are injected, so fault-free runs are step-identical to an
    unthrottled engine.

    The same object carries the cooperative pause flag behind
    [oib-demo build --pause]: the builder polls {!pause_requested} right
    after each durable checkpoint and raises out of the build, losing no
    work. *)

type t

val create : ?max_level:int -> unit -> t
(** [max_level] defaults to 3 (batch scaled down up to 8x). *)

val attach : t -> Oib_obs.Signal.set -> names:string list -> unit
(** Subscribe to the named signals' transitions. Call once per engine
    {e lifetime} (the signal set survives crash recovery and keeps its
    subscribers; re-attaching would double the backoff steps). Signals in
    [names] not yet registered are matched by name when they fire. *)

val level : t -> int

val backoffs : t -> int
(** Total signal-raise-driven backoff steps since creation. *)

val restores : t -> int
(** Total full restores (last watched signal cleared). *)

val scaled : t -> base:int -> int
(** [base] halved once per level, floored at 1: the effective NSF insert
    batch size / scan chunk length under pressure. *)

val extra_yields : t -> int
(** Yields the builder inserts after each unit of work ([= level]). *)

val set_notify : t -> (t -> string -> unit) option -> unit
(** Hook fired on every level change with a short reason (e.g.
    ["overload.fg_p99 raised"]). The engine points this at the current
    incarnation's trace; replaced wholesale on recovery. *)

val request_pause : t -> unit
val clear_pause : t -> unit
val pause_requested : t -> bool
