(** Counter plumbing: engine totals, per-build attribution and the
    foreground latency window.

    Each engine instance owns a [Metrics.t], and it survives the engine's
    crash/restart. It holds the engine totals (one
    {!Oib_obs.Resource.t}, the only counter set) and routes every count
    through one choke point, {!add}, which bumps the totals and the
    account of the build the current fiber works for, so the two can
    never disagree on what happened. [Metrics.t] itself declares no
    counters: {!snapshot}, {!diff} and {!to_assoc} are views over the
    totals. It also holds the sliding window of committed foreground
    transaction latencies ({!latency}), which the periodic sampler
    reports and the [overload.fg_p99] health signal reads. *)

type t

val create : unit -> t

val add : t -> Oib_obs.Resource.counter -> int -> unit
(** [add m c n] adds [n] to counter [c] in the totals and in the current
    fiber's registered account, if any. The fiber's account is resolved
    once per fiber switch, not once per call. *)

val totals : t -> Oib_obs.Resource.t
(** The live engine totals. *)

val get : t -> Oib_obs.Resource.counter -> int
(** [get m c] = [Resource.get (totals m) c]. *)

val to_assoc : t -> (string * int) list
(** The totals as [(name, value)], in {!Oib_obs.Resource.all} order. *)

val reset : t -> unit

val snapshot : t -> t
(** A detached copy of the totals; it shares nothing with [t] and has no
    latency window or accounts. *)

val diff : after:t -> before:t -> t
(** Totals of [after] minus [before], detached like {!snapshot}. *)

(** {2 Foreground latency window} *)

val observe_latency : t -> int -> unit
(** Record one committed foreground transaction's latency (scheduler
    steps) in {!latency}; a no-op on a detached copy. *)

val latency : t -> Oib_obs.Window.t option
(** The window of the last 8 sampler ticks' commit latencies, rotated by
    the sampler ([window.fg.latency.*]); [None] on a detached copy. *)

(** {2 Per-fiber build accounts}

    The index builder registers each build fiber against its build's
    account; registrations nest (shadowing), and {!unregister_account}
    pops to the outer one. Without registrations {!add} touches only the
    totals. *)

val set_fiber_source : t -> (unit -> int) -> unit
(** How {!add} learns the current fiber id; the engine wires this to the
    scheduler ([-1] outside any fiber). *)

val register_account : t -> fiber:int -> Oib_obs.Resource.t -> unit

val unregister_account : t -> fiber:int -> unit

val clear_accounts : t -> unit
(** Drop every registration (crash path: the fibers are gone). *)

(** {2 Explicit targets}

    Work that one fiber does for several builds cannot be attributed by
    fiber: paper §6.2's shared scan feeds every build's sorter from the
    same fiber. Such work is charged to an explicit target instead. *)

type target

val target : t -> Oib_obs.Resource.t -> target
(** Charge the totals of [t] and the given build account. *)

val add_to : target -> Oib_obs.Resource.counter -> int -> unit
(** {!add} with the account named by the target instead of the current
    fiber's. *)
