(** Deterministic cooperative scheduler.

    The paper's algorithms are defined by races between the index builder
    and ordinary transactions. Instead of OS threads we run every process as
    a fiber (an OCaml 5 effects-based coroutine) and let a seeded scheduler
    pick which runnable fiber advances next. Fibers yield voluntarily at
    latch, lock, and I/O boundaries — exactly the points where a real DBMS
    can be preempted in a way that matters to these algorithms — so every
    problematic interleaving is reachable, and reproducible from the seed.

    A simulated system failure ("crash") abandons all fibers mid-step;
    volatile state is lost while anything recorded in durable structures
    (the flushed log, flushed pages, checkpoints) survives for restart. *)

type t

type fiber_id = int

exception Deadlock of string
(** Raised by {!run} when live fibers remain but none is runnable. *)

exception Crashed
(** Raised by {!run} when a crash was requested (by {!request_crash} or a
    step trap installed with {!set_crash_trap}). *)

val create : ?seed:int -> ?trace:Oib_obs.Trace.t -> unit -> t
(** [trace] (default {!Oib_obs.Trace.null}) becomes the engine's
    observability hub: the scheduler wires its step clock and current
    fiber into it, emits fiber/crash events, and dumps the flight
    recorder on {!Deadlock} or {!Crashed}. Subsystems reach it through
    {!trace}. *)

val trace : t -> Oib_obs.Trace.t

val spawn : t -> ?name:string -> (unit -> unit) -> fiber_id
(** Register a new fiber. It does not start executing until {!run}. *)

val run : t -> unit
(** Execute fibers until all complete. Raises {!Deadlock} or {!Crashed}. *)

val yield : t -> unit
(** Called from inside a fiber: give the scheduler a chance to interleave.
    Outside any fiber this is a no-op, so engine code can be reused in
    non-simulated unit tests. *)

val suspend : t -> ((unit -> unit) -> unit) -> unit
(** [suspend t register] blocks the calling fiber. [register] receives a
    [resume] thunk; invoking [resume] (from another fiber or scheduler
    context) makes the suspended fiber runnable again. *)

val current_fiber : t -> fiber_id option
(** Id of the running fiber, if called from inside one. *)

val fiber_name : t -> fiber_id -> string

val fresh_uid : t -> int
(** A number never returned before by this scheduler: latch identities,
    so that they repeat run for run (a new incarnation has a new
    scheduler and starts again at 0). *)

val steps : t -> int
(** Number of fiber steps executed so far (the logical clock). *)

val live_fibers : t -> int

type fiber_state = Running | Runnable | Blocked

val fiber_states : t -> (fiber_id * string * fiber_state) list
(** One [(id, name, state)] row per live fiber, sorted by id — the
    profiler's sampling view. [Running] is the fiber the current step is
    charged to (during step hooks, the fiber about to run); [Runnable]
    fibers are parked in the run queue awaiting dispatch; [Blocked]
    fibers are suspended on a latch, lock, condition or I/O completion. *)

val request_crash : t -> unit
(** Make {!run} raise {!Crashed} before the next step. *)

val set_crash_trap : t -> (int -> bool) -> unit
(** [set_crash_trap t f] — before each step, [f steps] is consulted; if it
    returns true the scheduler crashes. Used for failure-injection sweeps. *)

val clear_crash_trap : t -> unit

val set_tick : t -> every:int -> (int -> unit) -> unit
(** [set_tick t ~every f] — call [f steps] before every [every]-th step
    (one hook at a time; replaces any previous). The hook runs outside any
    fiber, so trace events it emits are stamped as ["main"]. Drives the
    periodic metrics sampler. [every] must be positive. *)

val clear_tick : t -> unit

val add_step_hook : t -> (int -> unit) -> int
(** [add_step_hook t f] — call [f steps] before every step, outside any
    fiber. Unlike {!set_tick} (one slot, owned by the metrics sampler),
    any number of step hooks may coexist; the returned id removes this
    one. The failure-injection runner uses a step hook to fire in-flight
    faults (system checkpoints, log truncation, backups) at generated
    steps while crash traps are armed independently. *)

val remove_step_hook : t -> int -> unit

(** Condition variables for building blocking primitives (latches, locks,
    bounded queues) on top of the scheduler. *)
module Cond : sig
  type sched := t
  type t

  val create : sched -> t
  val wait : t -> unit
  (** Block the calling fiber until signalled. *)

  val signal : t -> unit
  (** Wake one waiter (FIFO). No-op if none. *)

  val broadcast : t -> unit
  (** Wake all waiters. *)

  val waiters : t -> int
end
