(** Share / exclusive latches.

    A latch provides physical consistency of a page while it is examined or
    modified (paper §1.1, footnote 2): readers take S, updaters take X. It
    is much cheaper than a lock — no deadlock detection, no owner table —
    and is held only across short critical sections. Blocking integrates
    with the cooperative scheduler; acquisition order is FIFO to avoid
    starvation. *)

type mode = S | X

type t

val create :
  ?name:string -> ?role:string -> ?page:int -> Sched.t -> Metrics.t -> t
(** [role] names the owning structure (a page format's role) for the
    sanitizer's latch-order graph; [page] is the guarded buffer-pool page
    id (or [-1]), letting the sanitizer treat latched sections as page
    accesses. Both default to inert values. [name] labels the latch in
    trace events and spans; it defaults to ["page-<page>"] for a page
    latch and ["latch"] otherwise, formatted only when an event needs it. *)

val uid : t -> int
(** Identity unique within the latch's scheduler, and so within one
    engine incarnation — the sanitizer's lockset element. Every new
    incarnation starts behind an [Epoch] or [Run_start] event, which
    clears the sanitizer's per-latch state. *)

val trace : t -> Oib_obs.Trace.t
(** The observability hub of the latch's scheduler. *)

val acquire : t -> mode -> unit
(** Block until the latch is available in [mode]. S is compatible with S;
    X is compatible with nothing. *)

val release : t -> mode -> unit
(** Release a previously acquired latch. The [mode] must match what was
    acquired. *)

val try_acquire : t -> mode -> bool
(** Non-blocking variant: true on success. *)

val with_latch : t -> mode -> (unit -> 'a) -> 'a
(** [with_latch t m f] acquires, runs [f], releases (also on exception). *)

val holders : t -> int
(** Number of current holders (0 or more S, or exactly 1 X). *)

val is_free : t -> bool
