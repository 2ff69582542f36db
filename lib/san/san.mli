(** oib-san: the online sanitizer.

    One [San.t] is a sink on a {!Oib_obs.Trace.t}'s event stream
    (installed with {!attach}) and drives these analyses at once:

    - an Eraser-style {!Lockset} race detector over buffer-pool pages,
      refined with FastTrack-style vector clocks so accesses ordered by
      fiber spawn/resume, condvar signal/wait, or latch/lock
      release-acquire pairs are never reported;
    - a {!Goodlock} acquisition-order graph whose cycles are potential
      deadlocks — accumulated {e across} runs, so two runs that each
      take only one half of an inversion still assemble the cycle;
    - the {!Wal_check} runtime verifier (page-LSN monotonicity,
      log-before-steal at write-back, CLR discipline during undo).

    Findings are {!Oib_lint.Diag.t} values under rules [SAN-race],
    [SAN-order] and [SAN-wal], deduplicated by [(rule, site)] and
    reported sorted, so sanitized runs are byte-stable. A [Run_start] or
    [Epoch] event (run start, restart recovery) clears all volatile
    shadow state; reports and the order graph survive. *)

type t

val create : unit -> t

val attach : t -> Oib_obs.Trace.t -> unit
(** Install this sanitizer as a sink of the trace. The sink runs inside
    critical sections of the instrumented code and never blocks. *)

val feed : t -> Oib_obs.Event.stamped -> unit
(** Consume one event from the stamped fiber. [attach] wires this up;
    exposed for tests that drive the sanitizer directly. Rendered-only
    kinds are ignored and not counted in [events]. *)

val on_report : t -> (Oib_lint.Diag.t -> unit) -> unit
(** Called once per {e fresh} finding (first time its dedup key is
    seen) — the fuzzer uses the first call to dump the flight recorder
    while the racing run's events are still in the ring. *)

val reports : t -> Oib_lint.Diag.t list
(** All findings so far — race and WAL findings as they were detected,
    plus order-graph cycles computed now. Sorted and deduplicated. *)

val clean : t -> bool

val runtime_edges : t -> (string * string) list
(** The accumulated acquisition-order graph, sorted. *)

val stats_json : t -> string
(** Counters ([events], [runs], [races], [order_cycles],
    [wal_violations], [edges]) as a small JSON object for
    [SAN_stats.json]. *)
