(** Per-engine observability hub: event dispatch, flight recorder,
    histogram registry.

    Every subsystem reaches its engine's trace (usually via the scheduler)
    and emits {!Event.t}s guarded by {!tracing}; the default {!null} trace
    makes all of it a no-op. The engine wires {!set_clock}/{!set_fiber} to
    the scheduler so every event is stamped with the virtual step clock
    and the emitting fiber. *)

type t

val null : t
(** The inert trace: emission, observation and dump are no-ops. Default
    everywhere so untraced runs pay (almost) nothing. *)

val create : unit -> t

val is_null : t -> bool

val set_clock : t -> (unit -> int) -> unit
val set_fiber : t -> (unit -> (int * string) option) -> unit

val now : t -> int
(** Current virtual time (0 until a clock is wired). *)

val tracing : t -> bool
(** True when at least one sink or a flight recorder is attached — check
    this before allocating an event at a hot emission site. *)

val emit : t -> Event.t -> unit
(** Stamp and dispatch to every sink, and to the flight recorder unless
    {!Event.sanitizer_only}. *)

val add_sink : t -> name:string -> (Event.stamped -> unit) -> unit
(** A sink sees every event, sanitizer-only ones included, and must not
    block: it runs inside scheduler, latch and lock-manager critical
    sections. *)

val remove_sink : t -> name:string -> unit

val attach_recorder : t -> capacity:int -> Flight_recorder.t
(** Install a ring-buffer flight recorder (replaces any previous one). *)

val recorder : t -> Flight_recorder.t option

val failure : t -> reason:string -> unit
(** Failure boundary (deadlock / crash / oracle violation): emits a
    [Crash] event, renders the flight-recorder dump, stores it (see
    {!last_dump}) and passes it to the dump consumer (default: stderr). *)

val set_on_dump : t -> (string -> unit) -> unit
val last_dump : t -> string option

(** {2 Spans}

    A span is a nested virtual-time interval: [span_begin] emits
    [Span_begin] with the innermost open span of the current fiber as its
    parent and returns a handle; [span_end] emits the matching [Span_end].
    Handles are plain ints; [0] (returned when not tracing) is inert.
    Ends may arrive on a different fiber than the begin and out of LIFO
    order — both are legal. Open stacks are wiped on {!failure} and when
    a new scheduler is wired, so stale handles end as no-ops. *)

val span_begin : t -> cat:string -> name:string -> int
val span_end : t -> int -> unit

val with_span : t -> cat:string -> name:string -> (unit -> 'a) -> 'a
(** Bracket [f] in a span; the end is emitted even if [f] raises. *)

val open_spans : t -> fiber:int -> (string * string) list
(** The [(cat, name)] of every span currently open on [fiber], innermost
    first — the profiler's sampling view. Empty when not tracing. *)

(** {2 Histograms} *)

val hist : ?bounds:int array -> t -> string -> Hist.t
(** Find or create the named histogram ([bounds] applies on creation). *)

val observe : t -> string -> int -> unit
(** Record into the named histogram (created with default bounds). *)

val find_hist : t -> string -> Hist.t option

val hists : t -> (string * Hist.t) list
(** All histograms, sorted by name. *)

val pp_hists : Format.formatter -> t -> unit

(** {2 Stock sinks} *)

val add_jsonl_buffer_sink : t -> name:string -> Buffer.t -> unit
(** Append every event that is not {!Event.sanitizer_only} as a JSONL
    line. *)

val add_jsonl_file_sink : t -> path:string -> unit -> unit
(** Open [path], stream every event that is not {!Event.sanitizer_only}
    as a JSONL line; returns the closer (also detaches the sink). *)
