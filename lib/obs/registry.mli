(** Central metrics registry.

    One engine owns one registry; every named series the observability
    plane exposes — counters, derived gauges, sliding {!Window}s and
    EWMA rates — registers here under a stable rendered
    name, and {e Obs_sampler}, [bench/obs_report] and the JSONL sinks all
    read the same {!snapshot}/{!sample_values} instead of each keeping a
    private field list. {!Oib_sim.Metrics.attach_registry} bridges the
    engine's counter totals in as derived gauges ([metrics.<counter>]).

    Registration is find-or-create: asking for an existing (name, kind)
    returns the existing series; a kind mismatch raises
    [Invalid_argument]. Labels render into the name as
    [name{k=v,...}] with keys sorted, so the same logical series always
    renders identically. *)

type t

type labels = (string * string) list

val create : unit -> t

val render_name : ?labels:labels -> string -> string

(** {2 Counters} — plain owned integers. *)

type counter

val counter : t -> ?labels:labels -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {2 Gauges} — derived: a closure read at snapshot/sample time. *)

val gauge : t -> ?labels:labels -> string -> (unit -> int) -> unit
(** Unlike the other kinds, re-registering a gauge {e replaces} its
    closure — after a crash/restart, derived gauges must re-close over
    the new incarnation's subsystems. *)

(** {2 Windows} — sliding quantiles over the last few sampler ticks.
    Whole-run latency histograms live on the trace hub ({!Trace}), which
    is where reports read them. *)

val window :
  t -> ?bounds:int array -> ?slots:int -> ?labels:labels -> string -> Window.t
(** [slots] defaults to 8. *)

val find_window : t -> string -> Window.t option
(** Lookup by rendered name; [None] if absent. Raises [Invalid_argument]
    when the name exists as a different metric kind — the same
    programming error registration catches, and a silent [None] would
    make observations vanish. *)

val observe_window : t -> string -> int -> unit
(** Observe into the named window; silently a no-op if absent, so hot
    paths need no registration handshake. Raises like {!find_window} on
    a kind mismatch. *)

val rotate_windows : t -> unit
(** Rotate every registered window one tick (sampler-driven). *)

(** {2 Rates} — EWMA over per-tick deltas of a monotonic total. *)

type rate

val rate : t -> ?alpha:float -> ?labels:labels -> string -> rate

val rate_observe : rate -> total:int -> steps:int -> unit
(** Feed the current monotonic [total]; the first call primes the
    baseline, later calls fold [(total - previous) / steps] into the
    EWMA. *)

val rate_value : rate -> float
(** Smoothed events per scheduler step. *)

(** {2 Reading} *)

type value =
  | Int of int
  | Float of float
  | Windowed of Window.t

val snapshot : t -> (string * value) list
(** Every series, sorted by rendered name. Gauges are read at call
    time. *)

val sample_values : t -> (string * int) list
(** Flattened integer view for [Sample] trace events, sorted by name:
    counters and gauges verbatim; each window [w] expands to
    [window.w.p50]/[.p95]/[.p99]/[.count] (percentiles rounded to the
    nearest step); each rate [r] scales to events per 1000 steps,
    rounded. *)

val to_json : t -> string
(** One JSON object keyed by rendered name. *)
