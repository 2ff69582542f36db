(** Fold a trace event stream into one renderable dashboard frame.

    The model behind [oib-trace top]: feed it stamped events — live off a
    {!Oib_obs.Trace} sink or replayed from a JSONL capture — and
    {!render} the current state as a fixed-layout text frame showing
    foreground latency quantiles, EWMA rates, health signals, page reads
    by role, and every build's phase, progress and attributed cost. The
    fold keeps only "latest value per sample key" plus a few event
    counters, so feeding is O(1) per event and a frame can be rendered
    at any point of the stream. Pure state + string: no printing here
    (the binary owns the terminal). *)

type t

val create : unit -> t

val feed : t -> Oib_obs.Event.stamped -> unit
(** Latest-wins for [Sample] keys; [Txn_commit]/[Txn_abort]/
    [Lock_denied] (deadlock victims)/[Crash]/[Epoch] bump counters and
    [Page_read] counts per page role; everything else only advances the
    step clock. *)

val feed_all : t -> Oib_obs.Event.stamped list -> unit

val step : t -> int
(** Step stamp of the newest event fed (0 before any). *)

val samples : t -> int
(** Number of [Sample] points folded in so far. *)

val render : t -> string
(** The current frame, terminated by a newline. Sections with no data
    yet render as placeholders, so a frame is valid at any time. *)
