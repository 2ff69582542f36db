(** Offline profile analysis over [Prof_sample] events — the analysis
    side of {!Oib_obs.Profiler}, and the engine behind [oib-trace prof].

    {!fold} feeds a capture's samples into the online profiler's own
    {!Oib_obs.Profiler.fold}, so its folded output over a JSONL capture
    is byte-identical to the live engine's by construction. *)

type sample = {
  step : int;
  fiber : int;
  fname : string; (* normalized fiber name, e.g. "worker-#" *)
  state : string; (* oncpu | latch | lock | io | logflush | sched *)
  path : string; (* ';'-joined cat:name segments, outermost first *)
  resource : string;
  blocker : string;
}

val samples : Oib_obs.Event.stamped list -> sample list
(** Every [Prof_sample] in the capture, in order. *)

val frames_of : sample -> string list
(** The sample's frame list (via {!Oib_obs.Profiler.frames}). *)

val fold : Oib_obs.Event.stamped list -> Oib_obs.Profiler.fold
(** Every sample of the capture, added in order. *)

val top_down : Oib_obs.Event.stamped list -> (string * int * int) list
(** [(path prefix, total, self)] — [total] counts samples passing
    through the prefix, [self] those ending exactly there. Lexicographic
    path order (children follow their parent). *)

val bottom_up : Oib_obs.Event.stamped list -> (string * int * int) list
(** [(frame, total, self)] — [total] counts samples containing the frame
    anywhere, [self] those it terminates. Sorted by self descending. *)

val waits_by_phase :
  Oib_obs.Event.stamped list -> (int * string * string * int) list
(** [(index, build phase, wait state, weight)] for every non-oncpu
    sample falling inside that phase's step interval (from the
    [Ib_phase] markers in the same capture). *)

val waits_by_class :
  Oib_obs.Event.stamped list -> (string * string * int) list
(** [(normalized fiber name, wait state, weight)] — how each txn class
    (workers, ib, rogue, ...) spends its blocked time. *)

val wait_edges :
  Oib_obs.Event.stamped list -> (string * string * string * int) list
(** [(state, resource, blocker fiber, weight)] attribution edges:
    who blocked whom on what, and for how many samples. *)

val diff :
  Oib_obs.Event.stamped list ->
  Oib_obs.Event.stamped list ->
  (string * int) list
(** Signed per-path weight delta B−A, zero paths dropped, sorted by
    |delta| descending then path. [diff x x] is always []. *)
