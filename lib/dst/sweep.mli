(** Crash-point sweep: recovery coverage for every phase of a build.

    One hand-picked crash step (the old [oib-demo crash --at]) probes one
    log-flush/page-write boundary; the sweep probes them all. It first
    runs the scenario fault-free to measure its total step count, then
    re-runs it once per evenly spaced crash step, each run crashing
    there, recovering, resuming, and firing the full oracle battery.
    Every run (the base too) also carries a fresh {!Scan_check} across
    all its incarnations, whose violations join the run's errors. *)

type point = {
  crash_step : int;
  errors : string list;
  failed_at : string option;
}

type result = {
  scenario : Scenario.t;
  base_steps : int;  (** steps of the fault-free run *)
  base_errors : string list;
      (** battery violations of the fault-free run itself; when non-empty
          no crash points were attempted *)
  points : point list;
  checkpoints : int;
      (** scan-stage sort checkpoints the scan oracle saw, over all runs:
          a sweep that saw none checked nothing, so callers fail on 0 *)
}

val crash_points : base_steps:int -> points:int -> int list
(** Evenly spaced steps [every, 2*every, ...] covering [(0, base_steps]]
    with at most [points] entries ([every = base_steps / points],
    floored at 1). *)

val sweep :
  ?trace:Oib_obs.Trace.t ->
  ?inject:(Oib_core.Ctx.t -> unit) ->
  ?during:(Oib_core.Ctx.t -> unit) ->
  ?on_point:(int -> string list -> unit) ->
  Scenario.t ->
  points:int ->
  result
(** The scenario's own fault plan is replaced by a single [Crash_at] per
    point. [on_point] is called after each point (progress reporting). *)

val failures : result -> point list
