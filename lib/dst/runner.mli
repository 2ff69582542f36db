(** Execute one scenario end to end, deterministically.

    A run is a sequence of engine incarnations separated by the fault
    plan's crashes / media failures. In every incarnation the runner
    spawns the workload's workers and the index-builder fiber (or, after
    a restart, [Ib.resume_builds] plus a rebuild when the crash predated
    the descriptor), fires the in-flight faults (system checkpoint, log
    truncation, backup) from a scheduler step hook, and arms a crash trap
    for the next stopping fault. After every restart recovery the oracle
    battery runs; after the scenario completes, a final battery plus the
    double-recovery idempotence check: crash the completed engine, crash
    the freshly recovered engine again at step 0, recover, and the
    oracles must still pass.

    A unique-index build cancelled by the table legitimately holding
    duplicates ({!Oib_core.Ib.Build_unique_violation}, §2.2.3) is a legal
    outcome, not a failure; it is reported in [build_cancelled].

    Everything — including recovery seeds and the pre-crash page steal —
    derives from the scenario, so equal scenarios produce equal runs,
    event for event. *)

type outcome = {
  scenario : Scenario.t;
  errors : string list;  (** violations from the first failing battery *)
  failed_at : string option;
      (** where the failure surfaced: ["after-restart-N"], ["final"],
          ["double-recovery"], ["deadlock"], ["exception"] *)
  incarnations : int;  (** 1 + restarts actually taken *)
  total_steps : int;  (** scheduler steps summed over incarnations *)
  build_cancelled : bool;
  committed : int;  (** transactions committed across all incarnations *)
  ring_before_battery : Oib_obs.Flight_recorder.t option;
      (** a copy of the trace's flight recorder taken just before the
          battery that failed, so a dump shows the failing run rather
          than the battery's own page and tree walks; [None] when no
          battery failed or the trace has no recorder *)
}

val failed : outcome -> bool

val run :
  ?trace:Oib_obs.Trace.t ->
  ?inject:(Oib_core.Ctx.t -> unit) ->
  ?during:(Oib_core.Ctx.t -> unit) ->
  ?on_engine:(Oib_core.Ctx.t -> unit) ->
  Scenario.t ->
  outcome
(** [inject] (test-only hook) runs on the completed engine just before
    the final oracle battery — used to plant deliberate violations and
    prove the harness catches, shrinks and reports them. [during]
    (test-only hook) runs on the first incarnation right after the
    builder fiber is spawned, before the scheduler starts — used to
    plant a concurrent saboteur fiber for the race sanitizer.
    [on_engine] runs right after every engine incarnation is assembled
    (initial, post-crash/media-restore, and the double-recovery check) —
    used to re-install per-scheduler instrumentation such as the
    profiler's step hook, so a capture's final incarnation is profiled.
    When a live [trace] is given, a [Run_start] event marks the run
    start so the sanitizer's per-run shadow state resets. *)

val measure_steps : ?trace:Oib_obs.Trace.t -> Scenario.t -> int
(** Total steps of the scenario run fault-free — the sweep's upper
    bound for crash placement. *)
