(** Rule evaluation over the solved call graph.

    Unit-local findings (L1 leaks, L3, L7 escape sites,
    parse and malformed-allow errors) are produced by the summariser's
    emission pass and collected here; this module adds the whole-graph
    rules and applies [[@lint.allow]] suppression uniformly:

    - L1 (interprocedural tail): a unit whose latch effect still holds a
      parameter-rooted latch at exit pushes the release obligation to its
      callers; with no in-tree caller, nobody discharges it.
    - L2: no (transitively) blocking call while a latch is held. The base
      blocking set is [config.suspends] (scheduler yields and condition
      waits, lock-manager waits, WAL forces); blocking-ness propagates
      through {!Dataflow.reach}, the tree's one "can this call suspend?"
      analysis, and each finding carries the witness chain as its
      trace.
    - L4: runtime output discipline — no console-printing calls in [lib/]
      outside the explicit reporting modules, and no [Printf] at all in
      the lock-manager/WAL modules.

    Suppressions from in-scope [[@lint.allow]] attributes are applied,
    never dropped: a suppressed diagnostic keeps its justification. *)

type t = {
  diags : Diag.t list;  (** every diagnostic, suppressed ones included *)
  rule_ms : (string * float) list;
      (** per-rule-family wall time, milliseconds, in evaluation order *)
}

val run : config:Summary.config -> Callgraph.t -> t
(** Evaluate every rule over a call graph that has already been through
    {!Dataflow.solve_effects} and {!Dataflow.emit_pass}. *)
