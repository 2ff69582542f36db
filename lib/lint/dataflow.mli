(** Worklist fixpoint engines over the call graph.

    The pipeline is: {!Callgraph.build} (pass-A summaries) →
    {!solve_effects} (latch-effect fixpoint) → {!emit_pass} (re-walk
    every unit under the converged context with emission on) → the rule
    evaluators in {!Rules}. *)

val solve_effects :
  ?order:(Summary.u list -> Summary.u list) -> Callgraph.t -> unit
(** Iterate every unit's transfer function to the latch-effect fixpoint
    (reset to bottom first, callers requeued on growth, per-unit visit
    cap as a termination backstop). Mutates [u_effect] in place;
    emission is off.

    [order] permutes only the initial worklist enqueue order — the
    converged solution must be (and is, see the order-independence
    property test) insensitive to it. *)

val reach :
  Callgraph.t ->
  seed:(Summary.call -> string option) ->
  (string * string, string) Hashtbl.t
(** Generic may-property reachability: marks every unit from which a
    seeded call site is reachable through the graph, mapping
    (module, unit) to a ["f -> g -> base"] witness chain. Seeded with
    [Summary.config.suspends], it is the one may-suspend analysis
    (L2's). *)

val emit_pass : config:Summary.config -> Callgraph.t -> unit
(** Re-run every unit, with emission on, under the converged context:
    effect resolution from the solved fixpoint and transitive WAL-append
    knowledge for L3. *)
