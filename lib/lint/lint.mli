(** Tree-level linter driver.

    Scans a directory for [.ml] files, summarizes each ({!Summary}),
    builds the whole-tree call graph ({!Callgraph}), solves the
    latch-effect fixpoint and re-emits findings under the converged
    context ({!Dataflow}), runs the cross-function rules ({!Rules}),
    and aggregates statistics.
    This is the engine behind the [oib-lint] executable and the [@lint]
    dune alias. *)

type stats = {
  st_files : int;
  st_units : int;
  st_by_rule : (string * int) list;  (** unsuppressed diagnostics per rule *)
  st_suppressed_by_rule : (string * int) list;
  st_suppressions : (string * string * string) list;
      (** (file, rule, justification) for every applied suppression *)
  st_phase_ms : (string * float) list;
      (** wall time per engine phase: summarize, solve, emit, rules *)
  st_rule_ms : (string * float) list;
      (** wall time per rule family (from {!Rules.t.rule_ms}) *)
}

type result = {
  r_diags : Diag.t list;  (** all diagnostics, sorted, suppressed included *)
  r_unused_allows : Diag.t list;
      (** ["allow-unused"] diagnostics: [[@lint.allow]] attributes that
          suppressed nothing in this run. Reported and fatal under
          [oib-lint --strict]. *)
  r_rules : Rules.t;
  r_graph : Callgraph.t;
      (** the solved call graph (for [--graph] dumps and tooling) *)
  r_stats : stats;
}

val scan_files : string -> string list
(** Recursively collect [.ml] files under a root, skipping [_build] and
    hidden directories. Sorted for determinism. *)

val run_files : ?config:Summary.config -> string list -> result
(** Lint the given files as one tree, under {!Summary.default_config}
    unless [config] is given. *)

val run_tree : ?config:Summary.config -> string -> result
(** [run_files] over [scan_files root]. *)

val errors : result -> Diag.t list
(** The unsuppressed diagnostics — non-empty means the lint fails. *)

val stats_to_json : stats -> string
(** Render statistics as a small JSON object (for [LINT_stats.json]). *)
