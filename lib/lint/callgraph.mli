(** Whole-tree call graph over analysis units.

    Built once from pass-A summaries; resolution is syntactic (module +
    last name component, unqualified names resolve within the caller's
    module). Closures passed to higher-order functions are walked inline
    by the summariser; module-qualified function arguments appear as
    [c_callback] edges — reachability only, no effect application. *)

type t

val build : Summary.file_summary list -> t

val lookup : t -> caller_module:string -> string -> Summary.u list
(** Units a canonical callee name may resolve to. Empty for unknown or
    deliberately opaque callees (the latch/scheduler primitives). *)

val units : t -> Summary.u list
(** All units, in stable (file, source) order. *)

val summaries : t -> Summary.file_summary list

val callers : t -> Summary.u -> Summary.u list
(** Units containing at least one call site resolving to the given
    unit — the worklist's requeue set. *)

val is_opaque : string -> bool
(** The latch and scheduler modules, whose bodies the rules model by
    name instead of walking. *)

val to_json : t -> string
(** Deterministic (sorted) JSON rendering of nodes (with converged latch
    effects) and resolved edges, schema [oib-lint-callgraph/v2]. *)
