(** Per-unit summaries and re-runnable transfer functions.

    Each [.ml] file is parsed with compiler-libs (parsetree only — no
    type information) and every value binding becomes an analysis
    {e unit}. Walking a unit's body tracks, path-sensitively, the
    latches held (acquired directly or produced by callee effects), L3
    pending mutations and released (dead) page handles; it records every
    call site together with the latches held at that moment.

    Unlike the single-pass v1, a unit's walk is {e re-runnable}: the
    first pass registers units and runs under {!initial_ctx} (no
    interprocedural knowledge); the {!Dataflow} solver then re-invokes
    [u_rerun] with contexts that resolve callee latch-effects from the
    evolving fixpoint, and a final pass with [x_emit = true] refreshes
    each unit's findings under the converged solution.

    The analysis is necessarily approximate: branches union their
    states, loops run zero-or-once, callbacks passed to higher-order
    functions run zero-or-once inline, and latches are identified by the
    source text of the latch expression. Functions that intentionally
    leak a latch into a structure the analysis cannot track carry
    [[@lint.allow "Ln: reason"]] justifications. *)

type config = {
  l3_modules : string list;
      (** modules whose heap-page mutations must be WAL-logged *)
  l3_mutators : string list;  (** canonical names of page-mutating calls *)
  l3_appends : string list;  (** canonical names of log-append calls *)
  l7_sources : string list;
      (** calls whose result is a latched page handle (out-of-tree
          sources; in-tree transfers are inferred from latch effects) *)
  l7_exempt_modules : string list;
      (** page-cache internals that legitimately store page structures *)
  suspends : string list;
      (** calls that may suspend the fiber: scheduler yields and
          condition waits, lock-manager waits, WAL forces. The seeds of
          the one "can this call suspend?" analysis, {!Dataflow.reach},
          whose result L2 forbids under a latch. A WAL force never
          suspends in the simulator; it is listed because a real one is
          I/O. *)
}

val default_config : config

type allow = {
  a_rule : string;  (** one of the live rules L1-L4, L7 *)
  a_reason : string;
  a_loc : Location.t;  (** the attribute itself, for unused-allow reports *)
  a_used : bool ref;
      (** set by {!Rules} when the allow suppresses a diagnostic; an
          allow still [false] after a full run suppressed nothing *)
}

type call = {
  c_callee : string;  (** canonical resolved name, e.g. "Log_manager.flush" *)
  c_loc : Location.t;
  c_held : (string * string) list;
      (** latches possibly held at the call: (latch expr text, mode) *)
  c_arg1 : string option;  (** text of the first positional argument *)
  c_callback : bool;
      (** a module-qualified function passed as an argument: call-graph
          edge for reachability, no effect application at the site *)
  c_allows : allow list;  (** allow scope at the site *)
}

type finding = {
  f_rule : string;
  f_loc : Location.t;
  f_msg : string;
  f_hint : string;
  f_trace : string list;
      (** interprocedural frames (innermost first) explaining how the
          finding crossed function boundaries; [] for local findings *)
  f_allows : allow list;
}

type ctx = {
  x_effects : caller_module:string -> string -> Latch_effect.t option;
      (** resolve a callee's latch effect; [None] = unknown/out-of-tree *)
  x_appends : caller_module:string -> string -> bool;
      (** callee may (transitively) append to the WAL (discharges L3) *)
  x_emit : bool;  (** final pass: produce findings *)
}

val initial_ctx : ctx
(** No interprocedural knowledge, no emission — the pass-A context. *)

type u = {
  u_module : string;  (** module name derived from the file name *)
  u_file : string;
  u_name : string;
  u_loc : Location.t;
  u_allows : allow list;  (** allows in scope for the whole unit *)
  u_params : string list;  (** positional parameter names, in order *)
  mutable u_calls : call list;
  mutable u_acquires_latch : bool;
      (** the unit contains a direct [Latch.acquire]/[with_latch] *)
  mutable u_local : finding list;  (** unit-local L1/L3/L7 findings *)
  mutable u_effect : Latch_effect.t;  (** current fixpoint value *)
  u_rerun : ctx -> unit;
      (** re-execute the transfer function, refreshing the mutable
          fields in place *)
}

type file_summary = {
  fs_file : string;
  fs_module : string;
  fs_units : u list;
  fs_findings : finding list;
      (** file-level findings: parse errors, malformed allow attributes *)
  fs_allows : allow list;
      (** every well-formed [@lint.allow] in the file, in source order *)
}

val param_index : string list -> string -> int option
(** Position of a name in a unit's parameter list. *)

val summarize_file : ?config:config -> string -> file_summary
(** Parse and analyse one [.ml] file from disk (pass A: units registered
    and run once under {!initial_ctx}). Parse failures yield a summary
    with no units and a ["parse"] finding. *)

val summarize_source :
  ?config:config -> file:string -> string -> file_summary
(** Same, from an in-memory source string (used by tests). *)
