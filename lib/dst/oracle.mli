(** The oracle battery the runner fires after every engine incarnation.

    Each check returns human-readable violations (empty = pass):

    - {!consistency}: {!Oib_core.Engine.consistency_errors} — every
      [Ready] tree passes {!Oib_btree.Bt_check.check} (ordering,
      separators, chains, accounting) and holds exactly one live entry
      per record key;
    - {!progress_monotonic}: every build's phase history within this
      incarnation ranks monotonically ({!Oib_core.Build_status.rank}
      never decreases, transition steps never go backwards);
    - {!lifecycle}: {!Oib_core.Engine.lifecycle_errors} — the build
      phase's quiescent-point invariants (no building index without
      durable progress; finally, no [Ready] index with leftover build
      state);
    - {!completion}: no build left unfinished and no side-file left
      undrained — only meaningful once a scenario has run to completion,
      hence gated behind [~final].

    {!battery} combines them, prefixing a precondition failure when
    transactions are still active. *)

val consistency : Oib_core.Ctx.t -> string list
val progress_monotonic : Oib_core.Ctx.t -> string list
val lifecycle : ?final:bool -> Oib_core.Ctx.t -> string list
val completion : Oib_core.Ctx.t -> string list

val battery : ?final:bool -> Oib_core.Ctx.t -> string list
(** [final] defaults to [true]. *)
