(** Scan-accounting oracle: the sort checkpoint is the scan's restart
    record.

    Watches {!Oib_core.Ib.set_scan_observer} across every engine
    incarnation of a crash-and-resume run and keeps one high mark per
    index, the scan position of its last sort checkpoint. It flags:

    - a page at or below the mark that is extracted again (resume must
      skip every page a checkpoint durably captured);
    - a page extracted twice for one index within one incarnation;
    - a mark that goes down;
    - a resumed scan that does not start at the mark.

    A fresh scan (sorter at -1) resets its index, so a build cancelled
    and rebuilt under the same index id starts over legally. Extracting
    a page above the mark again after a crash is legitimate: its keys
    were not durable. A media restore rewinds the checkpoint, so the
    oracle is for crash-only runs. *)

type t

val create : unit -> t

val observe : t -> Oib_core.Ib.scan_event -> unit
(** Account one builder event ({!install} routes them here). *)

val install : t -> unit
(** Point the builder's process-global observer at [t]. It survives
    engine crash/restart, so one [install] covers a whole
    multi-incarnation run. *)

val uninstall : unit -> unit
(** Clear the builder's observer (do this before the next scenario). *)

val new_epoch : t -> unit
(** Declare an incarnation boundary (call from the runner's [on_engine]
    hook): pages above the mark may be extracted once more. *)

val mark : t -> int -> int
(** An index's last checkpointed scan position; -1 when there is none. *)

val extractions : t -> int
(** Total page extractions observed. *)

val checkpoints : t -> int
(** Total scan-stage sort checkpoints observed. *)

val errors : t -> string list
(** Accumulated violations, oldest first (empty = clean). *)
