(** Live progress of one online index build.

    The index builder publishes its current phase, scan position
    (Current-RID), keys processed, side-file backlog and checkpoint count
    here; {!Engine.build_progress} exposes the set of statuses so a demo,
    bench or monitoring loop can watch a build advance without touching
    builder internals. *)

type phase = Init | Quiesce | Scan | Merge | Insert | Bulk | Drain | Ready

val rank : phase -> int
(** Monotonic progress order; a build's phase rank never decreases within
    one engine incarnation. [Insert] (NSF) and [Bulk] (SF) share a rank —
    they are the two algorithms' alternatives for the same stage. *)

val phase_name : phase -> string

type scan_pos =
  | Not_scanned  (** before the scan starts *)
  | At_rid of Oib_util.Rid.t  (** Current-RID of a heap scan *)
  | At_key of string
      (** current key of a scan in primary-key order (index-organized
          table) *)

type t = {
  index_id : int;
  algorithm : string;  (** ["nsf"], ["sf"] or ["via-primary"] *)
  mutable phase : phase;
  mutable scan_pos : scan_pos;
      (** scan position, stored as data and formatted only by {!pp}:
          [rid=] followed by the RID as {!Oib_util.Rid.to_string} prints
          it, or by ["key:"] and the key *)
  mutable keys_processed : int;
      (** keys the build has handled, summed over its phases: each key
          the scan feeds to the sort, then each key the insert (NSF) or
          bulk (SF) phase takes from the merged run, plus each side-file
          entry the drain applies. A cold 100,000-row build with no
          updaters therefore reports 200,000. *)
  mutable backlog : int;  (** side-file entries appended, not yet drained *)
  mutable checkpoints : int;
  mutable history : (phase * int) list;  (** newest first; use {!history} *)
  mutable phase_span : int;
      (** open trace span of the current phase; [0] when untraced *)
  resources : Oib_obs.Resource.t;
      (** running resource cost charged to this build (page IO, WAL
          bytes, wait steps, sort compares — see {!Oib_obs.Resource}) *)
  mutable cost_marks : (phase * Oib_obs.Resource.t) list;
      (** resource totals at each phase entry, newest first; use
          {!phase_costs} *)
}

val create : index_id:int -> algorithm:string -> t

val set_phase : t -> step:int -> phase -> unit
(** Record a transition (no-op if [phase] is already current). [step] is
    the scheduler's step clock, giving the virtual time of the change. *)

val history : t -> (phase * int) list
(** Transitions oldest-first: [(Init, 0)] then each [set_phase]. *)

val phase_costs : t -> (phase * Oib_obs.Resource.t) list
(** Resource cost of each phase the build has entered, oldest first:
    the delta between consecutive phase-entry marks, with the current
    phase running to the live total. *)

val pp : Format.formatter -> t -> unit
val to_json : t -> string
