(** Tables, index descriptors, visibility and build state.

    An index has one lifecycle, its {!build_phase}: it is being built from
    its descriptor's creation until its builder finishes, and only then
    ([Ready]) serves reads — apart from a building NSF index's completed
    prefix ([avail_below]). Transactions maintain it by phase alone.

    An index descriptor carries the paper's control state: for NSF the
    index is visible to updaters from descriptor creation on; for SF
    visibility is per-operation, governed by the builder's Current-RID scan
    position ([Index_Build] flag + [Target-RID < Current-RID], §3.1).
    Indexes of a table are ordered by creation; the count of indexes
    visible to an operation (logged in its heap record) therefore
    identifies a prefix of this list. Descriptor metadata is forced to the
    durable store so the catalog survives crashes; dynamic build state is
    re-derived at restart from the log and the builders' checkpoints. *)

open Oib_util

type build_phase =
  | Ready  (** fully built; used directly by transactions *)
  | Nsf_building of nsf_state
      (** NSF: transactions insert/delete keys directly in the tree *)
  | Sf_building of sf_state
      (** SF: transactions append to the side-file when visible *)

and nsf_state = {
  mutable avail_below : string option;
      (** gradual availability (paper footnote 3): key values strictly
          below this bound are already complete in the index — every base
          key below it has been inserted by IB and transactions maintain
          the index from descriptor creation on — so equality lookups in
          that range may be served before the build finishes *)
}

and sf_state = {
  sidefile : Oib_sidefile.Side_file.t;
  mutable current_rid : Rid.t;
      (** IB's scan position; [Rid.minus_infinity] before the scan starts,
          [Rid.infinity] once the scan is complete (in either scan mode) *)
  mutable current_key : string option;
      (** scan position for the primary-key scan mode (paper §6.2): the
          highest primary key whose record has been extracted *)
  key_scan : int list option;
      (** [None]: the scan advances in RID order over the heap (the paper's
          main storage model). [Some cols]: the scan walks a unique primary
          index on [cols] in key order, and visibility compares the
          operation's primary key against [current_key] (§6.2) *)
  mutable draining : bool;
      (** IB is processing the side-file (transactions may still append) *)
}

type index_info = {
  index_id : int;
  table_id : int;
  key_cols : int list;
  uniq : bool;
  tree : Oib_btree.Btree.t;
  mutable phase : build_phase;
}

type table_info = {
  table_id : int;
  heap : Oib_storage.Heap_file.t;
  mutable indexes : index_info list;  (** creation order *)
}

type t

val create : Oib_storage.Durable_kv.t -> page_capacity:int -> t

val kv : t -> Oib_storage.Durable_kv.t
val page_capacity : t -> int

val create_table :
  ?log:bool -> t -> Oib_storage.Buffer_pool.t -> table_id:int -> table_info
(** [log] (default true) appends the DDL record. Recovery replays pass
    [~log:false]: re-logging a replayed [Create_table] / [Create_index]
    would strand an extra create after its original drop in the log, and
    the next recovery would resurrect the dropped object. *)

val table : t -> int -> table_info
val index : t -> int -> index_info
val tables : t -> table_info list
val indexes_of : t -> int -> index_info list

val add_index :
  ?log:bool -> t -> Oib_storage.Buffer_pool.t -> table_id:int ->
  index_id:int -> key_cols:int list -> unique:bool -> phase:build_phase ->
  index_info
(** Create the descriptor + empty tree and force the catalog entry. The
    caller is responsible for the quiesce protocol (NSF) or the
    [Index_Build] flag discipline (SF). [log] as in {!create_table}. *)

val drop_index : t -> int -> unit
(** Remove descriptor and catalog entry (cancel of an index build, §2.3.2;
    the caller must have quiesced updaters). *)

val key_of : index_info -> Record.t -> rid:Rid.t -> Ikey.t
(** Build the index entry for a record. *)

val log_key_move :
  log:(Oib_wal.Log_record.body -> Oib_wal.Lsn.t) -> index_info -> Ikey.t ->
  before:Oib_wal.Log_record.key_state -> after:Oib_wal.Log_record.key_state ->
  unit
(** Log [key]'s move in the index from [before] to [after], a redoable
    [Index_key] record, through [log] (a transaction's, a CLR writer or
    the builder's); nothing if the key stayed put. Called with the state the
    tree reported before setting [after]. *)

val key_at : index_info -> Oib_storage.Heap_page.t -> rid:Rid.t -> Ikey.t
(** {!key_of} for the record in [rid]'s slot of the heap page, read from
    the page bytes without building the record. *)

val visible_to : index_info -> target:Rid.t -> record:Record.t -> bool
(** Figure 1's per-index visibility rule. *)

val visible_count_for :
  t -> table_info -> target:Rid.t -> record:Record.t -> int
(** Number of indexes visible to an operation on [target] (Ready + NSF +
    SF behind the scan position), i.e. the count Figures 1-2 log. The
    record is needed for key-order scans (§6.2), whose visibility compares
    its primary key. *)

val sidefiled_for : t -> table_info -> target:Rid.t -> record:Record.t -> int list
(** Index ids whose maintenance for this operation is routed to a
    side-file. *)

val reopen :
  t -> Oib_storage.Buffer_pool.t -> unit
(** After a crash: re-create table and index objects from the durable
    catalog, reopening heap files and index checkpoint images. Build
    phases are restored as [Ready]; restart gives every build the log
    shows unfinished its building phase back. *)

val set_phase : t -> int -> build_phase -> unit
