(** Latched B+-tree over buffered pages.

    The tree exposes *state-setting* key operations: every entry is in one
    of three states — absent, present, or pseudo-deleted (present with the
    logical-delete bit, §2.1.2) — and each compound operation moves one key
    between states atomically under the leaf latch and reports the previous
    state. The transaction and index-builder layers decide the transition
    (and log it as an absolute [before -> after] record); restart recovery
    replays transitions with {!set_run} and the logged [after] states.

    One transition table serves every key operation, and one run loop
    ({!set_run}, {!insert_run}) decides how long a leaf latch is held. An
    entry is at most a quarter of a page, the size crabbing assumes: every
    operation that could add a larger key, {!Bulk.add} included, refuses
    it with [Invalid_argument] before taking any latch.

    Concurrency: writers descend with exclusive latch crabbing, releasing
    ancestors at safe (non-full) nodes; readers use share crabbing. All
    acquisition is top-down (plus left-to-right leaf-chain walks), so page
    latches cannot deadlock. The bottom-up bulk loader (SF, §3.2.4) touches
    pages without latching at all — the side-file protocol guarantees the
    builder is alone in the tree — which is precisely where SF's latching
    savings come from. *)

open Oib_util
open Oib_storage

type t

type state = Oib_wal.Log_record.key_state

val create :
  Buffer_pool.t -> Durable_kv.t -> index_id:int -> page_capacity:int ->
  unique:bool -> t
(** Create an empty tree (one leaf acting as root) and force its metadata
    and root image, so it is always recoverable. *)

val open_from_image : Buffer_pool.t -> Durable_kv.t -> index_id:int -> t
(** Reopen after a crash: the tree as of its last {!checkpoint_image}
    (possibly the empty tree forced by {!create}). Raises [Not_found] if no
    image exists. *)

val destroy : t -> unit
(** Remove the tree's durable metadata so the index id can be created
    again (a cancelled build's drop, §2.3.2). The dropped tree's flushed
    pages stay in the stable store — they only pin the page-id allocator
    above them — but without its meta the tree is unrecoverable and
    {!create} accepts the id. *)

val index_id : t -> int
val unique : t -> bool
val page_capacity : t -> int
val root_page_id : t -> int
val image_lsn : t -> Oib_wal.Lsn.t
val page_ids : t -> int list
(** Every page of the tree, in no particular order: an inventory kept on
    allocation, so no page is read to list them. *)

val checkpoint_image : t -> lsn:Oib_wal.Lsn.t -> unit
(** Flush the tree pages dirtied since the last image and record tree
    metadata (with {!page_ids}) durably. [lsn] is the position in the
    log this image is consistent with; recovery replays index operations
    after it. Runs without yielding, so the image is a sharp snapshot
    under the cooperative scheduler. A tree from {!open_from_image}
    starts with nothing to flush. *)

(* --- key operations (each atomic under the leaf latch) --- *)

type cursor
(** Remembered root-to-leaf position (ARIES/IM-style). *)

val new_cursor : t -> cursor

val read_state : t -> Ikey.t -> state

val set_state : t -> Ikey.t -> state -> state
(** Absolute transition; returns the previous state. [Present] /
    [Pseudo_deleted] insert the entry if absent or set its flag; [Absent]
    physically removes it. A root-to-leaf descent: the path of every
    transaction's index maintenance. *)

val set_run :
  t -> cursor:cursor -> key_at:(int -> Ikey.t) -> state_at:(int -> state) ->
  from:int -> upto:int -> (int -> Ikey.t -> state -> bool) -> int
(** {!set_state} of [key_at i] to [state_at i] for each [i] from [from],
    in order, stopping before [upto] or after a key for which the callback
    (index, key, previous state; run under the leaf latch, must not yield)
    answers [false]; returns the index after the last key taken. Keys may
    come in any order and repeat.

    The leaf a key reaches, through the cursor or by a descent that the
    cursor then follows, stays X-latched while the next keys sort at or
    above its first entry and below its high key, and fit: one latch and
    one dirty mark per run of keys on a leaf. States, contents and every
    counter but [Latch_acquires], [Tree_traversals] and
    [Fast_path_inserts] equal per-key {!set_state}'s, and a run takes at
    most one latch more than per-key {!set_state}: its first cursor
    attempt. Restart replay and the sorted side-file drain (§3.2.5) use
    it. *)

val insert_if_absent :
  t -> ?ib_split:bool -> ?cursor:cursor -> Ikey.t ->
  [ `Inserted | `Rejected of state ]
(** The index builder's insert (NSF §2.2.3): rejected if the entry exists
    in any state (a transaction inserted it first, or left a pseudo-deleted
    tombstone). [ib_split] selects the specialized split that moves only
    higher keys (§2.3.1). A cursor makes consecutive ascending inserts skip
    the root-to-leaf traversal (remembered path). *)

val insert_run :
  t -> ?ib_split:bool -> cursor:cursor -> key_at:(int -> Ikey.t) ->
  from:int -> upto:int ->
  (Ikey.t -> [ `Inserted | `Rejected of state ] -> bool) -> int
(** The index builder's multi-key insert (§2.3.1): {!insert_if_absent} of
    each [key_at i] through {!set_run}'s loop and stopping rule. Outcomes,
    contents and every counter but [Latch_acquires] equal per-key
    {!insert_if_absent}'s with the same cursor. *)

val find_kv : t -> string -> (Ikey.t * bool) list
(** All entries with the given key value (flag = pseudo-deleted), in RID
    order — what unique-violation checking examines. *)

val iter_range :
  t -> ?lo:string -> ?hi:string -> (Ikey.t -> pseudo:bool -> unit) -> unit
(** Visit entries with [lo <= key value <= hi] in ascending order,
    S-latching one leaf at a time (latch-coupled along the chain, so a
    range scan of the whole index touches pages in key order — the access
    pattern whose physical sequentiality E4 measures). Omitted bounds are
    open. *)

val range : t -> ?lo:string -> ?hi:string -> unit -> (Ikey.t * bool) list

val iter_entries : t -> (Ikey.t -> pseudo:bool -> unit) -> unit
(** Left-to-right scan of all entries (S-latched leaf at a time). *)

val iter_leaves : t -> (int -> Bt_node.leaf -> unit) -> unit
(** Left-to-right scan of leaf pages by (page id, node). *)

val gc_pseudo_deleted : t -> keep:(Ikey.t -> bool) -> int
(** Physically remove pseudo-deleted entries for which [keep] is false
    (§2.2.4; [keep] embodies the Commit_LSN / conditional-lock test).
    Returns the number removed. *)

(* --- bottom-up build (SF) --- *)

module Bulk : sig
  type tree := t
  type b

  exception Below_fence of { key : Ikey.t; fence : Ikey.t }
  (** {!add} was given a key below the rightmost leaf's lower bound, the
      last separator on the right spine: appending it would put an entry
      below its subtree's bound. A key equal to that separator belongs to
      the rightmost leaf and is accepted. *)

  val start : tree -> b
  (** The tree must be empty. *)

  val resume : tree -> b
  (** Continue a bottom-up build on an existing tree (SF restart from an
      index checkpoint image, §3.2.4): reconstructs the rightmost spine;
      subsequent keys must sort above the tree's current highest entry. *)

  val add : b -> Ikey.t -> unit
  (** Append a key; keys must arrive in ascending order, and a key equal
      to the last one added is ignored (the same entry extracted twice).
      Refuses a key over the size rule with [Invalid_argument].
      Raises {!Below_fence} for a key below the right spine's low fence
      recorded by {!resume}. Appends to the rightmost leaf with no
      traversal, no latching, and
      one key comparison to check the order; grows the tree bottom-up,
      left to right. *)

  val finish : b -> unit
end

(* --- statistics --- *)

val node_at : t -> int -> Bt_node.node
(** Unlatched access to a node by page id — for the structure checker and
    tests only. *)

val entry_count : t -> int
val present_count : t -> int
val pseudo_count : t -> int
val leaf_count : t -> int
val depth : t -> int
