(** The side-file (paper §3).

    An append-only sequential table of [<operation, key>] entries that
    transactions write — without locking the appended entries — while the
    SF index builder is active. Appends are logged redo-only by the
    *transaction layer* (they are never undone; rollback appends
    compensating entries instead, Figure 2), so after a crash the entire
    side-file contents are rebuilt from the durable log. The index
    builder's processing position is checkpointed separately by the
    builder.

    For improved performance IB may sort the entries by key before applying
    them, as long as the relative order of identical keys is preserved
    (§3.2.5) — {!sorted_slice} provides exactly that stable ordering. *)

open Oib_util

type entry = { insert : bool; key : Ikey.t }

type t

val create : sidefile_id:int -> t

val sidefile_id : t -> int

val apply_append : t -> insert:bool -> Ikey.t -> int
(** Record an entry (the caller has already written the redo-only log
    record). Returns the entry's position. *)

val length : t -> int
val get : t -> int -> entry
val iter_from : t -> int -> (int -> entry -> unit) -> unit
val slice : t -> from:int -> upto:int -> entry list
(** Entries in positions [\[from, upto)]. *)

val sorted_slice :
  ?keep:(int -> entry -> bool) -> t -> from:int -> upto:int -> entry list
(** The same entries sorted by key — *stably*, so multiple operations on
    the same key apply in their original order. [keep pos entry] (default:
    all) selects the entries by position first. *)

val pp_entry : Format.formatter -> entry -> unit
