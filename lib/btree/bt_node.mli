(** B+-tree node payloads: pure data operations, no latching or I/O.

    Leaves hold [<key value, RID>] entries, each with the 1-bit
    pseudo-delete flag the NSF algorithm requires (paper §2.1.2). Internal
    nodes hold separator keys and child page ids. Space is accounted in
    bytes against the page capacity. Leaves carry a high key (exclusive
    upper bound) and a right-sibling pointer, which the remembered-path
    insertion fast path revalidates against.

    A leaf holds its entries in the format of its own page image: one
    byte buffer of [<8-byte kv length, kv, RID page, RID slot, flag
    byte>] records back to back in key order, with an offset and a
    cached key prefix per entry for the binary search. That layout is
    known only to this module: {!encode_node} of a leaf is a header plus
    one blit, {!decode_node} one validating pass plus one blit, and
    callers reach entries through the accessors below, which compare an
    entry with a key in place and build an [Ikey.t] only on
    {!leaf_key}. *)

open Oib_util

type leaf

type internal = {
  mutable seps : Ikey.t array; (* nc - 1 separators *)
  mutable children : int array; (* nc child page ids *)
  mutable nc : int;
  mutable ibytes : int;
}

type node = Leaf of leaf | Internal of internal

type Oib_storage.Page.payload += Node of node

val leaf_entry_cost : Ikey.t -> int
val sep_cost : Ikey.t -> int

val new_leaf : unit -> leaf
val new_internal : children:int array -> seps:Ikey.t array -> internal

val encode_node : node -> string
(** Binary node image. *)

val decode_node : string -> node
(** Raises [Oib_util.Binc.Corrupt] on malformed bytes. *)

val kind : Oib_storage.Page.kind
(** The B+-tree node page format: a [Node] payload and its
    {!encode_node}d image. *)

val of_payload : Oib_storage.Page.payload -> node
val leaf_of_payload : Oib_storage.Page.payload -> leaf

(* --- leaf accessors --- *)

val leaf_n : leaf -> int
(** Number of entries. *)

val leaf_bytes : leaf -> int
(** Bytes the entries charge against the page capacity. *)

val leaf_next : leaf -> int
(** Right sibling page id, or -1. *)

val leaf_set_next : leaf -> int -> unit

val leaf_high : leaf -> Ikey.t option
(** Exclusive upper bound; [None] is +inf. *)

val leaf_set_high : leaf -> Ikey.t option -> unit

val leaf_key : leaf -> int -> Ikey.t
(** Entry [i], built as a fresh [Ikey.t]. *)

val leaf_pseudo : leaf -> int -> bool
(** Entry [i]'s pseudo-delete flag. *)

val leaf_get : leaf -> int -> Ikey.t * bool

val leaf_compare : leaf -> int -> Ikey.t -> int
(** [Ikey.compare] of entry [i] (below {!leaf_n}) with the key, decided
    in place. *)

val leaf_compare_kv : leaf -> int -> Ikey.t -> int
(** [Ikey.compare_kv] of entry [i] (below {!leaf_n}) with the key,
    decided in place. *)

(* --- leaf operations --- *)

val leaf_find : leaf -> Ikey.t -> int option
(** Position of the exact entry, if present (any flag state). *)

val leaf_lower_bound : leaf -> Ikey.t -> int
(** Index of the first entry >= key (= [n] if none). *)

val leaf_fits : leaf -> capacity:int -> Ikey.t -> bool

val leaf_insert : leaf -> Ikey.t -> pseudo:bool -> unit
(** Insert at sorted position. The entry must not already exist and must
    fit. *)

val leaf_insert_at : leaf -> int -> Ikey.t -> pseudo:bool -> unit
(** {!leaf_insert} at [i], the key's {!leaf_lower_bound}, for a caller
    that has already searched for the key. *)

val leaf_append : leaf -> Ikey.t -> pseudo:bool -> unit
(** Append a key strictly greater than the current last entry (bulk-load
    fast path; no search, no shifting). *)

val leaf_set_flag : leaf -> int -> bool -> unit
val leaf_remove_at : leaf -> int -> unit

val separator : before:Ikey.t -> first:Ikey.t -> Ikey.t
(** Shortest key that still separates [before] (last entry going left)
    from [first] (first entry going right): prefix truncation for higher
    internal-node fanout. *)

val leaf_split_half : leaf -> leaf * Ikey.t
(** Standard split: move the upper half to a fresh leaf; returns (new right
    leaf, separator = right's first key). Sibling/high links are fixed up
    by the caller, which owns the page ids. *)

val leaf_split_above : leaf -> Ikey.t -> leaf * Ikey.t
(** NSF's specialized IB split (§2.3.1): move only the entries strictly
    greater than the given key (inserted earlier by transactions) to the
    new leaf, mimicking a bottom-up build. The caller must ensure at least
    one such entry exists. *)

(* --- internal operations --- *)

val child_for : internal -> Ikey.t -> int
(** Index of the child to descend into for this key. *)

val internal_fits : internal -> capacity:int -> Ikey.t -> bool

val internal_insert_sep : internal -> at:int -> Ikey.t -> right:int -> unit
(** After child [at] split with separator [sep] and new right page id,
    record the new child. *)

val internal_append : internal -> Ikey.t -> child:int -> unit
(** Append a rightmost separator + child (bulk-load growth; the paper's
    split "in which no keys are moved"). *)

val internal_split_half : internal -> internal * Ikey.t
(** Split an internal node; the middle separator is pushed up. *)
