(** Structural invariant checker and clustering metric.

    Used by tests after every scenario, and by the E4 benchmark to quantify
    the paper's §4 claim that SF's bottom-up build produces a better
    clustered index than NSF under concurrent updates. *)

open Oib_util

val check : Btree.t -> string list
(** Violations of the B+-tree invariants; empty means healthy. Verifies:
    entry ordering within and across leaves, separator bounds, the leaf
    next-chain against the tree order, high keys, byte accounting,
    reachability, and the page inventory ({!Btree.page_ids}) against the
    pages reachable from the root. *)

val entries_sorted : Btree.t -> bool

val clustering : Btree.t -> float
(** Fraction of adjacent leaf pairs (in key order) whose page ids are
    increasing — i.e. a full key-order leaf scan touches pages in ascending
    physical order, the property that makes physical-sequence prefetch
    effective (§2.3.1, §4). A quiesced bottom-up build scores 1.0; trees
    with a single leaf score 1.0. *)

val avg_leaf_fill : Btree.t -> float
(** Mean used-byte fraction of leaf pages. *)

val collect_entries : Btree.t -> (Ikey.t * bool) list
(** All entries left-to-right (key, pseudo-deleted flag). *)
