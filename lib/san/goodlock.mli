(** Goodlock-style potential-deadlock prediction.

    Accumulates the runtime acquisition-order graph: holding a latch of
    role [a] (or a lock) while acquiring one of role [b] records the
    edge [a -> b]. Nodes are latch roles (one per page format) plus
    the two lock-manager granularities ("lock:record", "lock:table").
    Self-edges are exempt — hand-over-hand crabbing inside one structure
    is ordered by position, not by role.

    Unlike the shadow state, the graph survives [Epoch] boundaries: a
    cycle assembled from edges observed in *different* runs is exactly
    the potential deadlock that never manifested. Cycle extraction is
    deterministic (sorted nodes, sorted adjacency). *)

type t

val create : unit -> t

val add_edge : t -> src:string -> dst:string -> unit
(** Record [src -> dst]. Self-edges are dropped. *)

val edges : t -> (string * string) list
(** Sorted, deduplicated. *)

val cycles : t -> string list list
(** Elementary cycles found by DFS, each reported once under a canonical
    key; deterministic across runs. *)
