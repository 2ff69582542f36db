(** Tournament (loser) tree merger.

    The merge phase of the sort (paper §5.2): N leaf nodes, each fed from
    exactly one input stream; each pop reports which stream the winner came
    from, so the caller can maintain the per-stream counter vector the
    restartable merge checkpoints. Ties between streams break toward the
    lower stream index, making merges of equal keys stable. Each leaf's
    head key and its cached prefix sit in flat arrays, read once when the
    key is pulled, so a match between keys whose prefixes differ is one
    int compare. *)

open Oib_util

type t

val make :
  ?charge:Oib_sim.Metrics.target ->
  streams:(unit -> Ikey.t option) array -> unit -> t
(** [make ~streams] builds the tree; [streams.(i) ()] yields the next key
    of stream [i] ([None] = exhausted). Streams are pulled lazily: once to
    prime each leaf, then once per key contributed. Key comparisons are
    charged to [charge] as [Sort_compares] when given. *)

val pop : t -> (Ikey.t * int) option
(** Smallest remaining key and the index of the stream it came from. *)

val drain : t -> (Ikey.t * int) list
