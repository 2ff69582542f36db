(** Durable storage for sorted runs ("sorted streams", paper §5).

    A run is an append-only sequence of keys. Appends are volatile until
    [force]d — exactly the property the sort-phase and merge-phase
    checkpoints rely on ("we force to disk all those keys"). A simulated
    crash truncates every run to its forced prefix; runs themselves are
    found again by name from checkpoint metadata. *)

open Oib_util

type t
type run

val create : unit -> t

val crash : t -> t
(** Survivor store: every run truncated to its forced length. *)

val create_run : ?capacity:int -> t -> name:string -> run
(** Fresh empty run with room for [capacity] keys (default 0) before it
    grows. Raises [Invalid_argument] if the name exists. *)

val find_run : t -> string -> run
(** Raises [Not_found]. *)

val delete_run : t -> string -> unit
val run_names : t -> string list

val name : run -> string
val append : run -> Ikey.t -> unit
val force : run -> unit
(** Make the whole current contents durable. *)

val truncate : run -> int -> unit
(** Cut the run to [len] keys (restart repositioning). *)

val length : run -> int
val forced_length : run -> int
val get : run -> int -> Ikey.t
val iter_from : run -> int -> (Ikey.t -> unit) -> unit
val to_list : run -> Ikey.t list

val is_sorted : run -> bool
(** Test helper: keys in non-decreasing order. Equal neighbours are
    allowed: a key-order scan can extract the same entry twice (see
    [Btree.Bulk.add]), and the sort keeps both copies. *)
