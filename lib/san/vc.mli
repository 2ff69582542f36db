(** Vector clocks over fiber ids.

    The sanitizer's happens-before relation: each fiber owns one
    component; synchronization edges (spawn, resume, latch and lock
    release/acquire) join clocks. Fiber ids restart at every engine
    incarnation, so clocks are only compared within one run — the
    [Run_start] and [Epoch] events clear them. *)

type t

val empty : t

val get : int -> t -> int
(** Component for a fiber; 0 when never ticked. *)

val tick : int -> t -> t
(** Increment a fiber's own component. *)

val join : t -> t -> t
(** Pointwise maximum. *)

val leq : t -> t -> bool
(** [leq a b] — every component of [a] is [<=] the same component of
    [b]; the happens-before test for an access snapshot [a] against a
    fiber's current clock [b]. *)

val to_string : t -> string
(** ["{f0:3 f2:1}"] — for report messages only. *)
