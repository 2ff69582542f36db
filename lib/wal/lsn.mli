(** Log sequence numbers.

    LSNs totally order log records. Every page carries the LSN of the last
    record that changed it (page_LSN), which drives the write-ahead rule and
    redo's "has this update already been applied?" test. *)

type t

val nil : t
(** Sorts before every real LSN; the page_LSN of a never-updated page. *)

external of_int : int -> t = "%identity"
(** Conversions are identity primitives, so they cost no call. *)

external to_int : t -> int = "%identity"
val next : t -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val max : t -> t -> t
val pp : Format.formatter -> t -> unit
