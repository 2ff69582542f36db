(** Minimal binary encoding helpers shared by the page and node codecs
    (the WAL has its own framing in [Oib_wal.Log_codec]). All integers are
    fixed-width little-endian; strings are length-prefixed. *)

type writer = Buffer.t

type reader

val writer : unit -> writer
val contents : writer -> string

val w_u8 : writer -> int -> unit
val w_i64 : writer -> int -> unit
val w_bool : writer -> bool -> unit
val w_str : writer -> string -> unit

val reader : string -> reader
val r_u8 : reader -> int
val r_i64 : reader -> int
val r_bool : reader -> bool
val r_str : reader -> string

val r_count : reader -> min_bytes:int -> int
(** An element count, each element taking at least [min_bytes] of what
    is left of the image: a count the image cannot hold is rejected
    before anything is allocated for it. *)

val at_end : reader -> bool

exception Corrupt of string
(** Raised by every reader on malformed bytes: truncation, an out-of-range
    integer, a bool byte other than 0 or 1, or a length or count larger
    than the rest of the image. *)
