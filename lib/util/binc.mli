(** Minimal binary encoding helpers shared by the page, node and WAL
    codecs. All integers are fixed-width little-endian; strings are
    length-prefixed. A writer fills one buffer of the exact image size
    its caller computed, so an image is built with no growth and no
    final copy. *)

type writer

type reader

val writer : int -> writer
(** A writer for an image of exactly this many bytes. Writing past the
    end raises [Invalid_argument]. *)

val writer_at : Bytes.t -> int -> writer
(** [writer_at b off] writes into [b] from offset [off] on, in place: the
    caller owns [b] and reads what was written there, never through
    {!contents}. Writing past the end of [b] raises [Invalid_argument]. *)

val contents : writer -> string
(** The bytes written. When they fill the writer exactly, its buffer is
    handed over without a copy and the writer must not be used again. *)

val w_u8 : writer -> int -> unit
val w_i64 : writer -> int -> unit
val w_bool : writer -> bool -> unit
val w_str : writer -> string -> unit

val w_blit : writer -> Bytes.t -> int -> int -> unit
(** [w_blit w b off len] copies [len] raw bytes of [b] from [off]. *)

val str_size : string -> int
(** Bytes {!w_str} writes for this string. *)

val reader : string -> reader
val r_u8 : reader -> int
val r_i64 : reader -> int
val r_bool : reader -> bool
val r_str : reader -> string

val r_skip_str : reader -> int
(** Validate and skip a length-prefixed string as {!r_str} would read it;
    returns its length (its bytes end at {!pos}). *)

val r_count : reader -> min_bytes:int -> int
(** An element count, each element taking at least [min_bytes] of what
    is left of the image: a count the image cannot hold is rejected
    before anything is allocated for it. *)

val pos : reader -> int
(** Offset of the next unread byte. *)

val at_end : reader -> bool

exception Corrupt of string
(** Raised by every reader on malformed bytes: truncation, an out-of-range
    integer, a bool byte other than 0 or 1, or a length or count larger
    than the rest of the image. *)
