(** Minimal binary encoding helpers shared by the page, node and WAL
    codecs.

    Two integer encodings live side by side. Page and node images use
    fixed-width little-endian integers ({!w_i64}) and strings prefixed by
    one ({!w_str}). Log frames use varints: {!w_uvar} writes LEB128, seven
    bits a byte with the low group first, over the int's 63 bits taken as
    unsigned (0–127 take one byte, a negative int nine); a signed int is
    written as the varint of its {!zigzag} image, so that a small
    magnitude of either sign is short (−64..63 take one byte). {!w_uvars}
    and {!r_uvars} write and read a run of varints in one call.
    {!w_vstr} prefixes a string by a varint length, and {!w_front}
    front-codes it against the string before it.

    A fixed writer fills one buffer of the exact image size its caller
    computed, so a page image is built with no growth and no final copy;
    a scratch writer grows as it is written and is reused across images
    of unknown size. *)

type writer

type reader = private { s : string; mutable pos : int; mutable limit : int }
(** Reads [s] from [pos] up to [limit]. The fields are exposed for
    reading only, so a decoder can test its position without a call. *)

val writer : int -> writer
(** A writer for an image of exactly this many bytes. Writing past the
    end raises [Invalid_argument]. *)

val scratch : int -> writer
(** A writer that starts with room for this many bytes and doubles its
    buffer when a write does not fit. *)

val contents : writer -> string
(** The bytes written. When they fill the writer exactly, its buffer is
    handed over without a copy and the writer must not be used again. *)

val written : writer -> int
(** Offset of the next byte to write. *)

val buffer : writer -> Bytes.t
(** The writer's current buffer; a scratch writer replaces it when it
    grows, so read it only after the last write. *)

val rewind : writer -> int -> unit
(** Move the write offset to this position of the buffer. *)

val w_u8 : writer -> int -> unit
val w_i64 : writer -> int -> unit
val w_bool : writer -> bool -> unit
val w_str : writer -> string -> unit

val w_blit : writer -> Bytes.t -> int -> int -> unit
(** [w_blit w b off len] copies [len] raw bytes of [b] from [off]. *)

val str_size : string -> int
(** Bytes {!w_str} writes for this string. *)

val w_uvar : writer -> int -> unit

val w_uvars : writer -> int array -> int -> unit
(** [w_uvars w a n] writes [a.(0)] to [a.(n - 1)], each as {!w_uvar}
    would. *)

val zigzag : int -> int
(** Maps 0, −1, 1, −2, ... to 0, 1, 2, 3, ...: the unsigned value a
    signed int is written as. *)

val w_vstr : writer -> string -> unit

val w_front : writer -> prev:string -> string -> unit
(** [w_front w ~prev s] writes the length of the prefix [s] shares with
    [prev], then the rest of [s] as {!w_vstr} would. *)

val w_len_at : writer -> int -> int
(** [w_len_at w off] prefixes what was written from [off + 1] on with
    its length, a varint written at [off]: a length prefix written once
    what it counts is known. The caller leaves one byte for it; a longer
    varint moves those bytes up to make room. Returns the size of the
    prefix and what it counts. *)

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

val r_uvar : reader -> int
(** A varint as {!w_uvar} writes it; an overlong encoding (a zero last
    byte after the first, or more than nine bytes) is corrupt. *)

val r_uvars : reader -> int array -> int -> unit
(** [r_uvars r a n] reads [n] consecutive varints, as {!r_uvar} would,
    into [a.(0)] to [a.(n - 1)]: a run of fields for one call. *)

val unzigzag : int -> int
(** The inverse of {!zigzag}. *)

val uvar_at : Bytes.t -> int -> int
(** [uvar_at b pos] is the varint written at [pos], read without the
    checks of {!r_uvar}: for a caller that wrote it there itself. *)

val uvar_end : Bytes.t -> int -> int
(** [uvar_end b pos] is the offset just past the varint written at
    [pos], unchecked as {!uvar_at}. *)

val block : string -> pos:int -> limit:int -> reader option
(** [block s ~pos ~limit] reads the block at [pos], a varint length as
    {!w_len_at} writes it and then the bytes it counts, and returns a
    reader over those bytes. [None] when the length or the bytes run
    past [limit]: a block cut short. Nothing at or past [limit] is
    read. *)

val r_vstr : reader -> string

val r_front : reader -> prev:string -> string
(** The string {!w_front} wrote against [prev]. *)

val pos : reader -> int
(** Offset of the next unread byte. *)

val at_end : reader -> bool
(** Whether the reader stands at its limit. *)

exception Corrupt of string
(** Raised by every reader on malformed bytes: truncation, an out-of-range
    integer, a bool byte other than 0 or 1, an overlong varint, or a
    length, shared prefix or count larger than what it refers to. *)
