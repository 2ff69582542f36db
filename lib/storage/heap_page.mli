(** Slotted data pages.

    Records live in numbered slots; a RID is (page id, slot). Deleting a
    record frees its slot for reuse — the paper's NSF example (§2.2.3)
    depends on a new record landing at the *same RID* as a deleted one.
    Free space is tracked byte-accurately against the page capacity.

    Layout: a page holds its own stable image. One byte buffer carries
    exactly the bytes {!encode} returns — a header <capacity, slot count,
    used bytes>, then per slot a tag (free, reserved, record) followed by
    a reservation's charge or a record's column count and its
    length-prefixed columns — and an [int] array beside it, the slot
    directory, gives each slot's offset in the buffer. The directory is
    not part of the image; {!decode} rebuilds it in the walk that
    validates the image, and then copies the image once. {!encode} is one
    copy of the buffer. Mutators shift the tail of the buffer in place and
    adjust the directory. A [Record.t] is built only when a caller asks
    for one ({!get}, {!iter}, {!records}); {!key_value} reads index key
    columns straight from the bytes. Free space is charged by the logical
    {!cost} of each record, not by its image size. *)

open Oib_util

type t

type Page.payload += Heap of t

val create : capacity:int -> t

val encode : t -> string
(** Binary page image. *)

val decode : string -> t
(** Raises [Oib_util.Binc.Corrupt] on malformed bytes. *)

val kind : Page.kind
(** The heap page format: a [Heap] payload and its {!encode}d image. *)

val copy_payload : Page.payload -> Page.payload
(** Exactly one write-back encode plus one miss decode — a page's round
    trip through the stable store. *)

val capacity : t -> int
val free_bytes : t -> int
val record_count : t -> int

val cost : Record.t -> int
(** Bytes [r] takes on a page, slot overhead included. *)

val fits : t -> Record.t -> bool
(** Could [r] be inserted (reusing a free slot or opening a new one)?
    Exactly [cost r <= free_bytes t]. *)

val reserve : t -> Record.t -> int
(** Pick and reserve a slot for [r] (lowest free slot first, else a new
    slot). Raises [Invalid_argument] if it does not fit. The slot is marked
    occupied-pending; complete with {!put}. *)

val unreserve : t -> int -> unit
(** Cancel a reservation (e.g. the conditional lock on the chosen RID was
    denied and the inserter moves elsewhere). *)

val put : t -> int -> Record.t -> unit
(** Store [r] at [slot] (insert into a reserved/free slot, or overwrite). *)

val occupied : t -> int -> bool
(** Does [slot] hold a record? *)

val get : t -> int -> Record.t option
(** A fresh record read from the page's bytes. *)

val key_value : t -> int -> int list -> string
(** [key_value t slot cols] is [Record.key_value r cols] for the record
    [r] at [slot], read from the page's bytes without building [r]: the
    result is one fresh string. Raises [Invalid_argument] if [slot] holds
    no record or a column position is out of range. *)

val remove : t -> int -> unit
(** Free the slot. No-op if already free. *)

val iter : t -> (int -> Record.t -> unit) -> unit
(** Visit occupied slots in ascending slot order. *)

val iter_slots : t -> (int -> unit) -> unit
(** {!iter} without building the records. *)

val records : t -> (int * Record.t) list

val of_payload : Page.payload -> t
(** Raises [Invalid_argument] on a non-heap payload. *)
