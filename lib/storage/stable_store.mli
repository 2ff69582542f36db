(** Simulated disk for pages.

    Holds each page's encoded image as of its last write-back, keyed by
    page id; a {!Page.kind} turns the image back into a payload. Contents
    survive a simulated crash; everything else (buffer pool, latches) does
    not. *)

type entry = { image : string; lsn : Oib_wal.Lsn.t }

type t

val create : unit -> t
val write : t -> int -> entry -> unit
val read : t -> int -> entry option
val mem : t -> int -> bool
val remove : t -> int -> unit
val snapshot : t -> t
(** An image copy of the whole disk — the basis of media recovery backups.
    Images are immutable strings, so copying the table is enough. *)

val page_count : t -> int
val max_page_id : t -> int
