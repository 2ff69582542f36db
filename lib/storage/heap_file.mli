(** Heap files: the data pages of one table.

    Pages are appended in allocation order; the page list is forced to the
    durable metadata store so the file can be reopened after a crash. The
    index builder scans pages in this order, remembering the last page that
    existed when the scan started (§2.3.1: records in later extensions are
    indexed directly by the transactions that insert them).

    Physical record operations here do no logging and no locking — the
    transaction layer is responsible for both, holding the page X latch
    returned by {!prepare_insert} / {!latch_rid} across modify + log +
    set-page-LSN, per Figures 1 and 2 of the paper. *)

open Oib_util

type t

val create : Buffer_pool.t -> Durable_kv.t -> table_id:int -> page_capacity:int -> t
(** Create an empty file and register it durably. *)

val open_existing : Buffer_pool.t -> Durable_kv.t -> table_id:int -> t
(** Reopen after a crash from durable metadata. Raises [Not_found] if the
    table was never created. *)

val table_id : t -> int
val page_ids : t -> int list
(** Ascending allocation order. *)

val page_count : t -> int
(** O(1). *)

val last_page_id : t -> int option

val owns : t -> int -> bool
(** Is the page id one of this file's pages? O(1). *)

val page : t -> int -> Page.t
(** Fetch by page id (must belong to this file). *)

val ensure_page_registered : t -> int -> unit
(** Recovery: register a page id found in the log (a [Heap_extend] record)
    that the (possibly restored) metadata does not know about. O(1) when
    the page is already known or newer than every known page. A page
    registered here does not join the free-space inventory; first-fit
    still finds it. *)

val prepare_insert : t -> Record.t -> Page.t * int
(** Find a page with room, X-latch it, reserve a slot: the free-space
    inventory first (pages noted free, newest first, then the pages from
    the last first-fit hit onward, dropping those that cannot take the
    record), then first-fit over every page in allocation order, else
    extend the file. Pages whose free-space bound rules the record out are
    passed over without being fetched, so the cost does not grow with the
    file, yet every placement is the one a page-by-page walk would make.
    The caller completes the insert with [Heap_page.put] + logging +
    [Page.set_lsn], then releases the latch — or cancels with
    [Heap_page.unreserve] followed by {!note_gain}. *)

val note_gain : t -> int -> unit
(** Report that a page of this file may have gained free bytes (a
    reservation cancelled, a record shortened, removed, or undone). Every
    such change must be reported before the fiber can next suspend:
    placement skips a page whose bound says the record cannot fit, and an
    unreported gain would make it skip a page that has room. Ignored for
    pages the file does not own. *)

val note_free : t -> int -> unit
(** A record on the page was deleted: {!note_gain}, and put the page at
    the head of the free-space inventory unless it is already there. *)

val latch_rid : t -> Rid.t -> Oib_sim.Latch.mode -> Page.t
(** Latch the page holding [rid] in the given mode and return it. *)

val read_record : t -> Rid.t -> Record.t option
(** S-latched read of one record. *)

val scan_pages : t -> upto:int -> (Page.t -> unit) -> unit
(** Visit pages in allocation order up to page id [upto] inclusive.
    Latching and read accounting are the visitor's business (IB S-latches
    only during key extraction, and counts only pages it actually
    extracts). *)

val record_count : t -> int
(** Total records currently in the file (test/oracle helper; latch-free). *)

val iter_slots : t -> (Heap_page.t -> Rid.t -> unit) -> unit
(** [iter_slots t f] calls [f page rid] for every occupied RID in page and
    slot order, [page] the heap page holding it, without building the
    records (oracle helper; latch-free). *)

val rids : t -> Rid.t list
(** Every occupied RID in page and slot order (latch-free). *)
