(** Buffer pool with steal / no-force semantics.

    Dirty pages may be written back before their transaction commits
    (*steal*) and need not be written at commit (*no-force*); the
    write-ahead rule — force the log up to a page's page_LSN before writing
    the page — is enforced here. A simulated crash discards the pool; a new
    pool over the same stable store and the survivor log is what restart
    recovery starts from. *)

type t

val create :
  sched:Oib_sim.Sched.t ->
  metrics:Oib_sim.Metrics.t ->
  log:Oib_wal.Log_manager.t ->
  store:Stable_store.t ->
  t

val sched : t -> Oib_sim.Sched.t
val metrics : t -> Oib_sim.Metrics.t
val log : t -> Oib_wal.Log_manager.t
val store : t -> Stable_store.t

val new_page : t -> kind:Page.kind -> payload:Page.payload -> Page.t
(** Allocate a fresh page (monotonically increasing id) of the given
    format. *)

val get : t -> kind:Page.kind -> int -> Page.t
(** Fetch a page; on a miss, decodes its stable image with [kind]'s codec
    (counted as a page read). Raises [Not_found] if the page exists
    nowhere, and [Oib_util.Binc.Corrupt] — caching nothing — if the image
    does not decode. *)

val install : t -> kind:Page.kind -> int -> payload:Page.payload -> Page.t
(** Recreate a page under a *specific* id with fresh contents — used by
    redo when a page named in the log was never written to stable storage
    before the crash. Raises [Invalid_argument] if the page exists. *)

val reserve_page_ids : t -> upto:int -> unit
(** Never hand out ids [<= upto] from {!new_page}. A fresh pool seeds its
    allocator from the stable store's highest *flushed* page, but the
    durable log may name heap pages above that (logged, never written
    back). Recovery must reserve those before any allocation, or a
    recovery-time [new_page] (e.g. replaying the [Create_index] of a later
    dropped build) squats on an id redo is about to reinstall. *)

val mem : t -> int -> bool

val flush_page : t -> Page.t -> unit
(** Write one page back (WAL rule enforced): its kind encodes the payload
    once into the image the stable store keeps. Clears its dirty bit. *)

val unsafe_steal_without_wal : t -> Page.t -> unit
(** Test-only: write the page back {e without} forcing the log first — a
    deliberate write-ahead-rule violation. Exists so the oib-san WAL
    verifier's steal-before-flush check can be exercised; never called
    from library code. *)

val flush_all : t -> unit
(** Flush every dirty page except [no_steal] ones (a system checkpoint;
    index pages are imaged by their tree's own sharp checkpoint). *)

val flush_some : t -> Oib_util.Rng.t -> float -> unit
(** Flush each dirty page with the given probability — simulates the
    background writer having *stolen* an arbitrary subset of dirty pages
    before a crash, which is what makes undo necessary. Pages marked
    [no_steal] are skipped. *)

val evict : t -> int -> unit
(** Remove a page from the cache only; the stable copy (if any) remains.
    Used when abandoning volatile page state (e.g. SF's reset of index
    pages allocated after the last index checkpoint). *)

val drop : t -> int -> unit
(** Discard a page from pool and stable store (file deallocation). *)

val dirty_count : t -> int
val cached_count : t -> int
