(** Buffered pages.

    A page couples a payload (heap slots, index node, …) with the physical
    machinery the algorithms depend on: a latch for short-term physical
    consistency, a page_LSN driving the write-ahead rule and redo, and a
    dirty flag for the buffer pool. Payloads are an open variant so higher
    layers (heap, B-tree, side-file) can define their own page formats
    without this module knowing them; each page carries its format's
    {!kind}, the codec between its payload and the image the stable store
    holds. *)

type payload = ..

type kind = {
  role : string;  (** names the page latch in the sanitizer's latch graph *)
  encode : payload -> string;
  decode : string -> payload;  (** raises [Oib_util.Binc.Corrupt] *)
}
(** One page format: the owning structure's name, and the codec between
    a payload and its stable image. *)

type t = {
  id : int;
  kind : kind;
  latch : Oib_sim.Latch.t;
  mutable lsn : Oib_wal.Lsn.t;
  mutable payload : payload;
  mutable dirty : bool;
  mutable no_steal : bool;
      (** Excluded from background (steal) write-back; written only by
          explicit flushes. Index pages are no-steal between sharp index
          checkpoints — that is what keeps the stable index image
          consistent with its checkpoint LSN, making logical index redo
          sound without physically logging page splits. *)
}

val make :
  kind:kind ->
  id:int ->
  sched:Oib_sim.Sched.t ->
  metrics:Oib_sim.Metrics.t ->
  payload:payload ->
  t

val set_lsn : t -> Oib_wal.Lsn.t -> unit
(** Record that the log record with this LSN modified the page; also marks
    the page dirty. *)

val mark_dirty : t -> unit
