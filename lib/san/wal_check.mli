(** WAL runtime verifier.

    Three checks over the event stream:

    - {b page-LSN monotonicity}: a page's LSN never moves backwards
      ([Lsn_set] events carry the old and new values; a per-page
      shadow catches regressions across page-object rebuilds). Shadow
      entries die with the page ([Page_evict]) and at run boundaries.
    - {b write-ahead rule}: at buffer-pool write-back the log must be
      durable up to the page's LSN ([flushed_lsn >= page_lsn]) — a steal
      that beats the log force is the classic WAL violation.
    - {b CLR discipline}: between a transaction's undo begin/end markers,
      every log record that transaction appends must be a compensation
      ([clr]) or the closing [abort]/[end] — undo must never append
      fresh redoable work. *)

type t

val create : report:(check:string -> site:string -> string -> unit) -> t
(** [check] is one of ["lsn-monotonic"], ["steal-before-flush"],
    ["clr-discipline"]. *)

val feed : t -> Oib_obs.Event.t -> unit
(** Irrelevant events are ignored; [Epoch] and [Run_start] clear all
    volatile state. *)
