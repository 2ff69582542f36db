(** Ring-buffer flight recorder.

    Retains the last [capacity] stamped events; dumped on deadlock, crash,
    or consistency-oracle failure so a post-mortem sees the precise tail
    of history (who held what, which phase the builder was in, which lock
    blocked) without paying for full tracing. *)

type t

val create : capacity:int -> t
val record : t -> Event.stamped -> unit

val contents : t -> Event.stamped list
(** Retained events, oldest first. *)

val copy : t -> t
(** A detached copy of the ring: later {!record}s into either leave the
    other as it was. *)

val capacity : t -> int

val total : t -> int
(** Events ever recorded (>= [size] once the ring has wrapped). *)

val size : t -> int
(** Events currently retained (<= capacity). *)

val dump : ?reason:string -> t -> string
(** Human-readable multi-line dump of {!contents}. *)
