(** Sliding-window quantile trackers over virtual time.

    A [Window.t] is a ring of [slots] fixed-bucket {!Hist}s. Observations
    land in the head slot; {!rotate} — called by the sampler once per
    tick — retires the oldest slot and opens a fresh head. Percentiles
    merge all live slots, so right after a rotation the window covers the
    last [slots] ticks of observations and each tick's worth of data ages
    out wholesale [slots] ticks later. Memory and update cost are
    independent of the observation count, which is what makes an online
    p99 over "the last N ticks" cheap enough to read on every tick.

    Also provides {!Ewma}, an exponentially weighted moving average of an
    event rate fed with a monotonic counter total once per tick. *)

type t

val create : slots:int -> unit -> t
(** Slots use {!Hist.default_bounds}. [Invalid_argument] if [slots < 1]. *)

val observe : t -> int -> unit
(** Record one observation into the current (head) slot. *)

val rotate : t -> unit
(** Advance the ring one tick: the oldest slot's observations are
    discarded and a fresh head slot opens. *)

val rotations : t -> int
(** Total [rotate] calls since creation. *)

val merged : t -> Hist.t
(** Fresh histogram merging every live slot (the full window). *)

val count : t -> int
(** Observations currently inside the window. *)

val percentile : t -> float -> float
(** [percentile t p], [p] in [0,1], over the merged window; 0.0 when the
    window holds no observations. *)

(** EWMA event rates (events per scheduler step). *)
module Ewma : sig
  type t

  val create : ?alpha:float -> unit -> t
  (** [alpha] in (0,1], default 0.3: weight of the newest tick. The first
      tick primes the rate directly. *)

  val observe : t -> total:int -> steps:int -> unit
  (** Feed the current value of a monotonic counter. The first call only
      records the baseline; each later call is one tick covering [steps]
      scheduler steps during which [total - previous] events occurred
      (ignored if [steps <= 0], though the baseline still moves). *)

  val started : t -> bool
  (** A baseline has been recorded (at least one {!observe}). *)

  val rate : t -> float
  (** Smoothed events per step (0.0 before the first tick). *)
end
