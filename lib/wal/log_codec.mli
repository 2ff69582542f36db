(** Binary serialization of log records.

    The durable log is a byte stream; records are length-prefixed frames.
    [decode (encode r) = r] is property-tested. A truncated final frame
    (torn write at crash) is detected and dropped by {!decode_stream}. *)

val encode : Log_record.t -> string
(** Framed encoding (length prefix included). *)

val frame_size : Log_record.t -> int
(** Bytes {!encode} produces for this record, computed without encoding. *)

val encode_into : Bytes.t -> pos:int -> size:int -> Log_record.t -> unit
(** [encode_into buf ~pos ~size r] writes {!encode}'s bytes for [r] into
    [buf] at [pos], in place; [size] must be [frame_size r]. Raises
    [Invalid_argument] when they do not fit in [buf]. *)

val frame_len : Bytes.t -> pos:int -> int
(** Size, length prefix included, of the frame written at [pos]: read
    from its header, nothing decoded. *)

val frame_lsn : Bytes.t -> pos:int -> Lsn.t
(** LSN of the frame written at [pos], read from its header. *)

val decode : string -> pos:int -> (Log_record.t * int) option
(** [decode buf ~pos] decodes the frame starting at [pos]; returns the
    record and the position just past it, or [None] if the frame is
    incomplete or [pos] is at the end. Raises [Failure] on corrupt bytes. *)

val decode_bytes :
  Bytes.t -> pos:int -> limit:int -> (Log_record.t * int) option
(** {!decode} over the bytes of [buf] before [limit]: what lies at and
    past [limit] is never read. *)

val decode_stream : string -> Log_record.t list
(** All complete frames, in order; an incomplete tail is ignored. *)
