(** Binary serialization of log records.

    The durable log is a byte stream of self-delimiting frames. A frame
    is its length, the bytes after this field, as a varint, then:

    - the LSN;
    - the body's tag;
    - [lsn - prev_lsn], zigzag-mapped ({!Oib_util.Binc.zigzag});
    - the transaction tag, 0 for none or 1, and after a 1 the id;
    - the body's fields.

    Every integer is a LEB128 varint ({!Oib_util.Binc.w_uvar}): ids,
    pages, slots, counts, string lengths, and a CLR's undo-next, written
    as [lsn - undo_next] zigzag-mapped. Tags, bools (0 or 1) and key
    states are varints below 128, one byte each. A body puts its
    integers before its strings, so a frame's integers up to its first
    string are one run that {!Oib_util.Binc.r_uvars} reads in one call:
    a heap record's page, visible indexes, op tag, RID, column count and
    side-file count, then the side-file ids and the columns; an index
    key's fields, RID, then value. An [Index_bulk_insert] holds its
    index and key count, the RIDs of its keys as one run, then its
    sorted key values front-coded: each is the length of the prefix it
    shares with the value before it, the length of the rest, then the
    rest.

    [decode (encode r) = r] is property-tested. A truncated final frame
    (torn write at crash) is detected and dropped by {!decode_stream}. *)

val encode : Log_record.t -> string
(** Framed encoding (length prefix included). *)

val frame_size : Log_record.t -> int
(** Bytes {!encode} produces for this record. The frame is encoded to
    size it, once, into a scratch buffer that {!blit_frame} copies
    from. *)

val blit_frame : Bytes.t -> pos:int -> unit
(** [blit_frame buf ~pos] copies the frame that the last {!frame_size}
    call encoded into [buf] at [pos], so a record is encoded once on its
    way into the log. {!encode} and {!key_size} reuse the scratch
    buffer: call neither in between. *)

val key_size : Oib_util.Ikey.t -> int
(** Bytes a key, value and RID, takes in a frame body outside a bulk
    record: what a side-file entry would cost in the log's encoding. *)

val frame_len : Bytes.t -> pos:int -> int
(** Size, length prefix included, of the frame written at [pos]: read
    from its header, nothing decoded. *)

val frame_lsn : Bytes.t -> pos:int -> Lsn.t
(** LSN of the frame written at [pos], read from its header. *)

val decode : string -> pos:int -> (Log_record.t * int) option
(** [decode buf ~pos] decodes the frame starting at [pos]; returns the
    record and the position just past it, or [None] if the frame is
    incomplete or [pos] is at the end. Raises [Oib_util.Binc.Corrupt] on
    malformed bytes: an unknown tag, a bool or transaction tag other
    than 0 or 1, an overlong varint, a length or count past the frame,
    or a body that does not end where the frame does. *)

val decode_bytes :
  Bytes.t -> pos:int -> limit:int -> (Log_record.t * int) option
(** {!decode} over the bytes of [buf] before [limit]: what lies at and
    past [limit] is never read. *)

val decode_stream : string -> Log_record.t list
(** All complete frames, in order; an incomplete tail is ignored. *)
