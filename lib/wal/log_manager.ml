module Trace = Oib_obs.Trace
module Event = Oib_obs.Event

(* The log buffer is a row of byte segments, oldest first. [append]
   copies each frame to the end of the last segment, or opens a new one
   when the frame does not fit there, so a frame never straddles two
   segments; a frame larger than [segment_size] gets a segment of its
   own size. A segment that is full or has a successor is sealed:
   nothing writes into it again, which is what lets a crashed log and
   its survivor share it. The durable position ([dseg], [doff]) splits the
   frames into the durable prefix and the volatile tail; [flush] only
   moves it. *)
let segment_size = 65_536

type segment = { buf : Bytes.t; mutable fill : int (* bytes written *) }

type t = {
  metrics : Oib_sim.Metrics.t;
  trace : Trace.t;
  mutable next_lsn : Lsn.t;
  mutable segs : segment array; (* slots at and past [nsegs] are spare *)
  mutable nsegs : int;
  mutable head : int; (* offset of the first retained frame in segs.(0) *)
  (* The durable position: every frame in a segment before [dseg], and
     those before offset [doff] in segment [dseg], are durable.
     [dseg <= nsegs]; [dseg = nsegs] only with [doff = 0]. *)
  mutable dseg : int;
  mutable doff : int;
  mutable durable_lsn : Lsn.t;
  mutable durable_bytes : int; (* retained frame bytes before the position *)
  mutable unflushed : int; (* frame bytes past it *)
  mutable start : Lsn.t;
}

let create ?(trace = Trace.null) metrics =
  {
    metrics;
    trace;
    next_lsn = Lsn.next Lsn.nil;
    segs = [||];
    nsegs = 0;
    head = 0;
    dseg = 0;
    doff = 0;
    durable_lsn = Lsn.nil;
    durable_bytes = 0;
    unflushed = 0;
    start = Lsn.nil;
  }

(* A short tag for trace events: which family of record was appended. *)
let kind_of_body : Log_record.body -> string = function
  | Begin -> "begin"
  | Commit -> "commit"
  | Abort -> "abort"
  | End -> "end"
  | Heap _ -> "heap"
  | Index_key _ -> "index_key"
  | Index_bulk_insert _ -> "index_bulk_insert"
  | Sidefile_append _ -> "sidefile_append"
  | Clr _ -> "clr"
  | Build_start _ -> "build_start"
  | Build_done _ -> "build_done"
  | Heap_extend _ -> "heap_extend"
  | Create_table _ -> "create_table"
  | Create_index _ -> "create_index"
  | Drop_index _ -> "drop_index"

let push t seg =
  if t.nsegs = Array.length t.segs then begin
    let grown = Array.make (max 8 (2 * t.nsegs)) seg in
    Array.blit t.segs 0 grown 0 t.nsegs;
    t.segs <- grown
  end;
  t.segs.(t.nsegs) <- seg;
  t.nsegs <- t.nsegs + 1

(* The segment the next [size]-byte frame goes into. *)
let tail_for t size =
  let last = t.nsegs - 1 in
  if last >= 0 && t.segs.(last).fill + size <= Bytes.length t.segs.(last).buf
  then t.segs.(last)
  else begin
    let seg = { buf = Bytes.create (max segment_size size); fill = 0 } in
    push t seg;
    seg
  end

let append t ~txn ~prev_lsn body =
  let lsn = t.next_lsn in
  t.next_lsn <- Lsn.next lsn;
  let r = { Log_record.lsn; txn; prev_lsn; body } in
  let size = Log_codec.frame_size r in
  let seg = tail_for t size in
  Log_codec.blit_frame seg.buf ~pos:seg.fill;
  seg.fill <- seg.fill + size;
  t.unflushed <- t.unflushed + size;
  Oib_sim.Metrics.add t.metrics Log_records 1;
  Oib_sim.Metrics.add t.metrics Log_bytes size;
  if Trace.tracing t.trace then
    Trace.emit t.trace
      (Event.Log_append
         { lsn = Lsn.to_int lsn; kind = kind_of_body body; bytes = size;
           txn = Option.value txn ~default:(-1) });
  lsn

let flush t ~upto =
  if Lsn.( > ) upto t.durable_lsn then begin
    Oib_sim.Metrics.add t.metrics Log_flushes 1;
    let span =
      if Trace.tracing t.trace then
        Trace.span_begin t.trace ~cat:"logflush"
          ~name:("flush:" ^ string_of_int (Lsn.to_int upto))
      else 0
    in
    if Trace.tracing t.trace then
      Trace.emit t.trace (Event.Log_flush { upto = Lsn.to_int upto });
    let rec advance () =
      if t.dseg < t.nsegs then begin
        let seg = t.segs.(t.dseg) in
        if t.doff < seg.fill then begin
          let lsn = Log_codec.frame_lsn seg.buf ~pos:t.doff in
          if Lsn.( <= ) lsn upto then begin
            let n = Log_codec.frame_len seg.buf ~pos:t.doff in
            t.doff <- t.doff + n;
            t.durable_bytes <- t.durable_bytes + n;
            t.unflushed <- t.unflushed - n;
            t.durable_lsn <- lsn;
            advance ()
          end
        end
        else if t.dseg + 1 < t.nsegs then begin
          t.dseg <- t.dseg + 1;
          t.doff <- 0;
          advance ()
        end
      end
    in
    advance ();
    Trace.span_end t.trace span
  end

let flushed_lsn t = t.durable_lsn

let last_lsn t = Lsn.of_int (Lsn.to_int t.next_lsn - 1)

let flush_all t = if t.unflushed > 0 then flush t ~upto:(last_lsn t)

(* Decode the retained frames, segment by segment, up to [stop i seg]
   in segment [i]. *)
let decode_upto t stop =
  let acc = ref [] in
  for i = t.nsegs - 1 downto 0 do
    let seg = t.segs.(i) in
    let limit = stop i seg in
    let rec go pos frames =
      match Log_codec.decode_bytes seg.buf ~pos ~limit with
      | Some (r, next) -> go next (r :: frames)
      | None -> List.rev frames
    in
    acc := go (if i = 0 then t.head else 0) [] @ !acc
  done;
  !acc

let durable_records t =
  decode_upto t (fun i seg ->
      if i < t.dseg then seg.fill else if i = t.dseg then t.doff else 0)

let all_records t = decode_upto t (fun _ seg -> seg.fill)

(* The survivor shares every segment before the one that holds the last
   durable frame: those are sealed and wholly durable. That one may still
   take appends in [t], so its durable prefix is copied, and the
   survivor appends only into the copy or past it. *)
let crash t =
  let last, upto =
    if t.doff > 0 || t.dseg = 0 then (t.dseg, t.doff)
    else (t.dseg - 1, t.segs.(t.dseg - 1).fill)
  in
  let survivor =
    {
      metrics = t.metrics;
      trace = t.trace;
      next_lsn = Lsn.next t.durable_lsn;
      segs = Array.sub t.segs 0 last;
      nsegs = last;
      head = t.head;
      dseg = last;
      doff = 0;
      durable_lsn = t.durable_lsn;
      durable_bytes = t.durable_bytes;
      unflushed = 0;
      start = t.start;
    }
  in
  if upto > 0 then begin
    let seg = t.segs.(last) in
    let buf = Bytes.create (Bytes.length seg.buf) in
    Bytes.blit seg.buf 0 buf 0 upto;
    push survivor { buf; fill = upto };
    survivor.doff <- upto
  end;
  survivor

let durable_bytes t = t.durable_bytes

let unflushed_bytes t = t.unflushed

(* Durable records are in LSN order, so the retained suffix starts at the
   first frame at or above [below]. The frames before it are cut in
   place; only the segments wholly before it are dropped. *)
let truncate t ~below =
  let rec first_kept i off cut =
    if i = t.dseg && off >= t.doff then (i, off, cut)
    else
      let seg = t.segs.(i) in
      if off >= seg.fill then first_kept (i + 1) 0 cut
      else if Lsn.( < ) (Log_codec.frame_lsn seg.buf ~pos:off) below then
        let n = Log_codec.frame_len seg.buf ~pos:off in
        first_kept i (off + n) (cut + n)
      else (i, off, cut)
  in
  let i, off, cut = first_kept 0 t.head 0 in
  t.segs <- Array.sub t.segs i (t.nsegs - i);
  t.nsegs <- t.nsegs - i;
  t.dseg <- t.dseg - i;
  t.head <- off;
  t.durable_bytes <- t.durable_bytes - cut;
  if Lsn.( > ) below t.start then t.start <- below;
  cut

let start_lsn t = t.start
