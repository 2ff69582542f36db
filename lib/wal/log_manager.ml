module Trace = Oib_obs.Trace
module Event = Oib_obs.Event

type t = {
  metrics : Oib_sim.Metrics.t;
  trace : Trace.t;
  mutable next_lsn : Lsn.t;
  mutable durable : Buffer.t;
  mutable durable_lsn : Lsn.t;
  mutable start : Lsn.t;
  mutable volatile : (Log_record.t * string) list; (* newest first *)
  mutable volatile_bytes : int; (* encoded bytes awaiting flush *)
  by_lsn : (int, Log_record.t) Hashtbl.t;
}

let create ?(trace = Trace.null) metrics =
  {
    metrics;
    trace;
    next_lsn = Lsn.next Lsn.nil;
    durable = Buffer.create 4096;
    durable_lsn = Lsn.nil;
    start = Lsn.nil;
    volatile = [];
    volatile_bytes = 0;
    by_lsn = Hashtbl.create 1024;
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
  | Index_state _ -> "index_state"

let append t ~txn ~prev_lsn body =
  let lsn = t.next_lsn in
  t.next_lsn <- Lsn.next lsn;
  let record = { Log_record.lsn; txn; prev_lsn; body } in
  let bytes = Log_codec.encode record in
  t.volatile <- (record, bytes) :: t.volatile;
  t.volatile_bytes <- t.volatile_bytes + String.length bytes;
  Hashtbl.replace t.by_lsn (Lsn.to_int lsn) record;
  Oib_sim.Metrics.add t.metrics Log_records 1;
  Oib_sim.Metrics.add t.metrics Log_bytes (String.length bytes);
  if Trace.tracing t.trace then
    Trace.emit t.trace
      (Event.Log_append
         { lsn = Lsn.to_int lsn; kind = kind_of_body body;
           bytes = String.length bytes;
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
    (* volatile is newest-first; move the prefix with lsn <= upto to the
       durable buffer, oldest first. *)
    let to_keep, to_flush =
      List.partition
        (fun ((r : Log_record.t), _) -> Lsn.( > ) r.lsn upto)
        t.volatile
    in
    List.iter
      (fun ((r : Log_record.t), bytes) ->
        Buffer.add_string t.durable bytes;
        t.volatile_bytes <- t.volatile_bytes - String.length bytes;
        if Lsn.( > ) r.lsn t.durable_lsn then t.durable_lsn <- r.lsn)
      (List.rev to_flush);
    t.volatile <- to_keep;
    Trace.span_end t.trace span
  end

let flush_all t =
  match t.volatile with
  | [] -> ()
  | ((newest, _) :: _) -> flush t ~upto:newest.Log_record.lsn

let flushed_lsn t = t.durable_lsn

let last_lsn t = Lsn.of_int (Lsn.to_int t.next_lsn - 1)

let durable_records t = Log_codec.decode_stream (Buffer.contents t.durable)

let crash t =
  let survivor =
    {
      metrics = t.metrics;
      trace = t.trace;
      next_lsn = Lsn.next t.durable_lsn;
      durable = Buffer.create (Buffer.length t.durable);
      durable_lsn = t.durable_lsn;
      start = t.start;
      volatile = [];
      volatile_bytes = 0;
      by_lsn = Hashtbl.create 1024;
    }
  in
  Buffer.add_buffer survivor.durable t.durable;
  List.iter
    (fun (r : Log_record.t) ->
      Hashtbl.replace survivor.by_lsn (Lsn.to_int r.lsn) r)
    (durable_records survivor);
  survivor

let all_records t =
  durable_records t @ List.rev_map (fun (r, _) -> r) t.volatile

let record_at t lsn = Hashtbl.find_opt t.by_lsn (Lsn.to_int lsn)

let durable_bytes t = Buffer.length t.durable

let unflushed_bytes t = t.volatile_bytes

let truncate t ~below =
  let before = Buffer.length t.durable in
  let keep =
    List.filter
      (fun (r : Log_record.t) -> Lsn.( >= ) r.lsn below)
      (durable_records t)
  in
  let fresh = Buffer.create (max 4096 before) in
  List.iter
    (fun (r : Log_record.t) ->
      Buffer.add_string fresh (Log_codec.encode r);
      Hashtbl.remove t.by_lsn (Lsn.to_int r.lsn))
    keep;
  (* re-register kept records; drop everything below the new start *)
  Hashtbl.iter
    (fun lsn _ -> if lsn < Lsn.to_int below then Hashtbl.remove t.by_lsn lsn)
    (Hashtbl.copy t.by_lsn);
  List.iter
    (fun (r : Log_record.t) -> Hashtbl.replace t.by_lsn (Lsn.to_int r.lsn) r)
    keep;
  t.durable <- fresh;
  if Lsn.( > ) below t.start then t.start <- below;
  before - Buffer.length fresh

let start_lsn t = t.start
