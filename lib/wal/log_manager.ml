module Trace = Oib_obs.Trace
module Event = Oib_obs.Event

type t = {
  metrics : Oib_sim.Metrics.t;
  trace : Trace.t;
  mutable next_lsn : Lsn.t;
  mutable durable : Buffer.t;
  mutable durable_lsn : Lsn.t;
  mutable start : Lsn.t;
  mutable volatile : (Lsn.t * string) list; (* encoded, newest first *)
  mutable volatile_bytes : int; (* encoded bytes awaiting flush *)
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
  let bytes = Log_codec.encode { Log_record.lsn; txn; prev_lsn; body } in
  t.volatile <- (lsn, bytes) :: t.volatile;
  t.volatile_bytes <- t.volatile_bytes + String.length bytes;
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
      List.partition (fun (lsn, _) -> Lsn.( > ) lsn upto) t.volatile
    in
    List.iter
      (fun (lsn, bytes) ->
        Buffer.add_string t.durable bytes;
        t.volatile_bytes <- t.volatile_bytes - String.length bytes;
        if Lsn.( > ) lsn t.durable_lsn then t.durable_lsn <- lsn)
      (List.rev to_flush);
    t.volatile <- to_keep;
    Trace.span_end t.trace span
  end

let flush_all t =
  match t.volatile with
  | [] -> ()
  | (newest, _) :: _ -> flush t ~upto:newest

let flushed_lsn t = t.durable_lsn

let last_lsn t = Lsn.of_int (Lsn.to_int t.next_lsn - 1)

let durable_records t = Log_codec.decode_stream (Buffer.contents t.durable)

let crash t =
  let durable = Buffer.create (Buffer.length t.durable) in
  Buffer.add_buffer durable t.durable;
  {
    metrics = t.metrics;
    trace = t.trace;
    next_lsn = Lsn.next t.durable_lsn;
    durable;
    durable_lsn = t.durable_lsn;
    start = t.start;
    volatile = [];
    volatile_bytes = 0;
  }

let all_records t =
  Log_codec.decode_stream
    (Buffer.contents t.durable ^ String.concat "" (List.rev_map snd t.volatile))

let durable_bytes t = Buffer.length t.durable

let unflushed_bytes t = t.volatile_bytes

(* Durable records are in LSN order, so the retained suffix starts at the
   first frame at or above [below]. *)
let truncate t ~below =
  let bytes = Buffer.contents t.durable in
  let rec first_kept pos =
    match Log_codec.decode bytes ~pos with
    | Some (r, next) when Lsn.( < ) r.Log_record.lsn below -> first_kept next
    | _ -> pos
  in
  let cut = first_kept 0 in
  let fresh = Buffer.create (max 4096 (String.length bytes - cut)) in
  Buffer.add_substring fresh bytes cut (String.length bytes - cut);
  t.durable <- fresh;
  if Lsn.( > ) below t.start then t.start <- below;
  cut

let start_lsn t = t.start
