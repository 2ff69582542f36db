module LR = Oib_wal.Log_record
module Lsn = Oib_wal.Lsn
module LM = Oib_wal.Log_manager
module Trace = Oib_obs.Trace
module Event = Oib_obs.Event

type status = Active | Committed | Aborted

type txn = {
  txn_id : int;
  begin_lsn : Lsn.t;
  begin_step : int; (* scheduler step at begin, for latency histograms *)
  span : int; (* trace span covering the whole transaction (0 untraced) *)
  tag : int option; (* [Some txn_id], shared by every chained record *)
  mutable last : Lsn.t;
  mutable chain : LR.t list; (* records logged while active, newest first *)
  mutable st : status;
}

type t = {
  log : LM.t;
  locks : Oib_lock.Lock_manager.t;
  metrics : Oib_sim.Metrics.t;
  trace : Trace.t;
  mutable next_id : int;
  active : (int, txn) Hashtbl.t;
}

let create ?(trace = Trace.null) log locks metrics =
  { log; locks; metrics; trace; next_id = 1; active = Hashtbl.create 32 }

let log t = t.log
let locks t = t.locks

(* The span name is built only when someone is tracing. *)
let txn_span t txn_id =
  if Trace.tracing t.trace then
    Trace.span_begin t.trace ~cat:"txn" ~name:(Printf.sprintf "txn-%d" txn_id)
  else 0

let begin_txn t =
  let txn_id = t.next_id in
  t.next_id <- txn_id + 1;
  let span = txn_span t txn_id in
  let tag = Some txn_id in
  let begin_lsn = LM.append t.log ~txn:tag ~prev_lsn:Lsn.nil LR.Begin in
  let first =
    { LR.lsn = begin_lsn; txn = tag; prev_lsn = Lsn.nil; body = LR.Begin }
  in
  let txn =
    { txn_id; begin_lsn; begin_step = Trace.now t.trace; span; tag;
      last = begin_lsn; chain = [ first ]; st = Active }
  in
  Hashtbl.replace t.active txn_id txn;
  if Trace.tracing t.trace then
    Trace.emit t.trace (Event.Txn_begin { txn = txn_id });
  txn

let id txn = txn.txn_id
let status txn = txn.st
let last_lsn txn = txn.last

let log_op t txn body =
  assert (txn.st = Active);
  let prev_lsn = txn.last in
  let lsn = LM.append t.log ~txn:txn.tag ~prev_lsn body in
  txn.last <- lsn;
  txn.chain <- { LR.lsn; txn = txn.tag; prev_lsn; body } :: txn.chain;
  lsn

let finish t txn st =
  txn.st <- st;
  txn.chain <- [];
  Hashtbl.remove t.active txn.txn_id;
  Oib_lock.Lock_manager.unlock_all t.locks ~txn:txn.txn_id

let txn_latency t txn = max 0 (Trace.now t.trace - txn.begin_step)

let commit t txn =
  assert (txn.st = Active);
  let lsn = log_op t txn LR.Commit in
  LM.flush t.log ~upto:lsn;
  ignore (log_op t txn LR.End);
  finish t txn Committed;
  Oib_sim.Metrics.add t.metrics Txn_commits 1;
  let latency = txn_latency t txn in
  Trace.observe t.trace "txn_latency" latency;
  (* foreground committed-txn latency feeds the sliding window behind
     the overload signal *)
  Oib_sim.Metrics.observe_latency t.metrics latency;
  if Trace.tracing t.trace then
    Trace.emit t.trace (Event.Txn_commit { txn = txn.txn_id; latency });
  Trace.span_end t.trace txn.span

let rollback t txn ~undo =
  assert (txn.st = Active);
  if Trace.tracing t.trace then
    Trace.emit t.trace (Event.Undo_begin { txn = txn.txn_id });
  (* Walk the chain newest-to-oldest by prev_lsn. A CLR's undo_next skips
     the records that were already compensated if rollback itself was
     interrupted (restart). The walk reads the chain as it stood at the
     start: the CLRs it writes are newer than every target. *)
  let rec walk lsn chain =
    if Lsn.( > ) lsn Lsn.nil then
      match chain with
      | (r : LR.t) :: older when Lsn.( > ) r.lsn lsn -> walk lsn older
      | (r : LR.t) :: older when Lsn.equal r.lsn lsn -> (
        match r.body with
        | LR.Clr { undo_next; _ } -> walk undo_next older
        | body when LR.is_undoable body ->
          if Trace.tracing t.trace then
            Trace.emit t.trace
              (Event.Txn_rollback_step
                 { txn = txn.txn_id; lsn = Lsn.to_int lsn });
          let clr action =
            log_op t txn (LR.Clr { action; undo_next = r.prev_lsn })
          in
          undo body ~clr;
          walk r.prev_lsn older
        | _ -> walk r.prev_lsn older)
      | _ -> () (* the chain ends above [lsn]: the log was truncated *)
  in
  walk txn.last txn.chain;
  ignore (log_op t txn LR.Abort);
  ignore (log_op t txn LR.End);
  if Trace.tracing t.trace then
    Trace.emit t.trace (Event.Undo_end { txn = txn.txn_id });
  (* an abort need not force the log *)
  finish t txn Aborted;
  Oib_sim.Metrics.add t.metrics Txn_aborts 1;
  let latency = txn_latency t txn in
  Trace.observe t.trace "txn_latency" latency;
  if Trace.tracing t.trace then
    Trace.emit t.trace (Event.Txn_abort { txn = txn.txn_id; latency });
  Trace.span_end t.trace txn.span

let adopt t ~txn_id ~chain =
  let span = txn_span t txn_id in
  let last = match chain with (r : LR.t) :: _ -> r.lsn | [] -> Lsn.nil in
  let txn =
    { txn_id; begin_lsn = last; begin_step = Trace.now t.trace; span;
      tag = Some txn_id; last; chain; st = Active }
  in
  Hashtbl.replace t.active txn_id txn;
  if txn_id >= t.next_id then t.next_id <- txn_id + 1;
  txn

let ensure_next_id t n = if n > t.next_id then t.next_id <- n

let commit_lsn t =
  let oldest =
    Hashtbl.fold
      (fun _ txn acc ->
        match acc with
        | None -> Some txn.begin_lsn
        | Some b -> Some (if Lsn.( < ) txn.begin_lsn b then txn.begin_lsn else b))
      t.active None
  in
  match oldest with
  | Some b -> b
  | None -> LM.last_lsn t.log

let active_count t = Hashtbl.length t.active

let active_ids t = Hashtbl.fold (fun id _ acc -> id :: acc) t.active []
