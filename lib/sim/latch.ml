module Trace = Oib_obs.Trace
module Event = Oib_obs.Event

type mode = S | X

let mode_name = function S -> "S" | X -> "X"

type t = {
  sched : Sched.t;
  metrics : Metrics.t;
  name : string option;  (* [None]: named after its page when needed *)
  uid : int;
  role : string;
  page : int;
  mutable s_holders : int;
  mutable x_held : bool;
  mutable holder_ids : Sched.fiber_id list; (* oldest grant first *)
  mutable waiters : (mode * Sched.fiber_id * (unit -> unit)) list;
      (* FIFO, head = oldest *)
}

let create ?name ?(role = "latch") ?(page = -1) sched metrics =
  let uid = Sched.fresh_uid sched in
  { sched; metrics; name; uid; role; page; s_holders = 0; x_held = false;
    holder_ids = []; waiters = [] }

let uid t = t.uid

(* Formatted only for a trace event, a span or a wait: page latches are
   made on every page creation and pool miss. *)
let name t =
  match t.name with
  | Some n -> n
  | None when t.page >= 0 -> Printf.sprintf "page-%d" t.page
  | None -> "latch"

let trace t = Sched.trace t.sched

let compatible t mode =
  match mode with
  | S -> not t.x_held
  | X -> (not t.x_held) && t.s_holders = 0

let grant t mode ~fiber =
  (match mode with
  | S -> t.s_holders <- t.s_holders + 1
  | X -> t.x_held <- true);
  t.holder_ids <- t.holder_ids @ [ fiber ]

let current_id t =
  match Sched.current_fiber t.sched with Some id -> id | None -> -1

(* who to blame for a wait: the current holders, oldest grant first *)
let holder_names t =
  t.holder_ids
  |> List.map (fun id -> if id < 0 then "main" else Sched.fiber_name t.sched id)
  |> String.concat ","

let emit_grant t mode =
  let tr = Sched.trace t.sched in
  if Trace.tracing tr then
    Trace.emit tr
      (Event.Latch_grant
         { uid = t.uid; role = t.role; page = t.page; excl = mode = X })

(* Wake the longest-waiting compatible requests: an X waiter alone, or a
   maximal prefix run of S waiters. FIFO granting prevents starvation of
   writers by a stream of readers. *)
let wake t =
  let rec go () =
    match t.waiters with
    | (mode, fiber, resume) :: rest when compatible t mode ->
      t.waiters <- rest;
      grant t mode ~fiber;
      resume ();
      (* After granting an S, further queued S requests may also proceed;
         after an X nothing else is compatible. *)
      if mode = S then go ()
    | _ -> ()
  in
  go ()

let acquire t mode =
  Metrics.add t.metrics Latch_acquires 1;
  let tr = Sched.trace t.sched in
  if compatible t mode && t.waiters = [] then begin
    grant t mode ~fiber:(current_id t);
    emit_grant t mode;
    Trace.observe tr "latch_wait" 0
  end
  else begin
    Metrics.add t.metrics Latch_waits 1;
    let t0 = Sched.steps t.sched in
    if Trace.tracing tr then
      Trace.emit tr
        (Event.Latch_wait
           { latch = name t; mode = mode_name mode;
             holders = holder_names t });
    let span = Trace.span_begin tr ~cat:"latch" ~name:(name t) in
    let fiber = current_id t in
    Sched.suspend t.sched (fun resume ->
        t.waiters <- t.waiters @ [ (mode, fiber, resume) ]);
    (* granted by [wake] before we were resumed *)
    emit_grant t mode;
    let waited = Sched.steps t.sched - t0 in
    Trace.observe tr "latch_wait" waited;
    Metrics.add t.metrics Latch_wait_steps waited;
    if Trace.tracing tr then
      Trace.emit tr
        (Event.Latch_acquired { latch = name t; mode = mode_name mode; waited });
    Trace.span_end tr span
  end

let try_acquire t mode =
  if compatible t mode && t.waiters = [] then begin
    Metrics.add t.metrics Latch_acquires 1;
    grant t mode ~fiber:(current_id t);
    emit_grant t mode;
    Trace.observe (Sched.trace t.sched) "latch_wait" 0;
    true
  end
  else false

let release t mode =
  let tr = Sched.trace t.sched in
  if Trace.tracing tr then
    Trace.emit tr
      (Event.Latch_released
         { latch = name t; mode = mode_name mode; uid = t.uid; role = t.role;
           page = t.page });
  (match mode with
  | S ->
    assert (t.s_holders > 0);
    t.s_holders <- t.s_holders - 1
  | X ->
    assert t.x_held;
    t.x_held <- false);
  (* drop the releasing fiber's grant; on ownership transfer (acquired by
     one fiber, released by another — legal on btree/heap_file) the
     releaser isn't recorded, so retire the oldest grant instead *)
  let me = current_id t in
  let rec drop_first = function
    | [] -> []
    | id :: rest -> if id = me then rest else id :: drop_first rest
  in
  t.holder_ids <-
    (if List.mem me t.holder_ids then drop_first t.holder_ids
     else match t.holder_ids with [] -> [] | _ :: rest -> rest);
  wake t

let with_latch t mode f =
  acquire t mode;
  match f () with
  | v ->
    release t mode;
    v
  | exception e ->
    release t mode;
    raise e

let holders t = t.s_holders + if t.x_held then 1 else 0

let is_free t = (not t.x_held) && t.s_holders = 0
