open Oib_util
module Trace = Oib_obs.Trace
module Event = Oib_obs.Event

type mode = S | X | IS | IX

type name = Record of Rid.t | Table of int

let mode_string = function S -> "S" | X -> "X" | IS -> "IS" | IX -> "IX"

let name_string = function
  | Record rid -> Format.asprintf "rec%a" Rid.pp rid
  | Table id -> "table:" ^ string_of_int id

type outcome = Granted | Deadlock

let compatible a b =
  match (a, b) with
  | IS, (IS | IX | S) | (IX | S), IS -> true
  | IX, IX -> true
  | S, S -> true
  | X, _ | _, X -> false
  | IX, S | S, IX -> false

(* Does holding [held] already cover a request for [want]? *)
let covers held want =
  match (held, want) with
  | X, _ -> true
  | S, (S | IS) -> true
  | IX, (IX | IS) -> true
  | IS, IS -> true
  | _ -> false

(* Least upper bound used for lock conversion. S+IX would be SIX, which we
   conservatively strengthen to X. *)
let join a b =
  if covers a b then a
  else if covers b a then b
  else
    match (a, b) with
    | IS, IX | IX, IS -> IX
    | IS, S | S, IS -> S
    | _ -> X

type request = { txn : int; mutable mode : mode }

type waiter = {
  w_txn : int;
  w_mode : mode; (* target mode after grant (joined, for conversions) *)
  w_resume : unit -> unit;
}

type entry = { mutable granted : request list; mutable waiters : waiter list }

type t = {
  sched : Oib_sim.Sched.t;
  metrics : Oib_sim.Metrics.t;
  entries : (name, entry) Hashtbl.t;
  held : (int, name list) Hashtbl.t;
  waiting_on : (int, name) Hashtbl.t;
}

let create sched metrics =
  {
    sched;
    metrics;
    entries = Hashtbl.create 256;
    held = Hashtbl.create 64;
    waiting_on = Hashtbl.create 16;
  }

let entry t name =
  match Hashtbl.find_opt t.entries name with
  | Some e -> e
  | None ->
    let e = { granted = []; waiters = [] } in
    Hashtbl.replace t.entries name e;
    e

(* Forget an entry nobody holds or waits for, so the table tracks live
   locks rather than every name ever locked. Readers treat a missing entry
   as empty. *)
let reclaim t name e =
  match (e.granted, e.waiters) with
  | [], [] -> Hashtbl.remove t.entries name
  | _ -> ()

let find_request e txn = List.find_opt (fun r -> r.txn = txn) e.granted

(* Is [mode] compatible with every other holder? *)
let holders_compatible e ~txn ~mode =
  List.for_all (fun r -> r.txn = txn || compatible r.mode mode) e.granted

(* Can a brand-new request be granted immediately? Conversions only care
   about the other holders; fresh requests also queue behind existing
   waiters (FIFO, no starvation). *)
let grantable e ~txn ~mode ~conversion =
  holders_compatible e ~txn ~mode && (conversion || e.waiters = [])

let grant t name e ~txn ~mode =
  match find_request e txn with
  | Some r -> r.mode <- join r.mode mode
  | None ->
    e.granted <- { txn; mode } :: e.granted;
    let names = Option.value ~default:[] (Hashtbl.find_opt t.held txn) in
    Hashtbl.replace t.held txn (name :: names)

let drop_request t name e ~txn =
  e.granted <- List.filter (fun r -> r.txn <> txn) e.granted;
  let names = Option.value ~default:[] (Hashtbl.find_opt t.held txn) in
  Hashtbl.replace t.held txn (List.filter (fun n -> n <> name) names)

(* Wake waiters that are now grantable, in FIFO order; stop at the first
   that is not (preserves fairness). Conversions are enqueued at the front
   so they are considered first. *)
let pump t name e =
  let rec go () =
    match e.waiters with
    | [] -> ()
    | w :: rest ->
      (* the head of the queue has nobody ahead of it: only holder
         compatibility matters *)
      e.waiters <- rest;
      if holders_compatible e ~txn:w.w_txn ~mode:w.w_mode then begin
        Hashtbl.remove t.waiting_on w.w_txn;
        grant t name e ~txn:w.w_txn ~mode:w.w_mode;
        w.w_resume ();
        go ()
      end
      else e.waiters <- w :: e.waiters
  in
  go ()

(* Deadlock test: would blocking [txn] on [name] close a waits-for cycle?
   A blocked transaction waits for every incompatible holder and,
   conservatively, for every queued waiter on the same entry. *)
let would_deadlock t ~txn name ~mode =
  let blockers_of name ~txn ~mode =
    let e = entry t name in
    let holders =
      List.filter_map
        (fun r ->
          if r.txn <> txn && not (compatible r.mode mode) then Some r.txn
          else None)
        e.granted
    in
    let queued =
      List.filter_map
        (fun w -> if w.w_txn <> txn then Some w.w_txn else None)
        e.waiters
    in
    holders @ queued
  in
  let visited = Hashtbl.create 8 in
  let rec reaches target who =
    if who = target then true
    else if Hashtbl.mem visited who then false
    else begin
      Hashtbl.replace visited who ();
      match Hashtbl.find_opt t.waiting_on who with
      | None -> false
      | Some blocked_name -> (
        let e = entry t blocked_name in
        match List.find_opt (fun w -> w.w_txn = who) e.waiters with
        | None -> false
        | Some w ->
          List.exists (reaches target)
            (blockers_of blocked_name ~txn:who ~mode:w.w_mode))
    end
  in
  List.exists (reaches txn) (blockers_of name ~txn ~mode)

(* Who stands between [txn] and this grant right now: incompatible holders
   plus every queued waiter (fresh requests queue FIFO behind them).
   Rendered at emission time as "id,id,..." because the immediate-grant
   fast path emits nothing, so lock state cannot be reconstructed offline. *)
let blockers_string e ~txn ~mode =
  let holders =
    List.filter_map
      (fun r ->
        if r.txn <> txn && not (compatible r.mode mode) then Some r.txn
        else None)
      e.granted
  in
  let queued =
    List.filter_map
      (fun w -> if w.w_txn <> txn then Some w.w_txn else None)
      e.waiters
  in
  List.sort_uniq compare (holders @ queued)
  |> List.map string_of_int |> String.concat ","

let lock_aux t ~txn name mode ~conditional ~instant =
  Oib_sim.Metrics.add t.metrics Lock_calls 1;
  let e = entry t name in
  match find_request e txn with
  | Some r when covers r.mode mode -> Granted
  | prior ->
    let conversion = prior <> None in
    let prev_mode = Option.map (fun r -> r.mode) prior in
    let target =
      match prior with Some r -> join r.mode mode | None -> mode
    in
    (* After an instant-duration grant the lock state must return to what
       manual-duration requests established before. *)
    let settle_instant () =
      if instant then begin
        match (find_request e txn, prev_mode) with
        | Some r, Some pm -> r.mode <- pm
        | Some _, None ->
          drop_request t name e ~txn;
          pump t name e;
          reclaim t name e
        | None, _ -> ()
      end
    in
    let tr = Oib_sim.Sched.trace t.sched in
    (* instant-duration grants are invisible to the sanitizer: they are
       released before the requester proceeds, so they order nothing *)
    let emit_grant () =
      if (not instant) && Trace.tracing tr then
        Trace.emit tr
          (Event.Lock_grant
             { txn; target = name_string name; cond = conditional;
               table = (match name with Table _ -> true | Record _ -> false) })
    in
    let denied () =
      if Trace.tracing tr then
        Trace.emit tr
          (Event.Lock_denied
             { owner = txn; target = name_string name;
               mode = mode_string target;
               blockers = blockers_string e ~txn ~mode:target });
      Deadlock
    in
    if grantable e ~txn ~mode:target ~conversion then begin
      grant t name e ~txn ~mode:target;
      settle_instant ();
      emit_grant ();
      Trace.observe tr "lock_wait" 0;
      Granted
    end
    else if conditional then denied ()
    else if would_deadlock t ~txn name ~mode:target then denied ()
    else begin
      Oib_sim.Metrics.add t.metrics Lock_waits 1;
      Hashtbl.replace t.waiting_on txn name;
      let t0 = Oib_sim.Sched.steps t.sched in
      if Trace.tracing tr then
        Trace.emit tr
          (Event.Lock_wait
             { owner = txn; target = name_string name;
               mode = mode_string target;
               blockers = blockers_string e ~txn ~mode:target });
      let span = Trace.span_begin tr ~cat:"lock" ~name:(name_string name) in
      Oib_sim.Sched.suspend t.sched (fun resume ->
          let w =
            { w_txn = txn; w_mode = target; w_resume = resume }
          in
          if conversion then e.waiters <- w :: e.waiters
          else e.waiters <- e.waiters @ [ w ]);
      (* granted by [pump] before we were resumed *)
      settle_instant ();
      emit_grant ();
      let waited = Oib_sim.Sched.steps t.sched - t0 in
      Trace.observe tr "lock_wait" waited;
      Oib_sim.Metrics.add t.metrics Lock_wait_steps waited;
      if Trace.tracing tr then
        Trace.emit tr
          (Event.Lock_acquired
             { owner = txn; target = name_string name;
               mode = mode_string target; waited });
      Trace.span_end tr span;
      Granted
    end

let lock t ~txn name mode =
  lock_aux t ~txn name mode ~conditional:false ~instant:false

let try_lock t ~txn name mode =
  match lock_aux t ~txn name mode ~conditional:true ~instant:false with
  | Granted -> true
  | Deadlock -> false

let instant_lock t ~txn name mode =
  lock_aux t ~txn name mode ~conditional:false ~instant:true

let try_instant_lock t ~txn name mode =
  match lock_aux t ~txn name mode ~conditional:true ~instant:true with
  | Granted -> true
  | Deadlock -> false

let unlock_all t ~txn =
  let names = Option.value ~default:[] (Hashtbl.find_opt t.held txn) in
  Hashtbl.remove t.held txn;
  let tr = Oib_sim.Sched.trace t.sched in
  if Trace.tracing tr && names <> [] then
    Trace.emit tr (Event.Lock_released_all { owner = txn });
  List.iter
    (fun name ->
      let e = entry t name in
      e.granted <- List.filter (fun r -> r.txn <> txn) e.granted;
      if Trace.tracing tr then
        Trace.emit tr
          (Event.Lock_rel
             { txn; target = name_string name;
               table = (match name with Table _ -> true | Record _ -> false) });
      pump t name e;
      reclaim t name e)
    (List.sort_uniq compare names)

let holds t ~txn name mode =
  match Hashtbl.find_opt t.entries name with
  | None -> false
  | Some e -> (
    match find_request e txn with
    | Some r -> covers r.mode mode
    | None -> false)

let holders t name =
  match Hashtbl.find_opt t.entries name with
  | None -> []
  | Some e -> List.map (fun r -> (r.txn, r.mode)) e.granted

let waiter_count t name =
  match Hashtbl.find_opt t.entries name with
  | None -> 0
  | Some e -> List.length e.waiters

let pp_mode ppf m = Format.pp_print_string ppf (mode_string m)

let pp_name ppf n = Format.pp_print_string ppf (name_string n)
