(* Real-time split of one traced repetition across the library's layers,
   measured from outside the library through two existing hooks.

   - A scheduler step hook reads the monotonic clock before every step and
     charges the time since the previous hook to exactly one cell: the
     class of the fiber that ran that step (builder, updater, other) and
     the build phase it ran in. The builder can pass several phases in one
     step (the merge never yields), so its [Ib_phase] events split the
     step at each transition. The hook's own cost is kept apart; the
     cells plus that cost should add up to the window's wall time as the
     repetition measures it.
   - A trace sink timestamps the library's existing span events and keeps,
     per category, the total time and the self time (duration minus the
     child spans opened under it on the same fiber). Lock and latch spans
     exist only while a fiber waits, so their totals are wait time summed
     over fibers; io and logflush spans never yield, so theirs is the time
     the work itself took.

   Only aggregates are kept in memory. *)

open Oib_core
module Sched = Oib_sim.Sched
module Trace = Oib_obs.Trace
module Event = Oib_obs.Event
module BS = Build_status

let now () = Int64.to_int (Monotonic_clock.now ())

let classes = [| "ib"; "updater"; "other" |]

let phases =
  [| "none"; "init"; "quiesce"; "scan"; "merge"; "insert"; "bulk"; "drain";
     "ready" |]

let n_phases = Array.length phases

let phase_index name =
  let rec find i =
    if i = n_phases then 0 else if phases.(i) = name then i else find (i + 1)
  in
  find 0

type span = { cat : string; t0 : int; parent : int; mutable child_ns : int }

type agg = { mutable total_ns : int; mutable self_ns : int }

type t = {
  ctx : Ctx.t;
  cells : int array;  (** class * n_phases + phase -> ns *)
  class_of : (int, int) Hashtbl.t;  (** fiber id -> class *)
  mutable status : BS.t option;
  mutable last_t : int;
  mutable cls : int;
  mutable phase : int;
  mutable hook_ns : int;
  mutable peak_backlog : int;
  spans : (int, span) Hashtbl.t;
  aggs : (string, agg) Hashtbl.t;
  mutable hook : int;
  started : int;
  mutable stopped : int;
}

let class_of_name name =
  if name = "ib" then 0
  else if String.starts_with ~prefix:"updater-" name then 1
  else 2

let fiber_class t id name =
  match Hashtbl.find_opt t.class_of id with
  | Some c -> c
  | None ->
    let c = class_of_name name in
    Hashtbl.replace t.class_of id c;
    c

(* during a step hook, [Running] is the fiber about to take the step *)
let running_class t =
  let rec find = function
    | [] -> 2
    | (id, name, Sched.Running) :: _ -> fiber_class t id name
    | _ :: rest -> find rest
  in
  find (Sched.fiber_states t.ctx.Ctx.sched)

let charge t t1 =
  let cell = (t.cls * n_phases) + t.phase in
  t.cells.(cell) <- t.cells.(cell) + (t1 - t.last_t);
  t.last_t <- t1

let sample_backlog t =
  if t.status = None then
    t.status <-
      (match Engine.build_progress t.ctx with st :: _ -> Some st | [] -> None);
  Option.iter
    (fun st ->
      if st.BS.backlog > t.peak_backlog then t.peak_backlog <- st.BS.backlog)
    t.status

let on_step t _step =
  let t1 = now () in
  charge t t1;
  t.cls <- running_class t;
  if t.phase > 0 then sample_backlog t;
  let t2 = now () in
  t.hook_ns <- t.hook_ns + (t2 - t1);
  t.last_t <- t2

let agg t cat =
  match Hashtbl.find_opt t.aggs cat with
  | Some a -> a
  | None ->
    let a = { total_ns = 0; self_ns = 0 } in
    Hashtbl.replace t.aggs cat a;
    a

let on_event t (s : Event.stamped) =
  match s.event with
  | Event.Ib_phase { phase; _ } ->
    charge t (now ());
    t.phase <- phase_index phase
  | Event.Span_begin { span; parent; cat; name } ->
    let cat =
      if cat <> "io" then cat
      else if String.starts_with ~prefix:"read:" name then "io.read"
      else "io.write"
    in
    Hashtbl.replace t.spans span { cat; t0 = now (); parent; child_ns = 0 }
  | Event.Span_end { span } -> (
    match Hashtbl.find_opt t.spans span with
    | None -> ()
    | Some sp ->
      let d = now () - sp.t0 in
      Hashtbl.remove t.spans span;
      let a = agg t sp.cat in
      a.total_ns <- a.total_ns + d;
      a.self_ns <- a.self_ns + d - sp.child_ns;
      Option.iter
        (fun p -> p.child_ns <- p.child_ns + d)
        (Hashtbl.find_opt t.spans sp.parent))
  | _ -> ()

let sink_name = "perfbench-layers"

(* Open the traced window. Call from the fiber whose time opens it (the
   builder, whose build then starts in phase init) or from outside the
   scheduler. *)
let attach (ctx : Ctx.t) ~build =
  let cls =
    match Sched.current_fiber ctx.Ctx.sched with
    | Some id -> class_of_name (Sched.fiber_name ctx.Ctx.sched id)
    | None -> 2
  in
  let t0 = now () in
  let t =
    {
      ctx;
      cells = Array.make (Array.length classes * n_phases) 0;
      class_of = Hashtbl.create 8;
      status = None;
      last_t = t0;
      cls;
      phase = (if build then phase_index "init" else 0);
      hook_ns = 0;
      peak_backlog = 0;
      spans = Hashtbl.create 64;
      aggs = Hashtbl.create 8;
      hook = -1;
      started = t0;
      stopped = t0;
    }
  in
  t.hook <- Sched.add_step_hook ctx.Ctx.sched (on_step t);
  Trace.add_sink ctx.Ctx.trace ~name:sink_name (on_event t);
  t

let detach t =
  let t1 = now () in
  charge t t1;
  Sched.remove_step_hook t.ctx.Ctx.sched t.hook;
  Trace.remove_sink t.ctx.Ctx.trace ~name:sink_name;
  t.stopped <- t1

let wall_ns t = t.stopped - t.started

let cell_ns t ~cls ~phase = t.cells.((cls * n_phases) + phase)

let attributed_ns t = Array.fold_left ( + ) 0 t.cells

let phase_ns t phase =
  let total = ref 0 in
  Array.iteri (fun cls _ -> total := !total + cell_ns t ~cls ~phase) classes;
  !total

(* [name] is one of [classes] *)
let class_ns t name =
  let cls =
    let rec find i = if classes.(i) = name then i else find (i + 1) in
    find 0
  in
  let total = ref 0 in
  for phase = 0 to n_phases - 1 do
    total := !total + cell_ns t ~cls ~phase
  done;
  !total

let span_self_ns t cat =
  match Hashtbl.find_opt t.aggs cat with Some a -> a.self_ns | None -> 0

let span_total_ns t cat =
  match Hashtbl.find_opt t.aggs cat with Some a -> a.total_ns | None -> 0
