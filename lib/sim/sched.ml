open Effect
open Effect.Deep

type fiber_id = int

exception Deadlock of string
exception Crashed

type _ Effect.t +=
  | Yield : unit Effect.t
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t

type fiber_state = Running | Runnable | Blocked

type t = {
  rng : Oib_util.Rng.t;
  trace : Oib_obs.Trace.t;
  mutable runq : (fiber_id * (unit -> unit)) list;
  names : (fiber_id, string) Hashtbl.t;
  mutable next_id : int;
  mutable live : int;
  live_set : (fiber_id, unit) Hashtbl.t;
  mutable steps : int;
  mutable current : fiber_id option;
  mutable pending : fiber_id option;
      (* chosen by [take_random] but not yet running: step hooks fire in
         this window, and the profiler charges the step to this fiber *)
  mutable crash_requested : bool;
  mutable crash_trap : (int -> bool) option;
  mutable tick_every : int; (* 0 = no tick hook *)
  mutable on_tick : int -> unit;
  mutable step_hooks : (int * (int -> unit)) list; (* newest first *)
  mutable next_hook_id : int;
  mutable next_uid : int;
}

let fiber_name t id =
  match Hashtbl.find_opt t.names id with
  | Some n -> n
  | None -> Printf.sprintf "fiber-%d" id

let create ?(seed = 42) ?(trace = Oib_obs.Trace.null) () =
  let t =
    {
      rng = Oib_util.Rng.create seed;
      trace;
      runq = [];
      names = Hashtbl.create 16;
      next_id = 0;
      live = 0;
      live_set = Hashtbl.create 16;
      steps = 0;
      current = None;
      pending = None;
      crash_requested = false;
      crash_trap = None;
      tick_every = 0;
      on_tick = ignore;
      step_hooks = [];
      next_hook_id = 0;
      next_uid = 0;
    }
  in
  (* stamp every event with this scheduler's step clock and fiber *)
  if not (Oib_obs.Trace.is_null trace) then begin
    Oib_obs.Trace.set_clock trace (fun () -> t.steps);
    Oib_obs.Trace.set_fiber trace (fun () ->
        Option.map (fun id -> (id, fiber_name t id)) t.current)
  end;
  t

let trace t = t.trace

let current_fiber t = t.current

let steps t = t.steps

let live_fibers t = t.live

let request_crash t = t.crash_requested <- true

let set_crash_trap t f = t.crash_trap <- Some f

let clear_crash_trap t = t.crash_trap <- None

let set_tick t ~every f =
  if every <= 0 then invalid_arg "Sched.set_tick: every must be positive";
  t.tick_every <- every;
  t.on_tick <- f

let clear_tick t =
  t.tick_every <- 0;
  t.on_tick <- ignore

let add_step_hook t f =
  let id = t.next_hook_id in
  t.next_hook_id <- id + 1;
  t.step_hooks <- (id, f) :: t.step_hooks;
  id

let remove_step_hook t id =
  t.step_hooks <- List.filter (fun (i, _) -> i <> id) t.step_hooks

let fresh_uid t =
  let u = t.next_uid in
  t.next_uid <- u + 1;
  u

let enqueue t id thunk = t.runq <- (id, thunk) :: t.runq

(* Run [f] as a fiber body under the effect handler. The handler re-enqueues
   the continuation on Yield and hands a resume thunk to the registrar on
   Suspend. *)
let start_fiber t id f =
  match_with f ()
    {
      retc =
        (fun () ->
          t.live <- t.live - 1;
          Hashtbl.remove t.live_set id;
          (* the exiting fiber's effects become visible to whoever runs
             after the scheduler returns (join-to-main HB edge) *)
          if Oib_obs.Trace.tracing t.trace then
            Oib_obs.Trace.emit t.trace Oib_obs.Event.Fiber_exit);
      exnc =
        (fun exn ->
          t.live <- t.live - 1;
          Hashtbl.remove t.live_set id;
          raise exn);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield ->
            Some
              (fun (k : (a, unit) continuation) ->
                enqueue t id (fun () -> continue k ()))
          | Suspend register ->
            Some
              (fun (k : (a, unit) continuation) ->
                register (fun () ->
                    (* every blocking primitive (latch wake, lock-queue
                       pump, Cond signal/broadcast) resumes its waiter
                       through this thunk, so stamping the resumer here
                       captures all synchronizes-with edges at once *)
                    if Oib_obs.Trace.tracing t.trace then
                      Oib_obs.Trace.emit t.trace
                        (Oib_obs.Event.Resume { fiber = id });
                    enqueue t id (fun () -> continue k ())))
          | _ -> None);
    }

let spawn t ?name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  (match name with Some n -> Hashtbl.replace t.names id n | None -> ());
  t.live <- t.live + 1;
  Hashtbl.replace t.live_set id ();
  if Oib_obs.Trace.tracing t.trace then
    Oib_obs.Trace.emit t.trace
      (Oib_obs.Event.Fiber_spawn { fiber = id; name = fiber_name t id });
  enqueue t id (fun () -> start_fiber t id f);
  id

let in_fiber t = t.current <> None

let yield t = if in_fiber t then perform Yield

let suspend t register =
  if in_fiber t then perform (Suspend register)
  else invalid_arg "Sched.suspend: not inside a fiber"

(* Remove and return a uniformly random element of the run queue. Random
   choice (rather than FIFO) is what makes the adversarial interleavings of
   the paper reachable; the seed makes them reproducible. *)
let take_random t =
  match t.runq with
  | [] -> None
  | q ->
    let n = List.length q in
    let i = Oib_util.Rng.int t.rng n in
    let rec split k acc = function
      | [] -> assert false
      | x :: rest ->
        if k = i then (x, List.rev_append acc rest)
        else split (k + 1) (x :: acc) rest
    in
    let chosen, rest = split 0 [] q in
    t.runq <- rest;
    Some chosen

(* One row per live fiber, sorted by id. Running = the fiber this step
   was charged to (pending during step hooks, current inside the fiber);
   Runnable = parked in the run queue; Blocked = live but neither, i.e.
   suspended on a latch / lock / cond / io completion. *)
let fiber_states t =
  Hashtbl.fold
    (fun id () acc ->
      let state =
        if t.pending = Some id || t.current = Some id then Running
        else if List.mem_assoc id t.runq then Runnable
        else Blocked
      in
      (id, fiber_name t id, state) :: acc)
    t.live_set []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let crash_now t =
  Oib_obs.Trace.failure t.trace
    ~reason:(Printf.sprintf "crash at step %d" t.steps);
  raise Crashed

let check_crash t =
  if t.crash_requested then crash_now t;
  match t.crash_trap with
  | Some f when f t.steps ->
    t.crash_requested <- true;
    crash_now t
  | _ -> ()

let run t =
  let rec loop () =
    check_crash t;
    match take_random t with
    | None ->
      if t.live > 0 then begin
        let stuck =
          Hashtbl.fold (fun _ n acc -> n :: acc) t.names []
          |> String.concat ", "
        in
        let msg = Printf.sprintf "%d fibers blocked (%s)" t.live stuck in
        Oib_obs.Trace.failure t.trace ~reason:("deadlock: " ^ msg);
        raise (Deadlock msg)
      end
    | Some (id, thunk) ->
      t.steps <- t.steps + 1;
      t.pending <- Some id;
      (* the hook runs outside any fiber, so anything it emits is stamped
         as "main" *)
      if t.tick_every > 0 && t.steps mod t.tick_every = 0 then
        t.on_tick t.steps;
      (match t.step_hooks with
      | [] -> ()
      | hooks ->
        (* snapshot: a hook may remove itself (or install others) *)
        List.iter (fun (_, f) -> f t.steps) hooks);
      t.current <- Some id;
      t.pending <- None;
      let finally () = t.current <- None in
      (try thunk ()
       with e ->
         finally ();
         raise e);
      finally ();
      loop ()
  in
  loop ()

module Cond = struct
  type sched = t

  type t = { sched : sched; mutable q : (unit -> unit) list }

  let create sched = { sched; q = [] }

  let wait c = suspend c.sched (fun resume -> c.q <- c.q @ [ resume ])

  let signal c =
    match c.q with
    | [] -> ()
    | resume :: rest ->
      c.q <- rest;
      resume ()

  let broadcast c =
    let waiters = c.q in
    c.q <- [];
    List.iter (fun resume -> resume ()) waiters

  let waiters c = List.length c.q
end
