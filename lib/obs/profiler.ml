(* Deterministic sampling profiler.

   Driven from outside (a scheduler step hook): every sampling round the
   caller hands over one (id, name, run-state) row per live fiber and the
   profiler classifies each row into exactly one of six buckets —

     oncpu            the fiber the step was charged to
     sched            runnable-but-not-chosen, or suspended on a cond
     latch|lock|io|logflush   blocked on that resource

   — attributing waits to the blocking resource and (for latches and
   locks) to the blocker fiber(s). Each classified row becomes one
   [Prof_sample] event on the trace and one unit of weight in a [fold]
   keyed by the fiber's open-span path. The offline analyzer feeds the
   same fold from a capture's events, so both agree byte for byte.

   Everything is derived from virtual time and seeded scheduling, so the
   same seed yields byte-identical profiles. *)

(* the caller's view of a fiber, mirrored from [Sched.fiber_state]
   (this library sits below the scheduler in the dependency order) *)
type fiber_run_state = Running | Runnable | Blocked

type wait = Wait_latch of string * string | Wait_lock of string * string

let states = [ "oncpu"; "latch"; "lock"; "io"; "logflush"; "sched" ]

(* "worker-3" -> "worker-#", "rec(3,14)" -> "rec(#,#)": collapse every
   maximal digit run so paths aggregate across fibers, pages and rows *)
let norm s =
  let b = Buffer.create (String.length s) in
  let in_digits = ref false in
  String.iter
    (fun c ->
      if c >= '0' && c <= '9' then begin
        if not !in_digits then Buffer.add_char b '#';
        in_digits := true
      end
      else begin
        in_digits := false;
        Buffer.add_char b c
      end)
    s;
  Buffer.contents b

(* The frame list of one sample: normalized fiber name,
   then the open-span path outermost-first, then a synthetic wait frame
   naming the blocking state (and resource, when known). *)
let frames ~fname ~path ~state ~resource =
  let base =
    fname :: (if path = "" then [] else String.split_on_char ';' path)
  in
  if state = "oncpu" then base
  else
    base
    @ [ (if resource = "" then "wait:" ^ state
         else "wait:" ^ state ^ ":" ^ resource) ]

(* --- the fold: sample weight by frame path, by state and by fiber --- *)

type fold = {
  paths : (string, int) Hashtbl.t; (* ';'-joined frames -> weight *)
  by_state : (string, int) Hashtbl.t;
  by_fiber : (string, int) Hashtbl.t; (* normalized fiber name -> weight *)
  mutable total : int;
}

let new_fold () =
  {
    paths = Hashtbl.create 64;
    by_state = Hashtbl.create 8;
    by_fiber = Hashtbl.create 8;
    total = 0;
  }

let bump tbl key =
  Hashtbl.replace tbl key (1 + Option.value (Hashtbl.find_opt tbl key) ~default:0)

let add f ~fname ~path ~state ~resource =
  bump f.paths (String.concat ";" (frames ~fname ~path ~state ~resource));
  bump f.by_state state;
  bump f.by_fiber fname;
  f.total <- f.total + 1

let total f = f.total

let sorted tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let weights f = sorted f.paths

let by_state f = sorted f.by_state

let by_fiber f = sorted f.by_fiber

let folded f =
  let b = Buffer.create 1024 in
  List.iter (fun (path, w) -> Printf.bprintf b "%s %d\n" path w) (weights f);
  Buffer.contents b

(* --- lifecycle --- *)

type t = {
  trace : Trace.t;
  mutable fold : fold; (* one sample per (round, live fiber) *)
  mutable ticks : int; (* sampling rounds since last reset *)
  waits : (int, wait) Hashtbl.t; (* fiber id -> what it blocked on *)
  txn_fiber : (int, string) Hashtbl.t; (* txn id -> fiber name *)
}

let reset t =
  t.fold <- new_fold ();
  t.ticks <- 0;
  Hashtbl.reset t.waits;
  Hashtbl.reset t.txn_fiber

let sink_name = "profiler"

(* The sink keeps the blocker bookkeeping current: which fiber waits on
   which resource, held by whom, and which fiber runs which txn. A crash
   or epoch marker resets everything, so the online fold always describes
   the trace's final incarnation. *)
let on_event t (s : Event.stamped) =
  match s.event with
  | Event.Txn_begin { txn } -> Hashtbl.replace t.txn_fiber txn s.fiber_name
  | Event.Lock_wait { target; blockers; _ } ->
    Hashtbl.replace t.waits s.fiber (Wait_lock (target, blockers))
  | Event.Lock_acquired _ | Event.Lock_denied _ ->
    Hashtbl.remove t.waits s.fiber
  | Event.Latch_wait { latch; holders; _ } ->
    Hashtbl.replace t.waits s.fiber (Wait_latch (latch, holders))
  | Event.Latch_acquired _ -> Hashtbl.remove t.waits s.fiber
  | Event.Crash _ | Event.Epoch _ -> reset t
  | _ -> ()

let create trace =
  if Trace.is_null trace then invalid_arg "Profiler.create: null trace";
  let t =
    {
      trace;
      fold = new_fold ();
      ticks = 0;
      waits = Hashtbl.create 8;
      txn_fiber = Hashtbl.create 8;
    }
  in
  Trace.add_sink trace ~name:sink_name (on_event t);
  t

let detach t = Trace.remove_sink t.trace ~name:sink_name

(* lock blockers arrive as txn ids ("3,7"); translate to fiber names so
   waits are attributed fiber-to-fiber like latch holders are *)
let lock_blocker_names t blockers =
  if blockers = "" then ""
  else
    String.split_on_char ',' blockers
    |> List.map (fun txn ->
           match int_of_string_opt (String.trim txn) with
           | Some id -> (
             match Hashtbl.find_opt t.txn_fiber id with
             | Some fname -> fname
             | None -> "txn-" ^ txn)
           | None -> txn)
    |> String.concat ","

let classify t ~id ~state =
  match (state : fiber_run_state) with
  | Running -> ("oncpu", "", "")
  | Runnable -> ("sched", "cpu", "")
  | Blocked -> (
    match Hashtbl.find_opt t.waits id with
    | Some (Wait_latch (latch, holders)) -> ("latch", norm latch, holders)
    | Some (Wait_lock (target, blockers)) ->
      ("lock", norm target, lock_blocker_names t blockers)
    | None -> (
      (* no wait event pending: fall back to the innermost open span —
         io and logflush block without a dedicated wait event *)
      match Trace.open_spans t.trace ~fiber:id with
      | (("latch" | "lock" | "io" | "logflush") as cat, name) :: _ ->
        (cat, norm name, "")
      | _ -> ("sched", "suspend", "")))

let sample t ~fibers =
  t.ticks <- t.ticks + 1;
  List.iter
    (fun (id, name, state) ->
      let st, resource, blocker = classify t ~id ~state in
      let fname = norm name in
      let path =
        Trace.open_spans t.trace ~fiber:id
        |> List.rev (* outermost first *)
        |> List.map (fun (cat, n) -> cat ^ ":" ^ norm n)
        |> String.concat ";"
      in
      Trace.emit t.trace
        (Event.Prof_sample
           { fiber = id; fname; state = st; path; resource; blocker });
      add t.fold ~fname ~path ~state:st ~resource)
    fibers

let ticks t = t.ticks

let fold t = t.fold
