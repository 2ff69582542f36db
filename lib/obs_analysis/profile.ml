(* Offline profile analysis: feed a trace's [Prof_sample] events into the
   online profiler's fold ([Oib_obs.Profiler.fold]), so `oib-trace prof
   folded` over a capture is byte-identical to what the live engine
   accumulated, then slice them — top-down and bottom-up tables,
   wait-state breakdowns per build phase and per txn class, blocker
   attribution edges, and the diff algebra for comparing two runs. *)

module Event = Oib_obs.Event
module Profiler = Oib_obs.Profiler

type sample = {
  step : int;
  fiber : int;
  fname : string;
  state : string;
  path : string;
  resource : string;
  blocker : string;
}

let samples events =
  List.filter_map
    (fun (e : Event.stamped) ->
      match e.event with
      | Event.Prof_sample { fiber; fname; state; path; resource; blocker } ->
        Some { step = e.step; fiber; fname; state; path; resource; blocker }
      | _ -> None)
    events

let frames_of s =
  Profiler.frames ~fname:s.fname ~path:s.path ~state:s.state
    ~resource:s.resource

let fold events =
  let f = Profiler.new_fold () in
  List.iter
    (fun s ->
      Profiler.add f ~fname:s.fname ~path:s.path ~state:s.state
        ~resource:s.resource)
    (samples events);
  f

(* The weights of equal keys summed, sorted by key. *)
let sum_by_key pairs =
  List.sort (fun (a, _) (b, _) -> compare a b) pairs
  |> List.fold_left
       (fun acc (k, w) ->
         match acc with
         | (k', n) :: rest when k' = k -> (k, n + w) :: rest
         | _ -> (k, w) :: acc)
       []
  |> List.rev

(* --- hierarchy tables --- *)

(* Top-down: every stack prefix is a row; [total] counts samples whose
   stack passes through the prefix, [self] those ending exactly there.
   Rows in lexicographic path order, so children follow their parent. *)
let top_down events =
  let tbl = Hashtbl.create 64 in
  let row path =
    match Hashtbl.find_opt tbl path with
    | Some r -> r
    | None ->
      let r = (ref 0, ref 0) in
      Hashtbl.replace tbl path r;
      r
  in
  List.iter
    (fun s ->
      let fs = frames_of s in
      let rec prefixes acc = function
        | [] -> ()
        | f :: rest ->
          let acc = if acc = "" then f else acc ^ ";" ^ f in
          let total, self = row acc in
          incr total;
          if rest = [] then incr self;
          prefixes acc rest
      in
      prefixes "" fs)
    (samples events);
  Hashtbl.fold (fun path (total, self) acc -> (path, !total, !self) :: acc) tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

(* Bottom-up: one row per frame; [total] counts samples containing the
   frame anywhere, [self] those whose innermost frame it is. Sorted by
   self descending, then name — "which leaves cost the most". *)
let bottom_up events =
  let tbl = Hashtbl.create 64 in
  let row f =
    match Hashtbl.find_opt tbl f with
    | Some r -> r
    | None ->
      let r = (ref 0, ref 0) in
      Hashtbl.replace tbl f r;
      r
  in
  List.iter
    (fun s ->
      let fs = frames_of s in
      let uniq = List.sort_uniq String.compare fs in
      List.iter (fun f -> incr (fst (row f))) uniq;
      match List.rev fs with
      | leaf :: _ -> incr (snd (row leaf))
      | [] -> ())
    (samples events);
  Hashtbl.fold (fun f (total, self) acc -> (f, !total, !self) :: acc) tbl []
  |> List.sort (fun (fa, _, sa) (fb, _, sb) ->
         if sa <> sb then compare sb sa else String.compare fa fb)

(* --- wait-state breakdowns --- *)

(* (index, phase, enter_step) intervals from the Ib_phase markers; the
   last phase of each build runs to max_int *)
let phase_intervals events =
  let rec go acc = function
    | [] -> List.rev acc
    | (e : Event.stamped) :: rest -> (
      match e.event with
      | Event.Ib_phase { index; phase } -> go ((index, phase, e.step) :: acc) rest
      | _ -> go acc rest)
  in
  go [] events

(* waits per build phase: each non-oncpu sample lands in the phase (of
   each live build) whose interval covers its step *)
let waits_by_phase events =
  let intervals = phase_intervals events in
  let ends =
    (* enter step of the next phase of the same build *)
    List.map
      (fun (index, phase, t0) ->
        let t1 =
          List.fold_left
            (fun acc (i, _, t) ->
              if i = index && t > t0 && t < acc then t else acc)
            max_int intervals
        in
        (index, phase, t0, t1))
      intervals
  in
  samples events
  |> List.concat_map (fun s ->
         if s.state = "oncpu" then []
         else
           List.filter_map
             (fun (index, phase, t0, t1) ->
               if s.step >= t0 && s.step < t1 then
                 Some ((index, phase, s.state), 1)
               else None)
             ends)
  |> sum_by_key
  |> List.map (fun ((i, p, st), w) -> (i, p, st, w))

(* waits per txn class = normalized fiber name x state: "how do workers
   wait" vs "how does the ib wait" *)
let waits_by_class events =
  samples events
  |> List.filter_map (fun s ->
         if s.state = "oncpu" then None else Some ((s.fname, s.state), 1))
  |> sum_by_key
  |> List.map (fun ((f, st), w) -> (f, st, w))

(* blocker attribution: (state, resource, blocker fiber) -> weight *)
let wait_edges events =
  samples events
  |> List.concat_map (fun s ->
         if s.state = "oncpu" || s.blocker = "" then []
         else
           List.map
             (fun b -> ((s.state, s.resource, Profiler.norm b), 1))
             (String.split_on_char ',' s.blocker))
  |> sum_by_key
  |> List.map (fun ((st, r, b), w) -> (st, r, b, w))

(* --- diff algebra --- *)

(* Signed per-path delta between two runs: positive = B spends more
   weight there than A. Paths equal in both runs are dropped; sorted by
   |delta| descending then path, so the headline regression leads. A
   self-diff is therefore always empty. *)
let diff a_events b_events =
  let weights events = Profiler.weights (fold events) in
  List.map (fun (p, w) -> (p, -w)) (weights a_events) @ weights b_events
  |> sum_by_key
  |> List.filter (fun (_, d) -> d <> 0)
  |> List.sort (fun (pa, da) (pb, db) ->
         if abs da <> abs db then compare (abs db) (abs da)
         else String.compare pa pb)
