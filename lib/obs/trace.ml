(* The per-engine observability hub.

   A trace owns: the clock/fiber callbacks (wired to the scheduler at
   engine assembly), the list of event sinks, an optional flight
   recorder, and a registry of named histograms. Emission sites guard
   with [tracing] before allocating an event, so a [null] trace (the
   default everywhere) costs one pointer compare per instrumented
   operation. The sanitizer is one more sink; the recorder and the stock
   JSONL sinks skip the events only it reads. *)

type sink = { sink_name : string; push : Event.stamped -> unit }

type t = {
  live : bool; (* false only for [null] *)
  mutable clock : unit -> int;
  mutable fiber : unit -> (int * string) option;
  mutable sinks : sink list;
  mutable recorder : Flight_recorder.t option;
  mutable on_dump : string -> unit;
  mutable last_dump : string option;
  hists : (string, Hist.t) Hashtbl.t;
  mutable next_span : int; (* ids are unique across engine incarnations *)
  spans : (int, int list) Hashtbl.t; (* fiber id -> open-span stack *)
  span_info : (int, string * string) Hashtbl.t; (* span id -> (cat, name) *)
}

let make ~live =
  {
    live;
    clock = (fun () -> 0);
    fiber = (fun () -> None);
    sinks = [];
    recorder = None;
    on_dump = prerr_endline;
    last_dump = None;
    hists = Hashtbl.create 8;
    next_span = 1;
    spans = Hashtbl.create 8;
    span_info = Hashtbl.create 8;
  }

let null = make ~live:false

let create () = make ~live:true

let is_null t = not t.live

let set_clock t f = if t.live then t.clock <- f

(* A new fiber callback means a new scheduler (engine incarnation): any
   span handles still held by old-incarnation code are stale, so the open
   stacks are wiped — [span_end] on a stale handle becomes a no-op. *)
let set_fiber t f =
  if t.live then begin
    t.fiber <- f;
    Hashtbl.reset t.spans;
    Hashtbl.reset t.span_info
  end
let now t = t.clock ()

let tracing t = t.live && (t.sinks <> [] || t.recorder <> None)

let stamp t event =
  let fiber, fiber_name =
    match t.fiber () with Some (id, n) -> (id, n) | None -> (-1, "main")
  in
  { Event.step = t.clock (); fiber; fiber_name; event }

let emit t event =
  if tracing t then begin
    let s = stamp t event in
    (match t.recorder with
    | Some r when not (Event.sanitizer_only event) -> Flight_recorder.record r s
    | _ -> ());
    List.iter (fun sink -> sink.push s) t.sinks
  end

let add_sink t ~name push =
  if not t.live then invalid_arg "Trace.add_sink: null trace";
  t.sinks <- t.sinks @ [ { sink_name = name; push } ]

let remove_sink t ~name =
  t.sinks <- List.filter (fun s -> s.sink_name <> name) t.sinks

let attach_recorder t ~capacity =
  if not t.live then invalid_arg "Trace.attach_recorder: null trace";
  let r = Flight_recorder.create ~capacity in
  t.recorder <- Some r;
  r

let recorder t = t.recorder

let set_on_dump t f = if t.live then t.on_dump <- f

let last_dump t = t.last_dump

(* Called at the failure boundaries (scheduler deadlock, injected crash,
   consistency-oracle failure): emit a terminal Crash event, render the
   flight-recorder tail, remember it, hand it to the dump consumer. *)
let failure t ~reason =
  if t.live then begin
    emit t (Event.Crash { reason });
    match t.recorder with
    | None -> ()
    | Some r ->
      let d = Flight_recorder.dump ~reason r in
      t.last_dump <- Some d;
      t.on_dump d
  end;
  (* whatever was in flight at the crash never ends; drop the stacks so
     post-recovery spans don't inherit pre-crash parents *)
  if t.live then begin
    Hashtbl.reset t.spans;
    Hashtbl.reset t.span_info
  end

(* --- spans --- *)

let span_begin t ~cat ~name =
  if not (tracing t) then 0
  else begin
    let fid = match t.fiber () with Some (id, _) -> id | None -> -1 in
    let id = t.next_span in
    t.next_span <- t.next_span + 1;
    let stack = Option.value (Hashtbl.find_opt t.spans fid) ~default:[] in
    let parent = match stack with p :: _ -> p | [] -> 0 in
    emit t (Event.Span_begin { span = id; parent; cat; name });
    Hashtbl.replace t.spans fid (id :: stack);
    Hashtbl.replace t.span_info id (cat, name);
    id
  end

(* Ends may arrive on a different fiber than the begin (IB phase spans
   cross into pipeline children) and out of LIFO order (two concurrent
   builds interleave phases on the ib fiber), so: search every stack and
   remove exactly [id], leaving its neighbours open. *)
let span_end t id =
  if id <> 0 && tracing t then begin
    let found =
      Hashtbl.fold
        (fun fid stack acc ->
          match acc with
          | Some _ -> acc
          | None -> if List.mem id stack then Some (fid, stack) else None)
        t.spans None
    in
    match found with
    | None -> () (* stale handle from before a crash/restart *)
    | Some (fid, stack) ->
      emit t (Event.Span_end { span = id });
      Hashtbl.remove t.span_info id;
      (match List.filter (fun x -> x <> id) stack with
      | [] -> Hashtbl.remove t.spans fid
      | rest -> Hashtbl.replace t.spans fid rest)
  end

(* The profiler's view of a fiber: (cat, name) of every open span,
   innermost first. Spans whose info is missing (opened before a
   crash wiped [span_info]) are skipped rather than invented. *)
let open_spans t ~fiber =
  match Hashtbl.find_opt t.spans fiber with
  | None -> []
  | Some stack -> List.filter_map (Hashtbl.find_opt t.span_info) stack

let with_span t ~cat ~name f =
  let id = span_begin t ~cat ~name in
  Fun.protect ~finally:(fun () -> span_end t id) f

(* --- histograms --- *)

let hist ?bounds t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
    let h = Hist.create ?bounds () in
    if t.live then Hashtbl.replace t.hists name h;
    h

let observe t name v =
  if t.live then Hist.observe (hist t name) v

let find_hist t name = Hashtbl.find_opt t.hists name

let hists t =
  Hashtbl.fold (fun name h acc -> (name, h) :: acc) t.hists []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* --- stock sinks --- *)

(* one line per event, skipping the ones only the sanitizer reads *)
let add_jsonl_sink t ~name out =
  add_sink t ~name (fun s ->
      if not (Event.sanitizer_only s.Event.event) then begin
        out (Event.to_json s);
        out "\n"
      end)

let add_jsonl_buffer_sink t ~name buf =
  add_jsonl_sink t ~name (Buffer.add_string buf)

let add_jsonl_file_sink t ~path =
  let oc = open_out path in
  add_jsonl_sink t ~name:("jsonl:" ^ path) (output_string oc);
  fun () ->
    remove_sink t ~name:("jsonl:" ^ path);
    close_out oc

let pp_hists ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (name, h) -> Format.fprintf ppf "%-16s %a@," name Hist.pp h)
    (hists t);
  Format.fprintf ppf "@]"
