(* Decode a JSONL trace dump back into [Oib_obs.Event.stamped] values and
   split a multi-incarnation capture into epochs.

   An "epoch" is one engine incarnation's worth of events: the step clock
   restarts at 0 when a new scheduler is wired to a surviving trace
   (crash + restart, or a soak run reusing one sink across seeds), so a
   raw dump is a concatenation of runs. We split before every [Epoch]
   marker, after every [Crash], and wherever the step clock jumps
   backwards. *)

module Event = Oib_obs.Event

type error = { line_no : int; line : string; msg : string }

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field j k conv what =
  match Option.bind (Json.member k j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or mistyped field %S (%s)" k what)

let decode_event j kind =
  let int_f k = field j k Json.to_int kind in
  let str_f k = field j k Json.to_string kind in
  let bool_f k = field j k Json.to_bool kind in
  (* keys that captures written before the sanitizer's payload joined
     the shared events do not have *)
  let opt conv k default =
    Option.value (Option.bind (Json.member k j) conv) ~default
  in
  match kind with
  | "fiber.spawn" ->
    (* payload key is "id": "fiber" in the same object is the stamp's *)
    let* fiber = int_f "id" in
    let* name = str_f "name" in
    Ok (Event.Fiber_spawn { fiber; name })
  | "latch.wait" ->
    let* latch = str_f "latch" in
    let* mode = str_f "mode" in
    (* absent in pre-profiler captures: default to "unknown holders" *)
    let holders = opt Json.to_string "holders" "" in
    Ok (Event.Latch_wait { latch; mode; holders })
  | "latch.acquired" ->
    let* latch = str_f "latch" in
    let* mode = str_f "mode" in
    let* waited = int_f "waited" in
    Ok (Event.Latch_acquired { latch; mode; waited })
  | "latch.released" ->
    let* latch = str_f "latch" in
    let* mode = str_f "mode" in
    Ok
      (Event.Latch_released
         { latch; mode; uid = opt Json.to_int "uid" (-1);
           role = opt Json.to_string "role" "";
           page = opt Json.to_int "page" (-1) })
  | "lock.wait" ->
    let* owner = int_f "owner" in
    let* target = str_f "target" in
    let* mode = str_f "mode" in
    let* blockers = str_f "blockers" in
    Ok (Event.Lock_wait { owner; target; mode; blockers })
  | "lock.acquired" ->
    let* owner = int_f "owner" in
    let* target = str_f "target" in
    let* mode = str_f "mode" in
    let* waited = int_f "waited" in
    Ok (Event.Lock_acquired { owner; target; mode; waited })
  | "lock.denied" ->
    let* owner = int_f "owner" in
    let* target = str_f "target" in
    let* mode = str_f "mode" in
    let* blockers = str_f "blockers" in
    Ok (Event.Lock_denied { owner; target; mode; blockers })
  | "lock.released_all" ->
    let* owner = int_f "owner" in
    Ok (Event.Lock_released_all { owner })
  | "page.read" ->
    let* page = int_f "page" in
    Ok (Event.Page_read { page; role = opt Json.to_string "role" "" })
  | "page.write" ->
    let* page = int_f "page" in
    Ok
      (Event.Page_write
         { page; role = opt Json.to_string "role" "";
           page_lsn = opt Json.to_int "page_lsn" 0;
           flushed_lsn = opt Json.to_int "flushed_lsn" 0 })
  | "log.append" ->
    let* lsn = int_f "lsn" in
    let* kind = str_f "kind" in
    let* bytes = int_f "bytes" in
    Ok (Event.Log_append { lsn; kind; bytes; txn = opt Json.to_int "txn" (-1) })
  | "log.flush" ->
    let* upto = int_f "upto" in
    Ok (Event.Log_flush { upto })
  | "txn.begin" ->
    let* txn = int_f "txn" in
    Ok (Event.Txn_begin { txn })
  | "txn.commit" ->
    let* txn = int_f "txn" in
    let* latency = int_f "latency" in
    Ok (Event.Txn_commit { txn; latency })
  | "txn.abort" ->
    let* txn = int_f "txn" in
    let* latency = int_f "latency" in
    Ok (Event.Txn_abort { txn; latency })
  | "txn.rollback_step" ->
    let* txn = int_f "txn" in
    let* lsn = int_f "lsn" in
    Ok (Event.Txn_rollback_step { txn; lsn })
  | "ib.phase" ->
    let* index = int_f "index" in
    let* phase = str_f "phase" in
    Ok (Event.Ib_phase { index; phase })
  | "ib.checkpoint" ->
    let* index = int_f "index" in
    let* stage = str_f "stage" in
    Ok (Event.Ib_checkpoint { index; stage })
  | "ib.throttle" ->
    let* level = int_f "level" in
    let* reason = str_f "reason" in
    Ok (Event.Ib_throttle { level; reason })
  | "sidefile.append" ->
    let* sidefile = int_f "sidefile" in
    let* insert = bool_f "insert" in
    let* pos = int_f "pos" in
    Ok (Event.Sidefile_append { sidefile; insert; pos })
  | "sidefile.drained" ->
    let* sidefile = int_f "sidefile" in
    let* from_pos = int_f "from" in
    let* upto = int_f "upto" in
    Ok (Event.Sidefile_drained { sidefile; from_pos; upto })
  | "checkpoint" ->
    let* scope = str_f "scope" in
    Ok (Event.Checkpoint { scope })
  | "recovery.step" ->
    let* step = str_f "what" in
    let* detail = str_f "detail" in
    Ok (Event.Recovery_step { step; detail })
  | "crash" ->
    let* reason = str_f "reason" in
    Ok (Event.Crash { reason })
  | "span.begin" ->
    let* span = int_f "span" in
    let* parent = int_f "parent" in
    let* cat = str_f "cat" in
    let* name = str_f "name" in
    Ok (Event.Span_begin { span; parent; cat; name })
  | "span.end" ->
    let* span = int_f "span" in
    Ok (Event.Span_end { span })
  | "sample" ->
    let* key = str_f "key" in
    let* value = int_f "value" in
    Ok (Event.Sample { key; value })
  | "prof.sample" ->
    let* fiber = int_f "id" in
    let* fname = str_f "fname" in
    let* state = str_f "state" in
    let* path = str_f "path" in
    let* resource = str_f "resource" in
    let* blocker = str_f "blocker" in
    Ok (Event.Prof_sample { fiber; fname; state; path; resource; blocker })
  | "epoch" ->
    let* label = str_f "label" in
    Ok (Event.Epoch { label })
  | k -> Error (Printf.sprintf "unknown event type %S" k)

let parse_line line =
  let* j = Json.parse line in
  let* step = field j "step" Json.to_int "stamp" in
  let* fiber = field j "fiber" Json.to_int "stamp" in
  let* fiber_name = field j "fiber_name" Json.to_string "stamp" in
  let* kind = field j "type" Json.to_string "stamp" in
  let* event = decode_event j kind in
  Ok { Event.step; fiber; fiber_name; event }

let of_lines lines =
  let events = ref [] and errors = ref [] in
  List.iteri
    (fun i line ->
      if String.trim line <> "" then
        match parse_line line with
        | Ok s -> events := s :: !events
        | Error msg ->
          errors := { line_no = i + 1; line; msg } :: !errors)
    lines;
  (List.rev !events, List.rev !errors)

let of_string s = of_lines (String.split_on_char '\n' s)

let of_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      of_lines (List.rev !lines))

let epochs events =
  let finish cur acc = if cur = [] then acc else List.rev cur :: acc in
  let rec go cur acc last_step = function
    | [] -> List.rev (finish cur acc)
    | (e : Event.stamped) :: rest ->
      let is_epoch_marker =
        match e.event with Event.Epoch _ -> true | _ -> false
      in
      let split = is_epoch_marker || (cur <> [] && e.step < last_step) in
      let cur, acc = if split then ([], finish cur acc) else (cur, acc) in
      let cur = e :: cur in
      (match e.event with
      | Event.Crash _ -> go [] (finish cur acc) 0 rest
      | _ -> go cur acc e.step rest)
  in
  go [] [] 0 events

let nth_epoch events n =
  List.nth_opt (epochs events) n

let last_step events =
  List.fold_left (fun acc (e : Event.stamped) -> max acc e.step) 0 events
