(* Offline trace analysis: JSONL round-trip, epoch splitting, span
   reassembly, critical-path breakdowns, contention attribution and the
   invariant checker — the machinery behind `oib-trace`. *)

open Oib_core
module Sched = Oib_sim.Sched
module Trace = Oib_obs.Trace
module Event = Oib_obs.Event
module Hist = Oib_obs.Hist
module Driver = Oib_workload.Driver
module TR = Oib_obs_analysis.Trace_reader
module Span_tree = Oib_obs_analysis.Span_tree
module Contention = Oib_obs_analysis.Contention
module Check = Oib_obs_analysis.Check
module Dashboard = Oib_obs_analysis.Dashboard

(* --- encode -> parse round trip, every variant, hostile strings --- *)

(* every byte class the escaper special-cases: quote, backslash, the
   named control escapes, other control bytes, and high (UTF-8) bytes *)
let nasty = "q\"b\\nl\ntb\tcr\rbs\bff\012nul-ish\001hi\xc3\xa9"

let all_variants =
  [
    Event.Fiber_spawn { fiber = 3; name = nasty };
    Event.Fiber_exit;
    Event.Resume { fiber = 4 };
    Event.Latch_wait { latch = nasty; mode = "X"; holders = nasty };
    Event.Latch_grant { uid = 6; role = nasty; page = -1; excl = false };
    Event.Latch_acquired { latch = nasty; mode = "S"; waited = 7 };
    (* the sanitizer's keys on the shared events carry non-default values
       so a reader that dropped them would fail the round trip *)
    Event.Latch_released
      { latch = "root"; mode = "X"; uid = 11; role = nasty; page = 42 };
    Event.Lock_wait
      { owner = 4; target = nasty; mode = "IX"; blockers = "1,2,1000010" };
    Event.Lock_grant { txn = 4; target = nasty; table = true; cond = true };
    Event.Lock_acquired { owner = 4; target = nasty; mode = "IX"; waited = 9 };
    Event.Lock_denied
      { owner = 1000010; target = "table:1"; mode = "S"; blockers = nasty };
    Event.Lock_rel { txn = 4; target = nasty; table = false };
    Event.Lock_released_all { owner = 1000010 };
    Event.Page_read { page = 42; role = nasty };
    Event.Page_write
      { page = 0; role = "Btree"; page_lsn = 31; flushed_lsn = 29 };
    Event.Access { page = 2; write = true; site = nasty };
    Event.Lsn_set { page = 2; old_lsn = 3; new_lsn = 5; site = nasty };
    Event.Page_evict { page = 2; role = "Heap_file" };
    Event.Log_append { lsn = 17; kind = nasty; bytes = 128; txn = 8 };
    Event.Log_flush { upto = 99 };
    Event.Txn_begin { txn = 8 };
    Event.Txn_commit { txn = 8; latency = 12 };
    Event.Txn_abort { txn = 9; latency = 0 };
    Event.Txn_rollback_step { txn = 9; lsn = 5 };
    Event.Undo_begin { txn = 9 };
    Event.Undo_end { txn = 9 };
    Event.Ib_phase { index = 10; phase = "scan" };
    Event.Ib_checkpoint { index = 10; stage = nasty };
    Event.Ib_throttle { level = 2; reason = nasty };
    Event.Sidefile_append { sidefile = 10; insert = false; pos = 31 };
    Event.Sidefile_drained { sidefile = 10; from_pos = 0; upto = 31 };
    Event.Checkpoint { scope = nasty };
    (* [step] payload must not collide with the stamp's "step" key *)
    Event.Recovery_step { step = nasty; detail = nasty };
    Event.Crash { reason = nasty };
    Event.Span_begin { span = 5; parent = 2; cat = "lock"; name = nasty };
    Event.Span_end { span = 5 };
    Event.Sample { key = nasty; value = -3 };
    Event.Prof_sample
      {
        fiber = 2;
        fname = "worker-#";
        state = "latch";
        path = "txn:txn-#;latch:page-#";
        resource = nasty;
        blocker = "ib";
      };
    Event.Epoch { label = nasty };
    Event.Run_start;
  ]

(* No wildcard: a new constructor does not compile until it has an index
   here, and the coverage check below then fails until [all_variants]
   lists it. *)
let variant_index : Event.t -> int = function
  | Fiber_spawn _ -> 0
  | Fiber_exit -> 1
  | Resume _ -> 2
  | Latch_wait _ -> 3
  | Latch_grant _ -> 4
  | Latch_acquired _ -> 5
  | Latch_released _ -> 6
  | Lock_wait _ -> 7
  | Lock_grant _ -> 8
  | Lock_acquired _ -> 9
  | Lock_denied _ -> 10
  | Lock_rel _ -> 11
  | Lock_released_all _ -> 12
  | Page_read _ -> 13
  | Page_write _ -> 14
  | Access _ -> 15
  | Lsn_set _ -> 16
  | Page_evict _ -> 17
  | Log_append _ -> 18
  | Log_flush _ -> 19
  | Txn_begin _ -> 20
  | Txn_commit _ -> 21
  | Txn_abort _ -> 22
  | Txn_rollback_step _ -> 23
  | Undo_begin _ -> 24
  | Undo_end _ -> 25
  | Ib_phase _ -> 26
  | Ib_checkpoint _ -> 27
  | Ib_throttle _ -> 28
  | Sidefile_append _ -> 29
  | Sidefile_drained _ -> 30
  | Checkpoint _ -> 31
  | Recovery_step _ -> 32
  | Crash _ -> 33
  | Span_begin _ -> 34
  | Span_end _ -> 35
  | Sample _ -> 36
  | Prof_sample _ -> 37
  | Epoch _ -> 38
  | Run_start -> 39

let n_variants = 40

let test_roundtrip () =
  Alcotest.(check (list int)) "every constructor listed once"
    (List.init n_variants Fun.id)
    (List.sort compare (List.map variant_index all_variants));
  let kinds = List.sort_uniq compare (List.map Event.kind all_variants) in
  Alcotest.(check int) "kinds distinct" n_variants (List.length kinds);
  (* through the stock sink: it writes exactly the rendered kinds, and
     each line decodes back to the event that was emitted *)
  let trace = Trace.create () in
  Trace.set_clock trace (fun () -> 123);
  Trace.set_fiber trace (fun () -> Some (2, nasty));
  let buf = Buffer.create 4096 in
  Trace.add_jsonl_buffer_sink trace ~name:"capture" buf;
  List.iter (Trace.emit trace) all_variants;
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Buffer.contents buf))
  in
  let rendered =
    List.filter (fun e -> not (Event.sanitizer_only e)) all_variants
  in
  Alcotest.(check int) "sanitizer-only kinds not written"
    (List.length rendered) (List.length lines);
  List.iter2
    (fun event line ->
      let stamped =
        { Event.step = 123; fiber = 2; fiber_name = nasty; event }
      in
      Alcotest.(check string) (Event.kind event ^ " encodes as emitted")
        (Event.to_json stamped) line;
      match TR.parse_line line with
      | Error msg ->
        Alcotest.fail
          (Printf.sprintf "%s failed to decode: %s (%s)" (Event.kind event)
             msg line)
      | Ok back ->
        Alcotest.(check bool)
          (Event.kind event ^ " survives the round trip")
          true (back = stamped))
    rendered lines;
  (* captures written before the sanitizer's keys joined still decode *)
  match
    TR.parse_line
      {|{"step":1,"fiber":0,"fiber_name":"m","type":"page.write","page":3}|}
  with
  | Ok { event = Event.Page_write { page = 3; role = ""; _ }; _ } -> ()
  | _ -> Alcotest.fail "page.write without LSN or role keys rejected"

let test_reader_collects_errors () =
  let events, errors =
    TR.of_lines
      [
        Event.to_json
          { Event.step = 1; fiber = 0; fiber_name = "main";
            event = Event.Page_read { page = 1; role = "" } };
        "";
        "not json at all";
        "{\"step\":2,\"kind\":\"no.such.kind\",\"fiber\":0,\"fiber_name\":\"m\"}";
      ]
  in
  Alcotest.(check int) "good lines decoded" 1 (List.length events);
  Alcotest.(check int) "bad lines collected, blank skipped" 2
    (List.length errors)

(* --- Hist.merge --- *)

let hist_of bounds samples =
  let h = Hist.create ~bounds () in
  List.iter (Hist.observe h) samples;
  h

let test_hist_merge_properties () =
  let gen = QCheck.(pair (small_list small_nat) (small_list small_nat)) in
  let prop (xs, ys) =
    let bounds = Hist.linear_bounds ~limit:100 in
    let a = hist_of bounds xs and b = hist_of bounds ys in
    let m = Hist.merge a b in
    let all = xs @ ys in
    Hist.count m = List.length all
    && Hist.total m = List.fold_left ( + ) 0 all
    && (all = []
       || Hist.min_value m = List.fold_left min max_int all
          && Hist.max_value m = List.fold_left max 0 all
          && Hist.percentile m 0.5 >= float_of_int (Hist.min_value m)
          && Hist.percentile m 0.5 <= float_of_int (Hist.max_value m)
          && Hist.percentile m 0.5 <= Hist.percentile m 0.95
          && Hist.percentile m 0.95 <= Hist.percentile m 0.99)
    (* inputs must be untouched *)
    && Hist.count a = List.length xs
    && Hist.count b = List.length ys
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"Hist.merge preserves stats" gen prop)

let test_hist_merge_bounds_mismatch () =
  let a = Hist.create ~bounds:[| 1; 2; 4 |] () in
  let b = Hist.create ~bounds:[| 1; 2; 8 |] () in
  Alcotest.check_raises "bounds mismatch rejected"
    (Invalid_argument "Hist.merge: bounds differ") (fun () ->
      ignore (Hist.merge a b));
  (* merge with a same-bounds empty histogram is the identity on stats *)
  let h = hist_of [| 1; 2; 4 |] [ 0; 3; 9 ] in
  let e = Hist.create ~bounds:[| 1; 2; 4 |] () in
  let m = Hist.merge h e in
  Alcotest.(check int) "count" (Hist.count h) (Hist.count m);
  Alcotest.(check int) "total" (Hist.total h) (Hist.total m);
  Alcotest.(check int) "max" (Hist.max_value h) (Hist.max_value m)

(* --- captured builds: decode cleanly, pass the checker --- *)

let capture ?(sample_every = 0) alg ~seed ~rows ~workers ~txns =
  let trace = Trace.create () in
  let buf = Buffer.create 4096 in
  Trace.add_jsonl_buffer_sink trace ~name:"capture" buf;
  Trace.set_on_dump trace (fun _ -> ());
  let ctx = Engine.create ~seed ~page_capacity:512 ~trace () in
  let _ = Catalog.create_table ctx.Ctx.catalog ctx.Ctx.pool ~table_id:1 in
  let _ = Driver.populate ctx ~table:1 ~rows ~seed in
  if sample_every > 0 then Obs_sampler.install ctx ~every:sample_every;
  let _ =
    Driver.spawn_workers ctx
      { Driver.default with seed; workers; txns_per_worker = txns }
      ~table:1
  in
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         Ib.build_index ctx (Ib.default_config alg) ~table:1
           { Ib.index_id = 10; key_cols = [ 0 ]; unique = false }));
  Sched.run ctx.Ctx.sched;
  Alcotest.(check (list string)) "oracle clean" []
    (Engine.consistency_errors ctx);
  let events, errors = TR.of_string (Buffer.contents buf) in
  Alcotest.(check int) "no undecodable lines" 0 (List.length errors);
  events

let test_check_passes_on_builds () =
  List.iter
    (fun (alg, seed, rows, workers, txns) ->
      let events = capture alg ~seed ~rows ~workers ~txns in
      Alcotest.(check bool) "trace is nonempty" true (events <> []);
      Alcotest.(check int) "single epoch" 1 (List.length (TR.epochs events));
      match Check.run events with
      | [] -> ()
      | vs ->
        List.iter (fun v -> Format.eprintf "%a@." Check.pp_violation v) vs;
        Alcotest.fail
          (Printf.sprintf "checker found %d violations" (List.length vs)))
    [ (Ib.Nsf, 5, 400, 4, 12); (Ib.Sf, 7, 300, 3, 10) ]

(* --- per-transaction critical-path breakdowns (acceptance) --- *)

let test_txn_breakdowns_sum () =
  let events = capture Ib.Nsf ~seed:5 ~rows:400 ~workers:4 ~txns:12 in
  let tree = Span_tree.build events in
  let bds = Span_tree.txn_breakdowns tree in
  Alcotest.(check bool) "breakdowns exist" true (bds <> []);
  List.iter
    (fun (b : Span_tree.breakdown) ->
      Alcotest.(check string) "txn span" "txn" b.Span_tree.b_span.Span_tree.cat;
      Alcotest.(check bool) "compute nonnegative" true (b.Span_tree.compute >= 0);
      List.iter
        (fun (cat, steps) ->
          Alcotest.(check bool) (cat ^ " part nonnegative") true (steps >= 0))
        b.Span_tree.parts;
      let parts_sum =
        List.fold_left (fun acc (_, s) -> acc + s) 0 b.Span_tree.parts
      in
      (* parts + compute account for the span's whole duration, exactly *)
      Alcotest.(check int) "parts + compute = total" b.Span_tree.total
        (parts_sum + b.Span_tree.compute))
    bds;
  (* somebody actually waited: lock time shows up in at least one path *)
  Alcotest.(check bool) "some txn charged lock time" true
    (List.exists
       (fun (b : Span_tree.breakdown) ->
         match List.assoc_opt "lock" b.Span_tree.parts with
         | Some s -> s > 0
         | None -> false)
       bds)

(* --- contention attribution (acceptance: the IB shows up) --- *)

let test_contention_blames_ib () =
  (* NSF quiesce takes a table S lock against updater IX locks, so the
     builder deterministically appears as a blocker *)
  let events = capture Ib.Nsf ~seed:5 ~rows:400 ~workers:4 ~txns:12 in
  let waits = Contention.waits events in
  Alcotest.(check bool) "waits reconstructed" true (waits <> []);
  let end_step = TR.last_step events in
  let targets = Contention.by_target ~end_step waits in
  Alcotest.(check bool) "per-target rows" true (targets <> []);
  let rows = Contention.blockers ~end_step waits in
  Alcotest.(check bool) "ib attributed as blocker" true
    (List.exists (fun (r : Contention.blocker_row) -> r.Contention.b_is_ib) rows);
  (* and the builder itself was made to wait by the updaters *)
  Alcotest.(check bool) "ib also waited" true
    (List.exists
       (fun (w : Contention.wait) -> Contention.is_ib_owner w.Contention.w_owner)
       waits)

let test_owner_labels () =
  Alcotest.(check string) "txn" "txn:17" (Contention.owner_label 17);
  Alcotest.(check string) "ib" "ib:10" (Contention.owner_label 1_000_010);
  Alcotest.(check string) "ib-offline" "ib-offline:2"
    (Contention.owner_label 1_250_002);
  Alcotest.(check string) "ib-gc" "ib-gc:10" (Contention.owner_label 1_500_010);
  Alcotest.(check (list int)) "blockers field" [ 1; 2; 1000010 ]
    (Contention.parse_blockers "1,2,1000010");
  Alcotest.(check (list int)) "empty blockers" [] (Contention.parse_blockers "")

(* --- the sampler's time series --- *)

let test_sampler_series () =
  let events =
    capture ~sample_every:50 Ib.Sf ~seed:7 ~rows:300 ~workers:3 ~txns:10
  in
  let samples =
    List.filter_map
      (fun (s : Event.stamped) ->
        match s.Event.event with
        | Event.Sample { key; value } -> Some (s.Event.step, key, value)
        | _ -> None)
      events
  in
  Alcotest.(check bool) "samples emitted" true (samples <> []);
  List.iter
    (fun (step, _, _) ->
      Alcotest.(check int) "stamped on the period" 0 (step mod 50))
    samples;
  let series key =
    List.filter_map
      (fun (step, k, v) -> if k = key then Some (step, v) else None)
      samples
  in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " sampled") true (series key <> []))
    [
      "metrics.txn_commits";
      "metrics.page_reads";
      "build.10.keys_processed";
      "build.10.backlog";
      "build.10.phase";
    ];
  (* counters and build progress only ever move forward *)
  let rec nondecreasing = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b && nondecreasing rest
    | _ -> true
  in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " nondecreasing") true
        (nondecreasing (series key)))
    [ "metrics.txn_commits"; "build.10.keys_processed"; "build.10.phase" ]

(* --- the checker catches synthetic corruption --- *)

let at ?(fiber = 1) ?(fiber_name = "w") step event =
  { Event.step; fiber; fiber_name; event }

let expect_violation name events needle =
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
    in
    go 0
  in
  match Check.run events with
  | [] -> Alcotest.fail (name ^ ": expected a violation, got none")
  | vs ->
    Alcotest.(check bool)
      (name ^ " mentions " ^ needle)
      true
      (List.exists (fun (v : Check.violation) -> contains v.Check.v_what needle) vs)

let test_check_catches_corruption () =
  let wait ~owner ~target step =
    at step (Event.Lock_wait { owner; target; mode = "X"; blockers = "2" })
  in
  let acq ~owner ~target ~waited step =
    at step (Event.Lock_acquired { owner; target; mode = "X"; waited })
  in
  expect_violation "unmatched wait"
    [ wait ~owner:1 ~target:"row:1:5" 3 ]
    "never granted";
  expect_violation "wait/acquire miscount"
    [ wait ~owner:1 ~target:"row:1:5" 3; acq ~owner:1 ~target:"row:1:5" ~waited:2 9 ]
    "wait mismatch";
  expect_violation "acquire without wait"
    [ acq ~owner:1 ~target:"row:1:5" ~waited:0 4 ]
    "without wait";
  expect_violation "phase regression"
    [
      at 1 (Event.Ib_phase { index = 10; phase = "scan" });
      at 2 (Event.Ib_phase { index = 10; phase = "quiesce" });
    ]
    "regression";
  expect_violation "span end without begin"
    [ at 5 (Event.Span_end { span = 3 }) ]
    "not open";
  expect_violation "span left open"
    [ at 5 (Event.Span_begin { span = 3; parent = 0; cat = "txn"; name = "t" }) ]
    "still open";
  expect_violation "orphan parent"
    [ at 5 (Event.Span_begin { span = 3; parent = 9; cat = "txn"; name = "t" });
      at 6 (Event.Span_end { span = 3 }) ]
    "not open";
  expect_violation "double commit"
    [
      at 1 (Event.Txn_begin { txn = 4 });
      at 2 (Event.Txn_commit { txn = 4; latency = 1 });
      at 3 (Event.Txn_commit { txn = 4; latency = 2 });
    ]
    "terminates twice";
  expect_violation "unannounced step reset"
    [
      at 10 (Event.Page_read { page = 1; role = "" });
      at 3 (Event.Page_read { page = 2; role = "" });
    ]
    "step clock reset";
  (* the same reset is fine when a crash or a marker announces it *)
  Alcotest.(check (list Alcotest.reject)) "crash announces the reset" []
    (Check.run
       [
         at 10 (Event.Crash { reason = "power" });
         at 3 (Event.Page_read { page = 2; role = "" });
       ]);
  Alcotest.(check (list Alcotest.reject)) "marker announces the reset" []
    (Check.run
       [
         at 10 (Event.Page_read { page = 1; role = "" });
         at 0 (Event.Epoch { label = "restart" });
         at 3 (Event.Page_read { page = 2; role = "" });
       ]);
  (* a crashed epoch may leave waits and spans unresolved *)
  Alcotest.(check (list Alcotest.reject)) "crash excuses open state" []
    (Check.run
       [
         wait ~owner:1 ~target:"row:1:5" 3;
         at 4 (Event.Span_begin { span = 1; parent = 0; cat = "txn"; name = "t" });
         at 9 (Event.Crash { reason = "power" });
       ])

(* --- oib-trace top: the dashboard frame --- *)

let frame_line frame prefix =
  match
    List.find_opt
      (fun l -> String.starts_with ~prefix l)
      (String.split_on_char '\n' frame)
  with
  | Some l -> l
  | None -> Alcotest.failf "no %S line in the frame:\n%s" prefix frame

(* The frame's deadlock figure is the number of deadlock victims in the
   stream: one [lock.denied] each. *)
let test_dashboard_deadlocks () =
  let events =
    capture Ib.Nsf ~sample_every:50 ~seed:5 ~rows:1500 ~workers:3 ~txns:25
  in
  let denied =
    List.length
      (List.filter
         (fun (s : Event.stamped) ->
           match s.event with Event.Lock_denied _ -> true | _ -> false)
         events)
  in
  Alcotest.(check bool) "the build has deadlock victims" true (denied > 0);
  let d = Dashboard.create () in
  Dashboard.feed_all d events;
  let words =
    String.split_on_char ' ' (frame_line (Dashboard.render d) "txns")
    |> List.filter (( <> ) "")
  in
  let rec after = function
    | "deadlocks" :: v :: _ -> int_of_string v
    | _ :: rest -> after rest
    | [] -> Alcotest.fail "no deadlock figure"
  in
  Alcotest.(check int) "deadlocks = lock.denied events" denied (after words)

(* reads/role counts the page.read events by the role they carry; a read
   from a capture that predates the role field is left out *)
let test_dashboard_reads_per_role () =
  let d = Dashboard.create () in
  List.iteri
    (fun i role ->
      Dashboard.feed d (at i (Event.Page_read { page = i; role })))
    [ "Heap_file"; "Btree"; ""; "Heap_file" ];
  Alcotest.(check string) "reads by role" "reads/role   Btree 1 Heap_file 2"
    (frame_line (Dashboard.render d) "reads/role")

let () =
  Alcotest.run "obs_analysis"
    [
      ( "decode",
        [
          Alcotest.test_case "round trip, every variant" `Quick test_roundtrip;
          Alcotest.test_case "errors collected, not fatal" `Quick
            test_reader_collects_errors;
        ] );
      ( "hist-merge",
        [
          Alcotest.test_case "merge preserves stats (qcheck)" `Quick
            test_hist_merge_properties;
          Alcotest.test_case "bounds mismatch + identity" `Quick
            test_hist_merge_bounds_mismatch;
        ] );
      ( "check",
        [
          Alcotest.test_case "clean on real nsf + sf builds" `Quick
            test_check_passes_on_builds;
          Alcotest.test_case "catches synthetic corruption" `Quick
            test_check_catches_corruption;
        ] );
      ( "spans",
        [
          Alcotest.test_case "txn breakdowns sum exactly" `Quick
            test_txn_breakdowns_sum;
        ] );
      ( "contention",
        [
          Alcotest.test_case "ib attributed as blocker" `Quick
            test_contention_blames_ib;
          Alcotest.test_case "owner labels" `Quick test_owner_labels;
        ] );
      ( "sampler",
        [ Alcotest.test_case "time series keys + monotone" `Quick
            test_sampler_series ] );
      ( "dashboard",
        [
          Alcotest.test_case "deadlocks are lock.denied events" `Quick
            test_dashboard_deadlocks;
          Alcotest.test_case "reads per role" `Quick
            test_dashboard_reads_per_role;
        ] );
    ]
