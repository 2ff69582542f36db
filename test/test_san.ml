(* oib-san: the runtime sanitizer. Unit tests drive San.feed with
   synthetic event sequences (planted races, planted order inversions,
   WAL discipline breaks) and assert exactly what is and is not
   reported; integration tests attach the sanitizer to real runs — the
   lock manager, a forced no-WAL page steal, and full NSF/SF builds
   under the DST runner, which must come back clean. *)

open Oib_san
open Oib_core
open Oib_dst
module Event = Oib_obs.Event
module Trace = Oib_obs.Trace
module Diag = Oib_lint.Diag
module Sched = Oib_sim.Sched
module LockM = Oib_lock.Lock_manager
module Page = Oib_storage.Page
module Heap_file = Oib_storage.Heap_file
module Buffer_pool = Oib_storage.Buffer_pool
module Record = Oib_util.Record

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let rules san =
  List.sort_uniq compare
    (List.map (fun (d : Diag.t) -> d.Diag.rule) (San.reports san))

let report_strings san = List.map Diag.to_string (San.reports san)

let check_rules msg expected san =
  Alcotest.(check (list string)) msg expected (rules san)

(* one event, stamped as emitted by fiber [f] *)
let feed san f event =
  San.feed san { Event.step = 0; fiber = f; fiber_name = ""; event }

let latch_acq ?(excl = true) ?(role = "page") ~uid ~page () =
  Event.Latch_grant { uid; role; page; excl }

let latch_rel ?(excl = true) ?(role = "page") ~uid ~page () =
  Event.Latch_released
    { latch = role; mode = (if excl then "X" else "S"); uid; role; page }

(* --- lockset race detection --- *)

(* An unlatched write racing a latched read on the same page: no common
   latch, no happens-before edge, different fibers — must be reported. *)
let test_race_detected () =
  let san = San.create () in
  feed san 1 (latch_acq ~uid:1 ~page:3 ());
  feed san 1 (latch_rel ~uid:1 ~page:3 ());
  feed san 2 (Event.Access { page = 3; write = true; site = "rogue" });
  check_rules "unlatched write is a race" [ "SAN-race" ] san;
  Alcotest.(check bool) "not clean" false (San.clean san)

(* Same-fiber accesses never race, whatever they hold. *)
let test_same_fiber_clean () =
  let san = San.create () in
  feed san 1 (Event.Access { page = 3; write = true; site = "a" });
  feed san 1 (Event.Access { page = 3; write = true; site = "b" });
  check_rules "same fiber, no race" [] san

(* Fiber spawn is a happens-before edge: parent's earlier unlatched
   write is ordered before everything the child does. *)
let test_vc_spawn_suppression () =
  let san = San.create () in
  feed san 1 (Event.Access { page = 6; write = true; site = "parent" });
  feed san 1 (Event.Fiber_spawn { fiber = 2; name = "child" });
  feed san 2 (Event.Access { page = 6; write = true; site = "child" });
  check_rules "spawn edge orders the pair" [] san

(* A latch release-acquire pair carries a vector-clock edge even for
   accesses the latch itself does not cover. *)
let test_vc_latch_handoff_suppression () =
  let san = San.create () in
  feed san 1 (Event.Access { page = 5; write = true; site = "before" });
  feed san 1 (latch_rel ~uid:9 ~page:(-1) ());
  feed san 2 (latch_acq ~uid:9 ~page:(-1) ());
  feed san 2 (Event.Access { page = 5; write = true; site = "after" });
  check_rules "release-acquire orders the pair" [] san

(* Without the handoff the same pair must be flagged — the suppression
   test above is only meaningful if this twin trips. *)
let test_vc_no_handoff_races () =
  let san = San.create () in
  feed san 1 (Event.Access { page = 5; write = true; site = "before" });
  feed san 2 (Event.Access { page = 5; write = true; site = "after" });
  check_rules "no edge, so it races" [ "SAN-race" ] san

(* An eviction invalidates the page's shadow state: the rebuilt page's
   latch is a fresh uid and stale tokens must not fabricate races. *)
let test_evict_clears_shadow () =
  let san = San.create () in
  feed san 1 (Event.Access { page = 4; write = true; site = "a" });
  feed san 0 (Event.Page_evict { page = 4; role = "Heap_file" });
  feed san 2 (Event.Access { page = 4; write = true; site = "b" });
  check_rules "evict clears the shadow" [] san

(* --- Goodlock order-cycle prediction --- *)

let lock_acq ?(cond = false) ~txn ~target ~table () =
  Event.Lock_grant { txn; target; table; cond }

let lock_rel ~txn ~target ~table () = Event.Lock_rel { txn; target; table }

(* The two halves of a lock-order inversion, in different fibers and
   never concurrent — no deadlock manifests, the cycle is still
   predicted. *)
let test_goodlock_inversion () =
  let san = San.create () in
  feed san 1 (lock_acq ~txn:1 ~target:"r1" ~table:false ());
  feed san 1 (lock_acq ~txn:1 ~target:"t1" ~table:true ());
  feed san 1 (lock_rel ~txn:1 ~target:"r1" ~table:false ());
  feed san 1 (lock_rel ~txn:1 ~target:"t1" ~table:true ());
  feed san 2 (lock_acq ~txn:2 ~target:"t2" ~table:true ());
  feed san 2 (lock_acq ~txn:2 ~target:"r2" ~table:false ());
  check_rules "inversion predicted" [ "SAN-order" ] san

(* A conditional request can never wait, so it draws no order edge:
   the same inversion with one conditional half stays clean. *)
let test_goodlock_conditional_exempt () =
  let san = San.create () in
  feed san 1 (lock_acq ~txn:1 ~target:"r1" ~table:false ());
  feed san 1 (lock_acq ~cond:true ~txn:1 ~target:"t1" ~table:true ());
  feed san 1 (lock_rel ~txn:1 ~target:"r1" ~table:false ());
  feed san 1 (lock_rel ~txn:1 ~target:"t1" ~table:true ());
  feed san 2 (lock_acq ~txn:2 ~target:"t2" ~table:true ());
  feed san 2 (lock_acq ~txn:2 ~target:"r2" ~table:false ());
  check_rules "conditional half draws no edge" [] san

(* The graph survives Epoch events: each half observed in a different
   run still assembles the cycle. *)
let test_goodlock_across_runs () =
  let san = San.create () in
  feed san 1 (lock_acq ~txn:1 ~target:"r1" ~table:false ());
  feed san 1 (lock_acq ~txn:1 ~target:"t1" ~table:true ());
  feed san 0 (Event.Epoch { label = "run" });
  feed san 1 (lock_acq ~txn:9 ~target:"t9" ~table:true ());
  feed san 1 (lock_acq ~txn:9 ~target:"r9" ~table:false ());
  check_rules "cycle assembled across runs" [ "SAN-order" ] san

(* End to end through the real lock manager: two transactions take
   record and table locks in opposite orders, sequentially — the events
   emitted by the lock manager itself must feed the cycle. *)
let test_goodlock_via_lock_manager () =
  let tr = Trace.create () in
  Trace.set_on_dump tr (fun _ -> ());
  let san = San.create () in
  San.attach san tr;
  let sched = Sched.create ~seed:1 ~trace:tr () in
  let lm = LockM.create sched (Oib_sim.Metrics.create ()) in
  let rid = Oib_util.Rid.make ~page:1 ~slot:0 in
  ignore (LockM.lock lm ~txn:1 (LockM.Record rid) LockM.X);
  ignore (LockM.lock lm ~txn:1 (LockM.Table 1) LockM.IX);
  LockM.unlock_all lm ~txn:1;
  ignore (LockM.lock lm ~txn:2 (LockM.Table 1) LockM.IX);
  ignore (LockM.lock lm ~txn:2 (LockM.Record rid) LockM.X);
  LockM.unlock_all lm ~txn:2;
  check_rules "lock-manager probes assemble the cycle" [ "SAN-order" ] san;
  Alcotest.(check bool)
    "both directions observed" true
    (List.mem
       ("lock:record", "lock:table")
       (San.runtime_edges san)
    && List.mem ("lock:table", "lock:record") (San.runtime_edges san))

(* --- WAL runtime verifier --- *)

let test_wal_lsn_monotonicity () =
  let san = San.create () in
  feed san 1
    (Event.Lsn_set { page = 1; old_lsn = 10; new_lsn = 5; site = "t" });
  check_rules "LSN moved backwards" [ "SAN-wal" ] san

let test_wal_clr_discipline () =
  let san = San.create () in
  feed san 1 (Event.Undo_begin { txn = 7 });
  feed san 1 (Event.Log_append { lsn = 0; kind = "heap"; bytes = 0; txn = 7 });
  feed san 1 (Event.Undo_end { txn = 7 });
  check_rules "non-CLR append during undo" [ "SAN-wal" ] san;
  let ok = San.create () in
  feed ok 1 (Event.Undo_begin { txn = 7 });
  feed ok 1 (Event.Log_append { lsn = 0; kind = "clr"; bytes = 0; txn = 7 });
  feed ok 1 (Event.Log_append { lsn = 0; kind = "abort"; bytes = 0; txn = 7 });
  feed ok 1 (Event.Undo_end { txn = 7 });
  feed ok 1 (Event.Log_append { lsn = 0; kind = "heap"; bytes = 0; txn = 7 });
  check_rules "CLRs during undo are fine" [] ok

(* End to end: bump a page's LSN past the flushed horizon, then force a
   write-back through the test-only no-WAL steal. The events from
   Page/Buffer_pool must carry the violation to the sanitizer. *)
let test_wal_steal_before_flush () =
  let tr = Trace.create () in
  Trace.set_on_dump tr (fun _ -> ());
  let san = San.create () in
  San.attach san tr;
  let ctx = Engine.create ~seed:5 ~page_capacity:512 ~trace:tr () in
  let _ = Catalog.create_table ctx.Ctx.catalog ctx.Ctx.pool ~table_id:1 in
  (match
     Engine.run_txn ctx (fun txn ->
         for j = 0 to 5 do
           ignore
             (Table_ops.insert ctx txn ~table:1
                (Record.make [| Printf.sprintf "pk%02d" j; "v" |]))
         done)
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "populate aborted");
  Alcotest.(check bool) "clean so far" true (San.clean san);
  let heap = (Catalog.table ctx.Ctx.catalog 1).Catalog.heap in
  let page = Heap_file.page heap (List.hd (Heap_file.page_ids heap)) in
  Page.set_lsn page (Oib_wal.Lsn.of_int 9_999);
  Buffer_pool.unsafe_steal_without_wal ctx.Ctx.pool page;
  check_rules "steal before flush caught" [ "SAN-wal" ] san

(* --- clean full builds under the DST runner --- *)

let clean_build alg () =
  let tr = Trace.create () in
  Trace.set_on_dump tr (fun _ -> ());
  let san = San.create () in
  San.attach san tr;
  let sc = Scenario.generate ~seed:3 |> Scenario.override ~alg in
  let o = Runner.run ~trace:tr sc in
  Alcotest.(check bool) "oracle ok" false (Runner.failed o);
  Alcotest.(check (list string)) "sanitizer clean" [] (report_strings san)

(* --- one stream, two consumers: neither disturbs the other --- *)

(* One DST scenario with a crash (so both a Run_start and a restart
   Epoch go by), run traced only, sanitized only, and both. *)
let shared_stream_run ~jsonl ~sanitize =
  let tr = Trace.create () in
  Trace.set_on_dump tr (fun _ -> ());
  let buf = Buffer.create (1 lsl 16) in
  if jsonl then Trace.add_jsonl_buffer_sink tr ~name:"capture" buf;
  let san = San.create () in
  if sanitize then San.attach san tr;
  (* what the sanitizer should read: its own kinds plus the five facts it
     shares with the renderers *)
  let read = ref 0 in
  Trace.add_sink tr ~name:"count" (fun s ->
      match s.Event.event with
      | Event.Fiber_spawn _ | Latch_released _ | Page_write _ | Log_append _
      | Epoch _ ->
        incr read
      | e -> if Event.sanitizer_only e then incr read);
  let sc =
    Scenario.generate ~seed:11
    |> Scenario.override ~faults:[ Scenario.Crash_at 120 ]
  in
  let o = Runner.run ~trace:tr sc in
  Alcotest.(check bool) "oracle ok" false (Runner.failed o);
  Alcotest.(check bool) "crash taken" true (o.Runner.incarnations >= 2);
  (Buffer.contents buf, san, !read)

let test_sinks_independent () =
  let traced, _, _ = shared_stream_run ~jsonl:true ~sanitize:false in
  let _, sanitized, read = shared_stream_run ~jsonl:false ~sanitize:true in
  let both_jsonl, both, _ = shared_stream_run ~jsonl:true ~sanitize:true in
  Alcotest.(check string) "sanitizer leaves the JSONL alone" traced both_jsonl;
  let events, errors = Oib_obs_analysis.Trace_reader.of_string traced in
  Alcotest.(check int) "every line decodes" 0 (List.length errors);
  Alcotest.(check bool) "no sanitizer-only kind rendered" false
    (List.exists (fun (s : Event.stamped) -> Event.sanitizer_only s.event)
       events);
  Alcotest.(check (list string)) "JSONL sink leaves the reports alone"
    (report_strings sanitized) (report_strings both);
  Alcotest.(check string) "and the stats"
    (San.stats_json sanitized) (San.stats_json both);
  Alcotest.(check bool) "counts only what it reads" true
    (contains (San.stats_json sanitized)
       ("\"events\":" ^ string_of_int read ^ ","))

(* --- report determinism --- *)

let plant_reports san =
  feed san 2 (Event.Access { page = 2; write = true; site = "zz" });
  feed san 1 (latch_acq ~uid:4 ~page:2 ());
  feed san 1 (latch_rel ~uid:4 ~page:2 ());
  feed san 1
    (Event.Lsn_set { page = 9; old_lsn = 4; new_lsn = 1; site = "aa" })

let test_reports_deterministic () =
  let a = San.create () and b = San.create () in
  plant_reports a;
  plant_reports b;
  Alcotest.(check (list string))
    "byte-identical reports" (report_strings a) (report_strings b);
  let sorted = List.sort Diag.compare (San.reports a) in
  Alcotest.(check (list string))
    "reports come out sorted" (List.map Diag.to_string sorted)
    (report_strings a)

let test_stats_json () =
  let san = San.create () in
  plant_reports san;
  feed san 0 (Event.Epoch { label = "run" });
  let j = san |> San.stats_json in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (contains j needle))
    [ "\"events\":"; "\"runs\":1"; "\"races\":1"; "\"wal_violations\":1" ]

let () =
  Alcotest.run "san"
    [
      ( "lockset",
        [
          Alcotest.test_case "race detected" `Quick test_race_detected;
          Alcotest.test_case "same fiber clean" `Quick test_same_fiber_clean;
          Alcotest.test_case "spawn suppression" `Quick
            test_vc_spawn_suppression;
          Alcotest.test_case "latch handoff suppression" `Quick
            test_vc_latch_handoff_suppression;
          Alcotest.test_case "no handoff races" `Quick
            test_vc_no_handoff_races;
          Alcotest.test_case "evict clears shadow" `Quick
            test_evict_clears_shadow;
        ] );
      ( "goodlock",
        [
          Alcotest.test_case "inversion predicted" `Quick
            test_goodlock_inversion;
          Alcotest.test_case "conditional exempt" `Quick
            test_goodlock_conditional_exempt;
          Alcotest.test_case "across runs" `Quick test_goodlock_across_runs;
          Alcotest.test_case "via lock manager" `Quick
            test_goodlock_via_lock_manager;
        ] );
      ( "wal",
        [
          Alcotest.test_case "lsn monotonicity" `Quick
            test_wal_lsn_monotonicity;
          Alcotest.test_case "clr discipline" `Quick test_wal_clr_discipline;
          Alcotest.test_case "steal before flush" `Quick
            test_wal_steal_before_flush;
        ] );
      ( "clean builds",
        [
          Alcotest.test_case "nsf" `Quick (clean_build Scenario.Nsf);
          Alcotest.test_case "sf" `Quick (clean_build Scenario.Sf);
          Alcotest.test_case "trace sinks independent" `Quick
            test_sinks_independent;
        ] );
      ( "reports",
        [
          Alcotest.test_case "deterministic" `Quick
            test_reports_deterministic;
          Alcotest.test_case "stats json" `Quick test_stats_json;
        ] );
    ]
