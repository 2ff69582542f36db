(* Observability: trace events, flight recorder, histograms, build
   progress. *)

open Oib_core
module Sched = Oib_sim.Sched
module Metrics = Oib_sim.Metrics
module Resource = Oib_obs.Resource
module Latch = Oib_sim.Latch
module Trace = Oib_obs.Trace
module Event = Oib_obs.Event
module Hist = Oib_obs.Hist
module FR = Oib_obs.Flight_recorder
module Stats = Oib_util.Stats
module Driver = Oib_workload.Driver
module BS = Build_status

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let quiet_trace () =
  let trace = Trace.create () in
  ignore (Trace.attach_recorder trace ~capacity:512);
  Trace.set_on_dump trace (fun _ -> ());
  trace

let setup ?(seed = 3) ?trace () =
  let ctx = Engine.create ~seed ~page_capacity:512 ?trace () in
  let _ = Catalog.create_table ctx.Ctx.catalog ctx.Ctx.pool ~table_id:1 in
  ctx

let check_clean ctx =
  Alcotest.(check (list string)) "oracle clean" []
    (Engine.consistency_errors ctx)

(* --- histograms --- *)

let test_hist_matches_stats () =
  (* width-1 buckets over ints <= limit: percentiles must agree exactly
     with Stats.percentile's interpolated rank *)
  let samples = [ 3; 1; 4; 1; 5; 9; 2; 6; 5; 3; 5; 8; 97; 2; 33; 0; 7; 41 ] in
  let h = Hist.create ~bounds:(Hist.linear_bounds ~limit:100) () in
  List.iter (Hist.observe h) samples;
  let s = Stats.summarize (List.map float_of_int samples) in
  Alcotest.(check int) "count" (List.length samples) (Hist.count h);
  Alcotest.(check (float 1e-9)) "p50" s.Stats.p50 (Hist.percentile h 0.5);
  Alcotest.(check (float 1e-9)) "p95" s.Stats.p95 (Hist.percentile h 0.95);
  Alcotest.(check (float 1e-9)) "p99" s.Stats.p99 (Hist.percentile h 0.99);
  Alcotest.(check (float 1e-9)) "mean" s.Stats.mean (Hist.mean h);
  Alcotest.(check int) "min" (int_of_float s.Stats.min) (Hist.min_value h);
  Alcotest.(check int) "max" (int_of_float s.Stats.max) (Hist.max_value h)

let test_hist_overflow_and_merge () =
  let h = Hist.create ~bounds:[| 1; 2; 4 |] () in
  List.iter (Hist.observe h) [ 0; 1; 3; 1000 ];
  Alcotest.(check int) "count" 4 (Hist.count h);
  Alcotest.(check int) "max tracked" 1000 (Hist.max_value h);
  (* the overflow bucket reports under max_int *)
  Alcotest.(check bool) "overflow bucket" true
    (List.mem_assoc max_int (Hist.buckets h));
  let h2 = Hist.create ~bounds:[| 1; 2; 4 |] () in
  Hist.observe h2 2;
  Hist.merge_into ~into:h h2;
  Alcotest.(check int) "merged count" 5 (Hist.count h);
  (* machine-readable form mentions the quantiles *)
  let j = Hist.to_json h in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json has " ^ needle) true
        (contains j needle))
    [ "\"count\":5"; "\"p50\""; "\"p95\""; "\"p99\"" ]

(* --- flight recorder --- *)

let stamped i =
  { Event.step = i; fiber = 0; fiber_name = "f";
    event = Event.Checkpoint { scope = string_of_int i } }

let test_ring_wraps () =
  let r = FR.create ~capacity:4 in
  for i = 1 to 10 do
    FR.record r (stamped i)
  done;
  Alcotest.(check int) "total" 10 (FR.total r);
  Alcotest.(check int) "size" 4 (FR.size r);
  Alcotest.(check (list int)) "last 4, oldest first" [ 7; 8; 9; 10 ]
    (List.map (fun (s : Event.stamped) -> s.Event.step) (FR.contents r));
  let d = FR.dump ~reason:"test" r in
  Alcotest.(check bool) "dump mentions reason" true
    (contains d "test");
  Alcotest.(check bool) "dump mentions truncation" true
    (contains d "last 4 of 10")

(* --- event ordering under the scheduler --- *)

let test_event_order_matches_steps () =
  let trace = quiet_trace () in
  let seen = ref [] in
  Trace.add_sink trace ~name:"collect" (fun s -> seen := s :: !seen);
  let ctx = setup ~seed:5 ~trace () in
  let _ = Driver.populate ctx ~table:1 ~rows:120 ~seed:5 in
  let wcfg = { Driver.default with seed = 5; workers = 3; txns_per_worker = 8 } in
  let _ = Driver.spawn_workers ctx wcfg ~table:1 in
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         Ib.build_index ctx (Ib.default_config Ib.Sf) ~table:1
           { Ib.index_id = 10; key_cols = [ 0 ]; unique = false }));
  Sched.run ctx.Ctx.sched;
  check_clean ctx;
  let events = List.rev !seen in
  Alcotest.(check bool) "events were emitted" true (List.length events > 100);
  (* the stamp is the scheduler's step clock: nondecreasing in emission
     order, and bounded by the final step count *)
  let rec nondecreasing = function
    | (a : Event.stamped) :: (b :: _ as rest) ->
      a.Event.step <= b.Event.step && nondecreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "steps nondecreasing" true (nondecreasing events);
  let final = Sched.steps ctx.Ctx.sched in
  Alcotest.(check bool) "steps bounded" true
    (List.for_all (fun (s : Event.stamped) -> s.Event.step <= final) events);
  (* every in-fiber event carries the fiber's registered name *)
  let names = [ "main"; "ib"; "worker-0"; "worker-1"; "worker-2" ] in
  Alcotest.(check bool) "fiber names known" true
    (List.for_all
       (fun (s : Event.stamped) -> List.mem s.Event.fiber_name names)
       events);
  (* latency histograms were fed during the run *)
  List.iter
    (fun h ->
      match Trace.find_hist trace h with
      | Some hist -> Alcotest.(check bool) (h ^ " nonempty") true (Hist.count hist > 0)
      | None -> Alcotest.fail (h ^ " missing"))
    [ "latch_wait"; "lock_wait"; "txn_latency"; "traversal_cost" ]

(* --- flight-recorder dump on deadlock --- *)

let test_deadlock_dumps_recorder () =
  let trace = quiet_trace () in
  let ctx = setup ~seed:11 ~trace () in
  let _ = Driver.populate ctx ~table:1 ~rows:150 ~seed:11 in
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         Ib.build_index ctx (Ib.default_config Ib.Sf) ~table:1
           { Ib.index_id = 10; key_cols = [ 0 ]; unique = false }));
  (* two fibers that wait for the build to finish, then latch two pages in
     opposite orders: a guaranteed deadlock *)
  let l1 = Latch.create ~name:"res-a" ctx.Ctx.sched ctx.Ctx.metrics in
  let l2 = Latch.create ~name:"res-b" ctx.Ctx.sched ctx.Ctx.metrics in
  let await_ready () =
    while
      (match Catalog.index ctx.Ctx.catalog 10 with
      | info -> info.Catalog.phase <> Catalog.Ready
      | exception Invalid_argument _ -> true)
    do
      Sched.yield ctx.Ctx.sched
    done
  in
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"grabber-1" (fun () ->
         await_ready ();
         Latch.acquire l1 Latch.X;
         Sched.yield ctx.Ctx.sched;
         Latch.acquire l2 Latch.X));
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"grabber-2" (fun () ->
         await_ready ();
         Latch.acquire l2 Latch.X;
         Sched.yield ctx.Ctx.sched;
         Latch.acquire l1 Latch.X));
  (match Sched.run ctx.Ctx.sched with
  | () -> Alcotest.fail "expected deadlock"
  | exception Sched.Deadlock _ -> ());
  match Trace.last_dump trace with
  | None -> Alcotest.fail "no flight-recorder dump"
  | Some d ->
    List.iter
      (fun needle ->
        Alcotest.(check bool) ("dump has " ^ needle) true
          (contains d needle))
      [
        (* the IB's last phase transition survives in the ring *)
        "ib.phase";
        "phase=ready";
        (* the blocking latch waits, with fiber names *)
        "latch.wait";
        "grabber-1";
        "grabber-2";
        "deadlock";
        (* stamps carry step numbers *)
        "step=";
      ]

(* --- build progress --- *)

let rec ranks_nondecreasing = function
  | a :: (b :: _ as rest) -> a <= b && ranks_nondecreasing rest
  | _ -> true

let check_history (st : BS.t) ~expect_phases =
  let hist = BS.history st in
  (match hist with
  | (BS.Init, 0) :: _ -> ()
  | _ -> Alcotest.fail "history must start at (Init, 0)");
  Alcotest.(check bool) "phase ranks nondecreasing" true
    (ranks_nondecreasing (List.map (fun (p, _) -> BS.rank p) hist));
  Alcotest.(check bool) "steps nondecreasing" true
    (ranks_nondecreasing (List.map snd hist));
  List.iter
    (fun p ->
      Alcotest.(check bool)
        ("visited " ^ BS.phase_name p)
        true
        (List.mem_assoc p hist))
    expect_phases

let test_progress_nsf () =
  let trace = quiet_trace () in
  let ctx = setup ~seed:7 ~trace () in
  let rows = Array.length (Driver.populate ctx ~table:1 ~rows:300 ~seed:7) in
  let wcfg = { Driver.default with seed = 7; workers = 2; txns_per_worker = 10 } in
  let _ = Driver.spawn_workers ctx wcfg ~table:1 in
  (* a monitor polls the public API while the build runs; what it sees must
     only ever move forward *)
  let observed = ref [] in
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"monitor" (fun () ->
         let continue = ref true in
         while !continue do
           (match Engine.build_progress ctx with
           | [ st ] ->
             observed := BS.rank st.BS.phase :: !observed;
             if st.BS.phase = BS.Ready then continue := false
           | _ -> ());
           Sched.yield ctx.Ctx.sched
         done));
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         Ib.build_index ctx (Ib.default_config Ib.Nsf) ~table:1
           { Ib.index_id = 10; key_cols = [ 0 ]; unique = false }));
  Sched.run ctx.Ctx.sched;
  check_clean ctx;
  Alcotest.(check bool) "polled ranks nondecreasing" true
    (ranks_nondecreasing (List.rev !observed));
  match Engine.build_progress ctx with
  | [ st ] ->
    Alcotest.(check string) "algorithm" "nsf" st.BS.algorithm;
    Alcotest.(check bool) "ready" true (st.BS.phase = BS.Ready);
    Alcotest.(check bool) "keys processed" true (st.BS.keys_processed >= rows);
    Alcotest.(check bool) "checkpoint count published" true
      (st.BS.checkpoints >= 0);
    check_history st
      ~expect_phases:[ BS.Quiesce; BS.Scan; BS.Merge; BS.Insert; BS.Ready ]
  | l -> Alcotest.fail (Printf.sprintf "expected 1 status, got %d" (List.length l))

let test_progress_sf_backlog () =
  let trace = quiet_trace () in
  let ctx = setup ~seed:13 ~trace () in
  let _ = Driver.populate ctx ~table:1 ~rows:300 ~seed:13 in
  let wcfg =
    { Driver.default with seed = 13; workers = 4; txns_per_worker = 20 }
  in
  let _ = Driver.spawn_workers ctx wcfg ~table:1 in
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         Ib.build_index ctx (Ib.default_config Ib.Sf) ~table:1
           { Ib.index_id = 10; key_cols = [ 0 ]; unique = false }));
  Sched.run ctx.Ctx.sched;
  check_clean ctx;
  match Engine.build_progress ctx with
  | [ st ] ->
    Alcotest.(check string) "algorithm" "sf" st.BS.algorithm;
    Alcotest.(check bool) "ready" true (st.BS.phase = BS.Ready);
    Alcotest.(check int) "backlog drained" 0 st.BS.backlog;
    Alcotest.(check bool) "scan position was published" true
      (st.BS.scan_pos <> BS.Not_scanned);
    check_history st
      ~expect_phases:[ BS.Scan; BS.Merge; BS.Bulk; BS.Drain; BS.Ready ]
  | l -> Alcotest.fail (Printf.sprintf "expected 1 status, got %d" (List.length l))

let test_progress_across_crash () =
  let trace = quiet_trace () in
  let ctx = setup ~seed:21 ~trace () in
  let _ = Driver.populate ctx ~table:1 ~rows:400 ~seed:21 in
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         Ib.build_index ctx (Ib.default_config Ib.Sf) ~table:1
           { Ib.index_id = 10; key_cols = [ 0 ]; unique = false }));
  (* crash once the build reaches the merge stage or later *)
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"monitor" (fun () ->
         let continue = ref true in
         while !continue do
           (match Engine.build_progress ctx with
           | [ st ] when BS.rank st.BS.phase >= BS.rank BS.Merge ->
             Sched.request_crash ctx.Ctx.sched;
             continue := false
           | _ -> ());
           Sched.yield ctx.Ctx.sched
         done));
  (match Sched.run ctx.Ctx.sched with
  | () -> Alcotest.fail "expected crash"
  | exception Sched.Crashed -> ());
  (* the failure path recorded a dump through the surviving trace *)
  (match Trace.last_dump trace with
  | Some d ->
    Alcotest.(check bool) "crash dump mentions the crash" true
      (contains d "crash at step")
  | None -> Alcotest.fail "no crash dump");
  let ctx = Engine.crash ctx in
  (* recovery rehydrates the status from the catalog + durable progress:
     the display agrees with the restored build phase before any resume
     fiber runs (it used to stay empty until resume_builds) *)
  (match Engine.build_progress ctx with
  | [ st ] ->
    Alcotest.(check bool) "rehydrated status is mid-build" true
      (BS.rank st.BS.phase > BS.rank BS.Init && st.BS.phase <> BS.Ready)
  | l ->
    Alcotest.fail
      (Printf.sprintf "expected 1 rehydrated status, got %d" (List.length l)));
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"resume" (fun () ->
         Ib.resume_builds ctx (Ib.default_config Ib.Sf)));
  Sched.run ctx.Ctx.sched;
  check_clean ctx;
  match Engine.build_progress ctx with
  | [ st ] ->
    Alcotest.(check bool) "ready after resume" true (st.BS.phase = BS.Ready);
    check_history st ~expect_phases:[ BS.Ready ]
  | l -> Alcotest.fail (Printf.sprintf "expected 1 status, got %d" (List.length l))

(* The scan position is stored as data and formatted only when a status is
   rendered. After a full scan it reads as the last heap page's boundary,
   (page, max_int); [to_json] carries no scan position at all. *)
let check_rendered_position ctx ~alg =
  match Engine.build_progress ctx with
  | [ st ] ->
    let heap = (Catalog.table ctx.Ctx.catalog 1).Catalog.heap in
    let last = Option.get (Oib_storage.Heap_file.last_page_id heap) in
    Alcotest.(check string) (alg ^ " status line")
      (Printf.sprintf
         "index 10 [%s] ready: keys=%d backlog=0 ckpts=%d \
          rid=(%d,4611686018427387903)"
         alg st.BS.keys_processed st.BS.checkpoints last)
      (Format.asprintf "%a" BS.pp st);
    Alcotest.(check bool) (alg ^ " json has no scan position") false
      (contains (BS.to_json st) "rid")
  | l -> Alcotest.fail (Printf.sprintf "expected 1 status, got %d" (List.length l))

let build_quietly ctx alg =
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         Ib.build_index ctx (Ib.default_config alg) ~table:1
           { Ib.index_id = 10; key_cols = [ 0 ]; unique = false }))

let test_progress_rendered_rid () =
  List.iter
    (fun (alg, name) ->
      let ctx = setup ~seed:5 ~trace:(quiet_trace ()) () in
      let _ = Driver.populate ctx ~table:1 ~rows:300 ~seed:5 in
      build_quietly ctx alg;
      Sched.run ctx.Ctx.sched;
      check_clean ctx;
      check_rendered_position ctx ~alg:name)
    [ (Ib.Nsf, "nsf"); (Ib.Sf, "sf") ];
  (* crash a few pages into the scan; the resumed build scans the rest *)
  let ctx = setup ~seed:5 ~trace:(quiet_trace ()) () in
  let _ = Driver.populate ctx ~table:1 ~rows:300 ~seed:5 in
  build_quietly ctx Ib.Nsf;
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"monitor" (fun () ->
         let scan_polls = ref 0 in
         while !scan_polls < 4 do
           (match Engine.build_progress ctx with
           | [ st ] when st.BS.scan_pos <> BS.Not_scanned -> incr scan_polls
           | _ -> ());
           Sched.yield ctx.Ctx.sched
         done;
         Sched.request_crash ctx.Ctx.sched));
  (match Sched.run ctx.Ctx.sched with
  | () -> Alcotest.fail "expected crash"
  | exception Sched.Crashed -> ());
  let ctx = Engine.crash ctx in
  (match Engine.build_progress ctx with
  | [ st ] ->
    Alcotest.(check string) "crashed during the scan" "scan"
      (BS.phase_name st.BS.phase)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 status, got %d" (List.length l)));
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"resume" (fun () ->
         Ib.resume_builds ctx (Ib.default_config Ib.Nsf)));
  Sched.run ctx.Ctx.sched;
  check_clean ctx;
  check_rendered_position ctx ~alg:"nsf"

(* --- metrics refactor --- *)

let test_metrics_assoc () =
  let m = Metrics.create () in
  Metrics.add m Page_reads 3;
  Metrics.add m Txn_commits 7;
  let assoc = Metrics.to_assoc m in
  Alcotest.(check int) "one entry per counter"
    (List.length Resource.all) (List.length assoc);
  Alcotest.(check int) "names are distinct" (List.length assoc)
    (List.length (List.sort_uniq compare (List.map fst assoc)));
  Alcotest.(check int) "page_reads" 3 (List.assoc "page_reads" assoc);
  Alcotest.(check int) "txn_commits" 7 (List.assoc "txn_commits" assoc);
  let snap = Metrics.snapshot m in
  Metrics.add m Page_reads 7;
  Alcotest.(check int) "snapshot is independent" 3 (Metrics.get snap Page_reads);
  let d = Metrics.diff ~after:m ~before:snap in
  Alcotest.(check int) "diff" 7 (Metrics.get d Page_reads);
  Alcotest.(check bool) "json carries every counter" true
    (List.for_all
       (fun (name, _) ->
         contains (Resource.to_json (Metrics.totals m))
           (Printf.sprintf "\"%s\":" name))
       assoc);
  Metrics.reset m;
  Alcotest.(check bool) "reset zeroes all" true
    (List.for_all (fun (_, v) -> v = 0) (Metrics.to_assoc m))

(* --- jsonl sink --- *)

let test_jsonl_sink () =
  let trace = Trace.create () in
  let buf = Buffer.create 256 in
  Trace.add_jsonl_buffer_sink trace ~name:"buf" buf;
  let ctx = setup ~seed:2 ~trace () in
  let _ = Driver.populate ctx ~table:1 ~rows:10 ~seed:2 in
  let lines = String.split_on_char '\n' (String.trim (Buffer.contents buf)) in
  Alcotest.(check bool) "emitted lines" true (List.length lines > 5);
  List.iter
    (fun l ->
      Alcotest.(check bool) "line shape" true
        (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}');
      Alcotest.(check bool) "has step" true
        (contains l "\"step\":"))
    lines

let () =
  Alcotest.run "obs"
    [
      ( "hist",
        [
          Alcotest.test_case "percentiles match Stats.summarize" `Quick
            test_hist_matches_stats;
          Alcotest.test_case "overflow + merge + json" `Quick
            test_hist_overflow_and_merge;
        ] );
      ( "flight-recorder",
        [
          Alcotest.test_case "ring wraps" `Quick test_ring_wraps;
          Alcotest.test_case "deadlock dumps recorder" `Quick
            test_deadlock_dumps_recorder;
        ] );
      ( "events",
        [
          Alcotest.test_case "ordering matches scheduler steps" `Quick
            test_event_order_matches_steps;
          Alcotest.test_case "jsonl sink" `Quick test_jsonl_sink;
        ] );
      ( "progress",
        [
          Alcotest.test_case "nsf phases monotone" `Quick test_progress_nsf;
          Alcotest.test_case "sf backlog drained" `Quick
            test_progress_sf_backlog;
          Alcotest.test_case "across crash + resume" `Quick
            test_progress_across_crash;
          Alcotest.test_case "rendered scan position" `Quick
            test_progress_rendered_rid;
        ] );
      ( "metrics",
        [ Alcotest.test_case "field-list derivations" `Quick test_metrics_assoc ] );
    ]
