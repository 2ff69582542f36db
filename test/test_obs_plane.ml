(* The online metrics plane: sliding-window quantiles vs an exact
   histogram, the sampler's batches, signal hysteresis,
   online-vs-offline quantile agreement, per-build resource accounting
   and the overload signal under hot vs quiet traffic. *)

open Oib_core
module Sched = Oib_sim.Sched
module Trace = Oib_obs.Trace
module Event = Oib_obs.Event
module Hist = Oib_obs.Hist
module Window = Oib_obs.Window
module Signal = Oib_obs.Signal
module Resource = Oib_obs.Resource
module Driver = Oib_workload.Driver
module Quantiles = Oib_obs_analysis.Quantiles
module BS = Build_status

(* --- Window vs exact Hist ------------------------------------------- *)

(* A window over [slots] ticks must agree exactly with a histogram fed
   only the observations of the last [slots] ticks (same buckets, merged
   counts) — for any observation stream and rotation pattern. *)
let window_matches_exact (slots, ticks) =
  let w = Window.create ~slots () in
  (* per-tick observation lists, newest first *)
  let per_tick = ref [ [] ] in
  List.iter
    (fun obs_this_tick ->
      List.iter
        (fun v ->
          Window.observe w v;
          per_tick :=
            (match !per_tick with
            | cur :: rest -> (v :: cur) :: rest
            | [] -> [ [ v ] ]))
        obs_this_tick;
      Window.rotate w;
      per_tick := [] :: !per_tick)
    ticks;
  let live =
    (* the window holds the open tick plus the last [slots - 1] full ones *)
    List.filteri (fun i _ -> i < slots) !per_tick |> List.concat
  in
  let exact = Hist.create () in
  List.iter (Hist.observe exact) live;
  let q p = (Window.percentile w p, Hist.percentile exact p) in
  Window.count w = Hist.count exact
  && List.for_all (fun p -> fst (q p) = snd (q p)) [ 0.5; 0.95; 0.99 ]

let qcheck_window =
  QCheck.Test.make ~count:200 ~name:"window quantiles = exact hist of live ticks"
    QCheck.(
      pair (int_range 1 6)
        (small_list (small_list (int_range 0 5000))))
    window_matches_exact

(* Percentiles are ordered and never leave the observed range, for Hist
   and for a Window over the same observations (spread across ticks) —
   including values between bucket bounds and in the overflow bucket. *)
let percentiles_within_range (slots, obs) =
  let ordered h qs =
    let rec go prev = function
      | [] -> prev <= float_of_int (Hist.max_value h)
      | q :: rest -> prev <= q && go q rest
    in
    go (float_of_int (Hist.min_value h)) qs
  in
  let ps = [ 0.5; 0.95; 0.99 ] in
  let h = Hist.create () and w = Window.create ~slots () in
  List.iteri
    (fun i v ->
      Hist.observe h v;
      Window.observe w v;
      if i mod 3 = 2 then Window.rotate w)
    obs;
  ordered h (List.map (Hist.percentile h) ps)
  && (Window.count w = 0
     || ordered (Window.merged w) (List.map (Window.percentile w) ps))

let qcheck_percentile_range =
  QCheck.Test.make ~count:500 ~name:"min <= p50 <= p95 <= p99 <= max"
    QCheck.(
      pair (int_range 1 4) (list_of_size Gen.(1 -- 40) (int_range 0 120_000)))
    percentiles_within_range

let test_window_basics () =
  Alcotest.check_raises "slots must be positive"
    (Invalid_argument "Window.create: slots < 1") (fun () ->
      ignore (Window.create ~slots:0 ()));
  let w = Window.create ~slots:2 () in
  Alcotest.(check (float 0.0)) "empty percentile" 0.0 (Window.percentile w 0.99);
  Window.observe w 10;
  Window.rotate w;
  Window.observe w 20;
  Alcotest.(check int) "both ticks live" 2 (Window.count w);
  Window.rotate w;
  (* first tick's observation has aged out *)
  Alcotest.(check int) "oldest aged out" 1 (Window.count w);
  Alcotest.(check int) "rotations counted" 2 (Window.rotations w)

(* --- signal hysteresis ---------------------------------------------- *)

let test_signal_hysteresis () =
  let v = ref 0.0 in
  let set = Signal.create_set () in
  Signal.register set ~name:"overload" ~raise_above:10.0 ~clear_below:5.0
    ~source:(fun () -> !v);
  let log = ref [] in
  Signal.subscribe set (fun s change -> log := (Signal.name s, change) :: !log);
  let drive values = List.iter (fun x -> v := x; ignore (Signal.eval set)) values in
  let s = Option.get (Signal.find set "overload") in
  (* noise below the raise threshold: never raises *)
  drive [ 0.0; 9.9; 6.0; 9.9 ];
  Alcotest.(check bool) "below raise: quiet" false (Signal.active s);
  (* raise once, then oscillate inside the dead band: no flapping *)
  drive [ 12.0; 7.0; 9.0; 5.1; 9.9; 6.0 ];
  Alcotest.(check bool) "raised" true (Signal.active s);
  Alcotest.(check int) "one flip despite noise" 1 (Signal.flips s);
  (* clear only at clear_below, stay clear inside the dead band *)
  drive [ 5.0; 6.0; 9.9 ];
  Alcotest.(check bool) "cleared" false (Signal.active s);
  Alcotest.(check int) "two flips total" 2 (Signal.flips s);
  drive [ 10.0 ];
  Alcotest.(check int) "re-raised at threshold" 3 (Signal.flips s);
  Alcotest.(check (list (pair string bool)))
    "subscriber saw exactly the transitions"
    [ ("overload", true); ("overload", false); ("overload", true) ]
    (List.rev_map (fun (n, c) -> (n, c = Signal.Raised)) !log);
  (* re-registering keeps state but swaps thresholds/source *)
  Signal.register set ~name:"overload" ~raise_above:100.0 ~clear_below:0.0
    ~source:(fun () -> 50.0);
  Alcotest.(check bool) "state survives re-register" true (Signal.active s);
  ignore (Signal.eval set);
  Alcotest.(check bool) "still active in new dead band" true (Signal.active s);
  Alcotest.check_raises "inverted thresholds"
    (Invalid_argument "Signal.register \"bad\": clear_below > raise_above")
    (fun () ->
      Signal.register set ~name:"bad" ~raise_above:1.0 ~clear_below:2.0
        ~source:(fun () -> 0.0))

(* --- online window vs offline Quantiles ----------------------------- *)

(* Simulate the sampler's cadence over a synthetic event stream and
   check the online window agrees with the offline sliding-window
   replay at every tick. Same Hist buckets on both sides, and the
   window's live coverage at tick [s] is exactly (s - slots*every, s],
   so agreement is exact, not just within a bucket. *)
let test_online_vs_offline () =
  let slots = 4 and every = 25 and total = 500 in
  let rng = Random.State.make [| 42 |] in
  let w = Window.create ~slots () in
  let obs = ref [] in
  let checked = ref 0 in
  for step = 1 to total do
    (* a bursty latency source: quiet baseline, occasional spikes *)
    if Random.State.int rng 3 = 0 then begin
      let v =
        if Random.State.int rng 10 = 0 then 200 + Random.State.int rng 200
        else Random.State.int rng 30
      in
      Window.observe w v;
      obs := (step, v) :: !obs
    end;
    if step mod every = 0 then begin
      let off =
        Quantiles.over_range ~from:(step - (slots * every)) ~upto:step
          (List.rev !obs)
      in
      Alcotest.(check int)
        (Printf.sprintf "count at step %d" step)
        off.Quantiles.count (Window.count w);
      List.iter
        (fun (p, offline) ->
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "p%.0f at step %d" (p *. 100.) step)
            offline (Window.percentile w p))
        [
          (0.5, off.Quantiles.p50);
          (0.95, off.Quantiles.p95);
          (0.99, off.Quantiles.p99);
        ];
      incr checked;
      Window.rotate w
    end
  done;
  Alcotest.(check int) "compared at every tick" (total / every) !checked

(* offline series extraction matches the documented key semantics *)
let test_quantile_series () =
  let stamp step event = { Event.step; fiber = 1; fiber_name = "w"; event } in
  let events =
    [
      stamp 5 (Event.Txn_commit { txn = 1; latency = 10 });
      stamp 9 (Event.Txn_abort { txn = 2; latency = 30 });
      stamp 12 (Event.Latch_acquired { latch = "l"; mode = "X"; waited = 3 });
      stamp 15 (Event.Lock_acquired { owner = 1; target = "t"; mode = "S"; waited = 8 });
    ]
  in
  Alcotest.(check (list (pair int int)))
    "txn_latency = commits + aborts"
    [ (5, 10); (9, 30) ]
    (Quantiles.series Quantiles.Txn_latency events);
  Alcotest.(check (list (pair int int)))
    "fg_latency = commits only" [ (5, 10) ]
    (Quantiles.series Quantiles.Fg_latency events);
  Alcotest.(check (list (pair int int)))
    "lock_wait from acquisition" [ (15, 8) ]
    (Quantiles.series Quantiles.Lock_wait events)

(* --- engine integration: accounting + overload signal --------------- *)

let build_with_workload ~workers ~txns ~seed =
  let trace = Trace.create () in
  let flips = ref [] in
  let ctx = Engine.create ~seed ~page_capacity:256 ~trace () in
  Signal.subscribe ctx.Ctx.signals (fun s change ->
      flips := (Signal.name s, change) :: !flips);
  let _ = Catalog.create_table ctx.Ctx.catalog ctx.Ctx.pool ~table_id:1 in
  let _ = Driver.populate ctx ~table:1 ~rows:800 ~seed in
  Obs_sampler.install ctx ~every:40;
  let _ =
    if workers > 0 then
      Driver.spawn_workers ctx
        { Driver.default with seed; workers; txns_per_worker = txns }
        ~table:1
    else
      ref
        { Driver.committed = 0; aborted = 0; deadlocks = 0; unique_violations = 0 }
  in
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         Ib.build_index ctx (Ib.default_config Ib.Nsf) ~table:1
           { Ib.index_id = 10; key_cols = [ 0 ]; unique = false }));
  Sched.run ctx.Ctx.sched;
  Alcotest.(check (list string)) "consistent" [] (Engine.consistency_errors ctx);
  (ctx, flips)

let test_per_build_accounting () =
  let ctx, _ = build_with_workload ~workers:3 ~txns:12 ~seed:11 in
  match Engine.build_progress ctx with
  | [ st ] ->
    let r = st.BS.resources in
    let get = Resource.get r in
    Alcotest.(check bool) "build did page writes" true (get Page_writes > 0);
    Alcotest.(check bool) "build wrote WAL" true (get Log_bytes > 0);
    Alcotest.(check bool) "sort compares charged" true (get Sort_compares > 0);
    (* phase costs partition the total: summing them gives the live total *)
    let summed = Resource.create () in
    List.iter (fun (_, c) -> Resource.add_into ~into:summed c) (BS.phase_costs st);
    Alcotest.(check int) "phase costs sum to total" (get Sort_compares)
      (Resource.get summed Sort_compares);
    Alcotest.(check int) "phase log bytes sum to total" (get Log_bytes)
      (Resource.get summed Log_bytes);
    (* the compares were spent in scan/merge, not attributed to ready *)
    let in_phases phases counter =
      List.fold_left
        (fun acc (p, c) ->
          if List.mem p phases then acc + Resource.get c counter else acc)
        0 (BS.phase_costs st)
    in
    Alcotest.(check int) "compares land in scan+merge" (get Sort_compares)
      (in_phases [ BS.Scan; BS.Merge ] Sort_compares)
  | l -> Alcotest.failf "expected 1 build status, got %d" (List.length l)

(* §6.2: one NSF scan feeds two builds' sorters while updaters run. Each
   build's account holds its own sort work, its phase costs sum to it,
   and no event is charged to two builds: for every counter the accounts
   add up to at most the engine totals' delta over the build. *)
let test_multi_build_attribution () =
  let ctx = Engine.create ~seed:5 ~page_capacity:256 () in
  let _ = Catalog.create_table ctx.Ctx.catalog ctx.Ctx.pool ~table_id:1 in
  let _ = Driver.populate ctx ~table:1 ~rows:800 ~seed:5 in
  let _ =
    Driver.spawn_workers ctx
      { Driver.default with seed = 5; workers = 3; txns_per_worker = 12 }
      ~table:1
  in
  let before = Oib_sim.Metrics.snapshot ctx.Ctx.metrics in
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         Ib.build_indexes ctx (Ib.default_config Ib.Nsf) ~table:1
           [
             { Ib.index_id = 10; key_cols = [ 0 ]; unique = false };
             { Ib.index_id = 11; key_cols = [ 1 ]; unique = false };
           ]));
  Sched.run ctx.Ctx.sched;
  Alcotest.(check (list string)) "consistent" [] (Engine.consistency_errors ctx);
  let builds = Engine.build_progress ctx in
  Alcotest.(check int) "two builds" 2 (List.length builds);
  let charged = Resource.create () in
  List.iter
    (fun (st : BS.t) ->
      let r = st.BS.resources in
      let label what = Printf.sprintf "build %d: %s" st.BS.index_id what in
      Alcotest.(check bool) (label "own sort compares") true
        (Resource.get r Sort_compares > 0);
      let phases = Resource.create () in
      List.iter (fun (_, c) -> Resource.add_into ~into:phases c) (BS.phase_costs st);
      Alcotest.(check (list (pair string int))) (label "phase costs sum to total")
        (Resource.to_assoc r) (Resource.to_assoc phases);
      Resource.add_into ~into:charged r)
    builds;
  let delta = Oib_sim.Metrics.diff ~after:ctx.Ctx.metrics ~before in
  List.iter2
    (fun (name, sum) (_, total) ->
      if sum > total then
        Alcotest.failf "%s: builds charged %d, engine delta %d" name sum total)
    (Resource.to_assoc charged)
    (Oib_sim.Metrics.to_assoc delta)

let overload_changes flips =
  List.rev
    (List.filter_map
       (fun (name, change) ->
         if name = "overload.fg_p99" then Some change else None)
       !flips)

let test_overload_hot_then_drain () =
  let ctx, flips = build_with_workload ~workers:4 ~txns:25 ~seed:7 in
  let raised = List.mem Signal.Raised (overload_changes flips) in
  Alcotest.(check bool) "hot traffic raises overload.fg_p99" true raised;
  (* traffic has stopped: keep ticking so the window drains and the
     signal clears through hysteresis, not by reset *)
  for _ = 1 to 12 do
    Obs_sampler.sample ctx
  done;
  let changes = overload_changes flips in
  Alcotest.(check bool) "drained window clears the signal" true
    (List.length changes >= 2
    && List.nth changes (List.length changes - 1) = Signal.Cleared);
  let s = Option.get (Signal.find ctx.Ctx.signals "overload.fg_p99") in
  Alcotest.(check bool) "inactive after drain" false (Signal.active s)

let test_overload_quiet () =
  let _, flips = build_with_workload ~workers:0 ~txns:0 ~seed:7 in
  Alcotest.(check (list (pair string bool))) "no overload without updaters" []
    (List.filter_map
       (fun (name, change) ->
         if name = "overload.fg_p99" then Some (name, change = Signal.Raised)
         else None)
       !flips)

(* sampler emission: window/signal keys appear once per batch *)
let test_sampler_emits_plane_keys () =
  let trace = Trace.create () in
  let samples = ref [] in
  Trace.add_sink trace ~name:"t" (fun (s : Event.stamped) ->
      match s.event with
      | Event.Sample { key; value } -> samples := (s.step, key, value) :: !samples
      | _ -> ());
  let ctx, _ =
    let ctx = Engine.create ~seed:3 ~page_capacity:256 ~trace () in
    (ctx, ())
  in
  let _ = Catalog.create_table ctx.Ctx.catalog ctx.Ctx.pool ~table_id:1 in
  let _ = Driver.populate ctx ~table:1 ~rows:200 ~seed:3 in
  Obs_sampler.install ctx ~every:30;
  let _ =
    Driver.spawn_workers ctx
      { Driver.default with seed = 3; workers = 2; txns_per_worker = 8 }
      ~table:1
  in
  Sched.run ctx.Ctx.sched;
  let keys_at_last_batch =
    match !samples with
    | [] -> []
    | (last, _, _) :: _ ->
      List.filter_map
        (fun (s, k, _) -> if s = last then Some k else None)
        !samples
  in
  (* a batch's full key list in order: the namespace the offline tools
     read (Event.Sample) *)
  Alcotest.(check (list string)) "last batch, in order"
    [
      "window.fg.latency.p50"; "window.fg.latency.p95";
      "window.fg.latency.p99"; "window.fg.latency.count";
      "metrics.fast_path_inserts"; "metrics.keys_inserted";
      "metrics.keys_rejected_duplicate"; "metrics.latch_acquires";
      "metrics.latch_wait_steps"; "metrics.latch_waits";
      "metrics.lock_calls"; "metrics.lock_wait_steps"; "metrics.lock_waits";
      "metrics.log_bytes"; "metrics.log_flushes"; "metrics.log_records";
      "metrics.page_reads"; "metrics.page_splits"; "metrics.page_writes";
      "metrics.pages_evicted"; "metrics.pseudo_deletes";
      "metrics.run_spills"; "metrics.sequential_reads";
      "metrics.sidefile_appends"; "metrics.sort_compares";
      "metrics.tree_traversals"; "metrics.txn_aborts";
      "metrics.txn_commits"; "pool.cached_pages"; "pool.dirty_pages";
      "rate.log_bytes"; "rate.page_reads"; "rate.page_writes";
      "rate.txn_commits"; "throttle.level"; "wal.durable_bytes";
      "wal.unflushed_bytes"; "signal.overload.fg_p99";
      "signal.pool.dirty_ratio"; "signal.wal.backlog";
    ]
    (List.rev keys_at_last_batch)

(* the sampled wal.durable_bytes reads the live incarnation's log *)
let test_durable_bytes_gauge () =
  let trace = Trace.create () in
  let last = ref None in
  Trace.add_sink trace ~name:"t" (fun (s : Event.stamped) ->
      match s.event with
      | Event.Sample { key = "wal.durable_bytes"; value } -> last := Some value
      | _ -> ());
  let gauge ctx =
    last := None;
    Obs_sampler.sample ctx;
    match !last with
    | Some n -> n
    | None -> Alcotest.fail "no wal.durable_bytes sample"
  in
  let check what ctx =
    Alcotest.(check int) what
      (Oib_wal.Log_manager.durable_bytes ctx.Ctx.log)
      (gauge ctx)
  in
  let ctx = Engine.create ~seed:3 ~page_capacity:256 ~trace () in
  let _ = Catalog.create_table ctx.Ctx.catalog ctx.Ctx.pool ~table_id:1 in
  let _ = Driver.populate ctx ~table:1 ~rows:200 ~seed:3 in
  (match
     Engine.run_txn ctx (fun txn ->
         Table_ops.insert ctx txn ~table:1 (Oib_util.Record.make [| "k"; "v" |]))
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "insert did not commit");
  check "after a commit" ctx;
  let ctx = Engine.crash ctx in
  check "after crash-restart" ctx;
  let before = gauge ctx in
  let reclaimed = Engine.truncate_log ctx in
  check "after truncate_log" ctx;
  Alcotest.(check bool) "truncation reclaimed bytes" true (reclaimed > 0);
  Alcotest.(check bool) "the gauge fell" true (gauge ctx < before)

let () =
  Alcotest.run "obs_plane"
    [
      ( "window",
        [
          Alcotest.test_case "basics" `Quick test_window_basics;
          QCheck_alcotest.to_alcotest qcheck_window;
          QCheck_alcotest.to_alcotest qcheck_percentile_range;
        ] );
      ("signal", [ Alcotest.test_case "hysteresis" `Quick test_signal_hysteresis ]);
      ( "quantiles",
        [
          Alcotest.test_case "online vs offline" `Quick test_online_vs_offline;
          Alcotest.test_case "series extraction" `Quick test_quantile_series;
        ] );
      ( "engine",
        [
          Alcotest.test_case "per-build accounting" `Quick test_per_build_accounting;
          Alcotest.test_case "multi-build attribution" `Quick
            test_multi_build_attribution;
          Alcotest.test_case "overload raises then clears" `Quick
            test_overload_hot_then_drain;
          Alcotest.test_case "quiet stays quiet" `Quick test_overload_quiet;
          Alcotest.test_case "sampler plane keys" `Quick
            test_sampler_emits_plane_keys;
          Alcotest.test_case "wal.durable_bytes gauge" `Quick
            test_durable_bytes_gauge;
        ] );
    ]
