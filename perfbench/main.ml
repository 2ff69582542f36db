(* The repository benchmark: one workload per process.

     main.exe --workload W [--seed S] [--seconds N] [--trace 0|1]
              [--rows R] [--trajectory FILE]

   Repetitions run back to back, each on a fresh engine, until N seconds
   have passed; [Gc.compact] runs untimed before each. Every wall time is
   scaled by the host speed measured around its repetition (see
   [host_reference_ns]). Repetition i draws its inputs and schedule from
   a sub-seed of (S, i), so one run averages over several schedules
   instead of repeating one. The first repetition
   is a warm-up that lets the process heap grow and is not reported; it
   uses the sub-seed of the first measured repetition, and the two must
   produce identical deterministic counts. Each reported value is the
   median over the measured repetitions (at least one) of its value in
   one repetition; latency percentiles are taken within a repetition.
   Every repetition must pass the consistency and lifecycle oracles;
   otherwise the result is marked incorrect and the exit code is 1.

   With --trace 1 one more repetition runs traced ({!Layers}) on the first
   sub-seed, followed by the layer probes ({!Probes}), and the JSON result
   carries the per-layer metrics instead of the end-to-end ones. Output:
   one [workload metric value unit] line per metric, then one JSON object
   as the last line. *)

let now = Layers.now

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  Oib_util.Stats.percentile a 0.5

let pct part whole = 100. *. float_of_int part /. float_of_int (max 1 whole)

let sub_seed seed i = Hashtbl.hash (seed, i)

(* Host speed. The shared host this benchmark was defined on (Intel Xeon,
   2-vCPU KVM guest) slows allocation-heavy work by up to 2x in spells
   lasting from seconds to minutes: no number of repetitions averages
   that away, and a run that lands in one would read as a regression.
   This fixed, repository-independent allocation loop slows in step with
   the engine (over 10 minutes of set-up timings, dividing by it cut the
   run-to-run spread about threefold). It runs after [Gc.compact], with no
   engine alive, before and after every repetition (the median of three
   passes each time); the repetition's wall times are multiplied by
   [nominal_reference_ns] over the mean of the two readings, so on a calm
   host the scale is about 1. *)
let host_reference_ns () =
  Gc.compact ();
  let pass () =
    let t0 = now () in
    let h = Hashtbl.create 64 in
    for k = 0 to 200_000 do
      Hashtbl.replace h (Printf.sprintf "k%d" (k land 4095)) (k, k)
    done;
    ignore (Sys.opaque_identity h);
    float_of_int (now () - t0)
  in
  median [ pass (); pass (); pass () ]

let nominal_reference_ns = 55e6

(* [r] with every wall time multiplied by [scale] *)
let scaled scale (r : Rep.result) =
  let t ns = int_of_float (float_of_int ns *. scale) in
  let lat = Array.map t (Load.latencies r.fg) in
  {
    r with
    setup_ns = t r.setup_ns;
    window_ns = t r.window_ns;
    fg_ns = t r.fg_ns;
    fg = { r.fg with latencies = lat; samples = Array.length lat };
  }

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let units =
  [ ("setup_s", "s"); ("window_s", "s"); ("txn_per_s", "txn/s");
    ("txn_p50_us", "us"); ("txn_p99_us", "us"); ("log_bytes_per_row", "B/row") ]

(* The end-to-end metrics of one repetition, in [units] order. *)
let per_rep ~rows (r : Rep.result) =
  let lat = Array.map float_of_int (Load.latencies r.fg) in
  Array.sort compare lat;
  let pctl p = Oib_util.Stats.percentile lat p /. 1e3 in
  [
    float_of_int r.setup_ns /. 1e9;
    float_of_int r.window_ns /. 1e9;
    float_of_int r.fg.Load.committed /. (float_of_int r.fg_ns /. 1e9);
    pctl 0.50;
    pctl 0.99;
    float_of_int (List.assoc "metrics.log_bytes" r.counts) /. float_of_int rows;
  ]

let end_to_end ~rows (reps : Rep.result list) =
  let values = List.map (per_rep ~rows) reps in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1e6
  in
  List.mapi
    (fun i (name, unit_) ->
      m name unit_ (median (List.map (fun v -> List.nth v i) values)))
    units
  @ [ m "peak_heap_mb" "MB" heap_mb ]

(* Counts come from the first measured repetition, whose inputs the
   traced one repeats; oltp-ready has no build counts, which read 0. The
   traced repetition's times are raw except for the overhead, which
   compares host-scaled windows. *)
let per_layer (reps : Rep.result list) ((traced : Rep.result), traced_scale) probes =
  let first = List.hd reps in
  let count k =
    float_of_int (Option.value ~default:0 (List.assoc_opt k first.counts))
  in
  let l = Option.get traced.layers in
  let wall = Layers.wall_ns l in
  let window_ns =
    median (List.map (fun (r : Rep.result) -> float_of_int r.window_ns) reps)
  in
  let ns_per_step =
    median
      (List.map
         (fun (r : Rep.result) ->
           float_of_int r.window_ns
           /. float_of_int (max 1 (List.assoc "sim.steps" r.counts)))
         reps)
  in
  let phase_names = [ "init"; "quiesce"; "scan"; "merge"; "insert"; "bulk"; "drain" ] in
  [
    m "sim.steps" "count" (count "sim.steps");
    m "sim.ns_per_step" "ns" ns_per_step;
    m "sim.latch_acquires" "count" (count "metrics.latch_acquires");
    m "sim.latch_waits" "count" (count "metrics.latch_waits");
    m "sim.latch_wait_pct" "%" (pct (Layers.span_total_ns l "latch") wall);
    m "sim.unattributed_ns" "ns" (float_of_int l.Layers.hook_ns);
    m "lock.calls" "count" (count "metrics.lock_calls");
    m "lock.waits" "count" (count "metrics.lock_waits");
    m "lock.deadlocks" "count" (count "fg.deadlocks");
    m "lock.wait_pct" "%" (pct (Layers.span_total_ns l "lock") wall);
    m "wal.records" "count" (count "metrics.log_records");
    m "wal.bytes" "B" (count "metrics.log_bytes");
    m "wal.flushes" "count" (count "metrics.log_flushes");
    m "wal.flush_pct" "%" (pct (Layers.span_self_ns l "logflush") wall);
    m "storage.heap_pages" "count" (count "storage.heap_pages");
    m "storage.page_reads" "count" (count "metrics.page_reads");
    m "storage.page_writes" "count" (count "metrics.page_writes");
    m "storage.read_pct" "%" (pct (Layers.span_self_ns l "io.read") wall);
    m "storage.write_pct" "%" (pct (Layers.span_self_ns l "io.write") wall);
    m "btree.traversals" "count" (count "metrics.tree_traversals");
    m "btree.fast_path_inserts" "count" (count "metrics.fast_path_inserts");
    m "btree.splits" "count" (count "metrics.page_splits");
    m "btree.depth" "count" (count "btree.depth");
    m "btree.leaf_count" "count" (count "btree.leaf_count");
    m "sort.compares" "count" (count "build.sort_compares");
    m "sort.runs" "count" (count "build.run_spills");
    m "sidefile.appends" "count" (count "metrics.sidefile_appends");
    m "sidefile.peak_backlog" "count" (float_of_int l.Layers.peak_backlog);
    m "txn.commits" "count" (count "metrics.txn_commits");
    m "txn.rollbacks" "count" (count "metrics.txn_aborts");
    m "txn.stall_steps" "count" (count "metrics.txn_stall_steps");
    m "txn.busy_pct" "%" (pct (Layers.class_ns l "updater") wall);
  ]
  @ List.map
      (fun p ->
        m ("ib." ^ p ^ "_pct") "%" (pct (Layers.phase_ns l (Layers.phase_index p)) wall))
      phase_names
  @ List.map
      (fun p -> m ("ib." ^ p ^ "_steps") "count" (count ("ib." ^ p ^ "_steps")))
      phase_names
  @ [
      m "ib.keys_processed" "count" (count "ib.keys_processed");
      m "ib.checkpoints" "count" (count "ib.checkpoints");
      m "obs.trace_overhead_pct" "%"
        (100.
        *. ((float_of_int traced.window_ns *. traced_scale /. window_ns) -. 1.));
      m "obs.attributed_pct" "%"
        (pct (Layers.attributed_ns l + l.Layers.hook_ns) traced.window_ns);
      m "gc.minor_mwords" "Mword"
        (median (List.map (fun (r : Rep.result) -> r.minor_words /. 1e6) reps));
      m "gc.major_collections" "count"
        (median
           (List.map (fun (r : Rep.result) -> float_of_int r.major_collections) reps));
    ]
  @ List.map (fun (k, v) -> m k "ns" v) probes

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.12g" v
  else invalid_arg "non-finite metric"

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun x ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
           (json_number x.value) x.unit_)
       metrics)

(* one kind:bench record per run, keys sorted, appended so that later
   changes can cite before/after evidence *)
let append_trajectory path ~workload ~seed ~rows ~repetitions metrics =
  let sorted = List.sort (fun a b -> compare a.name b.name) metrics in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Printf.fprintf oc
    "{\"kind\":\"bench\",\"metrics\":{%s},\"repetitions\":%d,\"rows\":%d,\
     \"schema\":\"bench-trajectory/v1\",\"seed\":%d,\"workload\":%S}\n"
    (String.concat ","
       (List.map (fun x -> Printf.sprintf "%S:%s" x.name (json_number x.value)) sorted))
    repetitions rows seed workload;
  close_out oc

let main ~workload ~seed ~seconds ~trace ~rows ~trajectory =
  let w =
    match List.find_opt (fun (w : Rep.workload) -> w.name = workload) Rep.workloads with
    | Some w -> w
    | None ->
      failwith
        (Printf.sprintf "unknown workload %S (known: %s)" workload
           (String.concat ", " (List.map (fun (w : Rep.workload) -> w.name) Rep.workloads)))
  in
  let t_start = now () in
  let reference = ref (host_reference_ns ()) in
  (* a repetition and its host-speed scale *)
  let rep i ~traced ~inspect =
    let r, x = Rep.run w ~rows ~seed:(sub_seed seed i) ~traced ~inspect in
    let before = !reference in
    reference := host_reference_ns ();
    let scale = 2. *. nominal_reference_ns /. (before +. !reference) in
    ((r, scale), x)
  in
  let (warmup, _), () = rep 0 ~traced:false ~inspect:ignore in
  let rec repeat i acc =
    let (r, scale), () = rep i ~traced:false ~inspect:ignore in
    let acc = (scaled scale r, scale) :: acc in
    if float_of_int (now () - t_start) /. 1e9 >= seconds then List.rev acc
    else repeat (i + 1) acc
  in
  let measured = repeat 0 [] in
  let reps = List.map fst measured in
  let e2e = end_to_end ~rows reps in
  let traced =
    if trace then Some (rep 0 ~traced:true ~inspect:Probes.run) else None
  in
  let first = List.hd reps in
  let same_inputs =
    warmup :: Option.fold ~none:[] ~some:(fun ((r, _), _) -> [ r ]) traced
  in
  let runs = reps @ same_inputs in
  let oracle_failures =
    List.filter (fun (r : Rep.result) -> r.errors <> []) runs
  in
  List.iter
    (fun (r : Rep.result) -> List.iter prerr_endline r.errors)
    oracle_failures;
  let drifted =
    List.exists (fun (r : Rep.result) -> r.counts <> first.counts) same_inputs
  in
  if drifted then prerr_endline "deterministic counts differ between repetitions";
  let correct = oracle_failures = [] && not drifted in
  let attempted =
    List.fold_left (fun acc (r : Rep.result) -> acc + 1 + r.fg.Load.requests) 0 runs
  in
  let failed =
    List.length oracle_failures
    + List.fold_left
        (fun acc (r : Rep.result) -> acc + r.fg.Load.failed)
        0 runs
  in
  let reported =
    match traced with
    | Some (traced, probes) -> per_layer reps traced probes
    | None -> e2e
  in
  List.iter
    (fun x -> Printf.printf "%s %s %s %s\n" workload x.name (json_number x.value) x.unit_)
    (if trace then e2e @ reported else e2e);
  List.iteri
    (fun i (r, scale) ->
      Printf.printf "# rep %d: %s txn_samples=%d host_scale=%.4f\n" (i + 1)
        (String.concat " "
           (List.map2
              (fun (k, _) v -> Printf.sprintf "%s=%s" k (json_number v))
              units (per_rep ~rows r)))
        r.Rep.fg.Load.samples scale)
    measured;
  Printf.printf "# repetitions=%d attempted=%d failed=%d rows=%d seed=%d\n"
    (List.length reps) attempted failed rows seed;
  Option.iter
    (fun path ->
      append_trajectory path ~workload ~seed ~rows ~repetitions:(List.length reps) e2e)
    trajectory;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (json_metrics reported);
  if correct then 0 else 1

let () =
  let workload = ref "" and seed = ref 7 and seconds = ref 10. and trace = ref 0 in
  let rows = ref 100_000 and trajectory = ref None in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W one of the workloads in Rep.workloads");
      ("--seed", Arg.Set_int seed, "S input and schedule seed (default 7)");
      ("--seconds", Arg.Set_float seconds, "N keep repeating until N seconds passed (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 report the per-layer metrics (default 0)");
      ("--rows", Arg.Set_int rows, "R table rows (default 100000)");
      ( "--trajectory",
        Arg.String (fun p -> trajectory := Some p),
        "FILE append a kind:bench record to FILE" );
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W [options]";
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  exit
    (main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
       ~rows:!rows ~trajectory:!trajectory)
