(* Instrumented NSF + SF builds: per-phase virtual-time timings from the
   build-progress API and latency histogram summaries from the trace hub,
   written as machine-readable JSON (BENCH_obs.json) next to the printed
   report. *)

open Oib_core
module Sched = Oib_sim.Sched
module Driver = Oib_workload.Driver
module Trace = Oib_obs.Trace
module Hist = Oib_obs.Hist
module Resource = Oib_obs.Resource
module Json = Oib_obs_analysis.Json
module Profiler = Oib_obs.Profiler
module BS = Build_status

type run_result = {
  algorithm : string;
  seed : int;
  total_steps : int;
  status : BS.t;
  trace : Trace.t;
  samples : (int * string * int) list; (* (step, key, value), time order *)
  prof : Profiler.t;
}

let one_build alg ~rows ~workers ~txns ~seed ~sample_every =
  let trace = Trace.create () in
  ignore (Trace.attach_recorder trace ~capacity:1024);
  Trace.set_on_dump trace prerr_endline;
  (* collect the sampler's time series straight off the event stream *)
  let samples = ref [] in
  Trace.add_sink trace ~name:"series" (fun (s : Oib_obs.Event.stamped) ->
      match s.event with
      | Oib_obs.Event.Sample { key; value } ->
        samples := (s.step, key, value) :: !samples
      | _ -> ());
  let ctx = Engine.create ~seed ~page_capacity:1024 ~trace () in
  let _ = Catalog.create_table ctx.Ctx.catalog ctx.Ctx.pool ~table_id:1 in
  let _ = Driver.populate ctx ~table:1 ~rows ~seed in
  Obs_sampler.install ctx ~every:sample_every;
  (* a denser cadence than the metrics plane: profiles want stacks, not
     series, and sampling from a hook never advances virtual time *)
  let prof, _ =
    Obs_sampler.install_profiler ctx ~every:(max 1 (sample_every / 10)) ()
  in
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
         Ib.build_index ctx (Ib.default_config alg) ~table:1
           { Ib.index_id = 10; key_cols = [ 0 ]; unique = false }));
  Sched.run ctx.Ctx.sched;
  (match Engine.consistency_errors ctx with
  | [] -> ()
  | errs ->
    List.iter prerr_endline errs;
    failwith "obs_report: consistency oracle failed");
  match Engine.build_progress ctx with
  | [ status ] ->
    {
      algorithm = (match alg with Ib.Nsf -> "nsf" | Ib.Sf -> "sf");
      seed;
      total_steps = Sched.steps ctx.Ctx.sched;
      status;
      trace;
      samples = List.rev !samples;
      prof;
    }
  | l -> failwith (Printf.sprintf "obs_report: %d statuses" (List.length l))

(* (phase, enter, duration) from the status history; the last phase runs
   to the end of the schedule *)
let phase_spans r =
  let rec spans = function
    | (p, s0) :: ((_, s1) :: _ as rest) -> (p, s0, s1 - s0) :: spans rest
    | [ (p, s0) ] -> [ (p, s0, r.total_steps - s0) ]
    | [] -> []
  in
  spans (BS.history r.status)

let json_of_run r =
  let b = Buffer.create 1024 in
  Buffer.add_char b '{';
  Printf.bprintf b "\"algorithm\":%S,\"seed\":%d,\"total_steps\":%d,"
    r.algorithm r.seed r.total_steps;
  Printf.bprintf b "\"keys_processed\":%d,\"checkpoints\":%d,"
    r.status.BS.keys_processed r.status.BS.checkpoints;
  Buffer.add_string b "\"phases\":[";
  List.iteri
    (fun i (p, enter, steps) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "{\"phase\":%S,\"enter_step\":%d,\"steps\":%d}"
        (BS.phase_name p) enter steps)
    (phase_spans r);
  Buffer.add_string b "],\"histograms\":{";
  List.iteri
    (fun i (name, h) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "%S:%s" name (Hist.to_json h))
    (Trace.hists r.trace);
  (* the sampler's time series: key -> [[step, value], ...], so build
     progress can be plotted against updater throughput *)
  Buffer.add_string b "},\"series\":{";
  let keys = ref [] in
  let by_key = Hashtbl.create 32 in
  List.iter
    (fun (step, key, value) ->
      if not (Hashtbl.mem by_key key) then keys := key :: !keys;
      Hashtbl.replace by_key key
        ((step, value)
        :: Option.value (Hashtbl.find_opt by_key key) ~default:[]))
    r.samples;
  List.iteri
    (fun i key ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "%S:[" key;
      List.iteri
        (fun j (step, value) ->
          if j > 0 then Buffer.add_char b ',';
          Printf.bprintf b "[%d,%d]" step value)
        (List.rev (Hashtbl.find by_key key));
      Buffer.add_char b ']')
    (List.rev !keys);
  Buffer.add_string b "}}";
  Buffer.contents b

(* BENCH_core.json: the standardized run trajectory every bench config
   emits — wall time in virtual steps, the build's attributed cost
   (compares, WAL bytes), foreground latency p99, and the per-phase
   resource breakdown — so runs are comparable across machines (virtual
   time) and across PRs (the smoke baseline check below). *)
let json_of_core_run r =
  let res = r.status.BS.resources in
  let fg_p99 =
    match Trace.find_hist r.trace "txn_latency" with
    | Some h -> Hist.percentile h 0.99
    | None -> 0.0
  in
  let b = Buffer.create 1024 in
  Printf.bprintf b
    "{\"name\":%S,\"algorithm\":%S,\"seed\":%d,\"wall_steps\":%d,"
    r.algorithm r.algorithm r.seed r.total_steps;
  Printf.bprintf b "\"compares\":%d,\"log_bytes\":%d,\"fg_p99\":%.1f,"
    (Resource.get res Sort_compares) (Resource.get res Log_bytes) fg_p99;
  (* where the steps went: the profiler's wait-state breakdown, so a
     baseline failure can be explained (`oib-trace prof diff`) and not just
     detected. The baseline gate below reads only name + [gated], so
     adding this section never trips old baselines. *)
  Printf.bprintf b "\"profile\":{\"samples\":%d,\"rounds\":%d,\"by_state\":{"
    (Profiler.total (Profiler.fold r.prof)) (Profiler.ticks r.prof);
  List.iteri
    (fun i (state, n) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "%S:%d" state n)
    (Profiler.by_state (Profiler.fold r.prof));
  Buffer.add_string b "}},";
  Printf.bprintf b "\"cost\":%s,\"phases\":[" (Resource.to_json res);
  (* phase_spans and phase_costs both derive one entry per history
     transition, oldest first — pair them positionally *)
  let rec phases i spans costs =
    match (spans, costs) with
    | (p, _, steps) :: spans, (_, cost) :: costs ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "{\"phase\":%S,\"steps\":%d,\"cost\":%s}"
        (BS.phase_name p) steps (Resource.to_json cost);
      phases (i + 1) spans costs
    | _ -> ()
  in
  phases 0 (phase_spans r) (BS.phase_costs r.status);
  Buffer.add_string b "]}";
  Buffer.contents b

(* resume_overhead: what a mid-build crash costs when the resumed scan
   restarts from the sort checkpoint, measured by Experiments.measure_resume on this config's rows.
   A top-level key next to "runs" — the baseline gate below reads only
   runs' name + [gated], so old baselines keep validating. *)
let json_of_resume (m : Experiments.resume_measure) =
  Printf.sprintf
    "{\"algorithm\":%S,\"crash_step\":%d,\"full_steps\":%d,\
     \"overhead_pct\":%.1f,\"pages_rescanned\":%d,\"resumed_steps\":%d}"
    (String.lowercase_ascii m.Experiments.r_alg)
    m.Experiments.r_crash_step m.Experiments.r_full_steps
    m.Experiments.r_overhead_pct m.Experiments.r_pages_rescanned
    m.Experiments.r_resumed_steps

let write_core_json ?(resume = []) runs out =
  let oc = open_out out in
  Printf.fprintf oc
    "{\"schema\":\"bench-core/v1\",\"resume_overhead\":[%s],\"runs\":[%s]}\n"
    (String.concat "," (List.map json_of_resume resume))
    (String.concat "," (List.map json_of_core_run runs));
  close_out oc;
  Printf.printf "wrote %s\n%!" out

(* One flamegraph-ready folded-stack file per run (flamegraph.pl
   PROF_nsf.folded > nsf.svg), plus one summary line per run APPENDED to
   the trajectory log — append, never overwrite, so the perf history
   survives across PRs. Trajectory keys are alphabetical (keep them
   sorted when extending) and the schema key versions the record. *)
let write_folded runs =
  List.iter
    (fun r ->
      let path = Printf.sprintf "PROF_%s.folded" r.algorithm in
      let oc = open_out path in
      output_string oc (Profiler.folded (Profiler.fold r.prof));
      close_out oc;
      Printf.printf "wrote %s (%d samples)\n%!" path
        (Profiler.total (Profiler.fold r.prof)))
    runs

let trajectory_path () =
  if Sys.file_exists "bench" && Sys.is_directory "bench" then
    Filename.concat "bench" "BENCH_trajectory.jsonl"
  else "BENCH_trajectory.jsonl"

let append_trajectory ?(resume = []) runs =
  let path = trajectory_path () in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  List.iter
    (fun r ->
      let res = r.status.BS.resources in
      Printf.fprintf oc
        "{\"algorithm\":%S,\"compares\":%d,\"keys_processed\":%d,\
         \"log_bytes\":%d,\"prof_samples\":%d,\
         \"schema\":\"bench-trajectory/v1\",\"seed\":%d,\"wall_steps\":%d}\n"
        r.algorithm (Resource.get res Sort_compares) r.status.BS.keys_processed
        (Resource.get res Log_bytes)
        (Profiler.total (Profiler.fold r.prof))
        r.seed r.total_steps)
    runs;
  (* resume-overhead records ride the same log with a "kind" tag (plain
     run records carry no "kind"); wall_steps is the crash+resume total
     so trajectory plots stay step-denominated *)
  List.iter
    (fun (seed, m) ->
      Printf.fprintf oc
        "{\"algorithm\":%S,\"crash_step\":%d,\"full_steps\":%d,\
         \"kind\":\"resume_overhead\",\"overhead_pct\":%.1f,\
         \"pages_rescanned\":%d,\"schema\":\"bench-trajectory/v1\",\
         \"seed\":%d,\"wall_steps\":%d}\n"
        (String.lowercase_ascii m.Experiments.r_alg)
        m.Experiments.r_crash_step m.Experiments.r_full_steps
        m.Experiments.r_overhead_pct m.Experiments.r_pages_rescanned seed
        m.Experiments.r_resumed_steps)
    resume;
  close_out oc;
  Printf.printf "appended %d record(s) to %s\n%!"
    (List.length runs + List.length resume)
    path

(* Baseline gate for @bench-smoke: compare this run's BENCH_core.json
   against the checked-in baseline and fail unless every run's
   [gated] counts are equal. They are virtual-time counts, identical on
   every machine for a given (seed, config), so any difference is a
   behaviour change — intended ones re-baseline. Each is named by its
   path in a run's object; [page_writes] pins what the sharp index
   checkpoints write. *)
let gated =
  [ [ "wall_steps" ]; [ "compares" ]; [ "log_bytes" ]; [ "cost"; "page_writes" ] ]

let gated_name path = List.nth path (List.length path - 1)

let check_baseline ~baseline ~core =
  let load path =
    match Json.parse (In_channel.with_open_text path In_channel.input_all) with
    | Ok j -> j
    | Error msg -> failwith (Printf.sprintf "%s: bad JSON: %s" path msg)
  in
  let runs j =
    match Json.member "runs" j with
    | Some (Json.List l) ->
      List.filter_map
        (fun r ->
          Option.map
            (fun name ->
              ( name,
                List.map
                  (fun path ->
                    ( gated_name path,
                      Option.bind
                        (List.fold_left
                           (fun j k -> Option.bind j (Json.member k))
                           (Some r) path)
                        Json.to_int ))
                  gated ))
            (Option.bind (Json.member "name" r) Json.to_string))
        l
    | _ -> []
  in
  let base = runs (load baseline) and now = runs (load core) in
  let ok = ref true in
  List.iter
    (fun (name, base_counts) ->
      match List.assoc_opt name now with
      | None ->
        Printf.printf "baseline: run %S missing from %s\n" name core;
        ok := false
      | Some counts ->
        List.iter
          (fun (k, want) ->
            let got = List.assoc k counts in
            let show = function Some v -> string_of_int v | None -> "-" in
            let same = got = want && got <> None in
            Printf.printf "baseline: %-4s %-11s %s vs %s %s\n" name k (show got)
              (show want) (if same then "ok" else "CHANGED");
            if not same then ok := false)
          base_counts)
    base;
  if base = [] then begin
    Printf.printf "baseline: no runs in %s\n" baseline;
    ok := false
  end;
  !ok

let print_run r =
  Printf.printf "\n-- %s build (seed %d, %d steps) --\n" r.algorithm r.seed
    r.total_steps;
  List.iter
    (fun (p, enter, steps) ->
      Printf.printf "  %-8s enter=%-7d steps=%d\n" (BS.phase_name p) enter steps)
    (phase_spans r);
  Printf.printf "  keys=%d checkpoints=%d\n" r.status.BS.keys_processed
    r.status.BS.checkpoints;
  Format.printf "%a@." Trace.pp_hists r.trace

let run ?(rows = 2000) ?(workers = 4) ?(txns = 40) ?(seed = 7)
    ?(sample_every = 250) ?(out = "BENCH_obs.json")
    ?(core_out = "BENCH_core.json") () =
  print_endline "== observability report (per-phase timings, latency hists) ==";
  let runs =
    [
      one_build Ib.Nsf ~rows ~workers ~txns ~seed ~sample_every;
      one_build Ib.Sf ~rows ~workers ~txns ~seed ~sample_every;
    ]
  in
  List.iter print_run runs;
  let oc = open_out out in
  output_string oc
    ("{"
    ^ String.concat ","
        (List.map (fun r -> Printf.sprintf "%S:%s" r.algorithm (json_of_run r)) runs)
    ^ "}\n");
  close_out oc;
  Printf.printf "wrote %s\n%!" out;
  let resume = Experiments.resume_measures ~rows ~seed () in
  List.iter
    (fun (m : Experiments.resume_measure) ->
      Printf.printf
        "resume_overhead: %-4s full=%d crash_at=%d resumed=%d (+%.1f%%) \
         pages_rescanned=%d\n"
        m.Experiments.r_alg m.Experiments.r_full_steps
        m.Experiments.r_crash_step m.Experiments.r_resumed_steps
        m.Experiments.r_overhead_pct m.Experiments.r_pages_rescanned)
    resume;
  write_core_json ~resume runs core_out;
  write_folded runs;
  append_trajectory ~resume:(List.map (fun m -> (seed, m)) resume) runs
