(* oib-trace: offline analyzer for JSONL trace dumps, with the profile
   analyzer and the terminal dashboard as subcommand groups.

   oib-demo build --trace-jsonl build.jsonl [--profile K]
   oib-trace summary    build.jsonl
   oib-trace spans      build.jsonl
   oib-trace contention build.jsonl
   oib-trace timeline   build.jsonl
   oib-trace quantiles  build.jsonl
   oib-trace check      build.jsonl   # exit 1 on any invariant violation

   oib-trace prof summary build.jsonl   # totals + wait-state mix
   oib-trace prof folded  build.jsonl > out.folded   # flamegraph.pl input
   oib-trace prof top     build.jsonl [--bottom-up]
   oib-trace prof waits   build.jsonl   # per phase / txn class / edge
   oib-trace prof diff    a.jsonl b.jsonl   # signed per-path deltas

   oib-trace top frame build.jsonl   # render one frame from a capture
   oib-trace top watch build.jsonl   # tail a capture being written
   oib-trace top live --rows 2000    # in-process soak, live frames

   Every subcommand outside `top` takes --epoch N to target one
   incarnation of a multi-crash capture. *)

open Oib_core
module Sched = Oib_sim.Sched
module Driver = Oib_workload.Driver
module Trace = Oib_obs.Trace
module Profiler = Oib_obs.Profiler
module TR = Oib_obs_analysis.Trace_reader
module Check = Oib_obs_analysis.Check
module Report = Oib_obs_analysis.Report
module Profile = Oib_obs_analysis.Profile
module Dashboard = Oib_obs_analysis.Dashboard

let fail fmt =
  Printf.ksprintf (fun msg -> prerr_endline ("oib-trace: " ^ msg)) fmt

let load path =
  if not (Sys.file_exists path) then begin
    fail "no such file: %s" path;
    exit 2
  end;
  let events, errors = TR.of_file path in
  List.iter
    (fun (e : TR.error) -> fail "%s:%d: %s" path e.line_no e.msg)
    errors;
  (events, errors)

(* --epoch N: restrict a subcommand to one engine incarnation *)
let select_epoch epoch path events =
  match epoch with
  | None -> events
  | Some n -> (
    match TR.nth_epoch events n with
    | Some es -> es
    | None ->
      fail "%s has %d epoch(s); no epoch %d" path
        (List.length (TR.epochs events))
        n;
      exit 2)

let load_epoch epoch path = select_epoch epoch path (fst (load path))

let run_report render epoch path = print_string (render (load_epoch epoch path))

let cmd_quantiles window every =
  run_report (Oib_obs_analysis.Quantiles.report ?window ?every)

let cmd_check epoch path =
  let events, errors = load path in
  let events = select_epoch epoch path events in
  let violations = Check.run events in
  List.iter
    (fun v -> Format.printf "%a@." Check.pp_violation v)
    violations;
  let epochs = List.length (TR.epochs events) in
  Printf.printf "%d events, %d epochs, %d undecodable lines, %d violations\n"
    (List.length events) epochs (List.length errors)
    (List.length violations);
  if violations <> [] || errors <> [] then exit 1

(* -- prof: the Prof_sample events of a capture -- *)

let prof_summary epoch path =
  let events = load_epoch epoch path in
  let fold = Profile.fold events in
  let total = Profiler.total fold in
  Printf.printf "%d samples over %d events\n" total (List.length events);
  if total = 0 then begin
    fail "no Prof_sample events (capture with --profile K)";
    exit 1
  end;
  print_endline "state breakdown:";
  List.iter
    (fun (state, w) ->
      Printf.printf "  %-9s %7d  %5.1f%%\n" state w
        (100.0 *. float_of_int w /. float_of_int total))
    (Profiler.by_state fold);
  print_endline "samples per fiber class:";
  List.iter
    (fun (fname, w) -> Printf.printf "  %-12s %7d\n" fname w)
    (Profiler.by_fiber fold);
  print_endline "hottest stacks:";
  let top =
    Profiler.weights fold
    |> List.sort (fun (pa, wa) (pb, wb) ->
           if wa <> wb then compare wb wa else String.compare pa pb)
  in
  List.iteri
    (fun i (path, w) -> if i < 5 then Printf.printf "  %6d  %s\n" w path)
    top

let prof_folded =
  run_report (fun events -> Profiler.folded (Profile.fold events))

let prof_top bottom_up limit epoch path =
  let events = load_epoch epoch path in
  let (h1, h2, h3), rows =
    if bottom_up then
      ( ("self", "total", "frame"),
        Profile.bottom_up events
        |> List.map (fun (f, total, self) -> (self, total, f)) )
    else
      ( ("total", "self", "path"),
        Profile.top_down events
        |> List.map (fun (p, total, self) -> (total, self, p)) )
  in
  Printf.printf "%7s %7s  %s\n" h1 h2 h3;
  List.iteri
    (fun i (a, b, c) -> if i < limit then Printf.printf "%7d %7d  %s\n" a b c)
    rows

let prof_waits epoch path =
  let events = load_epoch epoch path in
  print_endline "waits by build phase:";
  List.iter
    (fun (index, phase, state, w) ->
      Printf.printf "  index %-3d %-9s %-9s %6d\n" index phase state w)
    (Profile.waits_by_phase events);
  print_endline "waits by txn class:";
  List.iter
    (fun (fname, state, w) ->
      Printf.printf "  %-12s %-9s %6d\n" fname state w)
    (Profile.waits_by_class events);
  print_endline "blocker attribution (state, resource, blocker):";
  List.iter
    (fun (state, resource, blocker, w) ->
      Printf.printf "  %-9s %-16s %-12s %6d\n" state resource blocker w)
    (Profile.wait_edges events)

let prof_diff expect_empty expect_delta epoch path_a path_b =
  let a = load_epoch epoch path_a and b = load_epoch epoch path_b in
  let deltas = Profile.diff a b in
  List.iter
    (fun (path, d) -> Printf.printf "%+7d  %s\n" d path)
    deltas;
  let samples events = Profiler.total (Profile.fold events) in
  Printf.printf "%d path(s) differ (A=%d samples, B=%d samples)\n"
    (List.length deltas) (samples a) (samples b);
  if expect_empty && deltas <> [] then begin
    fail "diff expected to be empty but is not";
    exit 1
  end;
  if expect_delta && deltas = [] then begin
    fail "diff expected to report a delta but is empty";
    exit 1
  end

(* -- top: the terminal dashboard; this file only owns the terminal
   (clear-screen, polling, the soak workload), Dashboard the fold -- *)

let show dash =
  if Unix.isatty Unix.stdout then print_string "\027[2J\027[H";
  print_string (Dashboard.render dash);
  flush stdout

let top_frame path =
  let dash = Dashboard.create () in
  Dashboard.feed_all dash (fst (load path));
  print_string (Dashboard.render dash)

(* Poll by byte offset: each round, read everything past [offset],
   feed the complete lines, keep the partial tail for the next round. *)
let top_watch path interval =
  let dash = Dashboard.create () in
  let offset = ref 0 in
  let partial = Buffer.create 256 in
  let feed_new () =
    let size = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
    if size <= !offset then false
    else begin
      let ic = open_in_bin path in
      seek_in ic !offset;
      let fresh = really_input_string ic (size - !offset) in
      close_in ic;
      offset := size;
      Buffer.add_string partial fresh;
      let data = Buffer.contents partial in
      Buffer.clear partial;
      let lines = String.split_on_char '\n' data in
      let rec consume = function
        | [] -> ()
        | [ tail ] -> Buffer.add_string partial tail
        | line :: rest ->
          (match TR.parse_line line with
          | Ok ev -> Dashboard.feed dash ev
          | Error _ -> ());
          consume rest
      in
      consume lines;
      true
    end
  in
  while true do
    if feed_new () then show dash;
    Unix.sleepf interval
  done

let top_live rows workers txns seed every refresh delay =
  let dash = Dashboard.create () in
  let trace = Trace.create () in
  ignore (Trace.attach_recorder trace ~capacity:1024);
  Trace.set_on_dump trace prerr_endline;
  let last_shown = ref (-refresh) in
  Trace.add_sink trace ~name:"dashboard" (fun (s : Oib_obs.Event.stamped) ->
      Dashboard.feed dash s;
      if s.step >= !last_shown + refresh then begin
        last_shown := s.step;
        show dash;
        if delay > 0.0 then Unix.sleepf delay
      end);
  let ctx = Engine.create ~seed ~page_capacity:1024 ~trace () in
  let _ = Catalog.create_table ctx.Ctx.catalog ctx.Ctx.pool ~table_id:1 in
  let _ = Driver.populate ctx ~table:1 ~rows ~seed in
  Obs_sampler.install ctx ~every;
  let _ =
    Driver.spawn_workers ctx
      { Driver.default with seed; workers; txns_per_worker = txns }
      ~table:1
  in
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         Ib.build_index ctx (Ib.default_config Ib.Nsf) ~table:1
           { Ib.index_id = 10; key_cols = [ 0 ]; unique = false }));
  Sched.run ctx.Ctx.sched;
  show dash;
  match Engine.consistency_errors ctx with
  | [] -> ()
  | errs ->
    List.iter prerr_endline errs;
    exit 1

open Cmdliner

let file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"JSONL trace dump (from --trace-jsonl)")

let epoch_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "epoch" ] ~docv:"N"
        ~doc:
          "Restrict to the $(docv)-th (0-based) engine incarnation of a \
           multi-crash capture.")

(* a subcommand over one capture: [term] takes its own options, if any *)
let make name doc term =
  Cmd.v (Cmd.info name ~doc) Term.(term $ epoch_arg $ file_arg)

let flag name doc = Arg.(value & flag & info [ name ] ~doc)

let quantiles_cmd =
  let steps name doc =
    Arg.(value & opt (some int) None & info [ name ] ~docv:"STEPS" ~doc)
  in
  make "quantiles"
    "Sliding-window latency/wait percentiles (p50/p95/p99) per epoch"
    Term.(
      const cmd_quantiles
      $ steps "window"
          "Sliding-window width in virtual steps (default: 4x the \
           reporting period)."
      $ steps "every"
          "Reporting period in virtual steps (default: ~1/16 of the epoch \
           span).")

let prof_cmd =
  let file_b =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"FILE_B" ~doc:"Second capture (the candidate).")
  in
  Cmd.group
    (Cmd.info "prof"
       ~doc:
         "Analyze deterministic virtual-time profiles (Prof_sample events, \
          captured with --profile K)")
    [
      make "summary"
        "Sample totals, wait-state mix, hottest stacks; exit 1 if empty"
        (Term.const prof_summary);
      make "folded"
        "Folded stacks (one `frames weight' line each), flamegraph-ready"
        (Term.const prof_folded);
      make "top" "Top-down (or bottom-up) self/total step table"
        Term.(
          const prof_top
          $ flag "bottom-up"
              "Aggregate by leaf frame instead of by stack prefix."
          $ Arg.(
              value & opt int 40
              & info [ "limit" ] ~docv:"N" ~doc:"Rows to print."));
      make "waits"
        "Wait-state breakdown per build phase and per txn class, plus \
         blocker attribution edges"
        (Term.const prof_waits);
      Cmd.v
        (Cmd.info "diff"
           ~doc:
             "Signed per-path sample deltas B-A, largest magnitude first \
              (positive = B spends more there)")
        Term.(
          const prof_diff
          $ flag "expect-empty"
              "Exit 1 unless the diff is empty (CI self-check)."
          $ flag "expect-delta"
              "Exit 1 unless at least one path differs (CI self-check)."
          $ epoch_arg $ file_arg $ file_b);
    ]

let top_cmd =
  let opt_int name v doc =
    Arg.(value & opt int v & info [ name ] ~docv:"N" ~doc)
  in
  let interval =
    Arg.(
      value & opt float 0.5
      & info [ "interval" ] ~docv:"SECS" ~doc:"Poll interval in seconds.")
  in
  let delay =
    Arg.(
      value & opt float 0.0
      & info [ "delay" ] ~docv:"SECS"
          ~doc:"Real-time pause per frame (the simulator runs on virtual \
                time; a small delay makes the soak watchable).")
  in
  Cmd.group
    (Cmd.info "top"
       ~doc:
         "Terminal dashboard for the online index build engine: builds, \
          foreground quantiles, resource rates, health signals")
    [
      Cmd.v
        (Cmd.info "frame"
           ~doc:"Render one dashboard frame from a finished capture")
        Term.(const top_frame $ file_arg);
      Cmd.v
        (Cmd.info "watch"
           ~doc:"Tail a capture being written and re-render on new events")
        Term.(const top_watch $ file_arg $ interval);
      Cmd.v
        (Cmd.info "live"
           ~doc:
             "Run an NSF build under a concurrent update workload \
              in-process and render live frames")
        Term.(
          const top_live
          $ opt_int "rows" 2000 "Rows in the base table."
          $ opt_int "workers" 4 "Concurrent updater fibers."
          $ opt_int "txns" 40 "Transactions per worker."
          $ opt_int "seed" 7 "Scheduler seed."
          $ opt_int "every" 200 "Sampler period in virtual steps."
          $ opt_int "refresh" 400 "Virtual steps between rendered frames."
          $ delay);
    ]

let () =
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "oib-trace" ~version:"1.0"
             ~doc:"Analyze JSONL trace dumps from the online index build engine")
          [
            make "summary" "Event counts and transaction outcomes per epoch"
              (Term.const (run_report Report.summary));
            make "spans"
              "Span totals by category and per-transaction critical-path \
               breakdowns"
              (Term.const (run_report Report.spans));
            make "contention"
              "Per-target wait totals and blocker attribution (IB vs updater)"
              (Term.const (run_report Report.contention));
            make "timeline"
              "Chronological waits, build phases, crashes and recovery steps"
              (Term.const (run_report Report.timeline));
            quantiles_cmd;
            make "check" "Validate trace invariants; exit 1 on any violation"
              (Term.const cmd_check);
            prof_cmd;
            top_cmd;
          ]))
