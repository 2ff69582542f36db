(* oib-fuzz: deterministic simulation testing for the online index builder.

   oib-fuzz run   --seed 7                      one generated scenario
   oib-fuzz fuzz  --count 40                    many seeds, generated fault plans
   oib-fuzz sweep --alg nsf --scenarios 2       crash at every k-th step
   oib-fuzz repro --seed 7 --alg sf ...         replay a shrunk failure

   Every failure is shrunk to a minimal scenario and reported as a one-line
   `oib-fuzz repro ...` command, with the flight-recorder dump of the
   minimal failing run. Nonzero exit on any oracle violation.

   With --sanitize every run's event stream also feeds oib-san, attached
   as one more trace sink (lockset race detection, latch-order cycle
   prediction, WAL runtime verification); any sanitizer finding fails
   the command exactly like an oracle violation, including shrinking and
   the repro line. *)

open Oib_dst
module Trace = Oib_obs.Trace
module Ctx = Oib_core.Ctx
module Catalog = Oib_core.Catalog
module San = Oib_san.San
module Diag = Oib_lint.Diag

(* Test-only oracle sabotage: plant a phantom entry in the index behind the
   WAL's back, right before the final battery. The consistency oracle must
   flag it, and the shrinker must carry the failure down to a minimal
   scenario — this is how the harness proves it can catch real bugs. *)
let sabotage_hook (ctx : Ctx.t) =
  match Catalog.index ctx.Ctx.catalog 10 with
  | info ->
    ignore
      (Oib_btree.Btree.set_state info.Catalog.tree
         (Oib_util.Ikey.make "zzz-sabotage"
            (Oib_util.Rid.make ~page:999_983 ~slot:0))
         Oib_wal.Log_record.Present)
  | exception Invalid_argument _ -> ()

(* Test-only race sabotage: a rogue fiber that dirties a heap page without
   holding its latch, concurrent with the latched workers and the build
   scan. The lockset sanitizer must flag the unprotected write; the oracle
   battery cannot see it. *)
let race_hook (ctx : Ctx.t) =
  ignore
    (Oib_sim.Sched.spawn ctx.Ctx.sched ~name:"rogue" (fun () ->
         match Catalog.table ctx.Ctx.catalog 1 with
         | exception Invalid_argument _ -> ()
         | info -> (
           match Oib_storage.Heap_file.page_ids info.Catalog.heap with
           | [] -> ()
           | first :: _ ->
             for _ = 1 to 3 do
               Oib_sim.Sched.yield ctx.Ctx.sched;
               Oib_storage.Page.mark_dirty
                 (Oib_storage.Heap_file.page info.Catalog.heap first)
             done)))

(* One sanitizer session per command invocation: a single live trace and
   San.t shared by every run the command performs, so the latch-order
   graph accumulates across runs and crash points (that cross-run
   assembly is how Goodlock predicts deadlocks neither run alone hits). *)
type sess = {
  sabotage : bool;
  sabotage_race : bool;
  san : (Trace.t * San.t) option;
}

let make_sess ~sabotage ~sabotage_race ~sanitize () =
  if not sanitize then { sabotage; sabotage_race; san = None }
  else begin
    let tr = Trace.create () in
    ignore (Trace.attach_recorder tr ~capacity:256);
    (* injected-crash dumps are routine during sweeps; stay silent until
       the sanitizer itself has something to show *)
    Trace.set_on_dump tr (fun _ -> ());
    let san = San.create () in
    San.attach san tr;
    let dumped = ref false in
    San.on_report san (fun d ->
        Printf.printf "SAN: %s\n%!" (Diag.to_string d);
        (* dump the ring on the first finding, while the racing run's
           events are still in it; the print sink is installed only
           around this dump so injected-crash dumps stay silent *)
        if not !dumped then begin
          dumped := true;
          Trace.set_on_dump tr (fun s ->
              print_string s;
              print_newline ());
          Trace.failure tr ~reason:"oib-san: first sanitizer finding";
          Trace.set_on_dump tr (fun _ -> ())
        end);
    { sabotage; sabotage_race; san = Some (tr, san) }
  end

let sanitizing sess = sess.san <> None
let trace_of sess = Option.map fst sess.san
let inject_of sess = if sess.sabotage then Some sabotage_hook else None
let during_of sess = if sess.sabotage_race then Some race_hook else None

let san_dirty sess =
  match sess.san with None -> false | Some (_, san) -> not (San.clean san)

let print_outcome (o : Runner.outcome) =
  Printf.printf
    "incarnations=%d steps=%d committed=%d%s oracle=%s\n"
    o.Runner.incarnations o.Runner.total_steps o.Runner.committed
    (if o.Runner.build_cancelled then " build-cancelled" else "")
    (if Runner.failed o then "FAIL" else "ok")

let print_violations san =
  Printf.printf "SANITIZER VIOLATION:\n";
  List.iter (fun d -> Printf.printf "  %s\n" (Diag.to_string d)) (San.reports san)

(* End-of-command sanitizer epilogue: stats JSON and the clean/dirty
   verdict line. *)
let finish sess ~san_json =
  match sess.san with
  | None -> ()
  | Some (_, san) ->
    (match san_json with
    | Some path ->
      let oc = open_out path in
      output_string oc (San.stats_json san);
      output_string oc "\n";
      close_out oc;
      Printf.printf "sanitizer stats written to %s\n" path
    | None -> ());
    if San.clean san then Printf.printf "sanitizer: clean\n%!"

(* Does this scenario reproduce *some* violation — oracle or, when
   sanitizing, a finding in a fresh scratch sanitizer (so shrink
   candidates don't pollute the session's accumulated state)? *)
let reproduces sess c =
  match sess.san with
  | None ->
    Runner.failed
      (Runner.run ?inject:(inject_of sess) ?during:(during_of sess) c)
  | Some _ ->
    let tr = Trace.create () in
    let scratch = San.create () in
    San.attach scratch tr;
    let o =
      Runner.run ~trace:tr ?inject:(inject_of sess) ?during:(during_of sess)
        c
    in
    Runner.failed o || not (San.clean scratch)

(* Shrink the failure, dump the minimal run's flight recorder, print the
   repro line. Never returns a passing status: caller exits 1 after. *)
let report_failure sess (o : Runner.outcome) =
  if o.Runner.errors <> [] then begin
    Printf.printf "ORACLE VIOLATION at %s:\n"
      (Option.value o.Runner.failed_at ~default:"?");
    List.iter (fun e -> Printf.printf "  %s\n" e) o.Runner.errors
  end;
  (match sess.san with
  | Some (_, san) when not (San.clean san) -> print_violations san
  | _ -> ());
  print_endline "shrinking...";
  let small, runs = Shrink.shrink ~reproduces:(reproduces sess) o.Runner.scenario in
  Format.printf "minimal after %d runs: %a@." runs Scenario.pp small;
  (* replay the minimal scenario with a fresh recorder (and, when
     sanitizing, a fresh sanitizer) and dump its flight recorder *)
  let tr = Trace.create () in
  ignore (Trace.attach_recorder tr ~capacity:256);
  Trace.set_on_dump tr (fun _ -> ());
  let minimal_san =
    if not (sanitizing sess) then None
    else begin
      let s = San.create () in
      San.attach s tr;
      Some s
    end
  in
  let o2 =
    Runner.run ~trace:tr ?inject:(inject_of sess) ?during:(during_of sess)
      small
  in
  List.iter (fun e -> Printf.printf "  %s\n" e) o2.Runner.errors;
  (match minimal_san with
  | Some s ->
    List.iter (fun d -> Printf.printf "  %s\n" (Diag.to_string d))
      (San.reports s)
  | None -> ());
  (* dump the ring as it stood before the failing battery, whose own
     latches on every heap page and tree would otherwise fill it *)
  let reason = "oib-fuzz violation (minimal scenario)" in
  (match o2.Runner.ring_before_battery with
  | Some ring -> print_endline (Oib_obs.Flight_recorder.dump ~reason ring)
  | None ->
    Trace.set_on_dump tr (fun s ->
        print_string s;
        print_newline ());
    Trace.failure tr ~reason);
  Printf.printf "repro: %s\n%!"
    (Scenario.repro_command ~sabotage:sess.sabotage
       ~sabotage_race:sess.sabotage_race ~sanitize:(sanitizing sess) small)

let exec sess ~jsonl ~san_json ?profile sc =
  Format.printf "%a@." Scenario.pp sc;
  let trace, close =
    match (trace_of sess, jsonl, profile) with
    | None, None, None -> (None, fun () -> ())
    | tr0, jsonl, _ ->
      let tr =
        match tr0 with
        | Some t -> t
        | None ->
          let t = Trace.create () in
          ignore (Trace.attach_recorder t ~capacity:2048);
          t
      in
      let close =
        match jsonl with
        | None -> fun () -> ()
        | Some path ->
          let c = Trace.add_jsonl_file_sink tr ~path in
          fun () ->
            c ();
            Printf.printf "event trace written to %s\n" path
      in
      (Some tr, close)
  in
  (* --profile: one profiler per engine incarnation (each new scheduler
     needs a fresh step hook); the last one standing covers the capture's
     final incarnation, which is the one a shrunk failure dies in *)
  let prof_state = ref None in
  let on_engine =
    match profile with
    | None -> None
    | Some every ->
      Some
        (fun (ctx : Ctx.t) ->
          (match !prof_state with
          | Some (_, uninstall) -> uninstall ()
          | None -> ());
          prof_state :=
            Some (Oib_core.Obs_sampler.install_profiler ctx ~every ()))
  in
  let o =
    Runner.run ?trace ?inject:(inject_of sess) ?during:(during_of sess)
      ?on_engine sc
  in
  print_outcome o;
  (match !prof_state with
  | None -> ()
  | Some (p, _) ->
    let module Profiler = Oib_obs.Profiler in
    Printf.printf "profile (final incarnation): %d samples in %d rounds\n"
      (Profiler.total (Profiler.fold p)) (Profiler.ticks p);
    List.iter
      (fun (state, w) -> Printf.printf "  %-9s %6d\n" state w)
      (Profiler.by_state (Profiler.fold p)));
  close ();
  if Runner.failed o || san_dirty sess then begin
    report_failure sess o;
    finish sess ~san_json;
    exit 1
  end;
  finish sess ~san_json

let cmd_run seed alg rows workers txns sabotage sabotage_race sanitize jsonl
    san_json profile =
  let sess = make_sess ~sabotage ~sabotage_race ~sanitize () in
  let sc =
    Scenario.generate ~seed
    |> Scenario.override
         ?alg:(Option.map Scenario.alg_of_string alg)
         ?rows ?workers ?txns
  in
  exec sess ~jsonl ~san_json ?profile sc

let cmd_repro seed alg rows unique workers txns ops post faults sabotage
    sabotage_race sanitize jsonl san_json profile =
  let sess = make_sess ~sabotage ~sabotage_race ~sanitize () in
  let sc =
    Scenario.generate ~seed
    |> Scenario.override
         ?alg:(Option.map Scenario.alg_of_string alg)
         ?rows ~unique ?workers ?txns ?ops ?post
         ?faults:(Option.map Scenario.faults_of_string faults)
  in
  exec sess ~jsonl ~san_json ?profile sc

let cmd_fuzz count seed_base alg sabotage sabotage_race sanitize san_json =
  let sess = make_sess ~sabotage ~sabotage_race ~sanitize () in
  let alg = Option.map Scenario.alg_of_string alg in
  for seed = seed_base to seed_base + count - 1 do
    let sc = Scenario.generate ~seed |> Scenario.override ?alg in
    let o =
      Runner.run ?trace:(trace_of sess) ?inject:(inject_of sess)
        ?during:(during_of sess) sc
    in
    Format.printf "seed %4d: %a@." seed Scenario.pp sc;
    Printf.printf "          ";
    print_outcome o;
    if Runner.failed o || san_dirty sess then begin
      report_failure sess o;
      finish sess ~san_json;
      exit 1
    end
  done;
  Printf.printf "%d scenarios clean\n" count;
  finish sess ~san_json

let cmd_sweep alg scenarios seed_base points sabotage sabotage_race sanitize
    san_json =
  let sess = make_sess ~sabotage ~sabotage_race ~sanitize () in
  let alg = Scenario.alg_of_string alg in
  let total = ref 0 and checkpoints = ref 0 in
  let fail o =
    report_failure sess o;
    finish sess ~san_json;
    exit 1
  in
  (* Report a failed run of [sc]. Only the sweep watches the scan
     oracle, so a violation that the plain runner (and hence the shrinker
     and `repro`) does not reproduce is printed as the sweep saw it. *)
  let fail_run sc errors =
    let o = Runner.run ?inject:(inject_of sess) ?during:(during_of sess) sc in
    if Runner.failed o || san_dirty sess then fail o
    else begin
      Printf.printf "SCAN ORACLE VIOLATION:\n";
      List.iter (fun e -> Printf.printf "  %s\n" e) errors;
      Printf.printf "rerun: oib-fuzz sweep --alg %s --seed-base %d \
                     --scenarios 1 --points %d\n%!"
        (Scenario.alg_to_string sc.Scenario.alg) sc.Scenario.seed points;
      exit 1
    end
  in
  for i = 0 to scenarios - 1 do
    let seed = seed_base + i in
    let sc = Scenario.generate ~seed |> Scenario.override ~alg in
    Format.printf "%a@." Scenario.pp sc;
    let r =
      Sweep.sweep ?trace:(trace_of sess) ?inject:(inject_of sess)
        ?during:(during_of sess) sc ~points
    in
    if r.Sweep.base_errors <> [] then begin
      Printf.printf "fault-free base run FAILS:\n";
      fail_run (Scenario.override ~faults:[] sc) r.Sweep.base_errors
    end;
    if r.Sweep.checkpoints = 0 then begin
      Printf.printf
        "sweep observed no sort checkpoint — scan oracle was blind\n";
      exit 1
    end;
    total := !total + 1 + List.length r.Sweep.points;
    checkpoints := !checkpoints + r.Sweep.checkpoints;
    Printf.printf "  base %d steps, %d crash points: " r.Sweep.base_steps
      (List.length r.Sweep.points);
    (match Sweep.failures r with
    | [] when not (san_dirty sess) -> Printf.printf "all clean\n%!"
    | [] ->
      Printf.printf "SANITIZER FAIL\n";
      fail_run (Scenario.override ~faults:[] sc) []
    | p :: _ ->
      Printf.printf "FAIL at step %d\n" p.Sweep.crash_step;
      fail_run
        (Scenario.override ~faults:[ Scenario.Crash_at p.Sweep.crash_step ] sc)
        p.Sweep.errors)
  done;
  Printf.printf "%d scenario/crash-point combinations clean\n" !total;
  Printf.printf "scan oracle: %d sort checkpoints, no captured page rescanned\n"
    !checkpoints;
  finish sess ~san_json

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Deterministic throttle scenario: a synthetic overload source trips the
   foreground-p99 signal for a fixed span of sampler ticks, so the
   admission throttle must back the builder off and then fully restore
   under hysteresis. Run twice with the same seed, tracing to JSONL, and
   require byte-identical event streams. One oib-san instance is a sink
   of both runs' traces. *)
let cmd_throttle seed rows workers txns prefix =
  let module Signal = Oib_obs.Signal in
  let module Throttle = Oib_core.Throttle in
  let san = San.create () in
  let run_once path =
    let sc =
      Scenario.generate ~seed
      |> Scenario.override ~rows ~workers ~txns ~faults:[]
    in
    let tr = Trace.create () in
    let close = Trace.add_jsonl_file_sink tr ~path in
    San.attach san tr;
    let captured = ref None in
    let on_engine (ctx : Ctx.t) =
      captured := Some ctx;
      (* Re-wire the p99 signal to a synthetic source: overloaded from
         the 3rd through the 8th sampler tick, idle otherwise. Keeping
         the engine's thresholds (and its subscribers — register re-wires
         the source in place) means the raise/clear path under test is
         exactly the production one. *)
      let ticks = ref 0 in
      Signal.register ctx.Ctx.signals ~name:"overload.fg_p99"
        ~raise_above:60.0 ~clear_below:25.0
        ~source:(fun () ->
          incr ticks;
          if !ticks >= 3 && !ticks <= 8 then 100.0 else 0.0);
      (* quiesce the other watched signals: the scenario must be driven
         by the synthetic overload alone, or a raised wal.backlog would
         legitimately hold the level up past the p99 clear *)
      Signal.register ctx.Ctx.signals ~name:"wal.backlog"
        ~raise_above:16384.0 ~clear_below:4096.0 ~source:(fun () -> 0.0);
      Signal.register ctx.Ctx.signals ~name:"pool.dirty_ratio"
        ~raise_above:0.7 ~clear_below:0.4 ~source:(fun () -> 0.0);
      Oib_core.Obs_sampler.install ctx ~every:20
    in
    let o = Runner.run ~trace:tr ~on_engine sc in
    close ();
    (o, !captured)
  in
  let check label (o, captured) =
    if Runner.failed o then begin
      Printf.printf "%s: ORACLE VIOLATION\n" label;
      List.iter (fun e -> Printf.printf "  %s\n" e) o.Runner.errors;
      exit 1
    end;
    match captured with
    | None ->
      Printf.printf "%s: runner never surfaced an engine\n" label;
      exit 1
    | Some (ctx : Ctx.t) ->
      let th = ctx.Ctx.throttle in
      Printf.printf "%s: backoffs=%d restores=%d final-level=%d\n" label
        (Throttle.backoffs th) (Throttle.restores th) (Throttle.level th);
      if Throttle.backoffs th = 0 then begin
        Printf.printf "%s: synthetic overload never backed the builder off\n"
          label;
        exit 1
      end;
      if Throttle.level th <> 0 || Throttle.restores th = 0 then begin
        Printf.printf "%s: throttle did not restore after the signal cleared\n"
          label;
        exit 1
      end
  in
  let a = prefix ^ ".1.jsonl" and b = prefix ^ ".2.jsonl" in
  check "run 1" (run_once a);
  check "run 2" (run_once b);
  if not (San.clean san) then begin
    print_violations san;
    exit 1
  end;
  Printf.printf "sanitizer: clean\n";
  let ta = read_file a and tb = read_file b in
  if String.length ta = 0 then begin
    Printf.printf "empty event trace — nothing was compared\n";
    exit 1
  end;
  if not (String.equal ta tb) then begin
    Printf.printf
      "DETERMINISM VIOLATION: %s and %s differ (%d vs %d bytes)\n" a b
      (String.length ta) (String.length tb);
    exit 1
  end;
  Printf.printf "throttle backoff/restore deterministic: %d bytes identical\n"
    (String.length ta)

open Cmdliner

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Scenario seed")

let alg_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "a"; "alg" ] ~docv:"ALG" ~doc:"Force nsf, sf or iot")

let rows_opt =
  Arg.(value & opt (some int) None & info [ "rows" ] ~docv:"N")

let workers_opt =
  Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"W")

let txns_opt =
  Arg.(value & opt (some int) None & info [ "txns" ] ~docv:"T" ~doc:"Per worker")

let sabotage_arg =
  Arg.(
    value & flag
    & info [ "sabotage" ]
        ~doc:"Test-only: corrupt the index before the final oracle battery")

let sabotage_race_arg =
  Arg.(
    value & flag
    & info [ "sabotage-race" ]
        ~doc:
          "Test-only: spawn a rogue fiber that dirties a heap page without \
           latching it; the race sanitizer must flag it")

let sanitize_arg =
  Arg.(
    value & flag
    & info [ "sanitize" ]
        ~doc:
          "Feed the event stream to oib-san, attached as a trace sink \
           (lockset races, latch-order cycles, WAL discipline); findings \
           fail like oracle violations")

let jsonl_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-jsonl" ] ~docv:"FILE"
        ~doc:"Write every trace event to $(docv) as JSON lines.")

let san_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "san-json" ] ~docv:"FILE"
        ~doc:"Write sanitizer counters as JSON to $(docv)")

let profile_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "profile" ] ~docv:"K"
        ~doc:
          "Sample every live fiber every $(docv) steps; prof.sample events \
           land in --trace-jsonl and a final-incarnation state breakdown is \
           printed (analyze with oib-trace prof)")

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Run one generated scenario and its oracle battery")
    Term.(
      const cmd_run $ seed_arg $ alg_opt $ rows_opt $ workers_opt $ txns_opt
      $ sabotage_arg $ sabotage_race_arg $ sanitize_arg $ jsonl_arg
      $ san_json_arg $ profile_arg)

let repro_cmd =
  let ops = Arg.(value & opt (some int) None & info [ "ops" ] ~docv:"N") in
  let post =
    Arg.(value & opt (some int) None & info [ "post-txns" ] ~docv:"N")
  in
  let faults =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"PLAN"
          ~doc:"Comma-separated kind@step list (crash,media,ckpt,trunc,backup) or 'none'")
  in
  let unique = Arg.(value & flag & info [ "unique" ]) in
  Cmd.v
    (Cmd.info "repro" ~doc:"Replay a (shrunk) scenario from its repro line")
    Term.(
      const cmd_repro $ seed_arg $ alg_opt $ rows_opt $ unique $ workers_opt
      $ txns_opt $ ops $ post $ faults $ sabotage_arg $ sabotage_race_arg
      $ sanitize_arg $ jsonl_arg $ san_json_arg $ profile_arg)

let fuzz_cmd =
  let count =
    Arg.(value & opt int 25 & info [ "count" ] ~docv:"N" ~doc:"Scenarios to run")
  in
  let base =
    Arg.(value & opt int 1 & info [ "seed-base" ] ~docv:"SEED" ~doc:"First seed")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Generated scenarios with generated fault plans, shrink failures")
    Term.(
      const cmd_fuzz $ count $ base $ alg_opt $ sabotage_arg
      $ sabotage_race_arg $ sanitize_arg $ san_json_arg)

let sweep_cmd =
  let alg =
    Arg.(value & opt string "nsf" & info [ "a"; "alg" ] ~docv:"ALG")
  in
  let scenarios =
    Arg.(value & opt int 2 & info [ "scenarios" ] ~docv:"N" ~doc:"Seeds to sweep")
  in
  let base =
    Arg.(value & opt int 1 & info [ "seed-base" ] ~docv:"SEED" ~doc:"First seed")
  in
  let points =
    Arg.(
      value & opt int 55
      & info [ "points" ] ~docv:"K" ~doc:"Crash points per scenario")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Re-run a scenario crashing at every k-th scheduler step")
    Term.(
      const cmd_sweep $ alg $ scenarios $ base $ points $ sabotage_arg
      $ sabotage_race_arg $ sanitize_arg $ san_json_arg)

let throttle_cmd =
  let rows = Arg.(value & opt int 600 & info [ "rows" ] ~docv:"N") in
  let workers = Arg.(value & opt int 3 & info [ "workers" ] ~docv:"W") in
  let txns =
    Arg.(value & opt int 15 & info [ "txns" ] ~docv:"T" ~doc:"Per worker")
  in
  let prefix =
    Arg.(
      value & opt string "throttle-run"
      & info [ "trace-prefix" ] ~docv:"PATH"
          ~doc:"Event traces land in $(docv).1.jsonl / $(docv).2.jsonl")
  in
  Cmd.v
    (Cmd.info "throttle"
       ~doc:
         "Deterministic throttle scenario: synthetic overload must back the \
          builder off and restore, byte-identically across two runs")
    Term.(const cmd_throttle $ seed_arg $ rows $ workers $ txns $ prefix)

let () =
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "oib-fuzz" ~version:"1.0"
             ~doc:
               "Deterministic simulation tests: scenario fuzzing, crash-point \
                sweeps, failure shrinking")
          [ run_cmd; fuzz_cmd; sweep_cmd; throttle_cmd; repro_cmd ]))
