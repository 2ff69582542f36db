(* oib-demo: drive the online index build engine from the command line.

   oib-demo build --alg sf --rows 5000 --workers 6 --txns 50
   oib-demo crash --alg nsf --rows 3000 --at 2000
   oib-demo soak  --seeds 25 --alg sf
   oib-demo iot   --rows 2000 *)

open Oib_core
module Sched = Oib_sim.Sched
module Driver = Oib_workload.Driver
module Metrics = Oib_sim.Metrics
module Trace = Oib_obs.Trace
module BS = Build_status

let alg_of_string = function
  | "nsf" -> Ib.Nsf
  | "sf" -> Ib.Sf
  | s -> failwith (Printf.sprintf "unknown algorithm %S (use nsf|sf)" s)

let fresh ?trace ?epoch_label ~seed ~rows () =
  let ctx = Engine.create ~seed ~page_capacity:1024 ?trace () in
  (* the marker must be stamped by THIS engine's clock (step 0), before
     populate, so multi-engine captures split into labelled epochs *)
  (match (trace, epoch_label) with
  | Some tr, Some label ->
    if Trace.tracing tr then
      Trace.emit tr (Oib_obs.Event.Epoch { label })
  | _ -> ());
  let _ = Catalog.create_table ctx.Ctx.catalog ctx.Ctx.pool ~table_id:1 in
  let _ = Driver.populate ctx ~table:1 ~rows ~seed in
  ctx

(* Shared --trace-jsonl plumbing: a trace with a flight recorder and a
   JSONL file sink. The closer must run before any [exit]. *)
let trace_setup jsonl =
  match jsonl with
  | None -> (None, fun () -> ())
  | Some path ->
    let trace = Trace.create () in
    ignore (Trace.attach_recorder trace ~capacity:2048);
    let close = Trace.add_jsonl_file_sink trace ~path in
    ( Some trace,
      fun () ->
        close ();
        Printf.printf "event trace written to %s\n" path )

let print_progress ctx =
  List.iter
    (fun (st : BS.t) ->
      Format.printf "%a@." BS.pp st;
      print_string "  phase timeline:";
      List.iter
        (fun (p, step) -> Printf.printf " %s@%d" (BS.phase_name p) step)
        (BS.history st);
      print_newline ())
    (Engine.build_progress ctx)

let report ctx (stats : Driver.stats ref) (d : Metrics.t) steps =
  Printf.printf "build steps            %8d\n" steps;
  Printf.printf "txns committed         %8d\n" (!stats).committed;
  Printf.printf "txns aborted           %8d\n" (!stats).aborted;
  Printf.printf "deadlock victims       %8d\n" (!stats).deadlocks;
  Printf.printf "log bytes (build)      %8d\n" (Metrics.get d Log_bytes);
  Printf.printf "latch acquisitions     %8d\n" (Metrics.get d Latch_acquires);
  Printf.printf "tree traversals        %8d\n" (Metrics.get d Tree_traversals);
  Printf.printf "fast-path inserts      %8d\n" (Metrics.get d Fast_path_inserts);
  Printf.printf "side-file entries      %8d\n" (Metrics.get d Sidefile_appends);
  Printf.printf "duplicate rejections   %8d\n" (Metrics.get d Keys_rejected_duplicate);
  let tree = (Catalog.index ctx.Ctx.catalog 10).tree in
  Printf.printf "index entries          %8d (%d tombstones)\n"
    (Oib_btree.Btree.entry_count tree)
    (Oib_btree.Btree.pseudo_count tree);
  Printf.printf "clustering             %8.3f\n" (Oib_btree.Bt_check.clustering tree);
  match Engine.consistency_errors ctx with
  | [] -> print_endline "consistency            OK"
  | errs ->
    List.iter print_endline errs;
    exit 1

(* Lifecycle display for a (possibly paused) build: its build phase and
   the scan position of the last sort checkpoint (the page a resumed scan
   continues after). *)
let print_lifecycle ctx ~index_id =
  match Catalog.index ctx.Ctx.catalog index_id with
  | exception Invalid_argument _ ->
    Printf.printf "index %d: not in catalog\n" index_id
  | info ->
    Printf.printf "index %d: phase=%s scan checkpoint=%s\n" index_id
      (match info.Catalog.phase with
      | Catalog.Ready -> "ready"
      | Catalog.Nsf_building _ -> "nsf-building"
      | Catalog.Sf_building _ -> "sf-building")
      (match Ib.scan_checkpoint ctx ~index_id with
      | Some pos -> Printf.sprintf "page %d" pos
      | None -> "-")

let cmd_build alg rows workers txns unique seed jsonl profile pause resume =
  let alg = alg_of_string alg in
  let trace = Trace.create () in
  ignore (Trace.attach_recorder trace ~capacity:2048);
  let close_jsonl =
    match jsonl with
    | Some path -> Trace.add_jsonl_file_sink trace ~path
    | None -> fun () -> ()
  in
  let ctx = fresh ~trace ~seed ~rows () in
  (* sample metrics + build progress into the dump (not the recorder-only
     case: samples would crowd real events out of the ring) *)
  if jsonl <> None then Obs_sampler.install ctx ~every:200;
  let prof =
    match profile with
    | Some every -> Some (fst (Obs_sampler.install_profiler ctx ~every ()))
    | None -> None
  in
  let stats =
    if workers > 0 then
      Driver.spawn_workers ctx
        { Driver.default with seed; workers; txns_per_worker = txns }
        ~table:1
    else
      ref { Driver.committed = 0; aborted = 0; deadlocks = 0; unique_violations = 0 }
  in
  let cfg =
    match pause with
    | None -> Ib.default_config alg
    | Some _ ->
      (* pause lands at the first durable checkpoint past the step, so
         checkpoint often enough for the demo to feel responsive *)
      { (Ib.default_config alg) with ckpt_every_pages = 16; ckpt_every_keys = 256 }
  in
  let paused = ref false in
  let pause_hook = ref None in
  (match pause with
  | None -> ()
  | Some at ->
    pause_hook :=
      Some
        (Sched.add_step_hook ctx.Ctx.sched (fun steps ->
             if steps >= at then Throttle.request_pause ctx.Ctx.throttle)));
  let steps = ref 0 and d = ref (Metrics.create ()) in
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         let t0 = Sched.steps ctx.Ctx.sched in
         let before = Metrics.snapshot ctx.Ctx.metrics in
         (try
            Ib.build_index ctx cfg ~table:1
              { Ib.index_id = 10; key_cols = [ (if unique then 1 else 0) ]; unique }
          with Ib.Build_paused { index } ->
            paused := true;
            Printf.printf "index %d: pause honoured at a durable checkpoint\n"
              index);
         steps := Sched.steps ctx.Ctx.sched - t0;
         d := Metrics.diff ~after:(Metrics.snapshot ctx.Ctx.metrics) ~before));
  Sched.run ctx.Ctx.sched;
  if !paused then begin
    Printf.printf "build paused (virtual step %d):\n"
      (Sched.steps ctx.Ctx.sched);
    print_lifecycle ctx ~index_id:10;
    if resume then begin
      (match !pause_hook with
      | Some id -> Sched.remove_step_hook ctx.Ctx.sched id
      | None -> ());
      Throttle.clear_pause ctx.Ctx.throttle;
      print_endline "resuming from the sort checkpoint...";
      ignore
        (Sched.spawn ctx.Ctx.sched ~name:"ib-resume" (fun () ->
             let t0 = Sched.steps ctx.Ctx.sched in
             Ib.resume_builds ctx cfg;
             steps := !steps + (Sched.steps ctx.Ctx.sched - t0)));
      Sched.run ctx.Ctx.sched;
      print_lifecycle ctx ~index_id:10
    end
  end;
  if !paused && not resume then begin
    print_endline "build left paused; add --resume to continue it in place";
    close_jsonl ();
    match jsonl with
    | Some path -> Printf.printf "event trace written to %s\n" path
    | None -> ()
  end
  else begin
  print_progress ctx;
  print_endline "latency histograms (steps):";
  Format.printf "%a@." Trace.pp_hists trace;
  report ctx stats !d !steps;
  (match prof with
  | None -> ()
  | Some p ->
    Printf.printf "profiler: %d samples in %d rounds\n"
      (Oib_obs.Profiler.total (Oib_obs.Profiler.fold p))
      (Oib_obs.Profiler.ticks p));
  close_jsonl ();
  match jsonl with
  | Some path -> Printf.printf "event trace written to %s\n" path
  | None -> ()
  end

let cmd_crash alg rows at seed jsonl =
  let alg = alg_of_string alg in
  let cfg =
    { (Ib.default_config alg) with ckpt_every_pages = 16; ckpt_every_keys = 256 }
  in
  let trace, finish_jsonl = trace_setup jsonl in
  let ctx = fresh ?trace ~epoch_label:"crash-run" ~seed ~rows () in
  let _ =
    Driver.spawn_workers ctx
      { Driver.default with seed; workers = 4; txns_per_worker = 100 }
      ~table:1
  in
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         Ib.build_index ctx cfg ~table:1
           { Ib.index_id = 10; key_cols = [ 0 ]; unique = false }));
  Sched.set_crash_trap ctx.Ctx.sched (fun steps -> steps >= at);
  (match Sched.run ctx.Ctx.sched with
  | () -> Printf.printf "build finished before step %d; no crash\n" at
  | exception Sched.Crashed -> Printf.printf "CRASH injected at step %d\n" at);
  let ctx = Engine.crash ctx in
  print_endline "restart recovery complete";
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"resume" (fun () ->
         Ib.resume_builds ctx cfg;
         match Catalog.index ctx.Ctx.catalog 10 with
         | _ -> ()
         | exception Invalid_argument _ ->
           Ib.build_index ctx cfg ~table:1
             { Ib.index_id = 10; key_cols = [ 0 ]; unique = false }));
  Sched.run ctx.Ctx.sched;
  (match (Catalog.index ctx.Ctx.catalog 10).phase with
  | Catalog.Ready -> print_endline "index READY after resume"
  | _ -> print_endline "index not ready?!");
  (match Engine.consistency_errors ctx with
  | [] -> print_endline "consistency            OK"
  | errs ->
    List.iter print_endline errs;
    finish_jsonl ();
    exit 1);
  finish_jsonl ()

let cmd_soak seeds alg jsonl =
  let alg = alg_of_string alg in
  let trace, finish_jsonl = trace_setup jsonl in
  let failures = ref 0 in
  for seed = 1 to seeds do
    let ctx =
      fresh ?trace
        ~epoch_label:(Printf.sprintf "seed-%d" seed)
        ~seed ~rows:300 ()
    in
    let _ =
      Driver.spawn_workers ctx
        { Driver.default with seed; workers = 3; txns_per_worker = 20 }
        ~table:1
    in
    ignore
      (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
           Ib.build_index ctx (Ib.default_config alg) ~table:1
             { Ib.index_id = 10; key_cols = [ 0 ]; unique = false }));
    Sched.run ctx.Ctx.sched;
    match Engine.consistency_errors ctx with
    | [] -> Printf.printf "seed %3d: OK\n%!" seed
    | errs ->
      incr failures;
      Printf.printf "seed %3d: %d ERRORS\n%!" seed (List.length errs)
  done;
  Printf.printf "%d/%d seeds clean\n" (seeds - !failures) seeds;
  finish_jsonl ();
  if !failures > 0 then exit 1

let cmd_iot rows seed jsonl =
  let trace, finish_jsonl = trace_setup jsonl in
  let ctx = Engine.create ~seed ~page_capacity:1024 ?trace () in
  let _ = Catalog.create_table ctx.Ctx.catalog ctx.Ctx.pool ~table_id:1 in
  (match
     Engine.run_txn ctx (fun txn ->
         for i = 0 to rows - 1 do
           ignore
             (Table_ops.insert ctx txn ~table:1
                (Oib_util.Record.make
                   [| Printf.sprintf "pk%06d" i; Printf.sprintf "s%04d" (i mod 89) |]))
         done)
   with
  | Ok () -> ()
  | Error _ -> failwith "populate failed");
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib-primary" (fun () ->
         Ib.build_index ctx (Ib.default_config Ib.Sf) ~table:1
           { Ib.index_id = 1; key_cols = [ 0 ]; unique = true }));
  Sched.run ctx.Ctx.sched;
  print_endline "primary index built (unique)";
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib-secondary" (fun () ->
         Ib.build_secondary_via_primary ctx (Ib.default_config Ib.Sf) ~table:1
           ~primary:1
           { Ib.index_id = 2; key_cols = [ 1 ]; unique = false }));
  Sched.run ctx.Ctx.sched;
  print_endline "secondary built via key-order scan of the primary (§6.2)";
  (match Engine.consistency_errors ctx with
  | [] -> print_endline "consistency            OK"
  | errs ->
    List.iter print_endline errs;
    finish_jsonl ();
    exit 1);
  finish_jsonl ()

open Cmdliner

let alg_arg =
  Arg.(value & opt string "sf" & info [ "a"; "alg" ] ~docv:"ALG" ~doc:"nsf or sf")

let rows_arg =
  Arg.(value & opt int 2000 & info [ "rows" ] ~docv:"N" ~doc:"Initial table size")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic seed")

let jsonl_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-jsonl" ] ~docv:"FILE"
        ~doc:"Also write every trace event to $(docv) as JSON lines.")

let build_cmd =
  let workers = Arg.(value & opt int 4 & info [ "workers" ] ~docv:"W") in
  let txns = Arg.(value & opt int 50 & info [ "txns" ] ~docv:"T" ~doc:"Per worker") in
  let unique = Arg.(value & flag & info [ "unique" ]) in
  let profile =
    Arg.(
      value
      & opt (some int) None
      & info [ "profile" ] ~docv:"K"
          ~doc:
            "Sample every live fiber every $(docv) virtual steps, emitting \
             prof.sample events (analyze with oib-trace prof).")
  in
  let pause =
    Arg.(
      value
      & opt (some int) None
      & info [ "pause" ] ~docv:"STEP"
          ~doc:
            "Request a cooperative pause once the virtual clock reaches \
             $(docv); the builder stops at its next durable checkpoint, \
             losing no work.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "With --pause: after the build pauses, continue it in place \
             from its last checkpoint and finish.")
  in
  Cmd.v
    (Cmd.info "build" ~doc:"Build an index online under a transaction mix")
    Term.(
      const cmd_build $ alg_arg $ rows_arg $ workers $ txns $ unique $ seed_arg
      $ jsonl_arg $ profile $ pause $ resume)

let crash_cmd =
  let at = Arg.(value & opt int 2000 & info [ "at" ] ~docv:"STEP" ~doc:"Crash step") in
  Cmd.v
    (Cmd.info "crash" ~doc:"Crash mid-build, recover, resume, verify")
    Term.(const cmd_crash $ alg_arg $ rows_arg $ at $ seed_arg $ jsonl_arg)

let soak_cmd =
  let seeds = Arg.(value & opt int 20 & info [ "seeds" ] ~docv:"N") in
  Cmd.v
    (Cmd.info "soak" ~doc:"Run the oracle across many seeds")
    Term.(const cmd_soak $ seeds $ alg_arg $ jsonl_arg)

let iot_cmd =
  Cmd.v
    (Cmd.info "iot" ~doc:"Secondary index via a primary-key-order scan (§6.2)")
    Term.(const cmd_iot $ rows_arg $ seed_arg $ jsonl_arg)

let () =
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "oib-demo" ~version:"1.0"
             ~doc:"Online index build without quiescing updates (SIGMOD '92)")
          [ build_cmd; crash_cmd; soak_cmd; iot_cmd ]))
