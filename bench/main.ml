(* Benchmark harness entry point.

   dune exec bench/main.exe                 — every experiment
   dune exec bench/main.exe -- --exp e4     — one experiment

   Each experiment regenerates one row-set of DESIGN.md's experiment index;
   EXPERIMENTS.md records the claim-vs-measured comparison. *)

let run_experiment name =
  match List.assoc_opt (String.lowercase_ascii name) Experiments.all with
  | Some f ->
    f ();
    true
  | None ->
    Printf.eprintf "unknown experiment %S (known: %s)\n" name
      (String.concat ", " (List.map fst Experiments.all));
    false

let main exps smoke baseline =
  if smoke then begin
    (* tiny instrumented config: exercises the whole observability path
       (trace, progress, histograms, BENCH_obs.json, BENCH_core.json) in
       a few seconds *)
    Obs_report.run ~rows:200 ~workers:2 ~txns:10 ~sample_every:20 ();
    match baseline with
    | None -> 0
    | Some path ->
      if Obs_report.check_baseline ~baseline:path ~core:"BENCH_core.json" then 0
      else begin
        prerr_endline
          "bench: counts differ from baseline (re-baseline with \
           `cp BENCH_core.json bench/BENCH_baseline.json` if intended)";
        1
      end
  end
  else begin
    match exps with
    | [] ->
      print_endline
        "OIB benchmark suite — reproduction of Mohan & Narang, SIGMOD 1992";
      List.iter (fun (_, f) -> f ()) Experiments.all;
      Obs_report.run ();
      0
    | names -> if List.for_all run_experiment names then 0 else 1
  end

open Cmdliner

let exps =
  Arg.(
    value
    & opt_all string []
    & info [ "e"; "exp" ] ~docv:"EXP"
        ~doc:"Run one experiment (e0..e14); repeatable.")

let smoke =
  Arg.(
    value & flag
    & info [ "smoke" ]
        ~doc:"Run a tiny instrumented build and emit BENCH_obs.json only.")

let baseline =
  Arg.(
    value
    & opt (some file) None
    & info [ "check-baseline" ] ~docv:"FILE"
        ~doc:
          "After --smoke, compare BENCH_core.json against $(docv) and exit \
           nonzero unless every run's wall_steps, compares, log_bytes and \
           cost.page_writes are equal.")

let cmd =
  let doc = "Regenerate the evaluation of the online index build paper" in
  Cmd.v (Cmd.info "oib-bench" ~doc)
    Term.(const main $ exps $ smoke $ baseline)

let () = exit (Cmd.eval' cmd)
