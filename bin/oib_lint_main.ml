(* oib-lint: concurrency-protocol linter for the online-index-build tree.

   Parses every .ml under --root with compiler-libs (parsetree only),
   builds a whole-tree call graph, solves the interprocedural
   latch-effect fixpoint and may-suspend reachability, and enforces the
   latch/WAL/logging discipline rules L1-L4 and L7 described in
   DESIGN.md §12 and §17.
   Exit status: 0 clean, 1 unsuppressed diagnostics. *)

open Cmdliner

module L = Oib_lint.Lint

let print_stats (st : L.stats) =
  let line fmt = Printf.printf fmt in
  line "files scanned       %d\n" st.L.st_files;
  line "functions analysed  %d\n" st.L.st_units;
  let table title rows =
    line "%s\n" title;
    if rows = [] then line "  (none)\n"
    else
      List.iter (fun (r, n) -> line "  %-6s %d\n" r n) rows
  in
  table "diagnostics by rule:" st.L.st_by_rule;
  table "suppressed by rule:" st.L.st_suppressed_by_rule;
  if st.L.st_suppressions <> [] then begin
    line "suppressions:\n";
    List.iter
      (fun (f, r, why) -> line "  %-4s %s: %s\n" r f why)
      st.L.st_suppressions
  end;
  line "phase wall time (ms):\n";
  List.iter (fun (k, v) -> line "  %-10s %.2f\n" k v) st.L.st_phase_ms;
  line "rule wall time (ms):\n";
  List.iter (fun (k, v) -> line "  %-10s %.2f\n" k v) st.L.st_rule_ms

let write_file path contents =
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (contents ());
      close_out oc)
    path

let print_diag ~explain d =
  print_endline (Oib_lint.Diag.to_string d);
  if explain then
    List.iter
      (fun frame -> print_endline ("    via " ^ frame))
      d.Oib_lint.Diag.trace

let trajectory_record (res : L.result) =
  let st = res.L.r_stats in
  let total l = List.fold_left (fun a (_, n) -> a + n) 0 l in
  let ms = List.fold_left (fun a (_, v) -> a +. v) 0. st.L.st_phase_ms in
  let rules =
    String.concat ","
      (List.sort_uniq compare
         (List.map fst (st.L.st_by_rule @ st.L.st_suppressed_by_rule)))
  in
  (* alphabetical keys, schema bench-trajectory/v1 *)
  Printf.sprintf
    "{\"analysis_ms\":%.3f,\"files\":%d,\"findings\":%d,\"kind\":\"lint_engine\",\"rules\":\"%s\",\"schema\":\"bench-trajectory/v1\",\"units\":%d}"
    ms st.L.st_files
    (total st.L.st_by_rule + total st.L.st_suppressed_by_rule)
    (Oib_util.Json_string.escape rules)
    st.L.st_units

let run root stats json show_suppressed strict graph explain trajectory =
  if not (Sys.file_exists root && Sys.is_directory root) then begin
    prerr_endline ("oib-lint: no such directory: " ^ root);
    2
  end
  else begin
    let res = L.run_tree root in
    let errs = L.errors res in
    let shown = if show_suppressed then res.L.r_diags else errs in
    List.iter (print_diag ~explain) shown;
    if strict then
      List.iter (print_diag ~explain:false) res.L.r_unused_allows;
    write_file json (fun () -> L.stats_to_json res.L.r_stats ^ "\n");
    write_file graph (fun () -> Oib_lint.Callgraph.to_json res.L.r_graph);
    (match trajectory with
    | Some path ->
      let oc =
        open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
      in
      output_string oc (trajectory_record res);
      output_string oc "\n";
      close_out oc
    | None -> ());
    if stats then print_stats res.L.r_stats;
    if errs <> [] then 1
    else if strict && res.L.r_unused_allows <> [] then 1
    else 0
  end

let root =
  let doc = "Directory tree to lint." in
  Arg.(value & opt string "lib" & info [ "root" ] ~docv:"DIR" ~doc)

let stats =
  let doc = "Print rule hit counts and the suppression table." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let json =
  let doc = "Write statistics as JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let show_suppressed =
  let doc = "Also print diagnostics silenced by [@lint.allow]." in
  Arg.(value & flag & info [ "show-suppressed" ] ~doc)

let strict =
  let doc =
    "Report [@lint.allow] annotations that suppressed zero diagnostics, and \
     fail (exit 1) when there is any."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

let graph =
  let doc =
    "Write the full interprocedural call graph (nodes with converged \
     latch effects, resolved edges) as JSON to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "graph" ] ~docv:"FILE" ~doc)

let explain =
  let doc =
    "Under each finding, print the interprocedural path (call frames / \
     witness chain) that produced it."
  in
  Arg.(value & flag & info [ "explain" ] ~doc)

let trajectory =
  let doc =
    "Append a $(b,kind:lint_engine) record (bench-trajectory/v1) to \
     $(docv)."
  in
  Arg.(
    value & opt (some string) None & info [ "trajectory" ] ~docv:"FILE" ~doc)

let cmd =
  let doc =
    "latch/WAL/logging protocol linter for the oib tree"
  in
  let info = Cmd.info "oib-lint" ~doc in
  Cmd.v info
    Term.(
      const run $ root $ stats $ json $ show_suppressed $ strict $ graph
      $ explain $ trajectory)

let () = exit (Cmd.eval' cmd)
