(* The lint fixture corpus: one planted violation per rule plus a clean
   twin, asserting the linter catches exactly what it claims to catch.
   Fixtures live in lint_fixtures/ as data-only files — they are parsed
   by the linter, never compiled. *)

open Oib_lint

let fx name = Filename.concat "lint_fixtures" name

let run_cfg config names = Lint.run_files ~config (List.map fx names)

let run ?(l3_modules = []) names =
  run_cfg
    (if l3_modules = [] then Summary.default_config
     else { Summary.default_config with Summary.l3_modules })
    names

(* unsuppressed (rule, basename) pairs, sorted *)
let error_rules res =
  List.sort_uniq compare
    (List.map
       (fun (d : Diag.t) -> (d.Diag.rule, Filename.basename d.Diag.file))
       (Lint.errors res))

let count_rule rule res =
  List.length
    (List.filter (fun (d : Diag.t) -> d.Diag.rule = rule) (Lint.errors res))

let check_rules msg expected res =
  Alcotest.(check (list (pair string string))) msg expected (error_rules res)

let test_l1_unbalanced () =
  let res = run [ "l1_unbalanced.ml"; "l1_balanced.ml" ] in
  check_rules "only the planted file trips L1"
    [ ("L1", "l1_unbalanced.ml") ]
    res;
  Alcotest.(check int) "leak + mode mismatch" 2 (count_rule "L1" res)

let test_l2_blocking () =
  let res = run [ "l2_yield_under_latch.ml"; "l2_clean.ml" ] in
  check_rules "only the planted file trips L2"
    [ ("L2", "l2_yield_under_latch.ml") ]
    res;
  Alcotest.(check int) "direct yield + transitive flush + condition wait" 3
    (count_rule "L2" res)

let test_l2_suppression_recorded () =
  let res = run [ "l2_allowed.ml" ] in
  Alcotest.(check int) "no unsuppressed diagnostics" 0
    (List.length (Lint.errors res));
  let supp =
    List.filter (fun (d : Diag.t) -> d.Diag.suppressed <> None) res.Lint.r_diags
  in
  Alcotest.(check int) "one suppressed L2" 1 (List.length supp);
  let d = List.hd supp in
  Alcotest.(check string) "rule" "L2" d.Diag.rule;
  (match d.Diag.suppressed with
  | Some why ->
    Alcotest.(check bool) "justification is recorded verbatim" true
      (String.length why > 20)
  | None -> Alcotest.fail "suppression lost");
  Alcotest.(check int) "stats count the suppression" 1
    (List.length res.Lint.r_stats.Lint.st_suppressions)

let test_l3_wal_discipline () =
  let l3_modules = [ "L3_mutate_without_log"; "L3_logged" ] in
  let res = run ~l3_modules [ "l3_mutate_without_log.ml"; "l3_logged.ml" ] in
  check_rules "mutation without append trips L3; logged twin is clean"
    [ ("L3", "l3_mutate_without_log.ml") ]
    res

let test_l4_output_discipline () =
  let res = run [ "l4_rogue_print.ml"; "lock_manager.ml"; "l4_clean.ml" ] in
  check_rules "console output and hot-path Printf trip L4"
    [ ("L4", "l4_rogue_print.ml"); ("L4", "lock_manager.ml") ]
    res;
  Alcotest.(check int) "print_endline + printf + fprintf stderr + sprintf" 4
    (count_rule "L4" res)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_malformed_allow () =
  let res = run [ "malformed_allow.ml" ] in
  let allow_msgs =
    List.filter_map
      (fun (d : Diag.t) ->
        if d.Diag.rule = "allow" then Some d.Diag.msg else None)
      (Lint.errors res)
  in
  Alcotest.(check int) "rule-less and retired-rule allows are reported" 2
    (List.length allow_msgs);
  Alcotest.(check bool) "the retired rule is named" true
    (List.exists (fun m -> contains m "unknown rule" && contains m "L9")
       allow_msgs);
  Alcotest.(check int) "and neither suppresses its underlying L1" 2
    (count_rule "L1" res)

let test_unused_allow_reported () =
  let res = run [ "unused_allow.ml" ] in
  Alcotest.(check int) "no diagnostics" 0 (List.length (Lint.errors res));
  (match res.Lint.r_unused_allows with
  | [ d ] ->
    Alcotest.(check string) "rule" "allow-unused" d.Diag.rule;
    Alcotest.(check bool) "names the stale allow" true
      (contains d.Diag.msg "L1: stale justification")
  | l ->
    Alcotest.failf "expected exactly one unused allow, got %d"
      (List.length l));
  (* a used allow is not reported *)
  let used = run [ "l2_allowed.ml" ] in
  Alcotest.(check int) "used allow not flagged" 0
    (List.length used.Lint.r_unused_allows)

let test_l7_escape () =
  let res = run [ "l7_escape.ml"; "l7_clean.ml" ] in
  check_rules "only the planted file trips L7"
    [ ("L7", "l7_escape.ml") ]
    res;
  Alcotest.(check int) "ref store + closure capture + use after release" 3
    (count_rule "L7" res)

let test_explain_trace () =
  (* the transitive L2 finding (yield reached through a local helper)
     must carry the interprocedural witness chain *)
  let res = run [ "l2_yield_under_latch.ml"; "l2_clean.ml" ] in
  let l2 =
    List.filter (fun (d : Diag.t) -> d.Diag.rule = "L2") (Lint.errors res)
  in
  Alcotest.(check bool) "at least one L2 carries a call path" true
    (List.exists (fun (d : Diag.t) -> List.length d.Diag.trace >= 2) l2)

(* A retired rule: an allow that names it suppresses nothing and is
   itself reported as malformed *)
let test_retired_allow rule file () =
  let res = run [ file ] in
  match Lint.errors res with
  | [ d ] ->
    Alcotest.(check string) "rule" "allow" d.Diag.rule;
    Alcotest.(check bool) "names the retired rule" true
      (contains d.Diag.msg "unknown rule" && contains d.Diag.msg rule)
  | l -> Alcotest.failf "expected one malformed allow, got %d" (List.length l)

(* A released handle's name bound again (re-latched, reused for a
   decoded page, or bound in a later closure) names a new value, which
   is neither released nor, unless it is a handle, live *)
let test_l7_rebind () =
  let res = run [ "l7_rebind.ml" ] in
  check_rules "rebinding a released handle's name is clean" [] res

(* Files listed in reverse call order: the leak in a_top only shows once
   the solver requeues a unit's callers when its effect grows (C_low's
   latched return reaches B_mid, then a_top) *)
let test_effect_convergence () =
  let res = run [ "a_top.ml"; "b_mid.ml"; "c_low.ml" ] in
  Alcotest.(check (list string)) "leak through two callees"
    [ "a_top.ml:4:10 L1" ]
    (List.map
       (fun (d : Diag.t) ->
         Printf.sprintf "%s:%d:%d %s" (Filename.basename d.Diag.file)
           d.Diag.line d.Diag.col d.Diag.rule)
       (Lint.errors res))

let all_fixture_files =
  [
    "l1_unbalanced.ml"; "l1_balanced.ml"; "l2_yield_under_latch.ml";
    "l2_clean.ml"; "l2_allowed.ml"; "l3_mutate_without_log.ml";
    "l3_logged.ml"; "l4_rogue_print.ml"; "l4_clean.ml"; "lock_manager.ml";
    "a_top.ml"; "b_mid.ml"; "c_low.ml"; "l7_escape.ml"; "l7_clean.ml";
    "l7_rebind.ml"; "malformed_allow.ml"; "unused_allow.ml";
    "l5_allowed.ml"; "l10_allowed.ml";
    "df_recursion.ml";
  ]

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* everything deterministic the engine produces: sorted diagnostics plus
   the call graph with converged effects (timings excluded by design) *)
let render res =
  String.concat "\n" (List.map Diag.to_string res.Lint.r_diags)
  ^ "\n"
  ^ Callgraph.to_json res.Lint.r_graph

let determinism_test =
  QCheck.Test.make ~name:"callgraph fixpoint is deterministic" ~count:25
    QCheck.small_int (fun seed ->
      let st = Random.State.make [| seed |] in
      let files = shuffle st all_fixture_files in
      let canonical = run (List.sort compare all_fixture_files) in
      let shuffled = run files in
      let rerun = run files in
      String.equal (render shuffled) (render rerun)
      && String.equal (render canonical) (render shuffled))

(* The latch-effect fixpoint must not depend on the worklist's initial
   enqueue order. The corpus pins the hard convergence shapes: mutual
   recursion and self-recursion (df_recursion.ml), latches handed to
   callers and released for them (the L1 fixtures, btree-style
   transfers), latched calls reached through local helpers, and a
   latched page returned up a chain of three files (a_top.ml). *)
let effect_corpus =
  [
    "df_recursion.ml"; "l1_unbalanced.ml"; "l1_balanced.ml";
    "l2_yield_under_latch.ml"; "a_top.ml"; "b_mid.ml"; "c_low.ml";
    "l7_escape.ml";
  ]

let solved_graph_json ~order =
  let summaries =
    List.map (fun f -> Summary.summarize_file (fx f)) effect_corpus
  in
  let cg = Callgraph.build summaries in
  Dataflow.solve_effects ~order cg;
  Dataflow.emit_pass ~config:Summary.default_config cg;
  Callgraph.to_json cg

let worklist_order_test =
  QCheck.Test.make ~name:"latch fixpoint is order-independent"
    ~count:25 QCheck.small_int (fun seed ->
      let st = Random.State.make [| seed |] in
      let canonical = solved_graph_json ~order:(fun us -> us) in
      let shuffled = solved_graph_json ~order:(shuffle st) in
      String.equal canonical shuffled)

let test_stats_json () =
  let res = run [ "l1_unbalanced.ml" ] in
  let json = Lint.stats_to_json res.Lint.r_stats in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json mentions " ^ needle) true
        (contains json needle))
    [
      "\"files\":1"; "\"L1\""; "\"suppressions\"";
      "\"phase_ms\":{\"summarize\":"; "\"rule_ms\":{\"local\":";
    ];
  List.iter
    (fun absent ->
      Alcotest.(check bool) ("json omits " ^ absent) false
        (contains json absent))
    [ "\"baselined\"" ]

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "L1 latch balance" `Quick test_l1_unbalanced;
          Alcotest.test_case "L2 blocking under latch" `Quick test_l2_blocking;
          Alcotest.test_case "L2 suppression recorded" `Quick
            test_l2_suppression_recorded;
          Alcotest.test_case "L3 WAL discipline" `Quick test_l3_wal_discipline;
          Alcotest.test_case "L4 output discipline" `Quick
            test_l4_output_discipline;
          Alcotest.test_case "L7 page-handle escape" `Quick test_l7_escape;
          Alcotest.test_case "L7 rebinding a released name" `Quick
            test_l7_rebind;
          Alcotest.test_case "retired L5 allow is malformed" `Quick
            (test_retired_allow "L5" "l5_allowed.ml");
          Alcotest.test_case "retired L10 allow is malformed" `Quick
            (test_retired_allow "L10" "l10_allowed.ml");
          Alcotest.test_case "effects converge against file order" `Quick
            test_effect_convergence;
          Alcotest.test_case "explain carries call path" `Quick
            test_explain_trace;
          Alcotest.test_case "malformed allow reported" `Quick
            test_malformed_allow;
          Alcotest.test_case "unused allow reported" `Quick
            test_unused_allow_reported;
          Alcotest.test_case "stats json" `Quick test_stats_json;
        ] );
      ( "engine",
        [
          QCheck_alcotest.to_alcotest determinism_test;
          QCheck_alcotest.to_alcotest worklist_order_test;
        ] );
    ]
