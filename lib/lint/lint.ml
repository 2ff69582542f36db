type stats = {
  st_files : int;
  st_units : int;
  st_by_rule : (string * int) list;
  st_suppressed_by_rule : (string * int) list;
  st_suppressions : (string * string * string) list;
  st_phase_ms : (string * float) list;
  st_rule_ms : (string * float) list;
}

type result = {
  r_diags : Diag.t list;
  r_unused_allows : Diag.t list;
  r_rules : Rules.t;
  r_graph : Callgraph.t;
  r_stats : stats;
}

let scan_files root =
  let out = ref [] in
  let rec go dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | entries ->
      Array.sort compare entries;
      Array.iter
        (fun e ->
          if String.length e > 0 && e.[0] <> '.' && e <> "_build" then
            let p = Filename.concat dir e in
            if Sys.is_directory p then go p
            else if Filename.check_suffix e ".ml" then out := p :: !out)
        entries
  in
  go root;
  List.sort compare !out

let count_by_rule diags =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (d : Diag.t) ->
      Hashtbl.replace tbl d.rule
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d.rule)))
    diags;
  List.sort compare (Hashtbl.fold (fun k v a -> (k, v) :: a) tbl [])

(* computed after Rules.run so the usage flags are settled *)
let unused_allow_diags summaries =
  Diag.dedupe
    (List.concat_map
       (fun fs ->
         List.filter_map
           (fun (a : Summary.allow) ->
             if !(a.Summary.a_used) then None
             else
               Some
                 (Diag.of_location ~rule:"allow-unused"
                    ~hint:
                      "remove the stale [@lint.allow], or fix its rule tag"
                    a.Summary.a_loc
                    ("[@lint.allow \"" ^ a.Summary.a_rule ^ ": "
                   ^ a.Summary.a_reason
                   ^ "\"] suppressed no diagnostics")))
           fs.Summary.fs_allows)
       summaries)

let run_files ?(config = Summary.default_config) files =
  let t0 = Sys.time () in
  let summaries = List.map (Summary.summarize_file ~config) files in
  let t1 = Sys.time () in
  let cg = Callgraph.build summaries in
  Dataflow.solve_effects cg;
  let t2 = Sys.time () in
  Dataflow.emit_pass ~config cg;
  let t3 = Sys.time () in
  let rules = Rules.run ~config cg in
  let t4 = Sys.time () in
  let ms a b = (b -. a) *. 1000. in
  let diags = Diag.dedupe rules.Rules.diags in
  let unsuppressed, suppressed =
    List.partition (fun (d : Diag.t) -> d.suppressed = None) diags
  in
  let stats =
    {
      st_files = List.length files;
      st_units =
        List.fold_left
          (fun n fs -> n + List.length fs.Summary.fs_units)
          0 summaries;
      st_by_rule = count_by_rule unsuppressed;
      st_suppressed_by_rule = count_by_rule suppressed;
      st_suppressions =
        List.map
          (fun (d : Diag.t) ->
            (d.file, d.rule, Option.value ~default:"" d.suppressed))
          suppressed;
      st_phase_ms =
        [
          ("summarize", ms t0 t1);
          ("solve", ms t1 t2);
          ("emit", ms t2 t3);
          ("rules", ms t3 t4);
        ];
      st_rule_ms = rules.Rules.rule_ms;
    }
  in
  {
    r_diags = diags;
    r_unused_allows = unused_allow_diags summaries;
    r_rules = rules;
    r_graph = cg;
    r_stats = stats;
  }

let run_tree ?config root = run_files ?config (scan_files root)

let errors r =
  List.filter (fun (d : Diag.t) -> d.suppressed = None) r.r_diags

let stats_to_json st =
  let str s = "\"" ^ Oib_util.Json_string.escape s ^ "\"" in
  let obj value l =
    "{"
    ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ value v) l)
    ^ "}"
  in
  let ms = obj (Printf.sprintf "%.3f") in
  let suppression (f, r, why) =
    "{\"file\":" ^ str f ^ ",\"rule\":" ^ str r ^ ",\"reason\":" ^ str why
    ^ "}"
  in
  "{\"files\":" ^ string_of_int st.st_files
  ^ ",\"units\":" ^ string_of_int st.st_units
  ^ ",\"diagnostics\":" ^ obj string_of_int st.st_by_rule
  ^ ",\"suppressed\":" ^ obj string_of_int st.st_suppressed_by_rule
  ^ ",\"suppressions\":["
  ^ String.concat "," (List.map suppression st.st_suppressions)
  ^ "],\"phase_ms\":" ^ ms st.st_phase_ms
  ^ ",\"rule_ms\":" ^ ms st.st_rule_ms
  ^ "}"
