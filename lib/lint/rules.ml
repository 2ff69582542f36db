open Summary

let console_calls =
  [
    "print_string"; "print_endline"; "print_newline"; "print_int";
    "print_char"; "print_float"; "prerr_string"; "prerr_endline";
    "prerr_newline"; "Stdlib.print_string"; "Stdlib.print_endline";
    "Printf.printf"; "Printf.eprintf"; "Format.printf"; "Format.eprintf";
    "Format.print_string"; "Format.print_newline";
  ]

(* printing calls whose first argument selects the channel *)
let channel_calls =
  [ "Printf.fprintf"; "Format.fprintf"; "output_string"; "output_char" ]

let console_channels =
  [ "stdout"; "stderr"; "Stdlib.stdout"; "Stdlib.stderr" ]

let console_allowed_modules =
  [ "Table_printer"; "Report"; "Trace"; "Flight_recorder" ]

let printf_banned_modules =
  [ "Lock_manager"; "Log_manager"; "Log_codec"; "Log_record"; "Lsn" ]

type t = {
  diags : Diag.t list;
  rule_ms : (string * float) list;
}

(* --- suppression --- *)

let diag_of ?(site = "") ?(trace = []) ~rule ~hint ~allows loc msg =
  let suppressed =
    match List.find_opt (fun a -> a.a_rule = rule) allows with
    | Some a ->
      a.a_used := true;
      Some a.a_reason
    | None -> None
  in
  Diag.of_location ~suppressed ~site ~trace ~rule ~hint loc msg

(* "f -> g -> Sched.yield" -> ["f"; "g"; "Sched.yield"] (OCaml paths
   never contain '-' or '>') *)
let chain_frames w =
  List.filter_map
    (fun s -> match String.trim s with "" -> None | s -> Some s)
    (String.split_on_char '>' (String.concat "" (String.split_on_char '-' w)))

let held_text held =
  String.concat ", " (List.map (fun (k, m) -> k ^ "(" ^ m ^ ")") held)

(* --- L1 (interprocedural tail): a unit that exits holding a latch
   rooted at a parameter pushes the release obligation to its callers;
   with no in-tree caller nobody discharges it. --- *)

let l1_param_diags cg =
  List.concat_map
    (fun u ->
      if Callgraph.is_opaque u.u_module then []
      else if Callgraph.callers cg u <> [] then []
      else
        let seen = Hashtbl.create 4 in
        List.concat_map
          (fun alt ->
            List.filter_map
              (fun (a : Latch_effect.atom) ->
                match a.a_kind with
                | Latch_effect.Param i ->
                  let k = Latch_effect.atom_key a in
                  if Hashtbl.mem seen k then None
                  else begin
                    Hashtbl.add seen k ();
                    let p =
                      match List.nth_opt u.u_params i with
                      | Some p -> p
                      | None -> "#" ^ string_of_int i
                    in
                    Some
                      (diag_of ~rule:"L1" ~trace:a.a_origin
                         ~hint:
                           "balance the acquire on every path, use \
                            Latch.with_latch, or justify the ownership \
                            transfer with [@lint.allow]"
                         ~allows:u.u_allows a.a_loc
                         ("latch " ^ p ^ a.a_path ^ " (" ^ a.a_mode
                        ^ ") acquired here is not released on every path \
                           of " ^ u.u_name
                        ^ " (no in-tree caller discharges it)"))
                  end
                | _ -> None)
              alt)
          u.u_effect.Latch_effect.alts)
    (Callgraph.units cg)

(* --- L2 --- *)

let l2_diags cg ~suspends blocking =
  let out = ref [] in
  List.iter
    (fun u ->
      List.iter
        (fun c ->
          if c.c_held <> [] then begin
            let why =
              if List.mem c.c_callee suspends then Some c.c_callee
              else
                List.find_map
                  (fun callee ->
                    Option.map
                      (fun w -> c.c_callee ^ " -> " ^ w)
                      (Hashtbl.find_opt blocking
                         (callee.u_module, callee.u_name)))
                  (Callgraph.lookup cg ~caller_module:u.u_module c.c_callee)
            in
            match why with
            | Some w ->
              out :=
                diag_of ~rule:"L2" ~trace:(chain_frames w)
                  ~hint:
                    "release the latch before blocking, or justify the \
                     log-force point with [@lint.allow]"
                  ~allows:c.c_allows c.c_loc
                  ("call may block (" ^ w ^ ") while holding "
                 ^ held_text c.c_held ^ " in " ^ u.u_name)
                :: !out
            | None -> ()
          end)
        u.u_calls)
    (Callgraph.units cg);
  !out

(* --- L4 --- *)

let l4_diags summaries =
  let out = ref [] in
  List.iter
    (fun fs ->
      let m = fs.fs_module in
      let allowed = List.mem m console_allowed_modules in
      let banned_printf = List.mem m printf_banned_modules in
      List.iter
        (fun u ->
          List.iter
            (fun c ->
              let console =
                (not allowed)
                && (List.mem c.c_callee console_calls
                   ||
                   List.mem c.c_callee channel_calls
                   &&
                   match c.c_arg1 with
                   | Some a -> List.mem a console_channels
                   | None -> false)
              in
              if console then
                out :=
                  diag_of ~rule:"L4"
                    ~hint:
                      "route runtime output through Oib_obs (trace/metrics) \
                       or return the string to the caller"
                    ~allows:c.c_allows c.c_loc
                    ("console output via " ^ c.c_callee
                   ^ " in library module " ^ m)
                  :: !out
              else if
                banned_printf
                && String.length c.c_callee > 7
                && String.sub c.c_callee 0 7 = "Printf."
              then
                out :=
                  diag_of ~rule:"L4"
                    ~hint:
                      "build the string with plain concatenation; Printf is \
                       banned in lock/WAL hot paths"
                    ~allows:c.c_allows c.c_loc
                    (c.c_callee ^ " used in lock/WAL module " ^ m)
                  :: !out)
            u.u_calls)
        fs.fs_units)
    summaries;
  !out

(* --- local findings (L1/L3/L7/parse/allow) --- *)

let local_diags summaries =
  List.concat_map
    (fun fs ->
      let of_finding f =
        diag_of ~rule:f.f_rule ~trace:f.f_trace ~hint:f.f_hint
          ~allows:f.f_allows f.f_loc f.f_msg
      in
      List.map of_finding fs.fs_findings
      @ List.concat_map (fun u -> List.map of_finding u.u_local) fs.fs_units)
    summaries

let run ~config cg =
  let summaries = Callgraph.summaries cg in
  let timings = ref [] in
  let timed name f =
    let t0 = Sys.time () in
    let r = f () in
    timings := (name, (Sys.time () -. t0) *. 1000.) :: !timings;
    r
  in
  let local = timed "local" (fun () -> local_diags summaries) in
  let l1 = timed "L1" (fun () -> l1_param_diags cg) in
  let l2 =
    timed "L2" (fun () ->
        Dataflow.reach cg ~seed:(fun c ->
            if List.mem c.c_callee config.suspends then Some c.c_callee
            else None)
        |> l2_diags cg ~suspends:config.suspends)
  in
  let l4 = timed "L4" (fun () -> l4_diags summaries) in
  let diags = local @ l1 @ l2 @ l4 in
  {
    diags = List.sort Diag.compare (List.sort_uniq compare diags);
    rule_ms = List.rev !timings;
  }
