(* Whole-tree call graph over analysis units.

   Nodes are units (identified by module + binding name); edges come
   from recorded call sites, resolved syntactically: a qualified callee
   "M.f" maps to every unit named "f" in module M, an unqualified "f"
   to units "f" in the caller's own module. Calls into the latch /
   scheduler primitives are deliberately opaque — their internals are
   modelled by the rule base-sets, not by walking into their bodies.

   Higher-order flow is approximated two ways: closures passed directly
   to a call are walked inline at the call site by the summariser, and a
   module-qualified function passed as an argument is recorded as a
   [c_callback] edge — it participates in reachability (the HOF may
   invoke it) but contributes no latch-effect application. *)

open Summary

type t = {
  cg_summaries : file_summary list;
  cg_units : u list;  (* stable (file, source) order *)
  cg_idx : (string * string, u list) Hashtbl.t;
      (* (module, last name component) -> units *)
  cg_preds : (string * string, u list) Hashtbl.t;
      (* (callee module, callee name) -> calling units *)
}

(* The latch and scheduler modules ARE the blocking/acquiring
   primitives; resolving into them would collapse L2 into L1. *)
let opaque_modules = [ "Latch"; "Sched" ]

(* A dotted callee whose first component is capitalized is
   module-qualified ("Heap_file.latch_rid"); otherwise it is a scoped
   local-function name produced by the summariser ("descend_read.go")
   and resolves exactly within the caller's module. *)
let resolve_callee ~caller_module callee =
  match String.index_opt callee '.' with
  | None -> (caller_module, callee)
  | Some i ->
    let first = String.sub callee 0 i in
    if first <> "" && first.[0] >= 'A' && first.[0] <= 'Z' then
      (first, String.sub callee (i + 1) (String.length callee - i - 1))
    else (caller_module, callee)

let lookup t ~caller_module callee =
  let m, n = resolve_callee ~caller_module callee in
  if List.mem m opaque_modules then []
  else Option.value ~default:[] (Hashtbl.find_opt t.cg_idx (m, n))

let units t = t.cg_units
let summaries t = t.cg_summaries

let callers t u =
  Option.value ~default:[]
    (Hashtbl.find_opt t.cg_preds (u.u_module, u.u_name))

let is_opaque m = List.mem m opaque_modules

let build summaries =
  let idx : (string * string, u list) Hashtbl.t = Hashtbl.create 256 in
  let all = ref [] in
  List.iter
    (fun fs ->
      List.iter
        (fun u ->
          all := u :: !all;
          let k = (fs.fs_module, u.u_name) in
          let prev = Option.value ~default:[] (Hashtbl.find_opt idx k) in
          Hashtbl.replace idx k (prev @ [ u ]))
        fs.fs_units)
    summaries;
  let t =
    {
      cg_summaries = summaries;
      cg_units = List.rev !all;
      cg_idx = idx;
      cg_preds = Hashtbl.create 256;
    }
  in
  List.iter
    (fun u ->
      List.iter
        (fun c ->
          List.iter
            (fun callee ->
              let k = (callee.u_module, callee.u_name) in
              let prev =
                Option.value ~default:[] (Hashtbl.find_opt t.cg_preds k)
              in
              if not (List.memq u prev) then
                Hashtbl.replace t.cg_preds k (prev @ [ u ]))
            (lookup t ~caller_module:u.u_module c.c_callee))
        u.u_calls)
    t.cg_units;
  t

(* --- JSON rendering (deterministic: everything sorted) --- *)

let to_json t =
  let full u = u.u_module ^ "." ^ u.u_name in
  let esc = Oib_util.Json_string.escape in
  let nodes =
    List.sort_uniq compare
      (List.map
         (fun u ->
           Printf.sprintf
             "{\"unit\":\"%s\",\"file\":\"%s\",\"effect\":\"%s\",\"acquires\":%b}"
             (esc (full u))
             (esc u.u_file)
             (esc (Latch_effect.to_string u.u_effect))
             u.u_acquires_latch)
         t.cg_units)
  in
  let edges =
    List.sort_uniq compare
      (List.concat_map
         (fun u ->
           List.concat_map
             (fun c ->
               List.map
                 (fun callee ->
                   Printf.sprintf
                     "{\"from\":\"%s\",\"to\":\"%s\",\"callback\":%b}"
                     (esc (full u))
                     (esc (full callee))
                     c.c_callback)
                 (lookup t ~caller_module:u.u_module c.c_callee))
             u.u_calls)
         t.cg_units)
  in
  "{\"schema\":\"oib-lint-callgraph/v2\",\"nodes\":[\n"
  ^ String.concat ",\n" nodes
  ^ "\n],\"edges\":[\n"
  ^ String.concat ",\n" edges
  ^ "\n]}\n"
