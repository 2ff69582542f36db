(* L12: atomic-section export.

   From the converged per-unit summaries, compute every function's
   maximal yield-free regions (runs of shared-state accesses not
   crossing a suspension point) together with its shared-state
   footprint, and classify every shared-state class key as either
   [atomic] (every read-compute-write is yield-free or re-validated)
   or [crossing] (some unit has a window spanning a yield — recorded
   before [@lint.allow] suppression, so justified windows still count).

   The JSON export (oib-lint-atomics/v1) is the static half of the
   L12 twin: oib-fuzz --sanitize --atomics diffs the interleavings the
   sanitizer actually observes against it. A dynamically observed
   crossing that the static table calls atomic is a soundness bug in
   one of the two; a static crossing never observed dynamically is
   merely untested. Everything is sorted, so the output is
   byte-stable. *)

open Summary

type region = {
  rg_start : int;
  rg_end : int;
  rg_reads : string list;  (* class keys, sorted *)
  rg_writes : string list;
}

type unit_atomics = {
  ua_unit : string;  (* "Module.name" *)
  ua_file : string;
  ua_yield : string;  (* converged may-yield level, human-readable *)
  ua_regions : region list;
}

type t = {
  at_crossing : string list;  (* class keys with a stale-write window *)
  at_atomic : string list;  (* accessed class keys never crossing *)
  at_units : unit_atomics list;
}

let line_of (loc : Location.t) = loc.Location.loc_start.pos_lnum

let col_of (loc : Location.t) =
  loc.Location.loc_start.pos_cnum - loc.Location.loc_start.pos_bol

let regions_of u =
  (* interleave accesses and yield sites by source position, then cut
     the access stream at every yield *)
  let events =
    List.map (fun (c, _, w, loc) -> (line_of loc, col_of loc, Some (c, w)))
      u.u_accesses
    @ List.map (fun (loc, _) -> (line_of loc, col_of loc, None))
        u.u_yield_sites
  in
  let events =
    List.sort (fun (l1, c1, _) (l2, c2, _) -> compare (l1, c1) (l2, c2))
      events
  in
  let flush cur acc =
    match cur with
    | [] -> acc
    | _ ->
      let accs = List.rev cur in
      let lines = List.map (fun (l, _, _) -> l) accs in
      let reads =
        List.filter_map
          (fun (_, _, ev) ->
            match ev with Some (c, false) -> Some c | _ -> None)
          accs
      and writes =
        List.filter_map
          (fun (_, _, ev) ->
            match ev with Some (c, true) -> Some c | _ -> None)
          accs
      in
      {
        rg_start = List.fold_left min max_int lines;
        rg_end = List.fold_left max 0 lines;
        rg_reads = List.sort_uniq compare reads;
        rg_writes = List.sort_uniq compare writes;
      }
      :: acc
  in
  let rec go cur acc = function
    | [] -> List.rev (flush cur acc)
    | (_, _, None) :: rest -> go [] (flush cur acc) rest
    | ((_, _, Some _) as ev) :: rest -> go (ev :: cur) acc rest
  in
  go [] [] events

let compute cg =
  let units = Callgraph.units cg in
  let crossing = Hashtbl.create 8 in
  let touched = Hashtbl.create 16 in
  List.iter
    (fun u ->
      List.iter (fun c -> Hashtbl.replace crossing c ()) u.u_crossings;
      List.iter
        (fun (c, _, _, _) -> Hashtbl.replace touched c ())
        u.u_accesses)
    units;
  let keys tbl =
    List.sort_uniq compare (Hashtbl.fold (fun k () a -> k :: a) tbl [])
  in
  let at_crossing = keys crossing in
  let at_atomic =
    List.filter (fun k -> not (Hashtbl.mem crossing k)) (keys touched)
  in
  let at_units =
    List.filter_map
      (fun u ->
        if u.u_accesses = [] && u.u_yield_sites = [] then None
        else
          Some
            {
              ua_unit = u.u_module ^ "." ^ u.u_name;
              ua_file = u.u_file;
              ua_yield = Yield_effect.to_string u.u_yield;
              ua_regions = regions_of u;
            })
      units
  in
  let at_units =
    List.sort (fun a b -> compare (a.ua_unit, a.ua_file) (b.ua_unit, b.ua_file))
      at_units
  in
  { at_crossing; at_atomic; at_units }

(* --- JSON (deterministic, no external dependency) --- *)

let str_array l =
  "["
  ^ String.concat "," (List.map (fun s -> "\"" ^ Diag.json_escape s ^ "\"") l)
  ^ "]"

let region_json r =
  Printf.sprintf "{\"start\":%d,\"end\":%d,\"reads\":%s,\"writes\":%s}"
    r.rg_start r.rg_end (str_array r.rg_reads) (str_array r.rg_writes)

let unit_json ua =
  Printf.sprintf "{\"unit\":\"%s\",\"file\":\"%s\",\"yield\":\"%s\",\"regions\":[%s]}"
    (Diag.json_escape ua.ua_unit) (Diag.json_escape ua.ua_file)
    (Diag.json_escape ua.ua_yield)
    (String.concat "," (List.map region_json ua.ua_regions))

let to_json t =
  "{\"schema\":\"oib-lint-atomics/v1\",\"crossing\":"
  ^ str_array t.at_crossing
  ^ ",\"atomic\":"
  ^ str_array t.at_atomic
  ^ ",\"units\":[\n"
  ^ String.concat ",\n" (List.map unit_json t.at_units)
  ^ "\n]}\n"
