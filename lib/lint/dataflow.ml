(* Worklist fixpoint engines over the call graph.

   [solve_effects] computes every unit's latch effect: all effects are
   reset to bottom (optimistic: "never returns"), then units are
   re-walked under a context that resolves callee effects from the
   current solution; a unit whose effect grows requeues its callers.
   Effect equality deliberately ignores location/origin metadata
   (Latch_effect.equal), and per-unit visits are capped, so the loop
   terminates even on recursion through approximated higher-order
   calls.

   [reach] is the generic may-property engine (may-block, may-append):
   units are marked from seeded call sites until nothing changes, each
   with a human-readable witness chain for --explain.
   Seeded with [config.suspends] it is the tree's only "can this call
   suspend?" analysis. *)

open Summary

(* A callee's summary: the join over every unit the name may resolve to;
   [None] for an unknown or opaque callee. *)
let resolver get join bottom cg ~caller_module name =
  match Callgraph.lookup cg ~caller_module name with
  | [] -> None
  | us -> Some (List.fold_left (fun acc u -> join acc (get u)) bottom us)

let effects =
  resolver (fun u -> u.u_effect) Latch_effect.join Latch_effect.bottom

let max_visits = 24

(* [order] permutes only the initial enqueue order; the fixpoint must be
   (and is, see the order-independence property test) insensitive to it *)
let solve_effects ?(order = fun us -> us) cg =
  let units = Callgraph.units cg in
  let ctx = { initial_ctx with x_effects = effects cg } in
  List.iter (fun u -> u.u_effect <- Latch_effect.bottom) units;
  let visits : (string * string, int) Hashtbl.t = Hashtbl.create 256 in
  let queued : (string * string, unit) Hashtbl.t = Hashtbl.create 256 in
  let q = Queue.create () in
  let enqueue u =
    let k = (u.u_module, u.u_name) in
    if not (Hashtbl.mem queued k) then begin
      Hashtbl.replace queued k ();
      Queue.add u q
    end
  in
  List.iter enqueue (order units);
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    let k = (u.u_module, u.u_name) in
    Hashtbl.remove queued k;
    let n = Option.value ~default:0 (Hashtbl.find_opt visits k) in
    if n < max_visits then begin
      Hashtbl.replace visits k (n + 1);
      let old = u.u_effect in
      u.u_rerun ctx;
      (* keep the solution monotone even if a capped approximation
         momentarily shrinks it *)
      u.u_effect <- Latch_effect.join old u.u_effect;
      if not (Latch_effect.equal old u.u_effect) then
        List.iter enqueue (Callgraph.callers cg u)
    end
  done

(* Mark units until nothing changes: [mark find u] is [u]'s mark given
   the marks so far ([find] looks one up), [None] while it has none. *)
let mark_until_stable cg mark =
  let marked = Hashtbl.create 64 in
  let find u = Hashtbl.find_opt marked (u.u_module, u.u_name) in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun u ->
        if find u = None then
          match mark find u with
          | Some m ->
            Hashtbl.replace marked (u.u_module, u.u_name) m;
            changed := true
          | None -> ())
      (Callgraph.units cg)
  done;
  marked

(* --- generic may-property reachability with witnesses --- *)

let reach cg ~seed =
  mark_until_stable cg (fun find u ->
      List.find_map
        (fun c ->
          match seed c with
          | Some w -> Some w
          | None ->
            List.find_map
              (fun callee ->
                Option.map (fun w -> c.c_callee ^ " -> " ^ w) (find callee))
              (Callgraph.lookup cg ~caller_module:u.u_module c.c_callee))
        u.u_calls)

(* --- the converged context for the final emission pass --- *)

let final_ctx ~config cg =
  let appends =
    reach cg ~seed:(fun c ->
        if List.mem c.c_callee config.l3_appends then Some c.c_callee
        else None)
  in
  {
    x_effects = effects cg;
    x_appends =
      (fun ~caller_module n ->
        List.exists
          (fun u -> Hashtbl.mem appends (u.u_module, u.u_name))
          (Callgraph.lookup cg ~caller_module n));
    x_emit = true;
  }

let emit_pass ~config cg =
  let ctx = final_ctx ~config cg in
  List.iter (fun u -> u.u_rerun ctx) (Callgraph.units cg)
