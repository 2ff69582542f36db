(* fixpoint stress shapes for the worklist-order qcheck: mutual
   recursion through a yield point, self-recursion through a log force,
   and a higher-order wrapper. Expected: no findings; the solved effects
   must be identical under any worklist order. *)

let rec ping sched n =
  if n > 0 then begin
    Sched.yield sched;
    pong sched (n - 1)
  end

and pong sched n = if n > 0 then ping sched (n - 1)

let rec drain lm n =
  if n > 0 then begin
    Log_manager.flush lm;
    drain lm (n - 1)
  end

let apply_cb f x = f x

let run_all sched lm =
  ping sched 3;
  drain lm 2;
  apply_cb ignore ()
