(* Closed-loop updater clients.

   Each client is one scheduler fiber that runs transactions back to back
   with no think time, yielding between operations and between
   transactions. A transaction does three operations, weighted 40/30/30
   insert/delete/update, with new column-0 values drawn Zipf(0.6) over 500
   values as in [Driver.default]; it may add one index lookup of a value
   from the populate distribution, and 10% of transactions roll back on
   purpose (the paper's Figure-2 undo paths).

   Delete and update victims come from one array of live RIDs shared by
   all clients, with swap-remove, so choosing a victim costs O(1).
   [Driver.spawn_workers] walks its whole live table on every pick, which
   at 10^5 rows costs more than the engine work it drives. *)

open Oib_util
open Oib_core
module Driver = Oib_workload.Driver
module Sched = Oib_sim.Sched

(* Committed RIDs. A delete claims its victim at once, so no other client
   picks it, and gives it back if its transaction does not commit. *)
type live = { mutable rids : Rid.t array; mutable n : int }

let live_of_array rids = { rids = Array.copy rids; n = Array.length rids }

let push live rid =
  if live.n = Array.length live.rids then begin
    let bigger = Array.make (max 16 (2 * live.n)) Rid.minus_infinity in
    Array.blit live.rids 0 bigger 0 live.n;
    live.rids <- bigger
  end;
  live.rids.(live.n) <- rid;
  live.n <- live.n + 1

let pick live rng =
  if live.n = 0 then None else Some live.rids.(Rng.int rng live.n)

let claim live rng =
  if live.n = 0 then None
  else begin
    let i = Rng.int rng live.n in
    let rid = live.rids.(i) in
    live.n <- live.n - 1;
    live.rids.(i) <- live.rids.(live.n);
    Some rid
  end

type stats = {
  mutable requests : int;  (** transactions asked for by the clients *)
  mutable committed : int;
  mutable rolled_back : int;  (** deliberate rollbacks *)
  mutable deadlocks : int;  (** attempts chosen as deadlock victims *)
  mutable failed : int;  (** requests that never reached an outcome *)
  mutable latencies : int array;
      (** wall ns of each request, first attempt to last outcome *)
  mutable samples : int;
}

let create_stats () =
  {
    requests = 0;
    committed = 0;
    rolled_back = 0;
    deadlocks = 0;
    failed = 0;
    latencies = Array.make 1024 0;
    samples = 0;
  }

let record_latency s ns =
  if s.samples = Array.length s.latencies then begin
    let bigger = Array.make (2 * s.samples) 0 in
    Array.blit s.latencies 0 bigger 0 s.samples;
    s.latencies <- bigger
  end;
  s.latencies.(s.samples) <- ns;
  s.samples <- s.samples + 1

let latencies s = Array.sub s.latencies 0 s.samples

let ops_per_txn = 3
let rollback_pct = 0.10

(* A deadlock victim is retried as a fresh transaction, as a client of a
   real DBMS would; a request still losing after this many attempts
   counts as failed. *)
let max_attempts = 20

(* column-0 values as [Driver.populate] renders them; populate draws ranks
   uniformly from 10^6 *)
let value_of_rank rank = Printf.sprintf "v%06d" rank
let populate_value rng = value_of_rank (Rng.int rng 1_000_000)

exception Voluntary_rollback

let one_txn ctx ~table ~lookup_index ~zipf ~rng ~live ~client =
  let sched = ctx.Ctx.sched in
  let added = ref [] and claimed = ref [] in
  let new_record tag =
    Record.make
      [|
        value_of_rank (Zipf.sample zipf rng);
        Printf.sprintf "%s%d-%d" tag client (Rng.int rng 100_000);
      |]
  in
  let body txn =
    for _ = 1 to ops_per_txn do
      let roll = Rng.int rng 10 in
      if roll < 4 then
        added := Table_ops.insert ctx txn ~table (new_record "w") :: !added
      else if roll < 7 then begin
        match claim live rng with
        | None -> ()
        | Some rid -> (
          claimed := rid :: !claimed;
          try Table_ops.delete ctx txn ~table rid with Not_found -> ())
      end
      else begin
        match pick live rng with
        | None -> ()
        | Some rid -> (
          try Table_ops.update ctx txn ~table rid (new_record "u")
          with Not_found -> ())
      end;
      Sched.yield sched
    done;
    Option.iter
      (fun index ->
        ignore (Table_ops.index_lookup ctx txn ~index (populate_value rng)))
      lookup_index;
    if Rng.chance rng rollback_pct then raise Voluntary_rollback
  in
  match Engine.run_txn ctx body with
  | Ok () ->
    List.iter (push live) !added;
    `Committed
  | Error e ->
    List.iter (push live) !claimed;
    (match e with `Deadlock -> `Deadlock | `Unique_violation _ -> `Failed)
  | exception Voluntary_rollback ->
    List.iter (push live) !claimed;
    `Rolled_back

let request ctx ~table ~lookup_index ~zipf ~rng ~live ~client stats =
  stats.requests <- stats.requests + 1;
  let t0 = Monotonic_clock.now () in
  let rec attempt k =
    match one_txn ctx ~table ~lookup_index ~zipf ~rng ~live ~client with
    | `Deadlock ->
      stats.deadlocks <- stats.deadlocks + 1;
      if k < max_attempts then attempt (k + 1) else `Failed
    | (`Committed | `Rolled_back | `Failed) as outcome -> outcome
  in
  let outcome = attempt 1 in
  record_latency stats (Int64.to_int (Int64.sub (Monotonic_clock.now ()) t0));
  match outcome with
  | `Committed -> stats.committed <- stats.committed + 1
  | `Rolled_back -> stats.rolled_back <- stats.rolled_back + 1
  | `Failed -> stats.failed <- stats.failed + 1

(* [continue n] is asked before a client's (n+1)-th request. *)
let spawn ctx ~table ~lookup_index ~seed ~clients ~live ~continue stats =
  let zipf =
    Zipf.create ~n:Driver.default.Driver.key_space
      ~theta:Driver.default.Driver.theta
  in
  for client = 0 to clients - 1 do
    let rng = Rng.create (seed + (1000 * (client + 1))) in
    ignore
      (Sched.spawn ctx.Ctx.sched
         ~name:(Printf.sprintf "updater-%d" client)
         (fun () ->
           let n = ref 0 in
           while continue !n do
             request ctx ~table ~lookup_index ~zipf ~rng ~live ~client stats;
             incr n;
             Sched.yield ctx.Ctx.sched
           done))
  done
