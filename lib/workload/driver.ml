open Oib_util
open Oib_core
module Sched = Oib_sim.Sched

type config = {
  seed : int;
  txns_per_worker : int;
  workers : int;
  ops_per_txn : int;
  insert_w : int;
  delete_w : int;
  update_w : int;
  abort_pct : float;
  theta : float;
  key_space : int;
}

let default =
  {
    seed = 1;
    txns_per_worker = 50;
    workers = 4;
    ops_per_txn = 3;
    insert_w = 4;
    delete_w = 3;
    update_w = 3;
    abort_pct = 0.15;
    theta = 0.6;
    key_space = 500;
  }

type stats = {
  committed : int;
  aborted : int;
  deadlocks : int;
  unique_violations : int;
}

let value_of_rank rank = Printf.sprintf "v%06d" rank

let value_for cfg rng =
  let z = Zipf.create ~n:cfg.key_space ~theta:cfg.theta in
  value_of_rank (Zipf.sample z rng)

let populate ctx ~table ~rows ~seed =
  let rng = Rng.create seed in
  let rids = Array.make rows Rid.minus_infinity in
  let batch = 64 in
  let i = ref 0 in
  while !i < rows do
    let upto = min rows (!i + batch) in
    (match
       Engine.run_txn ctx (fun txn ->
           for j = !i to upto - 1 do
             let record =
               Record.make
                 [|
                   value_of_rank (Rng.int rng 1_000_000);
                   Printf.sprintf "payload-%d" j;
                 |]
             in
             rids.(j) <- Table_ops.insert ctx txn ~table record
           done)
     with
    | Ok () -> ()
    | Error _ -> failwith "Driver.populate: unexpected abort");
    i := upto
  done;
  rids

(* deliberate rollback marker *)
exception Voluntary_abort

let spawn_workers ctx cfg ~table =
  let stats =
    ref { committed = 0; aborted = 0; deadlocks = 0; unique_violations = 0 }
  in
  (* shared registry of committed records *)
  let live : (Rid.t, unit) Hashtbl.t = Hashtbl.create 1024 in
  List.iter
    (fun rid -> Hashtbl.replace live rid ())
    (Oib_storage.Heap_file.rids (Catalog.table ctx.Ctx.catalog table).heap);
  let zipf = Zipf.create ~n:cfg.key_space ~theta:cfg.theta in
  let pick_live rng =
    let n = Hashtbl.length live in
    if n = 0 then None
    else begin
      let target = Rng.int rng n in
      let found = ref None in
      let i = ref 0 in
      (try
         Hashtbl.iter
           (fun rid () ->
             if !i = target then begin
               found := Some rid;
               raise Exit
             end;
             incr i)
           live
       with Exit -> ());
      !found
    end
  in
  let worker w =
    let rng = Rng.create (cfg.seed + (1000 * w)) in
    for _ = 1 to cfg.txns_per_worker do
      (* intents applied to the registry only if the txn commits *)
      let adds = ref [] and removes = ref [] in
      (match
        Engine.run_txn ctx (fun txn ->
            for _ = 1 to cfg.ops_per_txn do
              let total = cfg.insert_w + cfg.delete_w + cfg.update_w in
              let roll = Rng.int rng (max 1 total) in
              if roll < cfg.insert_w then begin
                let record =
                  Record.make
                    [|
                      value_of_rank (Zipf.sample zipf rng);
                      Printf.sprintf "w%d-%d" w (Rng.int rng 100000);
                    |]
                in
                let rid = Table_ops.insert ctx txn ~table record in
                adds := rid :: !adds
              end
              else if roll < cfg.insert_w + cfg.delete_w then begin
                match pick_live rng with
                | None -> ()
                | Some rid -> (
                  (* optimistically claim it so other workers move on *)
                  Hashtbl.remove live rid;
                  match Table_ops.delete ctx txn ~table rid with
                  | () -> removes := rid :: !removes
                  | exception Not_found -> ())
              end
              else begin
                match pick_live rng with
                | None -> ()
                | Some rid -> (
                  let record =
                    Record.make
                      [|
                        value_of_rank (Zipf.sample zipf rng);
                        Printf.sprintf "u%d-%d" w (Rng.int rng 100000);
                      |]
                  in
                  match Table_ops.update ctx txn ~table rid record with
                  | () -> ()
                  | exception Not_found -> ())
              end;
              Sched.yield ctx.Ctx.sched
            done;
            if Rng.chance rng cfg.abort_pct then raise Voluntary_abort)
      with
      | Ok () ->
        List.iter (fun rid -> Hashtbl.replace live rid ()) !adds;
        (* removes were already taken out of the registry *)
        stats := { !stats with committed = !stats.committed + 1 }
      | Error `Deadlock ->
        (* deleted rids come back on rollback *)
        List.iter (fun rid -> Hashtbl.replace live rid ()) !removes;
        stats := { !stats with deadlocks = !stats.deadlocks + 1 }
      | Error (`Unique_violation _) ->
        List.iter (fun rid -> Hashtbl.replace live rid ()) !removes;
        stats :=
          { !stats with unique_violations = !stats.unique_violations + 1 }
      | exception Voluntary_abort ->
        (* run_txn re-raised after rolling back *)
        List.iter (fun rid -> Hashtbl.replace live rid ()) !removes;
        stats := { !stats with aborted = !stats.aborted + 1 });
      Sched.yield ctx.Ctx.sched
    done
  in
  for w = 0 to cfg.workers - 1 do
    ignore
      (Sched.spawn ctx.Ctx.sched
         ~name:(Printf.sprintf "worker-%d" w)
         (fun () -> worker w))
  done;
  stats

let live_rids ctx ~table =
  Oib_storage.Heap_file.rids (Catalog.table ctx.Ctx.catalog table).heap
