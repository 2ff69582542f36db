open Oib_core
module Sched = Oib_sim.Sched
module Driver = Oib_workload.Driver

type outcome = {
  scenario : Scenario.t;
  errors : string list;
  failed_at : string option;
  incarnations : int;
  total_steps : int;
  build_cancelled : bool;
  committed : int;
  ring_before_battery : Oib_obs.Flight_recorder.t option;
}

let failed o = o.errors <> []

let primary_spec (sc : Scenario.t) =
  match sc.alg with
  | Scenario.Iot -> { Ib.index_id = 10; key_cols = [ 0 ]; unique = true }
  | Scenario.Nsf | Scenario.Sf ->
    { Ib.index_id = 10; key_cols = [ 0 ]; unique = sc.unique }

let secondary_spec = { Ib.index_id = 11; key_cols = [ 1 ]; unique = false }

(* IOT scenarios need distinct primary keys, so they get their own
   populate (the driver's draws values with possible duplicates). *)
let populate_iot ctx ~rows =
  let batch = 64 in
  let i = ref 0 in
  while !i < rows do
    let upto = min rows (!i + batch) in
    (match
       Engine.run_txn ctx (fun txn ->
           for j = !i to upto - 1 do
             ignore
               (Table_ops.insert ctx txn ~table:1
                  (Oib_util.Record.make
                     [|
                       Printf.sprintf "pk%06d" j; Printf.sprintf "s%04d" (j mod 89);
                     |]))
           done)
     with
    | Ok () -> ()
    | Error _ -> failwith "Runner: iot populate aborted");
    i := upto
  done

let missing ctx id =
  match Catalog.index ctx.Ctx.catalog id with
  | _ -> false
  | exception Invalid_argument _ -> true

let spawn_build ctx (sc : Scenario.t) cancelled =
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         try
           match sc.alg with
           | Scenario.Nsf | Scenario.Sf ->
             Ib.build_index ctx sc.ib ~table:1 (primary_spec sc)
           | Scenario.Iot ->
             Ib.build_index ctx sc.ib ~table:1 (primary_spec sc);
             Ib.build_secondary_via_primary ctx sc.ib ~table:1 ~primary:10
               secondary_spec
         with Ib.Build_unique_violation _ -> cancelled := true))

let spawn_resume ctx (sc : Scenario.t) cancelled =
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib-resume" (fun () ->
         try
           Ib.resume_builds ctx sc.ib;
           if not !cancelled then begin
             if missing ctx 10 then
               Ib.build_index ctx sc.ib ~table:1 (primary_spec sc);
             if sc.alg = Scenario.Iot && missing ctx 11 then
               Ib.build_secondary_via_primary ctx sc.ib ~table:1 ~primary:10
                 secondary_spec
           end
         with Ib.Build_unique_violation _ -> cancelled := true))

let run ?trace ?inject ?during ?on_engine (sc : Scenario.t) =
  let engine_ready ctx =
    match on_engine with Some f -> f ctx | None -> ()
  in
  (* run boundary for the sanitizer: fiber ids and latch identities are
     about to restart, so all volatile shadow state must go *)
  (match trace with
  | Some tr when Oib_obs.Trace.tracing tr ->
    Oib_obs.Trace.emit tr Oib_obs.Event.Run_start
  | _ -> ());
  let wl = Scenario.workload sc in
  let pending = ref sc.faults in
  let last_backup = ref None in
  let cancelled = ref false in
  (* indexes observed Ready must stay Ready at every later quiescent
     point — a Ready index regressing across a restart is a recovery
     bug even when the tree itself checks out *)
  let ready_seen = ref [] in
  let stats_cells = ref [] in
  let total_steps = ref 0 in
  let incarnations = ref 1 in
  let ctx0 =
    match trace with
    | Some tr -> Engine.create ~seed:sc.seed ~page_capacity:512 ~trace:tr ()
    | None -> Engine.create ~seed:sc.seed ~page_capacity:512 ()
  in
  engine_ready ctx0;
  let _ = Catalog.create_table ctx0.Ctx.catalog ctx0.Ctx.pool ~table_id:1 in
  (match sc.alg with
  | Scenario.Iot -> populate_iot ctx0 ~rows:sc.rows
  | Scenario.Nsf | Scenario.Sf ->
    ignore (Driver.populate ctx0 ~table:1 ~rows:sc.rows ~seed:sc.seed));
  if sc.workers > 0 then
    stats_cells := Driver.spawn_workers ctx0 wl ~table:1 :: !stats_cells;
  spawn_build ctx0 sc cancelled;
  (match during with Some f -> f ctx0 | None -> ());
  let note_ready ctx =
    List.iter
      (fun (tbl : Catalog.table_info) ->
        List.iter
          (fun (info : Catalog.index_info) ->
            if info.phase = Catalog.Ready && not (List.mem info.index_id !ready_seen)
            then ready_seen := info.index_id :: !ready_seen)
          tbl.indexes)
      (Catalog.tables ctx.Ctx.catalog)
  in
  let ready_regressions ctx =
    List.filter_map
      (fun id ->
        match Catalog.index ctx.Ctx.catalog id with
        | info ->
          if info.phase = Catalog.Ready then None
          else Some (Printf.sprintf "index %d: Ready regressed after restart" id)
        | exception Invalid_argument _ ->
          Some (Printf.sprintf "index %d: vanished after restart" id))
      !ready_seen
  in
  let fire ctx = function
    | Scenario.Checkpoint_at _ -> Engine.checkpoint ctx
    | Scenario.Truncate_log_at _ -> ignore (Engine.truncate_log ctx)
    | Scenario.Backup_at _ -> last_backup := Some (Engine.backup ctx)
    | Scenario.Crash_at _ | Scenario.Media_failure_at _ -> ()
  in
  (* in-flight faults fire from a step hook; the next stopping fault has
     a crash trap armed for its step *)
  let arm ctx =
    let hook =
      Sched.add_step_hook ctx.Ctx.sched (fun step ->
          let rec go () =
            match !pending with
            | f :: rest
              when (not (Scenario.is_stop f)) && Scenario.fault_step f <= step
              ->
              pending := rest;
              fire ctx f;
              go ()
            | _ -> ()
          in
          go ())
    in
    Sched.set_crash_trap ctx.Ctx.sched (fun step ->
        match List.find_opt Scenario.is_stop !pending with
        | Some f -> step >= Scenario.fault_step f
        | None -> false);
    hook
  in
  let result ?ring errors failed_at =
    {
      scenario = sc;
      errors;
      failed_at;
      incarnations = !incarnations;
      total_steps = !total_steps;
      build_cancelled = !cancelled;
      committed =
        List.fold_left (fun a c -> a + (!c).Driver.committed) 0 !stats_cells;
      ring_before_battery = ring;
    }
  in
  (* every battery runs through here: its errors, and the ring as it
     stood before the battery latched every heap page and tree *)
  let battery ctx checks =
    let ring =
      Option.map Oib_obs.Flight_recorder.copy
        (Oib_obs.Trace.recorder ctx.Ctx.trace)
    in
    (checks ctx, ring)
  in
  let rec life ctx =
    let hook = arm ctx in
    match Sched.run ctx.Ctx.sched with
    | () ->
      Sched.remove_step_hook ctx.Ctx.sched hook;
      total_steps := !total_steps + Sched.steps ctx.Ctx.sched;
      let regress = ready_regressions ctx in
      if regress <> [] then result regress (Some "incarnation-end")
      else begin
        note_ready ctx;
        finalize ctx
      end
    | exception Sched.Crashed ->
      total_steps := !total_steps + Sched.steps ctx.Ctx.sched;
      let stop =
        match List.find_opt Scenario.is_stop !pending with
        | Some f ->
          pending := List.filter (fun g -> g != f) !pending;
          f
        | None -> Scenario.Crash_at (Sched.steps ctx.Ctx.sched)
      in
      (* a volatile Ready whose flip record missed the disk is restored
         in-progress and re-finished by resume, so the regression check
         runs at quiescent points, not here-and-now *)
      note_ready ctx;
      (* random page steal before the lights go out *)
      Oib_storage.Buffer_pool.flush_some ctx.Ctx.pool
        (Oib_util.Rng.create (sc.seed + (131 * !incarnations)))
        0.5;
      let seed' = sc.seed + (101 * !incarnations) + 1 in
      let ctx' =
        match stop with
        | Scenario.Media_failure_at _ -> (
          match !last_backup with
          | Some b -> (
            try Engine.media_restore ~seed:seed' ctx b
            with Engine.Media_recovery_forfeited _ ->
              (* truncation forfeited the restore (footnote 8); the
                 simulated disk is still there, so degrade to restart *)
              Engine.crash ~seed:seed' ctx)
          | None -> Engine.crash ~seed:seed' ctx)
        | _ -> Engine.crash ~seed:seed' ctx
      in
      engine_ready ctx';
      incarnations := !incarnations + 1;
      (match battery ctx' (Oracle.battery ~final:false) with
      | [], _ ->
        spawn_resume ctx' sc cancelled;
        if sc.workers > 0 then
          stats_cells :=
            Driver.spawn_workers ctx'
              {
                wl with
                Driver.seed = sc.seed + (50 * !incarnations);
                txns_per_worker = sc.post_crash_txns;
              }
              ~table:1
            :: !stats_cells;
        life ctx'
      | errs, ring ->
        result ?ring errs
          (Some (Printf.sprintf "after-restart-%d" (!incarnations - 1))))
    | exception Sched.Deadlock msg ->
      result [ "scheduler deadlock: " ^ msg ] (Some "deadlock")
    | exception exn ->
      result
        [ "unhandled exception: " ^ Printexc.to_string exn ]
        (Some "exception")
  and finalize ctx =
    (match inject with Some f -> f ctx | None -> ());
    match battery ctx (Oracle.battery ~final:true) with
    | (_ :: _ as errs), ring -> result ?ring errs (Some "final")
    | [], _ -> (
      (* double-recovery idempotence: crash the completed engine, crash
         the freshly recovered engine again at step 0, recover, re-check *)
      let ctx_a = Engine.crash ~seed:(sc.seed + 7001) ctx in
      let ctx_b = Engine.crash ~seed:(sc.seed + 7002) ctx_a in
      engine_ready ctx_b;
      spawn_resume ctx_b sc cancelled;
      match Sched.run ctx_b.Ctx.sched with
      | () -> (
        match
          battery ctx_b (fun c ->
              Oracle.battery ~final:true c @ ready_regressions c)
        with
        | [], _ -> result [] None
        | errs, ring -> result ?ring errs (Some "double-recovery"))
      | exception Sched.Deadlock msg ->
        result [ "double-recovery deadlock: " ^ msg ] (Some "double-recovery")
      | exception exn ->
        result
          [ "double-recovery exception: " ^ Printexc.to_string exn ]
          (Some "double-recovery"))
  in
  life ctx0

let measure_steps ?trace sc =
  (run ?trace (Scenario.override ~faults:[] sc)).total_steps
