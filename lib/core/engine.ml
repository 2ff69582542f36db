open Oib_storage
module Txn = Oib_txn.Txn_manager
module LM = Oib_wal.Log_manager
module Btree = Oib_btree.Btree

type t = Ctx.t

(* Default watermarks for the standard health signals (scheduler steps /
   bytes / ratio). Chosen against the soak and bench workloads: a loaded
   foreground sits well above raise, a quiet one well below clear. *)
let overload_fg_p99_raise = 60.0
let overload_fg_p99_clear = 25.0
let wal_backlog_raise = 16384.0
let wal_backlog_clear = 4096.0
let dirty_ratio_raise = 0.7
let dirty_ratio_clear = 0.4

(* (Re)connect the observability plane to this incarnation's subsystems.
   The metrics (with their latency window), the rates and the signal set
   survive a crash; everything here is idempotent, with signal sources
   replaced so they close over the live scheduler, log and pool rather
   than the dead incarnation's. *)
let wire_observability (ctx : Ctx.t) =
  let m = ctx.Ctx.metrics in
  Oib_sim.Metrics.set_fiber_source m (fun () ->
      Option.value ~default:(-1) (Oib_sim.Sched.current_fiber ctx.Ctx.sched));
  Oib_sim.Metrics.clear_accounts m;
  let sg = ctx.Ctx.signals in
  Oib_obs.Signal.register sg ~name:"overload.fg_p99"
    ~raise_above:overload_fg_p99_raise ~clear_below:overload_fg_p99_clear
    ~source:(fun () ->
      match Oib_sim.Metrics.latency m with
      | Some w -> Oib_obs.Window.percentile w 0.99
      | None -> 0.0);
  Oib_obs.Signal.register sg ~name:"wal.backlog"
    ~raise_above:wal_backlog_raise ~clear_below:wal_backlog_clear
    ~source:(fun () -> float_of_int (LM.unflushed_bytes ctx.Ctx.log));
  Oib_obs.Signal.register sg ~name:"pool.dirty_ratio"
    ~raise_above:dirty_ratio_raise ~clear_below:dirty_ratio_clear
    ~source:(fun () ->
      let cached = Buffer_pool.cached_count ctx.Ctx.pool in
      if cached = 0 then 0.0
      else float_of_int (Buffer_pool.dirty_count ctx.Ctx.pool)
           /. float_of_int cached);
  (* the throttle's signal subscription is made once, in [create] (the
     subscription list survives restart with the set); only its trace
     notifier is re-pointed at this incarnation *)
  Throttle.set_notify ctx.Ctx.throttle
    (Some
       (fun th reason ->
         if Oib_obs.Trace.tracing ctx.Ctx.trace then
           Oib_obs.Trace.emit ctx.Ctx.trace
             (Oib_obs.Event.Ib_throttle { level = Throttle.level th; reason })))

let create ?(seed = 42) ?(page_capacity = 1024)
    ?(trace = Oib_obs.Trace.null) () =
  let sched = Oib_sim.Sched.create ~seed ~trace () in
  let metrics = Oib_sim.Metrics.create () in
  let log = LM.create ~trace metrics in
  let store = Stable_store.create () in
  let kv = Durable_kv.create () in
  let pool = Buffer_pool.create ~sched ~metrics ~log ~store in
  let locks = Oib_lock.Lock_manager.create sched metrics in
  let txns = Txn.create ~trace log locks metrics in
  let catalog = Catalog.create kv ~page_capacity in
  let runs = Oib_sort.Run_store.create () in
  let ctx =
    { Ctx.sched; metrics; trace; log; store; kv; pool; locks; txns; catalog;
      runs; builds = Hashtbl.create 8;
      rates =
        List.map
          (fun c -> (c, Oib_obs.Window.Ewma.create ()))
          Oib_obs.Resource.[ Log_bytes; Page_reads; Page_writes; Txn_commits ];
      signals = Oib_obs.Signal.create_set ();
      throttle = Throttle.create () }
  in
  wire_observability ctx;
  (* subscribe once per engine lifetime: subscriptions live in the signal
     set and survive crash/restart, so [recover_over] must not re-attach *)
  Throttle.attach ctx.Ctx.throttle ctx.Ctx.signals
    ~names:[ "overload.fg_p99"; "wal.backlog"; "pool.dirty_ratio" ];
  ctx

(* Rebuild a live system over [store]/[kv]/[runs] and the survivor log,
   then run restart recovery ({!Restart.recover}). *)
let recover_over ~seed (old : t) ~store ~kv ~runs =
  (* the trace hub survives restart: the same sinks/recorder/histograms
     observe the new incarnation, whose scheduler re-registers its clock *)
  let trace = old.Ctx.trace in
  let sched = Oib_sim.Sched.create ~seed ~trace () in
  (* announce the incarnation boundary: the step clock just restarted, and
     an offline reader needs the marker to split the capture into epochs *)
  if Oib_obs.Trace.tracing trace then
    Oib_obs.Trace.emit trace (Oib_obs.Event.Epoch { label = "restart" });
  let log = LM.crash old.Ctx.log in
  let pool = Buffer_pool.create ~sched ~metrics:old.Ctx.metrics ~log ~store in
  let locks = Oib_lock.Lock_manager.create sched old.Ctx.metrics in
  let txns = Txn.create ~trace log locks old.Ctx.metrics in
  (* a fresh catalog over the (possibly restored) durable metadata *)
  let catalog =
    Catalog.create kv ~page_capacity:(Catalog.page_capacity old.Ctx.catalog)
  in
  let ctx =
    {
      Ctx.sched;
      metrics = old.Ctx.metrics;
      trace;
      log;
      store;
      kv;
      pool;
      locks;
      txns;
      catalog;
      runs;
      builds = Hashtbl.create 8;
      rates = old.Ctx.rates;
      signals = old.Ctx.signals;
      throttle = old.Ctx.throttle;
    }
  in
  (* re-close signal sources over the new incarnation's subsystems
     and point fiber attribution at the new scheduler; stale per-fiber
     accounts (their fibers died with the old scheduler) are dropped *)
  wire_observability ctx;
  Restart.recover ctx;
  ctx

let crash ?(seed = 4242) (old : t) =
  (* volatile state vanishes; the stable store, durable metadata and
     forced runs survive *)
  recover_over ~seed old ~store:old.Ctx.store ~kv:old.Ctx.kv
    ~runs:(Oib_sort.Run_store.crash old.Ctx.runs)

exception
  Media_recovery_forfeited of { backup_lsn : int; log_start : int }

type backup = {
  b_store : Stable_store.t;
  b_kv : Durable_kv.t;
  b_runs : Oib_sort.Run_store.t;
  b_lsn : Oib_wal.Lsn.t;  (** durable log position the image is clean at *)
}

(* Sharp-image every Ready index at the flushed LSN, so that replaying
   it needs no log record older than that; a building index is
   recovered from its own log records instead. *)
let image_ready_indexes (ctx : t) =
  List.iter
    (fun (tbl : Catalog.table_info) ->
      List.iter
        (fun (info : Catalog.index_info) ->
          match info.phase with
          | Catalog.Ready ->
            Btree.checkpoint_image info.tree ~lsn:(LM.flushed_lsn ctx.Ctx.log)
          | Catalog.Nsf_building _ | Catalog.Sf_building _ -> ())
        tbl.indexes)
    (Catalog.tables ctx.Ctx.catalog)

let backup (ctx : t) =
  (* an image copy must be taken from a clean point: flush the log and the
     data pages, and sharp-image every completed index so the copy carries
     fresh tree images *)
  LM.flush_all ctx.Ctx.log;
  Buffer_pool.flush_all ctx.Ctx.pool;
  image_ready_indexes ctx;
  {
    b_store = Stable_store.snapshot ctx.Ctx.store;
    b_kv = Durable_kv.snapshot ctx.Ctx.kv;
    b_runs = Oib_sort.Run_store.crash ctx.Ctx.runs;
    b_lsn = LM.flushed_lsn ctx.Ctx.log;
  }

let media_restore ?(seed = 777) (old : t) b =
  (* the data "disk" is gone; the log (on its own device) survives in
     full. Restore the image copy and let redo repeat all of history since
     the backup — including everything the index builder logged, which is
     exactly why NSF's IB writes log records (§2.2.3): no post-build image
     copy of the index is needed for media recovery. *)
  (* footnote 8's proviso, enforced: if the log has been truncated past the
     backup point, the records that would redo history from the image are
     gone — recovering anyway would silently lose committed work, so fail
     loudly before touching anything *)
  let log_start = LM.start_lsn old.Ctx.log in
  if Oib_wal.Lsn.( > ) log_start (Oib_wal.Lsn.next b.b_lsn) then
    raise
      (Media_recovery_forfeited
         {
           backup_lsn = Oib_wal.Lsn.to_int b.b_lsn;
           log_start = Oib_wal.Lsn.to_int log_start;
         });
  recover_over ~seed old ~store:(Stable_store.snapshot b.b_store)
    ~kv:(Durable_kv.snapshot b.b_kv)
    ~runs:(Oib_sort.Run_store.crash b.b_runs)

let run_txn (ctx : t) f =
  let txn = Txn.begin_txn ctx.Ctx.txns in
  match f txn with
  | v ->
    Txn.commit ctx.Ctx.txns txn;
    Ok v
  | exception Table_ops.Txn_deadlock ->
    Table_ops.rollback ctx txn;
    Error `Deadlock
  | exception Table_ops.Unique_violation { index; kv } ->
    Table_ops.rollback ctx txn;
    Error (`Unique_violation (index, kv))
  | exception e ->
    Table_ops.rollback ctx txn;
    raise e

let checkpoint (ctx : t) =
  if Oib_obs.Trace.tracing ctx.Ctx.trace then
    Oib_obs.Trace.emit ctx.Ctx.trace
      (Oib_obs.Event.Checkpoint { scope = "system" });
  LM.flush_all ctx.Ctx.log;
  Buffer_pool.flush_all ctx.Ctx.pool

(* Log truncation (paper footnote 8). The retained suffix must cover:
   - the undo chains of active transactions (oldest begin LSN);
   - redo for unflushed pages — we take a checkpoint first, so none;
   - logical replay for every index, from its checkpoint image onward
     (we re-image each index first, so only the log end matters);
   - the side-file and progress of in-progress builds (their Build_start).
   Truncating also forfeits media recovery to any backup older than the
   new start — footnote 8's image-copy proviso is the caller's business. *)
let truncate_log (ctx : t) =
  checkpoint ctx;
  let log_end = LM.last_lsn ctx.Ctx.log in
  let safe = ref (Oib_wal.Lsn.next log_end) in
  let keep lsn = if Oib_wal.Lsn.( < ) lsn !safe then safe := lsn in
  (* active transactions *)
  if Txn.active_count ctx.Ctx.txns > 0 then keep (Txn.commit_lsn ctx.Ctx.txns);
  (* indexes: sharp-image each Ready tree so replay needs nothing older;
     in-progress builds pin their Build_start *)
  image_ready_indexes ctx;
  List.iter
    (fun (r : Oib_wal.Log_record.t) ->
      match r.body with
      | Oib_wal.Log_record.Build_start { index; _ } -> (
        match (Catalog.index ctx.Ctx.catalog index).phase with
        | Catalog.Nsf_building _ | Catalog.Sf_building _ -> keep r.lsn
        | Catalog.Ready -> ()
        | exception Invalid_argument _ -> ())
      | _ -> ())
    (LM.durable_records ctx.Ctx.log);
  LM.truncate ctx.Ctx.log ~below:!safe

let active_txns (ctx : t) = Txn.active_count ctx.Ctx.txns

let unfinished_builds (ctx : t) =
  List.concat_map
    (fun (tbl : Catalog.table_info) ->
      List.filter_map
        (fun (info : Catalog.index_info) ->
          match info.phase with
          | Catalog.Ready -> None
          | Catalog.Nsf_building _ -> Some (info.index_id, "nsf-building")
          | Catalog.Sf_building st ->
            Some
              ( info.index_id,
                if st.draining then "sf-draining" else "sf-building" ))
        tbl.indexes)
    (Catalog.tables ctx.Ctx.catalog)

let undrained_sidefiles (ctx : t) =
  List.concat_map
    (fun (tbl : Catalog.table_info) ->
      List.filter_map
        (fun (info : Catalog.index_info) ->
          match info.phase with
          | Catalog.Sf_building st ->
            let n = Oib_sidefile.Side_file.length st.sidefile in
            if n > 0 then Some (info.index_id, n) else None
          | Catalog.Ready | Catalog.Nsf_building _ -> None)
        tbl.indexes)
    (Catalog.tables ctx.Ctx.catalog)

let build_progress (ctx : t) =
  Hashtbl.fold (fun _ st acc -> st :: acc) ctx.Ctx.builds []
  |> List.sort (fun (a : Build_status.t) b -> compare a.index_id b.index_id)

(* --- the consistency oracle --- *)

let consistency_errors (ctx : t) =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  List.iter
    (fun (tbl : Catalog.table_info) ->
      List.iter
        (fun (info : Catalog.index_info) ->
          match info.phase with
          | Catalog.Nsf_building _ | Catalog.Sf_building _ -> ()
          | Catalog.Ready ->
            (match Oib_btree.Bt_check.check info.tree with
            | [] -> ()
            | es ->
              err "index %d: structural: %s" info.index_id
                (String.concat "; " es));
            (* expected multiset of keys *)
            let expected = Hashtbl.create 256 in
            Heap_file.iter_slots tbl.heap (fun hp rid ->
                Hashtbl.replace expected (Catalog.key_at info hp ~rid) ());
            let seen = Hashtbl.create 256 in
            Oib_btree.Btree.iter_entries info.tree (fun key ~pseudo ->
                if not pseudo then begin
                  if Hashtbl.mem seen key then
                    err "index %d: duplicate entry %s" info.index_id
                      (Oib_util.Ikey.to_string key);
                  Hashtbl.replace seen key ();
                  if not (Hashtbl.mem expected key) then
                    err "index %d: spurious entry %s" info.index_id
                      (Oib_util.Ikey.to_string key)
                end);
            Hashtbl.iter
              (fun key () ->
                if not (Hashtbl.mem seen key) then
                  err "index %d: missing entry %s" info.index_id
                    (Oib_util.Ikey.to_string key))
              expected;
            if info.uniq then begin
              (* at most one live entry per key value *)
              let kvs = Hashtbl.create 256 in
              Oib_btree.Btree.iter_entries info.tree (fun key ~pseudo ->
                  if not pseudo then begin
                    if Hashtbl.mem kvs key.Oib_util.Ikey.kv then
                      err "index %d: unique violated on %S" info.index_id
                        key.Oib_util.Ikey.kv;
                    Hashtbl.replace kvs key.Oib_util.Ikey.kv ()
                  end)
            end)
        tbl.indexes)
    (Catalog.tables ctx.Ctx.catalog);
  let errors = List.rev !errs in
  (* an inconsistency is a failure worth a flight-recorder dump: the last
     events before the oracle ran are exactly what caused it *)
  if errors <> [] then
    Oib_obs.Trace.failure ctx.Ctx.trace
      ~reason:
        (Printf.sprintf "consistency oracle: %d error(s); first: %s"
           (List.length errors) (List.hd errors));
  errors

(* --- the lifecycle oracle ---

   Invariants of the build phase at a quiescent point: the always-checks
   hold after any crash + recovery (recovery lands every unfinished build
   in its building phase, and a crash leaves its progress record
   intact); the final checks hold once every build has been driven to
   completion. *)

let lifecycle_errors ?(final = false) (ctx : t) =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let in_progress = Ib.interrupted_builds ctx in
  List.iter
    (fun (tbl : Catalog.table_info) ->
      List.iter
        (fun (info : Catalog.index_info) ->
          let id = info.index_id in
          match info.phase with
          | Catalog.Nsf_building _ | Catalog.Sf_building _ ->
            if not (List.mem id in_progress) then
              err "index %d: building without durable build progress" id
          | Catalog.Ready ->
            if final then
              (* a finished build keeps nothing under ib/<id>/: no
                 progress record, checkpoint, scan range or run *)
              List.iter
                (err "index %d: ready with leftover build state %s" id)
                (List.sort compare
                   (List.filter
                      (String.starts_with ~prefix:(Printf.sprintf "ib/%d/" id))
                      (Durable_kv.keys ctx.Ctx.kv
                      @ Oib_sort.Run_store.run_names ctx.Ctx.runs))))
        tbl.indexes)
    (Catalog.tables ctx.Ctx.catalog);
  let errors = List.rev !errs in
  if errors <> [] then
    Oib_obs.Trace.failure ctx.Ctx.trace
      ~reason:
        (Printf.sprintf "lifecycle oracle: %d error(s); first: %s"
           (List.length errors) (List.hd errors));
  errors
