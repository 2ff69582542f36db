(* The index lifecycle is the build phase: a building index absorbs
   maintenance without serving reads (bar an NSF build's completed
   prefix), and restart gives an index its phase from the durable log —
   building from its Build_start until its Build_done, whether or not its
   progress record survived. *)

open Oib_core
module Btree = Oib_btree.Btree
module Sched = Oib_sim.Sched
module Driver = Oib_workload.Driver
module LR = Oib_wal.Log_record

let setup ?(seed = 11) () =
  let ctx = Engine.create ~seed ~page_capacity:512 () in
  let _ = Catalog.create_table ctx.Ctx.catalog ctx.Ctx.pool ~table_id:1 in
  ctx

let add_index ctx ~index_id phase =
  Catalog.add_index ctx.Ctx.catalog ctx.Ctx.pool ~table_id:1 ~index_id
    ~key_cols:[ 0 ] ~unique:false ~phase

(* an SF build whose scan has not started: no operation is visible to it *)
let sf_before_scan index_id =
  Catalog.Sf_building
    {
      sidefile = Oib_sidefile.Side_file.create ~sidefile_id:index_id;
      current_rid = Oib_util.Rid.minus_infinity;
      current_key = None;
      key_scan = None;
      draining = false;
    }

let is_ready ctx index_id =
  (Catalog.index ctx.Ctx.catalog index_id).Catalog.phase = Catalog.Ready

let must_reject_lookup ctx ~index kv =
  match
    Engine.run_txn ctx (fun txn ->
        ignore (Table_ops.index_lookup ctx txn ~index kv))
  with
  | Ok () -> Alcotest.failf "index_lookup served %S from a building index" kv
  | Error _ -> Alcotest.fail "lookup failed for the wrong reason"
  | exception Invalid_argument _ -> ()

let must_reject_reads ?(kv = "k000") ctx ~index =
  must_reject_lookup ctx ~index kv;
  match
    Engine.run_txn ctx (fun txn ->
        ignore (Table_ops.range_lookup ctx txn ~index ()))
  with
  | Ok () -> Alcotest.fail "range_lookup served a building index"
  | Error _ -> Alcotest.fail "range lookup failed for the wrong reason"
  | exception Invalid_argument _ -> ()

let lookup_hits ctx ~index kv =
  match
    Engine.run_txn ctx (fun txn -> Table_ops.index_lookup ctx txn ~index kv)
  with
  | Ok hits -> List.length hits
  | Error _ -> Alcotest.fail "lookup txn failed"

(* -------------------------------------------------------------------- *)
(* 1. a building index absorbs maintenance but never serves reads       *)

let test_building_absorbs () =
  let ctx = setup () in
  let nsf =
    add_index ctx ~index_id:10 (Catalog.Nsf_building { avail_below = None })
  in
  let sf = add_index ctx ~index_id:11 (sf_before_scan 11) in
  let rid0 = ref Oib_util.Rid.minus_infinity in
  (match
     Engine.run_txn ctx (fun txn ->
         for i = 0 to 19 do
           let r =
             Table_ops.insert ctx txn ~table:1
               (Oib_util.Record.make
                  [| Printf.sprintf "k%03d" i; Printf.sprintf "v%d" i |])
           in
           if i = 0 then rid0 := r
         done)
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "insert txn failed");
  Alcotest.(check int) "the NSF build absorbed the inserts" 20
    (Btree.entry_count nsf.Catalog.tree);
  Alcotest.(check int) "nothing reaches an SF build ahead of its scan" 0
    (Btree.entry_count sf.Catalog.tree);
  must_reject_reads ctx ~index:10;
  must_reject_reads ctx ~index:11;
  (* deletes are absorbed too (pseudo-delete, entry becomes a tombstone) *)
  (match Engine.run_txn ctx (fun txn -> Table_ops.delete ctx txn ~table:1 !rid0)
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "delete txn failed");
  Alcotest.(check int) "delete pseudo-deleted in the NSF build" 1
    (Btree.pseudo_count nsf.Catalog.tree);
  must_reject_reads ctx ~index:10;
  (* gradual availability (footnote 3): the completed prefix serves point
     lookups, nothing at or above the bound does, and ranges wait *)
  Catalog.set_phase ctx.Ctx.catalog 10
    (Catalog.Nsf_building { avail_below = Some "k010" });
  Alcotest.(check int) "a key below avail_below is served" 1
    (lookup_hits ctx ~index:10 "k005");
  must_reject_lookup ctx ~index:10 "k010";
  must_reject_reads ~kv:"k015" ctx ~index:10;
  (* once Ready, the same index serves both read paths *)
  Catalog.set_phase ctx.Ctx.catalog 10 Catalog.Ready;
  Alcotest.(check int) "a Ready index serves the lookup" 1
    (lookup_hits ctx ~index:10 "k015");
  match
    Engine.run_txn ctx (fun txn -> Table_ops.range_lookup ctx txn ~index:10 ())
  with
  | Ok hits -> Alcotest.(check int) "and the range" 19 (List.length hits)
  | Error _ -> Alcotest.fail "range txn failed"

(* -------------------------------------------------------------------- *)
(* 2. restart gives each index its phase from the durable log           *)

let test_cfg alg =
  {
    (Ib.default_config alg) with
    ckpt_every_pages = 8;
    ckpt_every_keys = 64;
    memory_keys = 64;
  }

let spawn_build ctx alg =
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         Ib.build_index ctx (test_cfg alg) ~table:1
           { Ib.index_id = 10; key_cols = [ 0 ]; unique = false }))

let build_phase ctx =
  match
    List.find_opt
      (fun (st : Build_status.t) -> st.index_id = 10)
      (Engine.build_progress ctx)
  with
  | Some st -> st.phase
  | None -> Build_status.Init

(* run until the build of index 10 reaches its scan, then stop there *)
let run_into_scan ctx =
  Sched.set_crash_trap ctx.Ctx.sched (fun _ ->
      build_phase ctx = Build_status.Scan);
  try
    Sched.run ctx.Ctx.sched;
    Alcotest.fail "the build finished before its scan was cut"
  with Sched.Crashed -> ()

let resume ctx alg =
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib-resume" (fun () ->
         Ib.resume_builds ctx (test_cfg alg)));
  Sched.run ctx.Ctx.sched

let test_phase_ladder () =
  List.iter
    (fun alg ->
      let ctx = setup () in
      let _ = Driver.populate ctx ~table:1 ~rows:150 ~seed:3 in
      spawn_build ctx alg;
      run_into_scan ctx;
      let ctx = Engine.crash ctx in
      Alcotest.(check bool) "building after a crash mid-build" false
        (is_ready ctx 10);
      must_reject_reads ctx ~index:10;
      Alcotest.(check (list string)) "lifecycle clean mid-build" []
        (Engine.lifecycle_errors ctx);
      resume ctx alg;
      Alcotest.(check bool) "Ready once resumed" true (is_ready ctx 10);
      let ctx = Engine.crash ctx in
      Alcotest.(check bool) "Ready survives the crash" true (is_ready ctx 10);
      Alcotest.(check (list string)) "both oracles clean" []
        (Engine.consistency_errors ctx
        @ Engine.lifecycle_errors ~final:true ctx))
    [ Ib.Nsf; Ib.Sf ]

(* the log's verdict on index 10: its Build_start has no Build_done *)
let unfinished_in_log ctx =
  List.fold_left
    (fun acc (r : LR.t) ->
      match r.body with
      | LR.Build_start { index = 10; _ } -> true
      | LR.Build_done { index = 10 } -> false
      | _ -> acc)
    false
    (Oib_wal.Log_manager.durable_records ctx.Ctx.log)

let prop_crash_lands_in_logged_phase =
  QCheck.Test.make ~name:"any crash lands in the logged phase" ~count:30
    QCheck.(pair bool (int_range 1 160))
    (fun (sf, crash_at) ->
      let alg = if sf then Ib.Sf else Ib.Nsf in
      let ctx = setup ~seed:crash_at () in
      let _ = Driver.populate ctx ~table:1 ~rows:150 ~seed:crash_at in
      let wcfg =
        { Driver.default with seed = crash_at; workers = 2; txns_per_worker = 20 }
      in
      let _ = Driver.spawn_workers ctx wcfg ~table:1 in
      spawn_build ctx alg;
      Sched.set_crash_trap ctx.Ctx.sched (fun step -> step >= crash_at);
      (try Sched.run ctx.Ctx.sched with Sched.Crashed -> ());
      let ctx = Engine.crash ctx in
      let building = unfinished_in_log ctx in
      match Catalog.index ctx.Ctx.catalog 10 with
      | exception Invalid_argument _ -> not building
      | _ ->
        if building then must_reject_reads ctx ~index:10;
        is_ready ctx 10 = not building
        && Engine.lifecycle_errors ctx = []
        &&
        (resume ctx alg;
         is_ready ctx 10
         && Engine.consistency_errors ctx = []
         && Engine.lifecycle_errors ~final:true ctx = []))

(* -------------------------------------------------------------------- *)
(* 3. a media restore from a backup older than the build                *)

(* The restored kv holds no progress record for the build, but the log
   holds its Build_start: the index comes back building, refuses reads
   and is named by the lifecycle oracle — it never comes back Ready. *)
let test_media_restore_mid_build () =
  List.iter
    (fun alg ->
      let ctx = setup () in
      let _ = Driver.populate ctx ~table:1 ~rows:150 ~seed:5 in
      let backup = Engine.backup ctx in
      spawn_build ctx alg;
      run_into_scan ctx;
      let ctx = Engine.media_restore ctx backup in
      (match ((Catalog.index ctx.Ctx.catalog 10).Catalog.phase, alg) with
      | Catalog.Nsf_building _, Ib.Nsf | Catalog.Sf_building _, Ib.Sf -> ()
      | Catalog.Ready, _ -> Alcotest.fail "restored index came back Ready"
      | (Catalog.Nsf_building _ | Catalog.Sf_building _), _ ->
        Alcotest.fail "restored index has the other algorithm's phase");
      must_reject_reads ctx ~index:10;
      Alcotest.(check (list string)) "the lifecycle oracle names it"
        [ "index 10: building without durable build progress" ]
        (Engine.lifecycle_errors ctx))
    [ Ib.Nsf; Ib.Sf ]

let () =
  Alcotest.run "lifecycle"
    [
      ( "building",
        [
          Alcotest.test_case "absorbs writes, rejects reads" `Quick
            test_building_absorbs;
        ] );
      ( "crash",
        [
          Alcotest.test_case "phase ladder across crashes" `Quick
            test_phase_ladder;
          QCheck_alcotest.to_alcotest prop_crash_lands_in_logged_phase;
        ] );
      ( "media",
        [
          Alcotest.test_case "restore mid-build stays building" `Quick
            test_media_restore_mid_build;
        ] );
    ]
