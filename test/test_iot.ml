(* The §6.2 index-organized-table variant: secondary index built by
   range-scanning a unique primary index in key order, with current-key
   visibility. Records are [| primary_key; secondary |]; the primary key is
   immutable (the storage model's assumption). *)

open Oib_core
open Oib_util
module Sched = Oib_sim.Sched

let pk i = Printf.sprintf "pk%06d" i

let setup ?(seed = 5) ~rows () =
  let ctx = Engine.create ~seed ~page_capacity:512 () in
  let _ = Catalog.create_table ctx.Ctx.catalog ctx.Ctx.pool ~table_id:1 in
  let rids = ref [] in
  (match
     Engine.run_txn ctx (fun txn ->
         for i = 0 to rows - 1 do
           let r = Record.make [| pk i; Printf.sprintf "s%04d" (i mod 97) |] in
           rids := Table_ops.insert ctx txn ~table:1 r :: !rids
         done)
   with
  | Ok () -> ()
  | Error _ -> failwith "populate");
  (* the primary index (unique, on col 0) *)
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib-primary" (fun () ->
         Ib.build_index ctx (Ib.default_config Ib.Sf) ~table:1
           { Ib.index_id = 1; key_cols = [ 0 ]; unique = true }));
  Sched.run ctx.Ctx.sched;
  (ctx, Array.of_list (List.rev !rids))

let build_secondary ?(cfg = Ib.default_config Ib.Sf) ctx =
  Ib.build_secondary_via_primary ctx cfg ~table:1 ~primary:1
    { Ib.index_id = 2; key_cols = [ 1 ]; unique = false }

let check_clean ctx =
  Alcotest.(check (list string)) "oracle clean" [] (Engine.consistency_errors ctx)

let test_quiet_build () =
  let ctx, _ = setup ~rows:400 () in
  ignore (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () -> build_secondary ctx));
  Sched.run ctx.Ctx.sched;
  check_clean ctx;
  let info = Catalog.index ctx.Ctx.catalog 2 in
  Alcotest.(check bool) "ready" true (info.phase = Catalog.Ready);
  Alcotest.(check int) "all keys" 400 (Oib_btree.Btree.present_count info.tree);
  (* bottom-up build: perfectly clustered *)
  Alcotest.(check (float 0.001)) "clustered" 1.0
    (Oib_btree.Bt_check.clustering info.tree)

(* workers that respect primary-key immutability *)
let spawn_pk_workers ctx rids ~workers ~ops seed0 =
  let next_pk = ref 1_000_000 in
  for w = 0 to workers - 1 do
    ignore
      (Sched.spawn ctx.Ctx.sched ~name:(Printf.sprintf "w%d" w) (fun () ->
           let rng = Rng.create (seed0 + w) in
           for _ = 1 to ops do
             (match
                Engine.run_txn ctx (fun txn ->
                    match Rng.int rng 3 with
                    | 0 ->
                      incr next_pk;
                      ignore
                        (Table_ops.insert ctx txn ~table:1
                           (Record.make
                              [| pk !next_pk;
                                 Printf.sprintf "s%04d" (Rng.int rng 97) |]))
                    | 1 -> (
                      let rid = Rng.pick rng rids in
                      (* update only the secondary column *)
                      match Table_ops.read ctx txn ~table:1 rid with
                      | Some r ->
                        let r' =
                          Record.make
                            [| r.Record.cols.(0);
                               Printf.sprintf "s%04d" (Rng.int rng 97) |]
                        in
                        Table_ops.update ctx txn ~table:1 rid r'
                      | None -> ())
                    | _ -> (
                      let rid = Rng.pick rng rids in
                      match Table_ops.delete ctx txn ~table:1 rid with
                      | () -> ()
                      | exception Not_found -> ()))
              with
             | Ok () | Error _ -> ());
             Sched.yield ctx.Ctx.sched
           done))
  done

let test_build_under_fire () =
  let ctx, rids = setup ~rows:400 () in
  spawn_pk_workers ctx rids ~workers:4 ~ops:30 77;
  let appends_before = Oib_sim.Metrics.get ctx.Ctx.metrics Sidefile_appends in
  ignore (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () -> build_secondary ctx));
  Sched.run ctx.Ctx.sched;
  check_clean ctx;
  Alcotest.(check bool) "ready" true
    ((Catalog.index ctx.Ctx.catalog 2).phase = Catalog.Ready);
  Alcotest.(check bool) "current-key visibility routed to side-file" true
    (Oib_sim.Metrics.get ctx.Ctx.metrics Sidefile_appends > appends_before)

let test_crash_resume () =
  let ctx, rids = setup ~rows:400 () in
  spawn_pk_workers ctx rids ~workers:3 ~ops:60 78;
  ignore (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () -> build_secondary ctx));
  Sched.set_crash_trap ctx.Ctx.sched (fun steps -> steps >= 250);
  (try Sched.run ctx.Ctx.sched with Sched.Crashed -> ());
  let ctx' = Engine.crash ctx in
  let cfg = Ib.default_config Ib.Sf in
  ignore
    (Sched.spawn ctx'.Ctx.sched ~name:"resume" (fun () ->
         Ib.resume_builds ctx' cfg;
         match Catalog.index ctx'.Ctx.catalog 2 with
         | _ -> ()
         | exception Invalid_argument _ ->
           build_secondary ~cfg ctx'));
  Sched.run ctx'.Ctx.sched;
  check_clean ctx';
  Alcotest.(check (list string)) "lifecycle clean" []
    (Engine.lifecycle_errors ~final:true ctx');
  Alcotest.(check bool) "ready after resume" true
    ((Catalog.index ctx'.Ctx.catalog 2).phase = Catalog.Ready)

let test_rejects_bad_primary () =
  let ctx, _ = setup ~rows:50 () in
  (* a non-unique index cannot anchor the key-order scan *)
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib0" (fun () ->
         Ib.build_index ctx (Ib.default_config Ib.Sf) ~table:1
           { Ib.index_id = 3; key_cols = [ 1 ]; unique = false }));
  Sched.run ctx.Ctx.sched;
  Alcotest.check_raises "non-unique primary rejected"
    (Invalid_argument "Ib.build_secondary_via_primary: primary index not unique")
    (fun () ->
      Ib.build_secondary_via_primary ctx (Ib.default_config Ib.Sf) ~table:1
        ~primary:3
        { Ib.index_id = 4; key_cols = [ 1 ]; unique = false })

(* The key-order scan's Scan-phase steps with no updaters. The health
   signals the throttle watches get fixed sources (the wiring
   [oib-fuzz throttle] uses): the foreground p99 reads [p99] at every
   sampler tick, the others read 0. *)
let scan_steps ~p99 =
  let ctx, _ = setup ~rows:400 () in
  let quiet name = Oib_obs.Signal.register ctx.Ctx.signals ~name in
  quiet "overload.fg_p99" ~raise_above:60.0 ~clear_below:25.0
    ~source:(fun () -> p99);
  quiet "wal.backlog" ~raise_above:16384.0 ~clear_below:4096.0
    ~source:(fun () -> 0.0);
  quiet "pool.dirty_ratio" ~raise_above:0.7 ~clear_below:0.4
    ~source:(fun () -> 0.0);
  Obs_sampler.install ctx ~every:5;
  ignore (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () -> build_secondary ctx));
  Sched.run ctx.Ctx.sched;
  check_clean ctx;
  let st =
    List.find
      (fun (st : Build_status.t) -> st.index_id = 2)
      (Engine.build_progress ctx)
  in
  let rec span = function
    | (Build_status.Scan, t0) :: (_, t1) :: _ -> t1 - t0
    | _ :: rest -> span rest
    | [] -> Alcotest.fail "no Scan phase in the build's history"
  in
  (Throttle.level ctx.Ctx.throttle, span (Build_status.history st))

let test_backoff_paces_scan () =
  let level0, quiet = scan_steps ~p99:0.0 in
  let level, backed_off = scan_steps ~p99:100.0 in
  Alcotest.(check int) "quiet signals leave the throttle at level 0" 0 level0;
  Alcotest.(check bool) "the overload backs the throttle off" true (level > 0);
  Alcotest.(check bool)
    (Printf.sprintf "backed-off scan takes more steps (%d vs %d)" backed_off
       quiet)
    true (backed_off > quiet)

let prop_iot_seeds =
  QCheck.Test.make ~name:"IOT secondary build consistent across seeds"
    ~count:10 QCheck.small_nat (fun seed ->
      let ctx, rids = setup ~seed:(seed + 1) ~rows:200 () in
      spawn_pk_workers ctx rids ~workers:3 ~ops:15 (seed * 13);
      ignore
        (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () -> build_secondary ctx));
      Sched.run ctx.Ctx.sched;
      Engine.consistency_errors ctx = []
      && (Catalog.index ctx.Ctx.catalog 2).phase = Catalog.Ready)

let () =
  Alcotest.run "iot"
    [
      ( "build",
        [
          Alcotest.test_case "quiet build via primary" `Quick test_quiet_build;
          Alcotest.test_case "under concurrent updates" `Quick
            test_build_under_fire;
          Alcotest.test_case "crash and resume" `Quick test_crash_resume;
          Alcotest.test_case "rejects bad primary" `Quick test_rejects_bad_primary;
          Alcotest.test_case "throttle backoff paces the scan" `Quick
            test_backoff_paces_scan;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_iot_seeds ]);
    ]
