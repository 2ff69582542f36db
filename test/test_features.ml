(* Features around the core algorithms: range scans, gradual availability
   during an NSF build (paper footnote 3), media recovery (image copy +
   full-log redo, the recovery mode NSF's logging enables, §2.2.3), and the
   background pseudo-delete garbage collector (§2.2.4). *)

open Oib_core
open Oib_util
module Sched = Oib_sim.Sched
module Txn = Oib_txn.Txn_manager

let setup ?(seed = 9) () =
  let ctx = Engine.create ~seed ~page_capacity:512 () in
  let _ = Catalog.create_table ctx.Ctx.catalog ctx.Ctx.pool ~table_id:1 in
  ctx

let must = function
  | Ok v -> v
  | Error _ -> Alcotest.fail "unexpected txn failure"

let load_keys ctx n =
  must
    (Engine.run_txn ctx (fun txn ->
         List.init n (fun i ->
             Table_ops.insert ctx txn ~table:1
               (Record.make [| Printf.sprintf "k%04d" i; string_of_int i |]))))

let build ctx ?(id = 10) ?(alg = Ib.Sf) ?(cfg = None) ?(unique = false) () =
  let cfg = Option.value cfg ~default:(Ib.default_config alg) in
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         Ib.build_index ctx cfg ~table:1
           { Ib.index_id = id; key_cols = [ 0 ]; unique }));
  Sched.run ctx.Ctx.sched

(* --- range scans --- *)

let test_range_lookup () =
  let ctx = setup () in
  let _ = load_keys ctx 200 in
  build ctx ();
  let hits =
    must
      (Engine.run_txn ctx (fun txn ->
           Table_ops.range_lookup ctx txn ~index:10 ~lo:"k0050" ~hi:"k0059" ()))
  in
  Alcotest.(check int) "ten keys" 10 (List.length hits);
  Alcotest.(check (list string)) "in key order"
    (List.init 10 (fun i -> Printf.sprintf "k%04d" (50 + i)))
    (List.map (fun (_, (r : Record.t)) -> r.cols.(0)) hits)

let test_range_open_bounds () =
  let ctx = setup () in
  let _ = load_keys ctx 50 in
  build ctx ();
  let all =
    must (Engine.run_txn ctx (fun txn -> Table_ops.range_lookup ctx txn ~index:10 ()))
  in
  Alcotest.(check int) "all" 50 (List.length all);
  let tail =
    must
      (Engine.run_txn ctx (fun txn ->
           Table_ops.range_lookup ctx txn ~index:10 ~lo:"k0045" ()))
  in
  Alcotest.(check int) "open high bound" 5 (List.length tail)

let test_range_skips_pseudo_deleted () =
  let ctx = setup () in
  let rids = load_keys ctx 20 in
  build ctx ();
  must (Engine.run_txn ctx (fun txn -> Table_ops.delete ctx txn ~table:1 (List.nth rids 5)));
  let hits =
    must
      (Engine.run_txn ctx (fun txn ->
           Table_ops.range_lookup ctx txn ~index:10 ~lo:"k0000" ~hi:"k0009" ()))
  in
  Alcotest.(check int) "tombstone invisible" 9 (List.length hits)

let prop_range_matches_filter =
  QCheck.Test.make ~name:"range scan equals filtered full scan" ~count:25
    QCheck.(pair small_nat (pair (int_bound 199) (int_bound 199)))
    (fun (seed, (a, b)) ->
      let lo = min a b and hi = max a b in
      let ctx = setup ~seed:(seed + 1) () in
      let _ = load_keys ctx 200 in
      build ctx ();
      let lo_s = Printf.sprintf "k%04d" lo and hi_s = Printf.sprintf "k%04d" hi in
      let got =
        must
          (Engine.run_txn ctx (fun txn ->
               Table_ops.range_lookup ctx txn ~index:10 ~lo:lo_s ~hi:hi_s ()))
      in
      List.length got = hi - lo + 1)

(* --- gradual availability (footnote 3) --- *)

let test_gradual_availability () =
  let ctx = setup () in
  let _ = load_keys ctx 1000 in
  let served = ref 0 and refused = ref 0 and wrong = ref [] in
  let cfg = { (Ib.default_config Ib.Nsf) with ckpt_every_keys = 100 } in
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         Ib.build_index ctx cfg ~table:1
           { Ib.index_id = 10; key_cols = [ 0 ]; unique = false }));
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"reader" (fun () ->
         (* keep probing a low key while the build runs: refused at first,
            then served correctly once the builder's bound passes it *)
         let rec probing n =
           if n > 0 then begin
             (match
                Engine.run_txn ctx (fun txn ->
                    Table_ops.index_lookup ctx txn ~index:10 "k0007")
              with
             | Ok [ (_, r) ] ->
               incr served;
               if r.Record.cols.(0) <> "k0007" then wrong := "bad row" :: !wrong
             | Ok _ -> wrong := "wrong cardinality" :: !wrong
             | Error _ -> wrong := "txn error" :: !wrong
             | exception Invalid_argument _ -> incr refused);
             Sched.yield ctx.Ctx.sched;
             probing (n - 1)
           end
         in
         probing 400));
  Sched.run ctx.Ctx.sched;
  Alcotest.(check (list string)) "no wrong answers" [] !wrong;
  Alcotest.(check bool)
    (Printf.sprintf "refused early (%d), served later (%d)" !refused !served)
    true
    (!refused > 0 && !served > 0);
  Alcotest.(check (list string)) "oracle clean" [] (Engine.consistency_errors ctx)

let test_unavailable_above_bound () =
  let ctx = setup () in
  let _ = load_keys ctx 1000 in
  let high_refused = ref false in
  let cfg = { (Ib.default_config Ib.Nsf) with ckpt_every_keys = 100 } in
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         Ib.build_index ctx cfg ~table:1
           { Ib.index_id = 10; key_cols = [ 0 ]; unique = false }));
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"reader" (fun () ->
         for _ = 1 to 50 do
           (* a key near the top must be refused while the builder has only
              reached the middle *)
           (match
              Engine.run_txn ctx (fun txn ->
                  Table_ops.index_lookup ctx txn ~index:10 "k0990")
            with
           | Ok _ -> ()
           | Error _ -> ()
           | exception Invalid_argument _ -> high_refused := true);
           Sched.yield ctx.Ctx.sched
         done));
  Sched.run ctx.Ctx.sched;
  Alcotest.(check bool) "high keys refused during build" true !high_refused

(* --- media recovery --- *)

let test_media_recovery_roundtrip () =
  let ctx = setup () in
  let _ = load_keys ctx 300 in
  build ctx ();
  let b = Engine.backup ctx in
  (* post-backup activity, all logged *)
  let rids =
    must
      (Engine.run_txn ctx (fun txn ->
           List.init 50 (fun i ->
               Table_ops.insert ctx txn ~table:1
                 (Record.make [| Printf.sprintf "m%03d" i; "post" |]))))
  in
  must (Engine.run_txn ctx (fun txn -> Table_ops.delete ctx txn ~table:1 (List.hd rids)));
  (* the data disk dies; restore the image and redo the log *)
  let ctx' = Engine.media_restore ctx b in
  Alcotest.(check (list string)) "oracle clean after media recovery" []
    (Engine.consistency_errors ctx');
  let hits =
    must
      (Engine.run_txn ctx' (fun txn ->
           Table_ops.index_lookup ctx' txn ~index:10 "m011"))
  in
  Alcotest.(check int) "post-backup insert recovered via index" 1
    (List.length hits);
  let gone =
    must
      (Engine.run_txn ctx' (fun txn ->
           Table_ops.index_lookup ctx' txn ~index:10 "m000"))
  in
  Alcotest.(check int) "post-backup delete recovered" 0 (List.length gone)

let test_media_recovery_covers_nsf_build () =
  (* the build itself happens after the backup: the index must be
     recoverable purely from the log — NSF's reason for logging IB inserts *)
  let ctx = setup () in
  let _ = load_keys ctx 300 in
  let b = Engine.backup ctx in
  build ctx ~alg:Ib.Nsf ();
  let ctx' = Engine.media_restore ctx b in
  Alcotest.(check (list string)) "index rebuilt from the log alone" []
    (Engine.consistency_errors ctx');
  Alcotest.(check int) "all entries" 300
    (Oib_btree.Btree.present_count (Catalog.index ctx'.Ctx.catalog 10).tree)

(* --- background gc daemon --- *)

let test_gc_daemon_collects () =
  let ctx = setup () in
  let rids = load_keys ctx 200 in
  build ctx ();
  let stop, collected = Ib.spawn_gc_daemon ctx ~index_id:10 ~every:5 in
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"deleter" (fun () ->
         List.iteri
           (fun i rid ->
             if i mod 2 = 0 then
               (match
                  Engine.run_txn ctx (fun txn ->
                      Table_ops.delete ctx txn ~table:1 rid)
                with
               | Ok () | Error _ -> ());
             Sched.yield ctx.Ctx.sched)
           rids;
         (* give the daemon a few more sweeps, then stop it *)
         for _ = 1 to 30 do
           Sched.yield ctx.Ctx.sched
         done;
         stop ()));
  Sched.run ctx.Ctx.sched;
  Alcotest.(check bool)
    (Printf.sprintf "daemon collected %d tombstones" !collected)
    true (!collected > 0);
  Alcotest.(check (list string)) "oracle clean" [] (Engine.consistency_errors ctx)

(* --- offline baseline (§1) --- *)

let test_offline_build_stalls_updaters () =
  let ctx = setup () in
  let _ = load_keys ctx 300 in
  let during = ref (-1) in
  let done_txns = ref 0 in
  for w = 0 to 2 do
    ignore
      (Sched.spawn ctx.Ctx.sched ~name:(Printf.sprintf "w%d" w) (fun () ->
           for i = 0 to 9 do
             (match
                Engine.run_txn ctx (fun txn ->
                    ignore
                      (Table_ops.insert ctx txn ~table:1
                         (Record.make [| Printf.sprintf "w%d-%d" w i; "p" |])))
              with
             | Ok () -> incr done_txns
             | Error _ -> ());
             Sched.yield ctx.Ctx.sched
           done))
  done;
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         Ib.build_index_offline ctx (Ib.default_config Ib.Sf) ~table:1
           { Ib.index_id = 10; key_cols = [ 0 ]; unique = false };
         during := !done_txns));
  Sched.run ctx.Ctx.sched;
  Alcotest.(check (list string)) "oracle clean" [] (Engine.consistency_errors ctx);
  Alcotest.(check bool)
    (Printf.sprintf "at most the in-flight txns finished during the build (%d)"
       !during)
    true
    (!during <= 3);
  Alcotest.(check int) "all eventually commit" 30 !done_txns

(* --- log truncation (footnote 8) --- *)

let test_truncate_log_reclaims_and_recovers () =
  let ctx = setup () in
  let rids = load_keys ctx 400 in
  build ctx ();
  must
    (Engine.run_txn ctx (fun txn ->
         Table_ops.delete ctx txn ~table:1 (List.hd rids)));
  let before = Oib_wal.Log_manager.durable_bytes ctx.Ctx.log in
  let reclaimed = Engine.truncate_log ctx in
  Alcotest.(check bool)
    (Printf.sprintf "reclaimed %d of %d bytes" reclaimed before)
    true
    (reclaimed > before / 2);
  (* normal operation and crash recovery both still work *)
  must
    (Engine.run_txn ctx (fun txn ->
         ignore (Table_ops.insert ctx txn ~table:1 (Record.make [| "post"; "t" |]))));
  let ctx' = Engine.crash ctx in
  Alcotest.(check (list string)) "recovery after truncation" []
    (Engine.consistency_errors ctx');
  let hits =
    must
      (Engine.run_txn ctx' (fun txn ->
           Table_ops.index_lookup ctx' txn ~index:10 "post"))
  in
  Alcotest.(check int) "post-truncation commit survives" 1 (List.length hits)

let test_truncate_log_respects_active_txn () =
  let ctx = setup () in
  let _ = load_keys ctx 50 in
  let txn = Txn.begin_txn ctx.Ctx.txns in
  ignore (Table_ops.insert ctx txn ~table:1 (Record.make [| "open"; "x" |]));
  ignore (Engine.truncate_log ctx);
  (* the open transaction's chain must have been retained: roll it back *)
  Table_ops.rollback ctx txn;
  Alcotest.(check int) "rollback still worked" 50
    (Oib_storage.Heap_file.record_count (Catalog.table ctx.Ctx.catalog 1).heap)

let test_truncate_log_respects_build_in_progress () =
  let ctx = setup () in
  let _ = load_keys ctx 800 in
  let cfg = { (Ib.default_config Ib.Sf) with ckpt_every_pages = 8 } in
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         Ib.build_index ctx cfg ~table:1
           { Ib.index_id = 10; key_cols = [ 0 ]; unique = false }));
  (* truncate mid-build, then crash: the retained log must still rebuild
     the side-file and resume the build *)
  Sched.set_crash_trap ctx.Ctx.sched (fun steps ->
      if steps = 40 then ignore (Engine.truncate_log ctx);
      steps >= 80);
  (try Sched.run ctx.Ctx.sched with Sched.Crashed -> ());
  let ctx' = Engine.crash ctx in
  ignore
    (Sched.spawn ctx'.Ctx.sched ~name:"resume" (fun () ->
         Ib.resume_builds ctx' cfg;
         match Catalog.index ctx'.Ctx.catalog 10 with
         | _ -> ()
         | exception Invalid_argument _ ->
           Ib.build_index ctx' cfg ~table:1
             { Ib.index_id = 10; key_cols = [ 0 ]; unique = false }));
  Sched.run ctx'.Ctx.sched;
  Alcotest.(check (list string)) "oracle clean" [] (Engine.consistency_errors ctx');
  Alcotest.(check bool) "ready" true
    ((Catalog.index ctx'.Ctx.catalog 10).phase = Catalog.Ready)

let () =
  Alcotest.run "features"
    [
      ( "range",
        [
          Alcotest.test_case "bounded range" `Quick test_range_lookup;
          Alcotest.test_case "open bounds" `Quick test_range_open_bounds;
          Alcotest.test_case "skips tombstones" `Quick
            test_range_skips_pseudo_deleted;
        ] );
      ( "gradual-availability",
        [
          Alcotest.test_case "serves below the bound" `Quick
            test_gradual_availability;
          Alcotest.test_case "refuses above the bound" `Quick
            test_unavailable_above_bound;
        ] );
      ( "media-recovery",
        [
          Alcotest.test_case "image + log redo" `Quick
            test_media_recovery_roundtrip;
          Alcotest.test_case "covers an NSF build" `Quick
            test_media_recovery_covers_nsf_build;
        ] );
      ( "gc-daemon",
        [ Alcotest.test_case "background collection" `Quick test_gc_daemon_collects ]
      );
      ( "offline-baseline",
        [
          Alcotest.test_case "full quiesce stalls updaters" `Quick
            test_offline_build_stalls_updaters;
        ] );
      ( "log-truncation",
        [
          Alcotest.test_case "reclaims and recovers" `Quick
            test_truncate_log_reclaims_and_recovers;
          Alcotest.test_case "respects active txn" `Quick
            test_truncate_log_respects_active_txn;
          Alcotest.test_case "respects build in progress" `Quick
            test_truncate_log_respects_build_in_progress;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_range_matches_filter ] );
    ]
