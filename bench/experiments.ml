(* Experiment harness: one function per experiment in DESIGN.md's index
   (E1..E12), each printing a paper-style results table. The paper itself
   has no quantitative evaluation — Section 4 compares NSF and SF
   qualitatively — so each experiment quantifies one of its claims. *)

open Oib_core
open Oib_util
module Sched = Oib_sim.Sched
module Metrics = Oib_sim.Metrics
module Driver = Oib_workload.Driver
module TP = Table_printer

let alg_name = function Ib.Nsf -> "NSF" | Ib.Sf -> "SF"

let f1 v = Printf.sprintf "%.1f" v
let f3 v = Printf.sprintf "%.3f" v

(* standard rig: populated table + optional workers + one build; returns
   (ctx, worker stats, metric delta over the build window, build steps) *)
let rig ?(rows = 1500) ?(seed = 7) ?(workers = 0) ?(txns = 0)
    ?(cfg = Ib.default_config Ib.Sf) ?(spec_unique = false)
    ?(key_cols = [ 0 ]) ?(driver = Driver.default) () =
  let ctx = Engine.create ~seed ~page_capacity:1024 () in
  let _ = Catalog.create_table ctx.Ctx.catalog ctx.Ctx.pool ~table_id:1 in
  let _ = Driver.populate ctx ~table:1 ~rows ~seed in
  let stats =
    if workers > 0 then
      Driver.spawn_workers ctx
        { driver with Driver.seed; workers; txns_per_worker = txns }
        ~table:1
    else ref { Driver.committed = 0; aborted = 0; deadlocks = 0; unique_violations = 0 }
  in
  (* the metric window covers exactly the build: snapshots are taken
     inside the builder fiber *)
  let steps = ref 0 in
  let d = ref (Metrics.create ()) in
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         let t0 = Sched.steps ctx.Ctx.sched in
         let before = Metrics.snapshot ctx.Ctx.metrics in
         Ib.build_index ctx cfg ~table:1
           { Ib.index_id = 10; key_cols; unique = spec_unique };
         steps := Sched.steps ctx.Ctx.sched - t0;
         d := Metrics.diff ~after:(Metrics.snapshot ctx.Ctx.metrics) ~before));
  Sched.run ctx.Ctx.sched;
  (ctx, !stats, !d, !steps)

let oracle_ok ctx = Engine.consistency_errors ctx = []

(* --- E0: the availability headline (§1) — what concurrent updaters
   experience during an index build, offline baseline vs NSF vs SF --- *)
let e0 () =
  let t =
    TP.create
      ~columns:
        [ "method"; "txns done when build ends"; "committed total";
          "updater lock waits"; "build steps" ]
  in
  let variants =
    [
      ("offline (full quiesce)", `Offline);
      ("NSF (descriptor quiesce)", `Nsf);
      ("SF (no quiesce)", `Sf);
    ]
  in
  List.iter
    (fun (name, v) ->
      let ctx = Engine.create ~seed:31 ~page_capacity:1024 () in
      let _ = Catalog.create_table ctx.Ctx.catalog ctx.Ctx.pool ~table_id:1 in
      let _ = Driver.populate ctx ~table:1 ~rows:1500 ~seed:31 in
      let stats =
        Driver.spawn_workers ctx
          { Driver.default with seed = 31; workers = 4; txns_per_worker = 60 }
          ~table:1
      in
      let during = ref 0 and steps = ref 0 in
      let waits_before = Metrics.get ctx.Ctx.metrics Lock_waits in
      ignore
        (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
             let t0 = Sched.steps ctx.Ctx.sched in
             let spec = { Ib.index_id = 10; key_cols = [ 0 ]; unique = false } in
             (match v with
             | `Offline ->
               Ib.build_index_offline ctx (Ib.default_config Ib.Sf) ~table:1 spec
             | `Nsf -> Ib.build_index ctx (Ib.default_config Ib.Nsf) ~table:1 spec
             | `Sf -> Ib.build_index ctx (Ib.default_config Ib.Sf) ~table:1 spec);
             steps := Sched.steps ctx.Ctx.sched - t0;
             during := (!stats).committed));
      Sched.run ctx.Ctx.sched;
      assert (oracle_ok ctx);
      TP.add_row t
        [
          name;
          string_of_int !during;
          string_of_int (!stats).committed;
          string_of_int (Metrics.get ctx.Ctx.metrics Lock_waits - waits_before);
          string_of_int !steps;
        ])
    variants;
  TP.print
    ~title:
      "E0  availability during the build (§1: disallowing updates \
       \"may become unacceptable\")"
    t

(* --- E1: correctness of both algorithms, unique and nonunique, under
   concurrent updates, across seeds --- *)
let e1 () =
  let t = TP.create ~columns:[ "algorithm"; "index"; "seeds"; "oracle clean"; "built" ] in
  List.iter
    (fun (alg, uniq) ->
      let seeds = 8 in
      let clean = ref 0 and ready = ref 0 in
      for seed = 1 to seeds do
        (* unique indexes need distinct key values: index the payload col *)
        let key_cols = if uniq then [ 1 ] else [ 0 ] in
        let ctx, _, _, _ =
          rig ~rows:400 ~seed ~workers:3 ~txns:15 ~cfg:(Ib.default_config alg)
            ~spec_unique:uniq ~key_cols
            ~driver:{ Driver.default with delete_w = 3; update_w = 0 }
            ()
        in
        if oracle_ok ctx then incr clean;
        if (Catalog.index ctx.Ctx.catalog 10).phase = Catalog.Ready then
          incr ready
      done;
      TP.add_row t
        [
          alg_name alg;
          (if uniq then "unique" else "nonunique");
          string_of_int seeds;
          Printf.sprintf "%d/%d" !clean seeds;
          Printf.sprintf "%d/%d" !ready seeds;
        ])
    [ (Ib.Nsf, false); (Ib.Nsf, true); (Ib.Sf, false); (Ib.Sf, true) ];
  TP.print ~title:"E1  correct online builds under concurrent updates (§2, §3)" t

(* --- E2: SF's efficiency claims vs NSF, as concurrent update rate grows
   (§4) --- *)
let e2 () =
  let t =
    TP.create
      ~columns:
        [
          "update txns"; "alg"; "log bytes"; "log recs"; "latches";
          "traversals"; "build steps"; "sidefile";
        ]
  in
  List.iter
    (fun txns ->
      List.iter
        (fun alg ->
          let workers = if txns = 0 then 0 else 4 in
          let per = if workers = 0 then 0 else txns / workers in
          let _, _, d, steps =
            rig ~rows:1500 ~workers ~txns:per ~cfg:(Ib.default_config alg) ()
          in
          TP.add_row t
            [
              string_of_int txns;
              alg_name alg;
              string_of_int (Metrics.get d Log_bytes);
              string_of_int (Metrics.get d Log_records);
              string_of_int (Metrics.get d Latch_acquires);
              string_of_int (Metrics.get d Tree_traversals);
              string_of_int steps;
              string_of_int (Metrics.get d Sidefile_appends);
            ])
        [ Ib.Nsf; Ib.Sf ];
      TP.add_sep t)
    [ 0; 60; 240; 600 ];
  TP.print
    ~title:
      "E2  build overheads vs concurrent update rate (§4: SF logs less, \
       latches less, avoids traversals)"
    t

(* --- E3: the quiesce. NSF must wait for open updaters before creating the
   descriptor; SF starts immediately (§2.2.1 vs §3.2.1) --- *)
let e3 () =
  let t =
    TP.create
      ~columns:[ "open txn holds (steps)"; "alg"; "descriptor wait (steps)" ]
  in
  List.iter
    (fun hold ->
      List.iter
        (fun alg ->
          let ctx = Engine.create ~seed:5 ~page_capacity:1024 () in
          let _ = Catalog.create_table ctx.Ctx.catalog ctx.Ctx.pool ~table_id:1 in
          let _ = Driver.populate ctx ~table:1 ~rows:100 ~seed:5 in
          (* a transaction already holds its IX table lock when the
             builder arrives, and keeps it for [hold] steps *)
          let txn = Oib_txn.Txn_manager.begin_txn ctx.Ctx.txns in
          if hold > 0 then
            ignore (Table_ops.insert ctx txn ~table:1 (Record.make [| "x"; "y" |]));
          ignore
            (Sched.spawn ctx.Ctx.sched ~name:"updater" (fun () ->
                 for _ = 1 to hold do
                   Sched.yield ctx.Ctx.sched
                 done;
                 Oib_txn.Txn_manager.commit ctx.Ctx.txns txn));
          let wait = ref 0 in
          ignore
            (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
                 Sched.yield ctx.Ctx.sched;
                 let t0 = Sched.steps ctx.Ctx.sched in
                 (* measure until the descriptor exists *)
                 ignore
                   (Sched.spawn ctx.Ctx.sched ~name:"probe" (fun () ->
                        let rec go () =
                          match Catalog.index ctx.Ctx.catalog 10 with
                          | _ -> wait := Sched.steps ctx.Ctx.sched - t0
                          | exception Invalid_argument _ ->
                            Sched.yield ctx.Ctx.sched;
                            go ()
                        in
                        go ()));
                 Ib.build_index ctx (Ib.default_config alg) ~table:1
                   { Ib.index_id = 10; key_cols = [ 0 ]; unique = false }));
          Sched.run ctx.Ctx.sched;
          TP.add_row t
            [ string_of_int hold; alg_name alg; string_of_int !wait ])
        [ Ib.Nsf; Ib.Sf ];
      TP.add_sep t)
    [ 0; 100; 400 ];
  TP.print
    ~title:"E3  update quiesce at descriptor creation (NSF waits; SF never)" t

(* --- E4: clustering of the resulting tree (§2.3.1, §4), with the
   specialized-split ablation --- *)
let e4 () =
  let t =
    TP.create
      ~columns:[ "update txns"; "variant"; "clustering"; "leaf fill"; "leaves" ]
  in
  let variants =
    [
      ("offline (quiesced)", `Offline);
      ("NSF normal split", `Nsf false);
      ("NSF specialized split", `Nsf true);
      ("SF bottom-up", `Sf);
    ]
  in
  List.iter
    (fun txns ->
      List.iter
        (fun (name, v) ->
          let workers = if txns = 0 then 0 else 4 in
          let per = if workers = 0 then 0 else txns / workers in
          let cfg, workers =
            match v with
            | `Offline -> (Ib.default_config Ib.Sf, 0)
            | `Nsf s ->
              ({ (Ib.default_config Ib.Nsf) with specialized_split = s }, workers)
            | `Sf -> (Ib.default_config Ib.Sf, workers)
          in
          let ctx, _, _, _ = rig ~rows:1500 ~workers ~txns:per ~cfg () in
          let tree = (Catalog.index ctx.Ctx.catalog 10).tree in
          TP.add_row t
            [
              string_of_int txns;
              name;
              f3 (Oib_btree.Bt_check.clustering tree);
              f3 (Oib_btree.Bt_check.avg_leaf_fill tree);
              string_of_int (Oib_btree.Btree.leaf_count tree);
            ])
        variants;
      TP.add_sep t)
    [ 0; 60; 300 ];
  TP.print
    ~title:
      "E4  index clustering by build method (§4: SF best; NSF's specialized \
       split approaches bottom-up)"
    t

(* --- E5: restartable sort — work lost vs checkpoint interval (§5) --- *)
let e5 () =
  let t =
    TP.create
      ~columns:
        [ "ckpt every (pages)"; "crash at (page)"; "pages rescanned";
          "merge ckpt every"; "merge crash at"; "keys re-merged" ]
  in
  let n = 20_000 and page = 50 in
  let keys =
    let rng = Rng.create 9 in
    let a = Array.init n (fun i -> Ikey.make (Printf.sprintf "k%08d" i) (Rid.make ~page:i ~slot:0)) in
    Rng.shuffle rng a;
    a
  in
  let pages = n / page in
  List.iter
    (fun (ckpt_pages, merge_ckpt) ->
      (* deliberately misaligned with every checkpoint interval *)
      let crash_at = (pages * 3 / 4) + 7 in
      let kv = Oib_storage.Durable_kv.create () in
      let store = ref (Oib_sort.Run_store.create ()) in
      let sorter =
        Oib_sort.Sort_phase.start kv !store ~ckpt_id:"e5" ~memory_keys:512
      in
      (try
         for p = 0 to pages - 1 do
           if p = crash_at then raise Exit;
           Oib_sort.Sort_phase.feed_page sorter ~scan_pos:p
             (Array.to_list (Array.sub keys (p * page) page));
           if (p + 1) mod ckpt_pages = 0 then
             Oib_sort.Sort_phase.checkpoint sorter
         done
       with Exit -> ());
      store := Oib_sort.Run_store.crash !store;
      let sorter =
        Option.get
          (Oib_sort.Sort_phase.resume kv !store ~ckpt_id:"e5" ~memory_keys:512)
      in
      let resume_from = Oib_sort.Sort_phase.scan_pos sorter + 1 in
      for p = resume_from to pages - 1 do
        Oib_sort.Sort_phase.feed_page sorter ~scan_pos:p
          (Array.to_list (Array.sub keys (p * page) page))
      done;
      let runs = Oib_sort.Sort_phase.finish sorter in
      (* merge with a mid-merge crash *)
      let merge_crash = (n / 2) + 137 in
      (try
         ignore
           (Oib_sort.Merge_phase.merge ~stop_after:merge_crash kv !store
              ~ckpt_id:"e5m" ~inputs:runs ~output:"e5out"
              ~ckpt_every:merge_ckpt)
       with Oib_sort.Merge_phase.Injected_crash -> ());
      store := Oib_sort.Run_store.crash !store;
      let out_before =
        Oib_sort.Run_store.forced_length
          (Oib_sort.Run_store.find_run !store "e5out")
      in
      let out =
        Oib_sort.Merge_phase.merge kv !store ~ckpt_id:"e5m" ~inputs:runs
          ~output:"e5out" ~ckpt_every:merge_ckpt
      in
      assert (Oib_sort.Run_store.length out = n);
      TP.add_row t
        [
          string_of_int ckpt_pages;
          string_of_int crash_at;
          string_of_int (crash_at - resume_from);
          string_of_int merge_ckpt;
          string_of_int merge_crash;
          string_of_int (merge_crash - out_before);
        ])
    [ (10, 500); (50, 2000); (100, 8000); (200, 20000) ];
  TP.print
    ~title:
      "E5  restartable sort: work lost after a crash is bounded by the \
       checkpoint interval (§5)"
    t

(* --- E6: IB insert/bulk-phase checkpointing bounds re-done work
   (§2.2.3 / §3.2.4) --- *)
let e6 () =
  let t =
    TP.create
      ~columns:
        [ "alg"; "ckpt every (keys)"; "keys redone after crash"; "consistent" ]
  in
  List.iter
    (fun (alg, every) ->
      let cfg =
        {
          (Ib.default_config alg) with
          ckpt_every_keys = every;
          ckpt_every_pages = 16;
        }
      in
      let ctx = Engine.create ~seed:3 ~page_capacity:1024 () in
      let _ = Catalog.create_table ctx.Ctx.catalog ctx.Ctx.pool ~table_id:1 in
      let _ = Driver.populate ctx ~table:1 ~rows:2000 ~seed:3 in
      ignore
        (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
             Ib.build_index ctx cfg ~table:1
               { Ib.index_id = 10; key_cols = [ 0 ]; unique = false }));
      (* crash when ~half the keys are in the tree (a point deliberately
         misaligned with the checkpoint cadences) *)
      Sched.set_crash_trap ctx.Ctx.sched (fun _ ->
          Metrics.get ctx.Ctx.metrics Keys_inserted >= 1037);
      (try Sched.run ctx.Ctx.sched with Sched.Crashed -> ());
      let crash_pos = Metrics.get ctx.Ctx.metrics Keys_inserted in
      let ctx' = Engine.crash ctx in
      (* count only the resumed run's work *)
      Metrics.reset ctx'.Ctx.metrics;
      ignore
        (Sched.spawn ctx'.Ctx.sched ~name:"resume" (fun () ->
             Ib.resume_builds ctx' cfg));
      Sched.run ctx'.Ctx.sched;
      (* work redone = insert attempts in the resumed run beyond the keys
         that genuinely remained at the crash. NSF re-attempts show up as
         duplicate rejections (its inserts are logged and replayed) or
         re-inserts; SF's bulk resume re-adds keys above its image. *)
      let attempts =
        Metrics.get ctx'.Ctx.metrics Keys_inserted
        + Metrics.get ctx'.Ctx.metrics Keys_rejected_duplicate
      in
      let redone = max 0 (attempts - (2000 - crash_pos)) in
      TP.add_row t
        [
          alg_name alg;
          string_of_int every;
          string_of_int redone;
          string_of_bool (oracle_ok ctx');
        ])
    [ (Ib.Nsf, 96); (Ib.Nsf, 384); (Ib.Nsf, 1536);
      (Ib.Sf, 96); (Ib.Sf, 384); (Ib.Sf, 1536) ];
  TP.print
    ~title:
      "E6  IB progress checkpoints bound re-done insert work after a crash \
       (§2.2.3, §3.2.4)"
    t

(* --- E7: pseudo-deleted keys cost space until garbage collection (§2.2.4)
   --- *)
let e7 () =
  let t =
    TP.create
      ~columns:
        [ "delete weight"; "entries"; "pseudo"; "leaves before gc";
          "collected"; "leaves after"; "lock calls (gc)" ]
  in
  List.iter
    (fun delete_w ->
      let driver = { Driver.default with delete_w; insert_w = 2; update_w = 2 } in
      let ctx, _, _, _ =
        rig ~rows:1200 ~workers:4 ~txns:60 ~cfg:(Ib.default_config Ib.Nsf)
          ~driver ()
      in
      let tree = (Catalog.index ctx.Ctx.catalog 10).tree in
      let entries = Oib_btree.Btree.entry_count tree in
      let pseudo = Oib_btree.Btree.pseudo_count tree in
      let leaves_before = Oib_btree.Btree.leaf_count tree in
      let locks_before = Metrics.get ctx.Ctx.metrics Lock_calls in
      let collected = Ib.gc_pseudo_deleted ctx ~index_id:10 in
      let gc_locks = Metrics.get ctx.Ctx.metrics Lock_calls - locks_before in
      TP.add_row t
        [
          string_of_int delete_w;
          string_of_int entries;
          string_of_int pseudo;
          string_of_int leaves_before;
          string_of_int collected;
          string_of_int (Oib_btree.Btree.leaf_count tree);
          Printf.sprintf "%d (Commit_LSN shortcut)" gc_locks;
        ])
    [ 0; 3; 6; 9 ];
  TP.print
    ~title:
      "E7  pseudo-delete space overhead and garbage collection (§2.2.4; \
       quiescent system => zero lock calls)"
    t

(* --- E8: side-file growth with concurrency; sorted application ablation
   (§3.2.5) --- *)
let e8 () =
  let t =
    TP.create
      ~columns:
        [ "workers"; "apply"; "sidefile entries"; "catch-up ops";
          "drain traversals"; "drain fast-path" ]
  in
  List.iter
    (fun workers ->
      List.iter
        (fun sorted ->
          let cfg = { (Ib.default_config Ib.Sf) with sort_sidefile = sorted } in
          (* generous per-worker budget so traffic outlasts the build *)
          let ctx, _, d, _ =
            rig ~rows:1500 ~seed:13 ~workers ~txns:120 ~cfg ()
          in
          assert (oracle_ok ctx);
          (* catch-up ops = drain applications, visible in the log as the
             builder's (txn-less) index records *)
          let catchup = ref 0 in
          List.iter
            (fun (r : Oib_wal.Log_record.t) ->
              match (r.txn, r.body) with
              | None, Oib_wal.Log_record.Index_key _ -> incr catchup
              | _ -> ())
            (Oib_wal.Log_manager.all_records ctx.Ctx.log);
          TP.add_row t
            [
              string_of_int workers;
              (if sorted then "sorted" else "sequential");
              string_of_int (Metrics.get d Sidefile_appends);
              string_of_int !catchup;
              string_of_int (Metrics.get d Tree_traversals);
              string_of_int (Metrics.get d Fast_path_inserts);
            ])
        [ false; true ];
      TP.add_sep t)
    [ 2; 4; 8 ];
  TP.print
    ~title:
      "E8  side-file volume grows with update concurrency; sorting the \
       side-file turns drain traversals into remembered-path hits (§3.2.5)"
    t

(* --- E9: multiple indexes in one scan (§6.2) --- *)
let e9 () =
  let t =
    TP.create
      ~columns:[ "indexes"; "one-scan page reads"; "separate-builds reads"; "savings" ]
  in
  let build_specs ctx specs =
    let before = Metrics.get ctx.Ctx.metrics Sequential_reads in
    ignore
      (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
           Ib.build_indexes ctx (Ib.default_config Ib.Sf) ~table:1 specs));
    Sched.run ctx.Ctx.sched;
    Metrics.get ctx.Ctx.metrics Sequential_reads - before
  in
  let fresh () =
    let ctx = Engine.create ~seed:3 ~page_capacity:1024 () in
    let _ = Catalog.create_table ctx.Ctx.catalog ctx.Ctx.pool ~table_id:1 in
    let _ = Driver.populate ctx ~table:1 ~rows:3000 ~seed:3 in
    ctx
  in
  List.iter
    (fun k ->
      let specs =
        List.init k (fun i ->
            { Ib.index_id = 10 + i; key_cols = [ i mod 2 ]; unique = false })
      in
      let one = build_specs (fresh ()) specs in
      let ctx = fresh () in
      let sep =
        List.fold_left (fun acc s -> acc + build_specs ctx [ s ]) 0 specs
      in
      TP.add_row t
        [
          string_of_int k;
          string_of_int one;
          string_of_int sep;
          f1 (float_of_int sep /. float_of_int (max 1 one)) ^ "x";
        ])
    [ 1; 2; 3; 4 ];
  TP.print ~title:"E9  k indexes in one data scan (§6.2)" t

(* --- E10: unique violations detected exactly when real (§2.2.3) --- *)
let e10 () =
  let t =
    TP.create
      ~columns:[ "scenario"; "alg"; "trials"; "violations"; "expected" ]
  in
  let trial alg ~plant_dup seed =
    let ctx = Engine.create ~seed ~page_capacity:1024 () in
    let _ = Catalog.create_table ctx.Ctx.catalog ctx.Ctx.pool ~table_id:1 in
    (match
       Engine.run_txn ctx (fun txn ->
           for i = 0 to 299 do
             ignore
               (Table_ops.insert ctx txn ~table:1
                  (Record.make [| "c"; Printf.sprintf "u%05d" i |]))
           done;
           if plant_dup then
             ignore
               (Table_ops.insert ctx txn ~table:1
                  (Record.make [| "c"; "u00042" |])))
     with
    | Ok () -> ()
    | Error _ -> assert false);
    let violated = ref false in
    ignore
      (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
           match
             Ib.build_index ctx (Ib.default_config alg) ~table:1
               { Ib.index_id = 10; key_cols = [ 1 ]; unique = true }
           with
          | () -> ()
          | exception Ib.Build_unique_violation _ -> violated := true));
    Sched.run ctx.Ctx.sched;
    !violated
  in
  List.iter
    (fun alg ->
      let trials = 6 in
      let with_dup = ref 0 and without_dup = ref 0 in
      for seed = 1 to trials do
        if trial alg ~plant_dup:true seed then incr with_dup;
        if trial alg ~plant_dup:false seed then incr without_dup
      done;
      TP.add_row t
        [ "committed duplicate"; alg_name alg; string_of_int trials;
          string_of_int !with_dup; string_of_int trials ];
      TP.add_row t
        [ "no duplicate"; alg_name alg; string_of_int trials;
          string_of_int !without_dup; "0" ])
    [ Ib.Nsf; Ib.Sf ];
  TP.print
    ~title:
      "E10  unique-key-value violations: always detected, never spurious \
       (§2.2.3, §6.1)"
    t

(* --- E11: NSF multi-key log records — batch size sweep (§2.3.1) --- *)
let e11 () =
  let t =
    TP.create
      ~columns:
        [ "batch size"; "IB bulk log records"; "IB log bytes"; "keys/record";
          "build latches" ]
  in
  List.iter
    (fun batch ->
      let cfg = { (Ib.default_config Ib.Nsf) with batch_size = batch } in
      let ctx, _, d, _ = rig ~rows:2000 ~cfg () in
      let bulk = ref 0 and bulk_bytes = ref 0 and bulk_keys = ref 0 in
      List.iter
        (fun (r : Oib_wal.Log_record.t) ->
          match r.body with
          | Oib_wal.Log_record.Index_bulk_insert { keys; _ } ->
            incr bulk;
            bulk_keys := !bulk_keys + List.length keys;
            bulk_bytes := !bulk_bytes + Oib_wal.Log_codec.frame_size r
          | _ -> ())
        (Oib_wal.Log_manager.all_records ctx.Ctx.log);
      TP.add_row t
        [
          string_of_int batch;
          string_of_int !bulk;
          string_of_int !bulk_bytes;
          f1 (float_of_int !bulk_keys /. float_of_int (max 1 !bulk));
          string_of_int (Metrics.get d Latch_acquires);
        ])
    [ 1; 8; 32; 128 ];
  TP.print
    ~title:
      "E11  one log record for multiple keys cuts NSF's logging overhead \
       (§2.3.1)"
    t

(* --- E12: why not catch up from the log? Side-file vs log volume (§6) --- *)
let e12 () =
  let t =
    TP.create
      ~columns:
        [ "workers"; "sidefile entries"; "sidefile bytes";
          "log bytes (build window)"; "log/sidefile" ]
  in
  List.iter
    (fun workers ->
      let ctx, _, d, _ =
        rig ~rows:1500 ~seed:19 ~workers ~txns:120
          ~cfg:(Ib.default_config Ib.Sf) ()
      in
      assert (oracle_ok ctx);
      (* a side-file entry is its op flag and its key, sized in the log's
         own key encoding; compare against everything the log recorded in
         the same window, which a log-based catch-up would have to scan
         (§6). Each entry is logged once, as an append or as a rollback's
         compensating CLR. *)
      let sf_bytes =
        List.fold_left
          (fun acc (r : Oib_wal.Log_record.t) ->
            match r.body with
            | Sidefile_append { key; _ }
            | Clr { action = Sidefile_append { key; _ }; _ } ->
              acc + 1 + Oib_wal.Log_codec.key_size key
            | _ -> acc)
          0
          (Oib_wal.Log_manager.all_records ctx.Ctx.log)
      in
      TP.add_row t
        [
          string_of_int workers;
          string_of_int (Metrics.get d Sidefile_appends);
          string_of_int sf_bytes;
          string_of_int (Metrics.get d Log_bytes);
          (if Metrics.get d Sidefile_appends = 0 then "-"
           else f1 (float_of_int (Metrics.get d Log_bytes) /. float_of_int (max 1 sf_bytes)) ^ "x");
        ])
    [ 2; 4; 8 ];
  TP.print
    ~title:
      "E12  the side-file is far smaller than the log a log-based catch-up \
       would scan (§6)"
    t

(* --- E13: the index-organized-table variant (§6.2) --- *)
let e13 () =
  let t =
    TP.create
      ~columns:
        [ "scan order"; "oracle"; "clustering"; "sidefile entries";
          "page reads" ]
  in
  let run_one key_order =
    let ctx = Engine.create ~seed:23 ~page_capacity:1024 () in
    let _ = Catalog.create_table ctx.Ctx.catalog ctx.Ctx.pool ~table_id:1 in
    (match
       Engine.run_txn ctx (fun txn ->
           for i = 0 to 1499 do
             ignore
               (Table_ops.insert ctx txn ~table:1
                  (Record.make
                     [| Printf.sprintf "pk%06d" i;
                        Printf.sprintf "s%04d" (i mod 89) |]))
           done)
     with
    | Ok () -> ()
    | Error _ -> assert false);
    (* a unique primary index exists either way *)
    ignore
      (Sched.spawn ctx.Ctx.sched ~name:"ibp" (fun () ->
           Ib.build_index ctx (Ib.default_config Ib.Sf) ~table:1
             { Ib.index_id = 1; key_cols = [ 0 ]; unique = true }));
    Sched.run ctx.Ctx.sched;
    (* secondary-only updaters *)
    let rng = Rng.create 23 in
    let rids =
      Array.of_list (Driver.live_rids ctx ~table:1)
    in
    for w = 0 to 2 do
      ignore
        (Sched.spawn ctx.Ctx.sched ~name:(Printf.sprintf "w%d" w) (fun () ->
             for _ = 1 to 40 do
               (match
                  Engine.run_txn ctx (fun txn ->
                      let rid = rids.(Rng.int rng (Array.length rids)) in
                      match Table_ops.read ctx txn ~table:1 rid with
                      | Some r ->
                        Table_ops.update ctx txn ~table:1 rid
                          (Record.make
                             [| r.Record.cols.(0);
                                Printf.sprintf "s%04d" (Rng.int rng 89) |])
                      | None -> ())
                with
               | Ok () | Error _ -> ());
               Sched.yield ctx.Ctx.sched
             done))
    done;
    let before = Metrics.snapshot ctx.Ctx.metrics in
    ignore
      (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
           if key_order then
             Ib.build_secondary_via_primary ctx (Ib.default_config Ib.Sf)
               ~table:1 ~primary:1
               { Ib.index_id = 2; key_cols = [ 1 ]; unique = false }
           else
             Ib.build_index ctx (Ib.default_config Ib.Sf) ~table:1
               { Ib.index_id = 2; key_cols = [ 1 ]; unique = false }));
    Sched.run ctx.Ctx.sched;
    let d = Metrics.diff ~after:(Metrics.snapshot ctx.Ctx.metrics) ~before in
    let tree = (Catalog.index ctx.Ctx.catalog 2).tree in
    TP.add_row t
      [
        (if key_order then "primary-key order (IOT)" else "RID order (heap)");
        (if oracle_ok ctx then "clean" else "VIOLATED");
        f3 (Oib_btree.Bt_check.clustering tree);
        string_of_int (Metrics.get d Sidefile_appends);
        string_of_int (Metrics.get d Sequential_reads);
      ]
  in
  run_one false;
  run_one true;
  TP.print
    ~title:
      "E13  secondary build over an index-organized table: the current-key \
       scan position replaces Current-RID (§6.2)"
    t

(* --- E14: crash + resume overhead — the sort checkpoint (§5) is the
   scan's restart record, so a resumed scan skips every page it captured
   and a mid-build crash costs only the work since the last checkpoint --- *)

type resume_measure = {
  r_alg : string;
  r_full_steps : int;
  r_crash_step : int;
  r_resumed_steps : int;  (* crashed incarnation + recovery + resume *)
  r_pages_rescanned : int;
  r_overhead_pct : float;
}

let measure_resume alg ~rows ~seed =
  let cfg =
    {
      (Ib.default_config alg) with
      ckpt_every_pages = 8;
      ckpt_every_keys = 64;
      memory_keys = 64;
    }
  in
  let fresh () =
    let ctx = Engine.create ~seed ~page_capacity:1024 () in
    let _ = Catalog.create_table ctx.Ctx.catalog ctx.Ctx.pool ~table_id:1 in
    let _ = Driver.populate ctx ~table:1 ~rows ~seed in
    ctx
  in
  let spawn_build ctx =
    ignore
      (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
           Ib.build_index ctx cfg ~table:1
             { Ib.index_id = 10; key_cols = [ 0 ]; unique = false }))
  in
  (* uninterrupted reference run *)
  let ctx = fresh () in
  let t0 = Sched.steps ctx.Ctx.sched in
  spawn_build ctx;
  Sched.run ctx.Ctx.sched;
  assert (oracle_ok ctx);
  let full = Sched.steps ctx.Ctx.sched - t0 in
  let full_reads = Metrics.get ctx.Ctx.metrics Sequential_reads in
  (* the same build, killed halfway, recovered and resumed *)
  let ctx = fresh () in
  let t0 = Sched.steps ctx.Ctx.sched in
  let crash_at = t0 + (full / 2) in
  spawn_build ctx;
  Sched.set_crash_trap ctx.Ctx.sched (fun s -> s >= crash_at);
  (match Sched.run ctx.Ctx.sched with
  | () -> failwith "resume bench: build finished before the crash point"
  | exception Sched.Crashed -> ());
  let steps1 = Sched.steps ctx.Ctx.sched - t0 in
  let ctx' = Engine.crash ctx in
  ignore
    (Sched.spawn ctx'.Ctx.sched ~name:"ib-resume" (fun () ->
         Ib.resume_builds ctx' cfg));
  Sched.run ctx'.Ctx.sched;
  assert (oracle_ok ctx');
  assert ((Catalog.index ctx'.Ctx.catalog 10).phase = Catalog.Ready);
  let total = steps1 + Sched.steps ctx'.Ctx.sched in
  {
    r_alg = alg_name alg;
    r_full_steps = full;
    r_crash_step = crash_at - t0;
    r_resumed_steps = total;
    (* metrics survive the crash, so the delta over the reference run is
       exactly the rescan (plus recovery's redo reads) the crash caused *)
    r_pages_rescanned = max 0 (Metrics.get ctx'.Ctx.metrics Sequential_reads - full_reads);
    r_overhead_pct =
      100.0 *. float_of_int (total - full) /. float_of_int (max 1 full);
  }

let resume_measures ?(rows = 2000) ?(seed = 7) () =
  List.map (fun alg -> measure_resume alg ~rows ~seed) [ Ib.Nsf; Ib.Sf ]

let e14 () =
  let t =
    TP.create
      ~columns:
        [ "alg"; "full build steps"; "crash at"; "crash+resume steps";
          "overhead"; "pages rescanned" ]
  in
  List.iter
    (fun m ->
      TP.add_row t
        [
          m.r_alg;
          string_of_int m.r_full_steps;
          string_of_int m.r_crash_step;
          string_of_int m.r_resumed_steps;
          f1 m.r_overhead_pct ^ "%";
          string_of_int m.r_pages_rescanned;
        ])
    (resume_measures ());
  TP.print
    ~title:
      "E14  crash + resume overhead: the sort checkpoint bounds the work a \
       mid-build crash costs (a resumed scan skips the pages it captured; §5)"
    t

let all =
  [
    ("e0", e0); ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11);
    ("e12", e12); ("e13", e13); ("e14", e14);
  ]
