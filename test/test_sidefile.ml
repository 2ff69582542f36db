open Oib_util
module SF = Oib_sidefile.Side_file
module LR = Oib_wal.Log_record
module LM = Oib_wal.Log_manager
module Lsn = Oib_wal.Lsn
module Restart = Oib_core.Restart

(* the side-file restart rebuilds from the decoded durable log *)
let rebuild log ~sidefile_id =
  Restart.sidefile (Restart.analyze (LM.durable_records log)) ~sidefile_id

let key i = Ikey.make (Printf.sprintf "k%03d" i) (Rid.make ~page:i ~slot:0)

let test_append_order () =
  let sf = SF.create ~sidefile_id:7 in
  Alcotest.(check int) "pos 0" 0 (SF.apply_append sf ~insert:true (key 1));
  Alcotest.(check int) "pos 1" 1 (SF.apply_append sf ~insert:false (key 2));
  Alcotest.(check int) "length" 2 (SF.length sf);
  let e = SF.get sf 0 in
  Alcotest.(check bool) "first entry" true (e.SF.insert && Ikey.equal e.key (key 1))

let test_slice_bounds () =
  let sf = SF.create ~sidefile_id:1 in
  for i = 0 to 9 do
    ignore (SF.apply_append sf ~insert:true (key i))
  done;
  Alcotest.(check int) "slice size" 3 (List.length (SF.slice sf ~from:2 ~upto:5));
  Alcotest.(check int) "overrun clamped" 2 (List.length (SF.slice sf ~from:8 ~upto:99));
  Alcotest.(check int) "empty" 0 (List.length (SF.slice sf ~from:5 ~upto:5))

let test_sorted_slice_stable () =
  let sf = SF.create ~sidefile_id:1 in
  (* same key, alternating ops: relative order must survive the sort *)
  ignore (SF.apply_append sf ~insert:true (key 5));
  ignore (SF.apply_append sf ~insert:true (key 1));
  ignore (SF.apply_append sf ~insert:false (key 5));
  ignore (SF.apply_append sf ~insert:true (key 5));
  let sorted = SF.sorted_slice sf ~from:0 ~upto:4 in
  let key5_ops =
    List.filter_map
      (fun (e : SF.entry) ->
        if Ikey.equal e.key (key 5) then Some e.insert else None)
      sorted
  in
  Alcotest.(check (list bool)) "stable within equal keys" [ true; false; true ]
    key5_ops;
  (* and globally sorted *)
  let keys = List.map (fun (e : SF.entry) -> e.SF.key) sorted in
  Alcotest.(check bool) "sorted" true
    (List.sort Ikey.compare keys = keys)

let test_rebuild_from_log () =
  let metrics = Oib_sim.Metrics.create () in
  let log = LM.create metrics in
  let append sidefile insert k prev =
    LM.append log ~txn:(Some 1) ~prev_lsn:prev
      (LR.Sidefile_append { sidefile; insert; key = k })
  in
  let l1 = append 7 true (key 1) Lsn.nil in
  let l2 = append 8 true (key 9) l1 in
  let l3 = append 7 false (key 2) l2 in
  (* a CLR-wrapped compensating append must also be recovered *)
  let _ =
    LM.append log ~txn:(Some 1) ~prev_lsn:l3
      (LR.Clr
         {
           action = LR.Sidefile_append { sidefile = 7; insert = true; key = key 3 };
           undo_next = Lsn.nil;
         })
  in
  LM.flush_all log;
  let survivor = LM.crash log in
  let sf = rebuild survivor ~sidefile_id:7 in
  Alcotest.(check int) "only sidefile 7's entries, incl. CLRs" 3 (SF.length sf);
  Alcotest.(check bool) "order preserved" true
    ((SF.get sf 0).insert && not (SF.get sf 1).insert && (SF.get sf 2).insert)

let test_rebuild_ignores_unflushed () =
  let metrics = Oib_sim.Metrics.create () in
  let log = LM.create metrics in
  let l1 =
    LM.append log ~txn:(Some 1) ~prev_lsn:Lsn.nil
      (LR.Sidefile_append { sidefile = 7; insert = true; key = key 1 })
  in
  LM.flush log ~upto:l1;
  let _ =
    LM.append log ~txn:(Some 1) ~prev_lsn:l1
      (LR.Sidefile_append { sidefile = 7; insert = true; key = key 2 })
  in
  let survivor = LM.crash log in
  let sf = rebuild survivor ~sidefile_id:7 in
  Alcotest.(check int) "lost tail dropped" 1 (SF.length sf)

let prop_rebuild_roundtrip =
  QCheck.Test.make ~name:"rebuild equals flushed appends" ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 0 40) (pair bool (int_bound 50)))
    (fun ops ->
      let metrics = Oib_sim.Metrics.create () in
      let log = LM.create metrics in
      let sf = SF.create ~sidefile_id:3 in
      let prev = ref Lsn.nil in
      List.iter
        (fun (insert, i) ->
          prev :=
            LM.append log ~txn:(Some 1) ~prev_lsn:!prev
              (LR.Sidefile_append { sidefile = 3; insert; key = key i });
          ignore (SF.apply_append sf ~insert (key i)))
        ops;
      LM.flush_all log;
      let sf' = rebuild (LM.crash log) ~sidefile_id:3 in
      SF.length sf' = SF.length sf
      && List.for_all
           (fun i ->
             let a = SF.get sf i and b = SF.get sf' i in
             a.SF.insert = b.SF.insert && Ikey.equal a.key b.key)
           (List.init (SF.length sf) Fun.id))

let () =
  Alcotest.run "sidefile"
    [
      ( "basics",
        [
          Alcotest.test_case "append order" `Quick test_append_order;
          Alcotest.test_case "slice bounds" `Quick test_slice_bounds;
          Alcotest.test_case "sorted slice stable" `Quick test_sorted_slice_stable;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "rebuild from log" `Quick test_rebuild_from_log;
          Alcotest.test_case "unflushed appends lost" `Quick
            test_rebuild_ignores_unflushed;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_rebuild_roundtrip ]);
    ]
