open Oib_util
module LR = Oib_wal.Log_record
module Lsn = Oib_wal.Lsn
module Codec = Oib_wal.Log_codec
module LM = Oib_wal.Log_manager

(* --- generators for log records --- *)

let gen_rid =
  QCheck.Gen.(
    map2 (fun p s -> Rid.make ~page:p ~slot:s) (int_bound 1000) (int_bound 100))

let gen_key =
  QCheck.Gen.(
    map2 (fun s rid -> Ikey.make s rid) (string_size (int_range 0 20)) gen_rid)

let gen_record =
  QCheck.Gen.(
    map Record.make (array_size (int_range 1 4) (string_size (int_range 0 10))))

let gen_state = QCheck.Gen.oneofl [ LR.Absent; LR.Present; LR.Pseudo_deleted ]

let gen_heap_op =
  QCheck.Gen.(
    oneof
      [
        map2 (fun rid record -> LR.Heap_insert { rid; record }) gen_rid gen_record;
        map2 (fun rid record -> LR.Heap_delete { rid; record }) gen_rid gen_record;
        map3
          (fun rid old_record new_record ->
            LR.Heap_update { rid; old_record; new_record })
          gen_rid gen_record gen_record;
      ])

let gen_body_base =
  QCheck.Gen.(
    oneof
      [
        oneofl [ LR.Begin; LR.Commit; LR.Abort; LR.End ];
        (let* page = int_bound 500
         and* visible_indexes = int_bound 5
         and* sidefiled = list_size (int_range 0 3) (int_bound 10)
         and* op = gen_heap_op in
         return (LR.Heap { page; visible_indexes; sidefiled; op }));
        (let* redoable = bool
         and* index = int_bound 10
         and* key = gen_key
         and* before = gen_state
         and* after = gen_state in
         return (LR.Index_key { redoable; op = { index; key; before; after } }));
        map2
          (fun index keys -> LR.Index_bulk_insert { index; keys })
          (int_bound 10)
          (list_size (int_range 0 20) gen_key);
        map3
          (fun sidefile insert key -> LR.Sidefile_append { sidefile; insert; key })
          (int_bound 10) bool gen_key;
        map2 (fun index table -> LR.Build_start { index; table }) (int_bound 10)
          (int_bound 10);
        map (fun index -> LR.Build_done { index }) (int_bound 10);
        map2 (fun table page -> LR.Heap_extend { table; page }) (int_bound 10)
          (int_bound 500);
        map (fun table -> LR.Create_table { table }) (int_bound 10);
        (let* index = int_bound 10
         and* table = int_bound 10
         and* key_cols = list_size (int_range 0 3) (int_bound 5)
         and* uniq = bool in
         return (LR.Create_index { index; table; key_cols; uniq }));
        map (fun index -> LR.Drop_index { index }) (int_bound 10);
      ])

let gen_body =
  QCheck.Gen.(
    oneof
      [
        gen_body_base;
        map2
          (fun action undo_next ->
            LR.Clr { action; undo_next = Lsn.of_int undo_next })
          gen_body_base (int_bound 10_000);
      ])

let gen_log_record =
  QCheck.Gen.(
    let* lsn = int_range 1 1_000_000
    and* txn = opt (int_bound 1000)
    and* prev = int_bound 1_000_000
    and* body = gen_body in
    return { LR.lsn = Lsn.of_int lsn; txn; prev_lsn = Lsn.of_int prev; body })

let arb_log_record =
  QCheck.make ~print:(Format.asprintf "%a" LR.pp) gen_log_record

let prop_roundtrip =
  QCheck.Test.make ~name:"codec roundtrip" ~count:500 arb_log_record (fun r ->
      match Codec.decode (Codec.encode r) ~pos:0 with
      | Some (r', _) -> r = r'
      | None -> false)

let prop_stream_roundtrip =
  QCheck.Test.make ~name:"stream roundtrip" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 0 20) arb_log_record)
    (fun rs ->
      let bytes = String.concat "" (List.map Codec.encode rs) in
      Codec.decode_stream bytes = rs)

let prop_truncated_tail_dropped =
  QCheck.Test.make ~name:"torn tail ignored" ~count:200 arb_log_record (fun r ->
      let bytes = Codec.encode r in
      let torn = String.sub bytes 0 (String.length bytes - 1) in
      Codec.decode_stream torn = [])

let test_corrupt_raises () =
  let r =
    { LR.lsn = Lsn.of_int 1; txn = None; prev_lsn = Lsn.nil; body = LR.Begin }
  in
  let bytes = Bytes.of_string (Codec.encode r) in
  (* stomp the body tag with garbage *)
  Bytes.set bytes (Bytes.length bytes - 1) '\xee';
  match Codec.decode_stream (Bytes.to_string bytes) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "corrupt tag accepted"

(* --- log manager --- *)

let mk () = LM.create (Oib_sim.Metrics.create ())

let test_lsn_monotonic () =
  let lm = mk () in
  let l1 = LM.append lm ~txn:(Some 1) ~prev_lsn:Lsn.nil LR.Begin in
  let l2 = LM.append lm ~txn:(Some 1) ~prev_lsn:l1 LR.Commit in
  Alcotest.(check bool) "increasing" true (Lsn.( < ) l1 l2);
  Alcotest.(check int) "last" (Lsn.to_int l2) (Lsn.to_int (LM.last_lsn lm))

let test_flush_and_crash () =
  let lm = mk () in
  let l1 = LM.append lm ~txn:(Some 1) ~prev_lsn:Lsn.nil LR.Begin in
  let _l2 = LM.append lm ~txn:(Some 1) ~prev_lsn:l1 LR.Commit in
  let l3 = LM.append lm ~txn:(Some 2) ~prev_lsn:Lsn.nil LR.Begin in
  LM.flush lm ~upto:l1;
  let survivor = LM.crash lm in
  let records = LM.durable_records survivor in
  Alcotest.(check int) "only flushed survive" 1 (List.length records);
  Alcotest.(check bool) "it is l1" true
    (match records with [ r ] -> Lsn.equal r.LR.lsn l1 | _ -> false);
  (* LSNs must not be reused after restart *)
  let l4 = LM.append survivor ~txn:(Some 3) ~prev_lsn:Lsn.nil LR.Begin in
  Alcotest.(check bool) "no reuse" true (Lsn.( > ) l4 l1);
  ignore l3

let test_flush_is_prefix () =
  let lm = mk () in
  let lsns =
    List.init 10 (fun i ->
        LM.append lm ~txn:(Some i) ~prev_lsn:Lsn.nil LR.Begin)
  in
  LM.flush lm ~upto:(List.nth lsns 4);
  let survivor = LM.crash lm in
  let got = List.map (fun r -> r.LR.lsn) (LM.durable_records survivor) in
  Alcotest.(check (list int))
    "first five, in order"
    (List.map Lsn.to_int (List.filteri (fun i _ -> i < 5) lsns))
    (List.map Lsn.to_int got)

let test_flush_all () =
  let lm = mk () in
  let l1 = LM.append lm ~txn:(Some 1) ~prev_lsn:Lsn.nil LR.Begin in
  Alcotest.(check int) "nothing durable yet" 0 (LM.durable_bytes lm);
  LM.flush_all lm;
  Alcotest.(check int) "flushed to last" (Lsn.to_int l1)
    (Lsn.to_int (LM.flushed_lsn lm));
  Alcotest.(check int) "tail drained" 0 (LM.unflushed_bytes lm);
  match LM.durable_records lm with
  | [ r ] -> Alcotest.(check bool) "body" true (r.LR.body = LR.Begin)
  | _ -> Alcotest.fail "one durable record expected"

let test_crash_keeps_durable_bytes () =
  let lm = mk () in
  let l1 = LM.append lm ~txn:(Some 1) ~prev_lsn:Lsn.nil LR.Begin in
  let _ = LM.append lm ~txn:(Some 1) ~prev_lsn:l1 LR.Commit in
  LM.flush lm ~upto:l1;
  let _ = LM.append lm ~txn:(Some 2) ~prev_lsn:Lsn.nil LR.Begin in
  let survivor = LM.crash lm in
  Alcotest.(check int) "same durable bytes" (LM.durable_bytes lm)
    (LM.durable_bytes survivor);
  Alcotest.(check int) "no tail" 0 (LM.unflushed_bytes survivor);
  Alcotest.(check bool) "same records" true
    (LM.durable_records survivor = LM.durable_records lm);
  Alcotest.(check int) "all_records = durable" 1
    (List.length (LM.all_records survivor))

(* --- log manager against a model --- *)

(* One step of the model test. *)
type op =
  | Append of LR.txn_id option * LR.body
  | Sized of int (* a frame of exactly this many bytes *)
  | Fill (* a frame that exactly fills the tail segment *)
  | Flush of int (* upto = flushed_lsn + k: below, inside or past the tail *)
  | Flush_all
  | Flush_sealed (* upto the last frame before the first volatile segment break *)
  | Crash
  | Truncate of int (* below = start_lsn + k *)

let seg = LM.segment_size

let sized_body len =
  LR.Index_key
    {
      redoable = true;
      op =
        {
          index = 0;
          key = Ikey.make (String.make len 'k') (Rid.make ~page:1 ~slot:2);
          before = LR.Absent;
          after = LR.Present;
        };
    }

(* The smallest frame [Sized] can make. *)
let min_sized =
  Codec.frame_size
    { LR.lsn = Lsn.nil; txn = Some 1; prev_lsn = Lsn.nil; body = sized_body 0 }

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (10, map2 (fun txn body -> Append (txn, body)) (opt (int_bound 50)) gen_body);
        ( 3,
          map (fun n -> Sized n)
            (oneof
               [
                 int_range min_sized 3000;
                 int_range (seg - 100) (seg + 100);
                 int_range (seg + 1) (2 * seg);
               ]) );
        (2, return Fill);
        (4, map (fun k -> Flush k) (int_range (-2) 40));
        (1, return Flush_all);
        (2, return Flush_sealed);
        (1, return Crash);
        (2, map (fun k -> Truncate k) (int_range 0 25));
      ])

let print_op = function
  | Append (_, body) -> "append " ^ Format.asprintf "%a" LR.pp_body body
  | Sized n -> Printf.sprintf "sized %d" n
  | Fill -> "fill"
  | Flush k -> Printf.sprintf "flush +%d" k
  | Flush_all -> "flush_all"
  | Flush_sealed -> "flush_sealed"
  | Crash -> "crash"
  | Truncate k -> Printf.sprintf "truncate +%d" k

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 60) gen_op)

(* The model: retained frames split at the durable position, oldest
   first, and where the tail segment stands, which [Fill] needs. The
   segment placement only steers the sizes [Fill] asks for; every check
   is on what the log returns. *)
type model = {
  mutable durable : LR.t list;
  mutable volatile : (LR.t * (int * int)) list; (* with the tail after it *)
  mutable flushed : Lsn.t;
  mutable start : Lsn.t;
  mutable tail : (int * int) option; (* capacity, fill *)
  mutable last_durable : (int * int) option; (* the tail after it *)
}

let encoded rs = String.concat "" (List.map Codec.encode rs)

let place m size =
  m.tail <-
    (match m.tail with
    | Some (cap, fill) when fill + size <= cap -> Some (cap, fill + size)
    | _ -> Some (max seg size, size))

let check_against lm m =
  let reference rs = Codec.decode_stream (encoded rs) in
  let ok =
    LM.durable_records lm = reference m.durable
    && LM.all_records lm = reference (m.durable @ List.map fst m.volatile)
    && LM.durable_bytes lm = String.length (encoded m.durable)
    && LM.unflushed_bytes lm
       = String.length (encoded (List.map fst m.volatile))
    && Lsn.equal (LM.flushed_lsn lm) m.flushed
    && Lsn.equal (LM.start_lsn lm) m.start
  in
  if not ok then
    QCheck.Test.fail_reportf
      "log diverged: %d/%d durable/all records (model %d/%d), %d/%d bytes \
       (model %d/%d), flushed %d (model %d), start %d (model %d)"
      (List.length (LM.durable_records lm))
      (List.length (LM.all_records lm))
      (List.length m.durable)
      (List.length m.durable + List.length m.volatile)
      (LM.durable_bytes lm) (LM.unflushed_bytes lm)
      (String.length (encoded m.durable))
      (String.length (encoded (List.map fst m.volatile)))
      (Lsn.to_int (LM.flushed_lsn lm))
      (Lsn.to_int m.flushed)
      (Lsn.to_int (LM.start_lsn lm))
      (Lsn.to_int m.start)

let prop_log_model =
  QCheck.Test.make ~name:"log manager = encoded frames" ~count:150 arb_ops
    (fun ops ->
      let lm = ref (mk ()) in
      let m =
        { durable = []; volatile = []; flushed = Lsn.nil; start = Lsn.nil;
          tail = None; last_durable = None }
      in
      (* crashed logs, with the records they held when they crashed *)
      let dead = ref [] in
      let append txn body =
        let prev_lsn = Lsn.of_int 7 in
        let lsn = LM.append !lm ~txn ~prev_lsn body in
        let r = { LR.lsn; txn; prev_lsn; body } in
        place m (Codec.frame_size r);
        m.volatile <- m.volatile @ [ (r, Option.get m.tail) ]
      in
      let sized n = append (Some 1) (sized_body (n - min_sized)) in
      let flushed upto =
        let now, later =
          List.partition (fun (r, _) -> Lsn.( <= ) r.LR.lsn upto) m.volatile
        in
        if now <> [] then begin
          let last, tail = List.nth now (List.length now - 1) in
          m.durable <- m.durable @ List.map fst now;
          m.volatile <- later;
          m.flushed <- last.LR.lsn;
          m.last_durable <- Some tail
        end
      in
      List.iter
        (fun op ->
          (match op with
          | Append (txn, body) -> append txn body
          | Sized n -> sized n
          | Fill ->
            let room =
              match m.tail with Some (cap, fill) -> cap - fill | None -> seg
            in
            sized (if room >= min_sized then room else seg)
          | Flush k ->
            let upto = Lsn.of_int (max 0 (Lsn.to_int (LM.flushed_lsn !lm) + k)) in
            LM.flush !lm ~upto;
            flushed upto
          | Flush_all ->
            LM.flush_all !lm;
            flushed (LM.last_lsn !lm)
          | Flush_sealed ->
            (* a frame at offset 0 opened a segment and sealed the one
               before it *)
            let rec before_break prev = function
              | (r, (_, fill)) :: rest ->
                if prev <> None && fill = Codec.frame_size r then prev
                else before_break (Some r) rest
              | [] -> None
            in
            Option.iter
              (fun (r : LR.t) ->
                LM.flush !lm ~upto:r.lsn;
                flushed r.lsn)
              (before_break None m.volatile)
          | Crash ->
            dead :=
              (!lm, LM.durable_records !lm, LM.all_records !lm) :: !dead;
            lm := LM.crash !lm;
            m.volatile <- [];
            m.tail <- m.last_durable
          | Truncate k ->
            let below = Lsn.of_int (Lsn.to_int m.start + k) in
            let cut, kept =
              List.partition (fun r -> Lsn.( < ) r.LR.lsn below) m.durable
            in
            let reclaimed = LM.truncate !lm ~below in
            if reclaimed <> String.length (encoded cut) then
              QCheck.Test.fail_reportf "truncate reclaimed %d bytes, model %d"
                reclaimed (String.length (encoded cut));
            m.durable <- kept;
            if Lsn.( > ) below m.start then m.start <- below);
          check_against !lm m)
        ops;
      (* appends to a survivor never show in the log it came from *)
      List.for_all
        (fun (old, durable, all) ->
          LM.durable_records old = durable && LM.all_records old = all)
        !dead)

let test_is_redoable_undoable () =
  let key = Ikey.make "k" (Rid.make ~page:0 ~slot:0) in
  let ixop r =
    LR.Index_key
      { redoable = r; op = { index = 0; key; before = LR.Absent; after = LR.Present } }
  in
  Alcotest.(check bool) "undo-only not redoable" false (LR.is_redoable (ixop false));
  Alcotest.(check bool) "normal index op redoable" true (LR.is_redoable (ixop true));
  Alcotest.(check bool) "undo-only is undoable" true (LR.is_undoable (ixop false));
  Alcotest.(check bool) "clr not undoable" false
    (LR.is_undoable (LR.Clr { action = ixop true; undo_next = Lsn.nil }));
  Alcotest.(check bool) "sidefile append not undoable" false
    (LR.is_undoable (LR.Sidefile_append { sidefile = 0; insert = true; key }))

let () =
  Alcotest.run "wal"
    [
      ( "codec",
        Alcotest.test_case "corrupt raises" `Quick test_corrupt_raises
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_roundtrip; prop_stream_roundtrip; prop_truncated_tail_dropped ]
      );
      ( "manager",
        [
          Alcotest.test_case "lsn monotonic" `Quick test_lsn_monotonic;
          Alcotest.test_case "flush and crash" `Quick test_flush_and_crash;
          Alcotest.test_case "flush is prefix" `Quick test_flush_is_prefix;
          Alcotest.test_case "flush_all" `Quick test_flush_all;
          Alcotest.test_case "crash keeps durable bytes" `Quick
            test_crash_keeps_durable_bytes;
          QCheck_alcotest.to_alcotest prop_log_model;
        ] );
      ( "classification",
        [ Alcotest.test_case "redoable/undoable" `Quick test_is_redoable_undoable ]
      );
    ]
