open Oib_util
module LR = Oib_wal.Log_record
module Lsn = Oib_wal.Lsn
module Codec = Oib_wal.Log_codec
module LM = Oib_wal.Log_manager

(* --- generators for log records --- *)

(* Every generator takes its ints and strings from [num] and [str], so
   the same bodies are drawn with small values for the log-manager model
   and with varint boundaries for the codec. *)
let gen_rid_of ~num =
  QCheck.Gen.(map2 (fun p s -> Rid.make ~page:p ~slot:s) num num)

let gen_key_of ~num ~str =
  QCheck.Gen.(map2 (fun s rid -> Ikey.make s rid) str (gen_rid_of ~num))

let gen_record_of ~str =
  QCheck.Gen.(map Record.make (array_size (int_range 1 4) str))

let gen_state = QCheck.Gen.oneofl [ LR.Absent; LR.Present; LR.Pseudo_deleted ]

let gen_heap_op_of ~num ~str =
  let gen_rid = gen_rid_of ~num and gen_record = gen_record_of ~str in
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

let gen_body_base_of ~num ~str =
  let gen_key = gen_key_of ~num ~str in
  QCheck.Gen.(
    oneof
      [
        oneofl [ LR.Begin; LR.Commit; LR.Abort; LR.End ];
        (let* page = num
         and* visible_indexes = num
         and* sidefiled = list_size (int_range 0 3) num
         and* op = gen_heap_op_of ~num ~str in
         return (LR.Heap { page; visible_indexes; sidefiled; op }));
        (let* redoable = bool
         and* index = num
         and* key = gen_key
         and* before = gen_state
         and* after = gen_state in
         return (LR.Index_key { redoable; op = { index; key; before; after } }));
        map2
          (fun index keys -> LR.Index_bulk_insert { index; keys })
          num
          (list_size (int_range 0 20) gen_key);
        map3
          (fun sidefile insert key -> LR.Sidefile_append { sidefile; insert; key })
          num bool gen_key;
        map3
          (fun index table sf ->
            LR.Build_start
              { index; table; algorithm = (if sf then LR.Sf else LR.Nsf) })
          num num bool;
        map (fun index -> LR.Build_done { index }) num;
        map2 (fun table page -> LR.Heap_extend { table; page }) num num;
        map (fun table -> LR.Create_table { table }) num;
        (let* index = num
         and* table = num
         and* key_cols = list_size (int_range 0 3) num
         and* uniq = bool in
         return (LR.Create_index { index; table; key_cols; uniq }));
        map (fun index -> LR.Drop_index { index }) num;
      ])

let gen_body_of ~num ~str =
  QCheck.Gen.(
    oneof
      [
        gen_body_base_of ~num ~str;
        map2
          (fun action undo_next ->
            LR.Clr { action; undo_next = Lsn.of_int undo_next })
          (gen_body_base_of ~num ~str) num;
      ])

let gen_log_record_of ~num ~str =
  QCheck.Gen.(
    let* lsn = num
    and* txn = opt num
    and* prev = num
    and* body = gen_body_of ~num ~str in
    return { LR.lsn = Lsn.of_int lsn; txn; prev_lsn = Lsn.of_int prev; body })

let small_int = QCheck.Gen.int_bound 1000

let small_str = QCheck.Gen.(string_size (int_range 0 20))

let gen_body = gen_body_of ~num:small_int ~str:small_str

let gen_log_record =
  QCheck.Gen.(
    let* lsn = int_range 1 1_000_000
    and* txn = opt (int_bound 1000)
    and* prev = int_bound 1_000_000
    and* body = gen_body in
    return { LR.lsn = Lsn.of_int lsn; txn; prev_lsn = Lsn.of_int prev; body })

(* Ints on each side of every varint width (one byte holds 0..127
   unsigned and -64..63 zigzag), the extremes, and strings whose length
   prefix is one, two or three bytes. *)
let edge_int =
  QCheck.Gen.(
    oneof
      [
        oneofl
          [ 0; 1; -1; 63; 64; -64; -65; 127; 128; (1 lsl 14) - 1; 1 lsl 14;
            (1 lsl 21) - 1; 1 lsl 21; (1 lsl 28) - 1; 1 lsl 28; max_int;
            min_int; Lsn.to_int Lsn.nil ];
        int;
      ])

let edge_str_of lengths =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> String.make n 'v') (oneofl lengths);
        string_size (int_range 0 20);
      ])

let arb_edge_record_of lengths =
  QCheck.make ~print:(Format.asprintf "%a" LR.pp)
    (gen_log_record_of ~num:edge_int ~str:(edge_str_of lengths))

let arb_edge_record = arb_edge_record_of [ 0; 127; 128; 16_384 ]

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
  | exception Binc.Corrupt _ -> ()
  | _ -> Alcotest.fail "corrupt tag accepted"

let prop_edge_roundtrip =
  QCheck.Test.make ~name:"roundtrip and frame_size at varint boundaries"
    ~count:1000 arb_edge_record (fun r ->
      let s = Codec.encode r in
      match Codec.decode s ~pos:0 with
      | Some (r', n) ->
        r = r' && n = String.length s && Codec.frame_size r = n
      | None -> false)

(* A frame cut anywhere before its end is incomplete or corrupt, never
   a record. Strings stop at 128 bytes: every cut is one decode. *)
let prop_cut_frame =
  QCheck.Test.make ~name:"cut frame never decodes" ~count:200
    (arb_edge_record_of [ 0; 127; 128 ]) (fun r ->
      let s = Codec.encode r in
      let b = Bytes.of_string s in
      let refused f =
        match f () with
        | None | (exception Binc.Corrupt _) -> true
        | Some _ -> false
      in
      List.for_all
        (fun k ->
          refused (fun () -> Codec.decode (String.sub s 0 k) ~pos:0)
          && refused (fun () -> Codec.decode_bytes b ~pos:0 ~limit:k))
        (List.init (String.length s) Fun.id))

(* The byte at which two encodings of the same shape differ. *)
let differing_byte a b =
  let rec go i = if a.[i] <> b.[i] then i else go (i + 1) in
  go 0

let set_byte s i c =
  let b = Bytes.of_string s in
  Bytes.set b i c;
  Bytes.to_string b

let rejected s =
  match Codec.decode s ~pos:0 with
  | exception Binc.Corrupt _ -> true
  | _ -> false

let test_bool_bytes_strict () =
  let key = Ikey.make "k0000042" (Rid.make ~page:3 ~slot:4) in
  let frame insert =
    Codec.encode
      { LR.lsn = Lsn.of_int 9; txn = Some 2; prev_lsn = Lsn.of_int 8;
        body = LR.Sidefile_append { sidefile = 10; insert; key } }
  in
  let on = frame true in
  let at = differing_byte on (frame false) in
  Alcotest.(check bool) "insert byte 7 refused" true
    (rejected (set_byte on at '\x07'));
  let txn_frame txn =
    Codec.encode
      { LR.lsn = Lsn.of_int 9; txn; prev_lsn = Lsn.nil; body = LR.Commit }
  in
  (* the transaction tag follows the length, the LSN, the body's tag and
     the prev-LSN delta, one byte each here *)
  let tagged = txn_frame (Some 0) in
  Alcotest.(check char) "tag byte" '\x01' tagged.[4];
  Alcotest.(check bool) "txn tag 7 refused" true
    (rejected (set_byte tagged 4 '\x07'));
  Alcotest.(check bool) "overlong varint refused" true
    (rejected
       (let s = txn_frame None in
        (* the LSN 9 as two bytes, 0x89 0x00, with the length grown by one *)
        String.make 1 (Char.chr (Char.code s.[0] + 1))
        ^ "\x89\x00"
        ^ String.sub s 2 (String.length s - 2)))

(* The sizes a return to fixed-width fields would inflate: 11, 9, 24 and
   48 bytes here against 34, 34, 76 and 127 with 8-byte fields. *)
let test_compact_sizes () =
  let lsn = Lsn.of_int 100_000 and prev_lsn = Lsn.of_int 99_990 in
  let size ?(prev_lsn = prev_lsn) body =
    Codec.frame_size { LR.lsn; txn = Some 1_000; prev_lsn; body }
  in
  let rid = Rid.make ~page:300 ~slot:17 in
  Alcotest.(check int) "begin" 11 (size ~prev_lsn:Lsn.nil LR.Begin);
  Alcotest.(check int) "commit" 9 (size LR.Commit);
  Alcotest.(check int) "7-byte index key" 24
    (size
       (LR.Index_key
          { redoable = true;
            op = { index = 10; key = Ikey.make "k000042" rid;
                   before = LR.Absent; after = LR.Present } }));
  Alcotest.(check int) "two-column heap insert" 48
    (size
       (LR.Heap
          { page = 300; visible_indexes = 1; sidefiled = [];
            op =
              LR.Heap_insert
                { rid; record = Record.make [| "k0000042"; String.make 20 'p' |] }
          }))

(* Sorted keys share prefixes, and a bulk record stores each shared
   prefix once. *)
let test_bulk_front_coded () =
  let keys =
    List.init 100 (fun i ->
        Ikey.make (Printf.sprintf "k%06d" i) (Rid.make ~page:i ~slot:1))
  in
  let r =
    { LR.lsn = Lsn.of_int 5; txn = None; prev_lsn = Lsn.nil;
      body = LR.Index_bulk_insert { index = 10; keys } }
  in
  let size = Codec.frame_size r in
  (* 7-byte values stored whole would take 700 bytes alone *)
  Alcotest.(check bool) (Printf.sprintf "%d bytes for 100 keys" size) true
    (size < 100 * 7);
  match Codec.decode (Codec.encode r) ~pos:0 with
  | Some (r', _) -> Alcotest.(check bool) "roundtrip" true (r = r')
  | None -> Alcotest.fail "bulk frame did not decode"

(* What [append] copies into a segment is [encode]'s frame, including
   frames whose length prefix takes two or three bytes and so moves the
   body. *)
let test_blit_frame () =
  let frame len =
    { LR.lsn = Lsn.of_int 300; txn = Some 4; prev_lsn = Lsn.of_int 299;
      body =
        LR.Sidefile_append
          { sidefile = 1; insert = true;
            key = Ikey.make (String.make len 'e') (Rid.make ~page:1 ~slot:2) } }
  in
  List.iter
    (fun len ->
      let r = frame len in
      let s = Codec.encode r in
      let n = Codec.frame_size r in
      Alcotest.(check int) "frame_size" (String.length s) n;
      let buf = Bytes.make (n + 4) '\xff' in
      Codec.blit_frame buf ~pos:3;
      Alcotest.(check string) "same bytes" s (Bytes.sub_string buf 3 n);
      Alcotest.(check char) "nothing past it" '\xff' (Bytes.get buf (n + 3)))
    (List.init 8 (fun i -> 112 + i) @ List.init 6 (fun i -> 16_370 + i) @ [ 0 ])

(* A run of varints of every width reads back whole and one at a time,
   through the fast path (room for nine bytes a value) and through a
   scratch writer that has to grow; the unchecked header reads agree,
   and a run cut one byte short is corrupt. *)
let test_varint_runs () =
  let vals =
    [| 0; 1; -1; 127; 128; 255; (1 lsl 14) - 1; 1 lsl 14; (1 lsl 21) - 1;
       1 lsl 21; (1 lsl 28) - 1; 1 lsl 28; max_int; min_int; 300; 5 |]
  in
  let n = Array.length vals in
  List.iter
    (fun cap ->
      let w = Binc.scratch cap in
      Binc.w_uvars w vals n;
      let b = Bytes.sub (Binc.buffer w) 0 (Binc.written w) in
      let s = Bytes.to_string b in
      let all = Array.make n 0 in
      Binc.r_uvars (Binc.reader s) all n;
      Alcotest.(check (array int)) "run" vals all;
      let r = Binc.reader s and pos = ref 0 in
      Array.iter
        (fun x ->
          Alcotest.(check int) "one at a time" x (Binc.r_uvar r);
          Alcotest.(check int) "uvar_at" x (Binc.uvar_at b !pos);
          pos := Binc.uvar_end b !pos;
          Alcotest.(check int) "uvar_end" (Binc.pos r) !pos)
        vals;
      Alcotest.(check bool) "at end" true (Binc.at_end r);
      match
        Binc.r_uvars (Binc.reader (String.sub s 0 (String.length s - 1))) all n
      with
      | () -> Alcotest.fail "cut run decoded"
      | exception Binc.Corrupt _ -> ())
    [ 4096; 16 ]

(* Header reads agree with full decodes, frame after frame, over a log
   larger than several segments and LSNs of every varint width. *)
let test_header_walk () =
  let rand = Random.State.make [| 29 |] in
  let gen = gen_log_record_of ~num:edge_int ~str:small_str in
  let records = ref [] and total = ref 0 in
  while !total < 3 * LM.segment_size do
    let r = QCheck.Gen.generate1 ~rand gen in
    records := r :: !records;
    total := !total + Codec.frame_size r
  done;
  let records = List.rev !records in
  let buf = Bytes.of_string (String.concat "" (List.map Codec.encode records)) in
  let limit = Bytes.length buf in
  let pos =
    List.fold_left
      (fun pos (r : LR.t) ->
        match Codec.decode_bytes buf ~pos ~limit with
        | Some (r', next) ->
          if r' <> r then Alcotest.fail "decode differs";
          Alcotest.(check int) "frame_len" (next - pos)
            (Codec.frame_len buf ~pos);
          Alcotest.(check int) "frame_lsn" (Lsn.to_int r.lsn)
            (Lsn.to_int (Codec.frame_lsn buf ~pos));
          Alcotest.(check bool) "frame alone" true
            (Codec.decode_bytes buf ~pos ~limit:next = Some (r, next));
          next
        | None -> Alcotest.fail "frame missing")
      0 records
  in
  Alcotest.(check int) "walked to the end" limit pos

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

let sized_body ~page len =
  LR.Index_key
    {
      redoable = true;
      op =
        {
          index = 0;
          key = Ikey.make (String.make len 'k') (Rid.make ~page ~slot:2);
          before = LR.Absent;
          after = LR.Present;
        };
    }

let sized_size ~lsn ~page len =
  Codec.frame_size
    { LR.lsn; txn = Some 1; prev_lsn = Lsn.of_int 7; body = sized_body ~page len }

(* A body whose frame at [lsn] takes exactly [n] bytes, or [n - 1] when
   none does: the length prefix grows by a byte when what it counts
   reaches 128 bytes, so no frame takes 129. Each byte of key value adds
   one byte, and at most two more where a varint length grows; a page of
   0, 128, 2^14, 2^21 or 2^28 adds 0 to 4 bytes, which fills that gap. *)
let sized_body_for ~lsn n =
  let rec fit n len =
    if len < 0 then fit (n - 1) (n - 1 - sized_size ~lsn ~page:0 0)
    else
      match
        List.find_opt
          (fun page -> sized_size ~lsn ~page len = n)
          [ 0; 128; 1 lsl 14; 1 lsl 21; 1 lsl 28 ]
      with
      | Some page -> sized_body ~page len
      | None -> fit n (len - 1)
  in
  fit n (n - sized_size ~lsn ~page:0 0)

(* The smallest frame [Sized] can make, at any LSN the test reaches. *)
let min_sized = sized_size ~lsn:(Lsn.of_int 1_000_000) ~page:0 0

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
      let sized n =
        append (Some 1) (sized_body_for ~lsn:(Lsn.next (LM.last_lsn !lm)) n)
      in
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

let test_is_undoable () =
  let key = Ikey.make "k" (Rid.make ~page:0 ~slot:0) in
  let ixop r =
    LR.Index_key
      { redoable = r; op = { index = 0; key; before = LR.Absent; after = LR.Present } }
  in
  Alcotest.(check bool) "undo-only is undoable" true (LR.is_undoable (ixop false));
  Alcotest.(check bool) "clr not undoable" false
    (LR.is_undoable (LR.Clr { action = ixop true; undo_next = Lsn.nil }));
  Alcotest.(check bool) "sidefile append not undoable" false
    (LR.is_undoable (LR.Sidefile_append { sidefile = 0; insert = true; key }))

let () =
  Alcotest.run "wal"
    [
      ( "codec",
        [
          Alcotest.test_case "corrupt raises" `Quick test_corrupt_raises;
          Alcotest.test_case "bool and txn tag bytes strict" `Quick
            test_bool_bytes_strict;
          Alcotest.test_case "compact sizes" `Quick test_compact_sizes;
          Alcotest.test_case "bulk keys front-coded" `Quick test_bulk_front_coded;
          Alcotest.test_case "header walk = decode" `Quick test_header_walk;
          Alcotest.test_case "varint runs" `Quick test_varint_runs;
          Alcotest.test_case "blit_frame copies encode's frame" `Quick test_blit_frame;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_roundtrip; prop_stream_roundtrip; prop_truncated_tail_dropped;
              prop_edge_roundtrip; prop_cut_frame ] );
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
        [ Alcotest.test_case "undoable" `Quick test_is_undoable ]
      );
    ]
