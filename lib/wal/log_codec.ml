open Oib_util
open Log_record

(* --- writers --- *)

let w_rid w (r : Rid.t) =
  Binc.w_i64 w r.page;
  Binc.w_i64 w r.slot

let w_key w (k : Ikey.t) =
  Binc.w_str w k.kv;
  w_rid w k.rid

let w_record w (r : Record.t) =
  Binc.w_i64 w (Array.length r.cols);
  Array.iter (Binc.w_str w) r.cols

let w_state w = function
  | Absent -> Binc.w_u8 w 0
  | Present -> Binc.w_u8 w 1
  | Pseudo_deleted -> Binc.w_u8 w 2

let w_heap_op w = function
  | Heap_insert { rid; record } ->
    Binc.w_u8 w 1;
    w_rid w rid;
    w_record w record
  | Heap_delete { rid; record } ->
    Binc.w_u8 w 2;
    w_rid w rid;
    w_record w record
  | Heap_update { rid; old_record; new_record } ->
    Binc.w_u8 w 3;
    w_rid w rid;
    w_record w old_record;
    w_record w new_record

let rec w_body w = function
  | Begin -> Binc.w_u8 w 1
  | Commit -> Binc.w_u8 w 2
  | Abort -> Binc.w_u8 w 3
  | End -> Binc.w_u8 w 4
  | Heap { page; visible_indexes; sidefiled; op } ->
    Binc.w_u8 w 5;
    Binc.w_i64 w page;
    Binc.w_i64 w visible_indexes;
    Binc.w_i64 w (List.length sidefiled);
    List.iter (Binc.w_i64 w) sidefiled;
    w_heap_op w op
  | Index_key { redoable; op } ->
    Binc.w_u8 w 6;
    Binc.w_bool w redoable;
    Binc.w_i64 w op.index;
    w_key w op.key;
    w_state w op.before;
    w_state w op.after
  | Index_bulk_insert { index; keys } ->
    Binc.w_u8 w 7;
    Binc.w_i64 w index;
    Binc.w_i64 w (List.length keys);
    List.iter (w_key w) keys
  | Sidefile_append { sidefile; insert; key } ->
    Binc.w_u8 w 8;
    Binc.w_i64 w sidefile;
    Binc.w_bool w insert;
    w_key w key
  | Clr { action; undo_next } ->
    Binc.w_u8 w 9;
    Binc.w_i64 w (Lsn.to_int undo_next);
    w_body w action
  | Build_start { index; table } ->
    Binc.w_u8 w 10;
    Binc.w_i64 w index;
    Binc.w_i64 w table
  | Build_done { index } ->
    Binc.w_u8 w 11;
    Binc.w_i64 w index
  | Heap_extend { table; page } ->
    Binc.w_u8 w 12;
    Binc.w_i64 w table;
    Binc.w_i64 w page
  | Create_table { table } ->
    Binc.w_u8 w 13;
    Binc.w_i64 w table
  | Create_index { index; table; key_cols; uniq } ->
    Binc.w_u8 w 14;
    Binc.w_i64 w index;
    Binc.w_i64 w table;
    Binc.w_bool w uniq;
    Binc.w_i64 w (List.length key_cols);
    List.iter (Binc.w_i64 w) key_cols
  | Drop_index { index } ->
    Binc.w_u8 w 15;
    Binc.w_i64 w index
  | Index_state { index; state } ->
    Binc.w_u8 w 16;
    Binc.w_i64 w index;
    Binc.w_i64 w state

(* Exact image sizes, field for field as the writers above lay them
   out, so [encode] fills one buffer of the frame's size. *)
let key_size (k : Ikey.t) = Binc.str_size k.kv + 16

let record_size (r : Record.t) =
  Array.fold_left (fun acc c -> acc + Binc.str_size c) 8 r.cols

let heap_op_size = function
  | Heap_insert { record; _ } | Heap_delete { record; _ } ->
    17 + record_size record
  | Heap_update { old_record; new_record; _ } ->
    17 + record_size old_record + record_size new_record

let rec body_size = function
  | Begin | Commit | Abort | End -> 1
  | Heap { sidefiled; op; _ } ->
    25 + (8 * List.length sidefiled) + heap_op_size op
  | Index_key { op; _ } -> 12 + key_size op.key
  | Index_bulk_insert { keys; _ } ->
    List.fold_left (fun acc k -> acc + key_size k) 17 keys
  | Sidefile_append { key; _ } -> 10 + key_size key
  | Clr { action; _ } -> 9 + body_size action
  | Build_start _ | Heap_extend _ -> 17
  | Build_done _ | Create_table _ | Drop_index _ -> 9
  | Create_index { key_cols; _ } -> 26 + (8 * List.length key_cols)
  | Index_state _ -> 17

let frame_size (t : Log_record.t) =
  8 + 16 + (match t.txn with None -> 1 | Some _ -> 9) + body_size t.body

let write w ~size (t : Log_record.t) =
  Binc.w_i64 w (size - 8);
  Binc.w_i64 w (Lsn.to_int t.lsn);
  (match t.txn with
  | None -> Binc.w_u8 w 0
  | Some id ->
    Binc.w_u8 w 1;
    Binc.w_i64 w id);
  Binc.w_i64 w (Lsn.to_int t.prev_lsn);
  w_body w t.body

let encode_into buf ~pos ~size t = write (Binc.writer_at buf pos) ~size t

let frame_len buf ~pos = 8 + Int64.to_int (Bytes.get_int64_le buf pos)

let frame_lsn buf ~pos =
  Lsn.of_int (Int64.to_int (Bytes.get_int64_le buf (pos + 8)))

let encode t =
  let size = frame_size t in
  let w = Binc.writer size in
  write w ~size t;
  Binc.contents w

(* --- primitive readers --- *)

(* Reads stop at [limit], not at the end of [s]: a log segment's bytes
   past its last frame are unwritten. *)
type cursor = { s : Bytes.t; mutable pos : int; limit : int }

let fail msg = failwith ("Log_codec: corrupt log: " ^ msg)

let r_u8 c =
  if c.pos >= c.limit then fail "eof in u8";
  let v = Char.code (Bytes.get c.s c.pos) in
  c.pos <- c.pos + 1;
  v

let r_i64 c =
  if c.pos + 8 > c.limit then fail "eof in i64";
  let v = Int64.to_int (Bytes.get_int64_le c.s c.pos) in
  c.pos <- c.pos + 8;
  v

let r_str c =
  let n = r_i64 c in
  if n < 0 || c.pos + n > c.limit then fail "bad string length";
  let v = Bytes.sub_string c.s c.pos n in
  c.pos <- c.pos + n;
  v

let r_bool c = r_u8 c <> 0

let r_rid c =
  let page = r_i64 c in
  let slot = r_i64 c in
  Rid.make ~page ~slot

let r_key c =
  let kv = r_str c in
  let rid = r_rid c in
  Ikey.make kv rid

let r_record c =
  let n = r_i64 c in
  if n < 0 || n > 1_000_000 then fail "bad record arity";
  Record.make (Array.init n (fun _ -> r_str c))

let r_state c =
  match r_u8 c with
  | 0 -> Absent
  | 1 -> Present
  | 2 -> Pseudo_deleted
  | n -> fail ("bad key state " ^ string_of_int n)

let r_heap_op c =
  match r_u8 c with
  | 1 ->
    let rid = r_rid c in
    let record = r_record c in
    Heap_insert { rid; record }
  | 2 ->
    let rid = r_rid c in
    let record = r_record c in
    Heap_delete { rid; record }
  | 3 ->
    let rid = r_rid c in
    let old_record = r_record c in
    let new_record = r_record c in
    Heap_update { rid; old_record; new_record }
  | n -> fail ("bad heap op tag " ^ string_of_int n)

let rec r_body c =
  match r_u8 c with
  | 1 -> Begin
  | 2 -> Commit
  | 3 -> Abort
  | 4 -> End
  | 5 ->
    let page = r_i64 c in
    let visible_indexes = r_i64 c in
    let nsf = r_i64 c in
    if nsf < 0 || nsf > 1000 then fail "bad sidefiled arity";
    let sidefiled = List.init nsf (fun _ -> r_i64 c) in
    let op = r_heap_op c in
    Heap { page; visible_indexes; sidefiled; op }
  | 6 ->
    let redoable = r_bool c in
    let index = r_i64 c in
    let key = r_key c in
    let before = r_state c in
    let after = r_state c in
    Index_key { redoable; op = { index; key; before; after } }
  | 7 ->
    let index = r_i64 c in
    let n = r_i64 c in
    if n < 0 || n > 10_000_000 then fail "bad bulk arity";
    let keys = List.init n (fun _ -> r_key c) in
    Index_bulk_insert { index; keys }
  | 8 ->
    let sidefile = r_i64 c in
    let insert = r_bool c in
    let key = r_key c in
    Sidefile_append { sidefile; insert; key }
  | 9 ->
    let undo_next = Lsn.of_int (r_i64 c) in
    let action = r_body c in
    Clr { action; undo_next }
  | 10 ->
    let index = r_i64 c in
    let table = r_i64 c in
    Build_start { index; table }
  | 11 ->
    let index = r_i64 c in
    Build_done { index }
  | 12 ->
    let table = r_i64 c in
    let page = r_i64 c in
    Heap_extend { table; page }
  | 13 ->
    let table = r_i64 c in
    Create_table { table }
  | 14 ->
    let index = r_i64 c in
    let table = r_i64 c in
    let uniq = r_bool c in
    let n = r_i64 c in
    if n < 0 || n > 1000 then fail "bad key_cols arity";
    let key_cols = List.init n (fun _ -> r_i64 c) in
    Create_index { index; table; key_cols; uniq }
  | 15 ->
    let index = r_i64 c in
    Drop_index { index }
  | 16 ->
    let index = r_i64 c in
    let state = r_i64 c in
    Index_state { index; state }
  | n -> fail ("bad body tag " ^ string_of_int n)

let decode_bytes s ~pos ~limit =
  if pos + 8 > limit then None
  else begin
    let size = frame_len s ~pos in
    if size < 8 then fail "negative frame length";
    if pos + size > limit then None
    else begin
      let c = { s; pos = pos + 8; limit } in
      let lsn = Lsn.of_int (r_i64 c) in
      let txn = match r_u8 c with 0 -> None | _ -> Some (r_i64 c) in
      let prev_lsn = Lsn.of_int (r_i64 c) in
      let body = r_body c in
      if c.pos <> pos + size then fail "frame length mismatch";
      Some ({ lsn; txn; prev_lsn; body }, c.pos)
    end
  end

(* The cursor only reads, so viewing the string as bytes is safe. *)
let decode s ~pos =
  decode_bytes (Bytes.unsafe_of_string s) ~pos ~limit:(String.length s)

let decode_stream s =
  let rec go pos acc =
    match decode s ~pos with
    | None -> List.rev acc
    | Some (r, next) -> go next (r :: acc)
  in
  go 0 []
