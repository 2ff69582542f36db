open Oib_util
open Log_record

(* Fields between strings are written, and read, as runs of varints,
   one call a run, through [v]: a tag, bool or key state is below 128,
   so its byte is the one-byte varint of its value. The header's run
   goes on into the body's: a writer puts a run's first [k] fields in
   [v.(0)] to [v.(k - 1)], hands [k] on and writes the run before the
   next string; a reader takes each field out of [v] before it reads the
   next run. A run holds at most a header and one body's fixed fields;
   a list of ints follows its run, and a bulk record's RIDs are a run
   of their own in [rids]. *)
let v = Array.make 16 0

let rids = ref (Array.make 256 0)

(* [!rids] with room for [n] fields. *)
let rids_for n =
  if Array.length !rids < n then
    rids := Array.make (max n (2 * Array.length !rids)) 0;
  !rids

let[@inline] put k x =
  v.(k) <- x;
  k + 1

let[@inline] flush w k = Binc.w_uvars w v k

let[@inline] of_bool b = if b then 1 else 0

let of_state = function Absent -> 0 | Present -> 1 | Pseudo_deleted -> 2

let of_algorithm = function Nsf -> 0 | Sf -> 1

(* --- writers --- *)

(* warning 4 (fragile match) is an error in the record-kind matches: a
   wildcard arm would let a new kind through unhandled *)
let[@warning "@4"] body_tag = function
  | Begin -> 1
  | Commit -> 2
  | Abort -> 3
  | End -> 4
  | Heap _ -> 5
  | Index_key _ -> 6
  | Index_bulk_insert _ -> 7
  | Sidefile_append _ -> 8
  | Clr _ -> 9
  | Build_start _ -> 10
  | Build_done _ -> 11
  | Heap_extend _ -> 12
  | Create_table _ -> 13
  | Create_index _ -> 14
  | Drop_index _ -> 15

(* The count ends the run; the ints, if any, follow it. *)
let w_ints w k l =
  flush w (put k (List.length l));
  List.iter (Binc.w_uvar w) l

let w_cols w (r : Record.t) =
  for i = 0 to Array.length r.cols - 1 do
    Binc.w_vstr w r.cols.(i)
  done

(* A bulk record's RIDs come first, as one run. Its keys are sorted, so
   each key value is front-coded against the one before it. *)
let w_sorted_keys w n keys =
  let a = rids_for (2 * n) in
  List.iteri
    (fun i (k : Ikey.t) ->
      a.(2 * i) <- k.rid.page;
      a.((2 * i) + 1) <- k.rid.slot)
    keys;
  Binc.w_uvars w a (2 * n);
  ignore
    (List.fold_left
       (fun prev (k : Ikey.t) ->
         Binc.w_front w ~prev k.kv;
         k.kv)
       "" keys
      : string)

(* The op tag, the RID, the column count and the side-file list end the
   run; the columns follow it. *)
let w_op w k tag (rid : Rid.t) (record : Record.t) sidefiled =
  let k = put (put (put k tag) rid.page) rid.slot in
  w_ints w (put k (Array.length record.cols)) sidefiled;
  w_cols w record

let w_heap w k op sidefiled =
  match op with
  | Heap_insert { rid; record } -> w_op w k 1 rid record sidefiled
  | Heap_delete { rid; record } -> w_op w k 2 rid record sidefiled
  | Heap_update { rid; old_record; new_record } ->
    w_op w k 3 rid old_record sidefiled;
    flush w (put 0 (Array.length new_record.cols));
    w_cols w new_record

(* A key's RID ends the run and its value follows. *)
let w_key w k (key : Ikey.t) =
  flush w (put (put k key.rid.page) key.rid.slot);
  Binc.w_vstr w key.kv

(* [k] fields of the run are pending; [lsn] is the frame's own: a CLR's
   undo-next is written relative to it. *)
let rec w_body w ~lsn k = function
  | Begin | Commit | Abort | End -> flush w k
  | Heap { page; visible_indexes; sidefiled; op } ->
    w_heap w (put (put k page) visible_indexes) op sidefiled
  | Index_key { redoable; op } ->
    let k = put (put k (of_bool redoable)) op.index in
    w_key w (put (put k (of_state op.before)) (of_state op.after)) op.key
  | Index_bulk_insert { index; keys } ->
    let n = List.length keys in
    flush w (put (put k index) n);
    w_sorted_keys w n keys
  | Sidefile_append { sidefile; insert; key } ->
    w_key w (put (put k sidefile) (of_bool insert)) key
  | Clr { action; undo_next } ->
    let k = put k (Binc.zigzag (lsn - Lsn.to_int undo_next)) in
    let k = put k (body_tag action) in
    (* a run ends before it could outgrow [v], however deep CLRs nest *)
    if k > 8 then begin
      flush w k;
      w_body w ~lsn 0 action
    end
    else w_body w ~lsn k action
  | Build_start { index; table; algorithm } ->
    flush w (put (put (put k index) table) (of_algorithm algorithm))
  | Build_done { index } | Drop_index { index } -> flush w (put k index)
  | Heap_extend { table; page } -> flush w (put (put k table) page)
  | Create_table { table } -> flush w (put k table)
  | Create_index { index; table; key_cols; uniq } ->
    w_ints w (put (put (put k index) table) (of_bool uniq)) key_cols

(* The frame from [at + 1] on, then its length at [at]. *)
let write_frame w ~at (t : Log_record.t) =
  let lsn = Lsn.to_int t.lsn in
  let k = put (put 0 lsn) (body_tag t.body) in
  let k = put k (Binc.zigzag (lsn - Lsn.to_int t.prev_lsn)) in
  let k = match t.txn with None -> put k 0 | Some id -> put (put k 1) id in
  w_body w ~lsn k t.body;
  Binc.w_len_at w at

(* [encode], [frame_size] and [key_size] write here; the frame the last
   [frame_size] wrote stays until the next call, for [blit_frame]. *)
let shared = Binc.scratch 4096

let frame_size t =
  Binc.rewind shared 1;
  write_frame shared ~at:0 t

let blit_frame buf ~pos =
  Bytes.blit (Binc.buffer shared) 0 buf pos (Binc.written shared)

let encode t =
  let size = frame_size t in
  Bytes.sub_string (Binc.buffer shared) 0 size

let key_size k =
  Binc.rewind shared 0;
  w_key shared 0 k;
  Binc.written shared

let frame_len buf ~pos = Binc.uvar_end buf pos - pos + Binc.uvar_at buf pos

let frame_lsn buf ~pos = Lsn.of_int (Binc.uvar_at buf (Binc.uvar_end buf pos))

(* --- readers --- *)

let[@inline] run r n = Binc.r_uvars r v n

(* The transaction id, when the frame has one, is the first field of
   the body's first run. *)
let txn_id = ref 0

(* The body's first run: the [k] header fields still unread and the
   body's [m]. Returns where the body's fields start in [v]. *)
let[@inline] first r k m =
  run r (k + m);
  if k = 1 then txn_id := v.(0);
  k

let corrupt msg = raise (Binc.Corrupt msg)

let bool = function 0 -> false | 1 -> true | _ -> corrupt "bad bool"

let state = function
  | 0 -> Absent
  | 1 -> Present
  | 2 -> Pseudo_deleted
  | n -> corrupt ("bad key state " ^ string_of_int n)

let algorithm = function
  | 0 -> Nsf
  | 1 -> Sf
  | n -> corrupt ("bad build algorithm " ^ string_of_int n)

(* A count of elements that each take at least [min_bytes] of what is
   left of the frame: one it cannot hold is refused before anything is
   allocated for it. *)
let count (r : Binc.reader) n ~min_bytes =
  if n < 0 || n > (r.limit - r.pos) / min_bytes then corrupt "bad count";
  n

let r_ints r n =
  match count r n ~min_bytes:1 with
  | 0 -> []
  | n -> List.init n (fun _ -> Binc.r_uvar r)

(* Records of one or two columns, the common ones, build their array
   in place. *)
let r_record r n =
  let cols =
    match count r n ~min_bytes:1 with
    | 0 -> [||]
    | 1 -> [| Binc.r_vstr r |]
    | 2 ->
      let a = Binc.r_vstr r in
      let b = Binc.r_vstr r in
      [| a; b |]
    | n -> Array.init n (fun _ -> Binc.r_vstr r)
  in
  Record.make cols

(* A key takes at least four bytes: page, slot, shared length and
   suffix length. *)
let r_sorted_keys r n =
  let n = count r n ~min_bytes:4 in
  let a = rids_for (2 * n) in
  Binc.r_uvars r a (2 * n);
  let rec go i prev acc =
    if i = n then List.rev acc
    else
      let kv = Binc.r_front r ~prev in
      let rid : Rid.t = { page = a.(2 * i); slot = a.((2 * i) + 1) } in
      go (i + 1) kv (Ikey.make kv rid :: acc)
  in
  go 0 "" []

let r_heap r ~o =
  let page = v.(o) and visible_indexes = v.(o + 1) and tag = v.(o + 2) in
  let rid : Rid.t = { page = v.(o + 3); slot = v.(o + 4) } in
  let ncols = v.(o + 5) and nsidefiled = v.(o + 6) in
  let sidefiled = r_ints r nsidefiled in
  let op =
    match tag with
    | 1 -> Heap_insert { rid; record = r_record r ncols }
    | 2 -> Heap_delete { rid; record = r_record r ncols }
    | 3 ->
      let old_record = r_record r ncols in
      run r 1;
      let new_record = r_record r v.(0) in
      Heap_update { rid; old_record; new_record }
    | n -> corrupt ("bad heap op tag " ^ string_of_int n)
  in
  Heap { page; visible_indexes; sidefiled; op }

(* A key's RID ends the run at [o]; its value follows. *)
let r_key r ~o =
  let rid : Rid.t = { page = v.(o); slot = v.(o + 1) } in
  Ikey.make (Binc.r_vstr r) rid

(* A body with no fields still reads the header's unread ones. *)
let empty r k body =
  ignore (first r k 0 : int);
  body

(* [k] fields of the run are still unread before the body's. *)
let rec r_body r ~lsn k tag =
  match tag with
  | 1 -> empty r k Begin
  | 2 -> empty r k Commit
  | 3 -> empty r k Abort
  | 4 -> empty r k End
  | 5 -> r_heap r ~o:(first r k 7)
  | 6 ->
    let o = first r k 6 in
    let redoable = bool v.(o) and index = v.(o + 1) in
    let before = state v.(o + 2) and after = state v.(o + 3) in
    let key = r_key r ~o:(o + 4) in
    Index_key { redoable; op = { index; key; before; after } }
  | 7 ->
    let o = first r k 2 in
    let index = v.(o) in
    Index_bulk_insert { index; keys = r_sorted_keys r v.(o + 1) }
  | 8 ->
    let o = first r k 4 in
    let sidefile = v.(o) and insert = bool v.(o + 1) in
    Sidefile_append { sidefile; insert; key = r_key r ~o:(o + 2) }
  | 9 ->
    let o = first r k 2 in
    let undo_next = Lsn.of_int (lsn - Binc.unzigzag v.(o)) in
    Clr { action = r_body r ~lsn 0 v.(o + 1); undo_next }
  | 10 ->
    let o = first r k 3 in
    Build_start
      { index = v.(o); table = v.(o + 1); algorithm = algorithm v.(o + 2) }
  | 11 -> Build_done { index = v.(first r k 1) }
  | 12 ->
    let o = first r k 2 in
    Heap_extend { table = v.(o); page = v.(o + 1) }
  | 13 -> Create_table { table = v.(first r k 1) }
  | 14 ->
    let o = first r k 4 in
    let index = v.(o) and table = v.(o + 1) and uniq = bool v.(o + 2) in
    Create_index { index; table; uniq; key_cols = r_ints r v.(o + 3) }
  | 15 -> Drop_index { index = v.(first r k 1) }
  | n -> corrupt ("bad body tag " ^ string_of_int n)

(* The header's run is the LSN, the body's tag, the prev-LSN delta and
   the transaction tag; the id, if there is one, starts the body's. *)
let decode_sub s ~pos ~limit =
  if pos >= limit then None
  else
    match Binc.block s ~pos ~limit with
    | None -> None
    | Some r ->
      run r 4;
      let lsn = v.(0) and tag = v.(1) and zprev = v.(2) in
      let k =
        match v.(3) with
        | (0 | 1) as k -> k
        | n -> corrupt ("bad txn tag " ^ string_of_int n)
      in
      let body = r_body r ~lsn k tag in
      if r.pos <> r.limit then corrupt "frame length mismatch";
      let txn = if k = 1 then Some !txn_id else None in
      let prev_lsn = Lsn.of_int (lsn - Binc.unzigzag zprev) in
      Some ({ lsn = Lsn.of_int lsn; txn; prev_lsn; body }, r.pos)

let decode s ~pos = decode_sub s ~pos ~limit:(String.length s)

(* The reader never writes, and every string it returns is a copy (or a
   key value decoded earlier), so viewing the segment as a string for
   one decode is safe. *)
let decode_bytes buf ~pos ~limit =
  decode_sub (Bytes.unsafe_to_string buf) ~pos ~limit

let decode_stream s =
  let rec go pos acc =
    match decode s ~pos with
    | None -> List.rev acc
    | Some (r, next) -> go next (r :: acc)
  in
  go 0 []
