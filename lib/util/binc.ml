type writer = { buf : Bytes.t; mutable wpos : int }

type reader = { s : string; mutable pos : int }

exception Corrupt of string

let writer size = { buf = Bytes.create size; wpos = 0 }

let writer_at buf off = { buf; wpos = off }

let contents w =
  if w.wpos = Bytes.length w.buf then Bytes.unsafe_to_string w.buf
  else Bytes.sub_string w.buf 0 w.wpos

let w_u8 w v =
  Bytes.set w.buf w.wpos (Char.unsafe_chr (v land 0xff));
  w.wpos <- w.wpos + 1

let w_i64 w v =
  Bytes.set_int64_le w.buf w.wpos (Int64.of_int v);
  w.wpos <- w.wpos + 8

let w_bool w b = w_u8 w (if b then 1 else 0)

let w_blit w b off len =
  Bytes.blit b off w.buf w.wpos len;
  w.wpos <- w.wpos + len

let w_str w s =
  let n = String.length s in
  w_i64 w n;
  Bytes.blit_string s 0 w.buf w.wpos n;
  w.wpos <- w.wpos + n

let str_size s = 8 + String.length s

let reader s = { s; pos = 0 }

let fail msg = raise (Corrupt msg)

let r_u8 r =
  if r.pos >= String.length r.s then fail "eof in u8";
  let v = Char.code r.s.[r.pos] in
  r.pos <- r.pos + 1;
  v

let remaining r = String.length r.s - r.pos

let r_i64 r =
  if remaining r < 8 then fail "eof in i64";
  let v64 = String.get_int64_le r.s r.pos in
  let v = Int64.to_int v64 in
  (* [w_i64] only writes values an [int] holds *)
  if Int64.of_int v <> v64 then fail "i64 out of int range";
  r.pos <- r.pos + 8;
  v

let r_bool r =
  match r_u8 r with 0 -> false | 1 -> true | _ -> fail "bad bool"

let r_count r ~min_bytes =
  let n = r_i64 r in
  if n < 0 || n > remaining r / min_bytes then fail "bad count";
  n

let r_skip_str r =
  let n = r_i64 r in
  if n < 0 || n > remaining r then fail "bad string length";
  r.pos <- r.pos + n;
  n

let r_str r =
  let n = r_skip_str r in
  String.sub r.s (r.pos - n) n

let pos r = r.pos

let at_end r = r.pos = String.length r.s
