type writer = Buffer.t

type reader = { s : string; mutable pos : int }

exception Corrupt of string

let writer () = Buffer.create 256

let contents = Buffer.contents

let w_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

let w_i64 buf v = Buffer.add_int64_le buf (Int64.of_int v)

let w_bool buf b = w_u8 buf (if b then 1 else 0)

let w_str buf s =
  w_i64 buf (String.length s);
  Buffer.add_string buf s

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

let r_str r =
  let n = r_i64 r in
  if n < 0 || n > remaining r then fail "bad string length";
  let v = String.sub r.s r.pos n in
  r.pos <- r.pos + n;
  v

let at_end r = r.pos = String.length r.s
