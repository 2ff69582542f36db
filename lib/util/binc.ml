type writer = { mutable buf : Bytes.t; mutable wpos : int; grows : bool }

type reader = { s : string; mutable pos : int; mutable limit : int }

exception Corrupt of string

let writer size = { buf = Bytes.create size; wpos = 0; grows = false }

let scratch size = { buf = Bytes.create (max 16 size); wpos = 0; grows = true }

let contents w =
  if w.wpos = Bytes.length w.buf then Bytes.unsafe_to_string w.buf
  else Bytes.sub_string w.buf 0 w.wpos

let written w = w.wpos

let buffer w = w.buf

let rewind w pos =
  if pos < 0 || pos > Bytes.length w.buf then invalid_arg "Binc.rewind";
  w.wpos <- pos

let grow w n =
  if not w.grows then invalid_arg "Binc: write past the end of a fixed writer";
  let cap = ref (2 * Bytes.length w.buf) in
  while !cap < w.wpos + n do
    cap := 2 * !cap
  done;
  let buf = Bytes.create !cap in
  Bytes.blit w.buf 0 buf 0 w.wpos;
  w.buf <- buf

(* Room for [n] more bytes: a scratch writer grows, a fixed one raises. *)
let[@inline] room w n = if w.wpos + n > Bytes.length w.buf then grow w n

let w_u8 w v =
  room w 1;
  Bytes.unsafe_set w.buf w.wpos (Char.unsafe_chr (v land 0xff));
  w.wpos <- w.wpos + 1

let w_i64 w v =
  room w 8;
  Bytes.set_int64_le w.buf w.wpos (Int64.of_int v);
  w.wpos <- w.wpos + 8

let w_bool w b = w_u8 w (if b then 1 else 0)

let w_blit w b off len =
  room w len;
  Bytes.blit b off w.buf w.wpos len;
  w.wpos <- w.wpos + len

let w_str w s =
  let n = String.length s in
  w_i64 w n;
  room w n;
  Bytes.blit_string s 0 w.buf w.wpos n;
  w.wpos <- w.wpos + n

let str_size s = 8 + String.length s

(* --- varints --- *)

(* LEB128 over the int's 63 bits taken as unsigned: seven bits a byte,
   low group first, the top bit set on every byte but the last. A
   negative int takes nine bytes. Loops keep their state in local refs,
   not in a local recursive function, which would be a closure built on
   every call. *)
let uvar_size v =
  if v land lnot 0x7f = 0 then 1
  else if v land lnot 0x3fff = 0 then 2
  else if v land lnot 0x1f_ffff = 0 then 3
  else begin
    let v = ref (v lsr 21) and n = ref 4 in
    while !v land lnot 0x7f <> 0 do
      v := !v lsr 7;
      incr n
    done;
    !n
  end

(* The caller has checked that [uvar_size v] bytes fit at [pos]. *)
let[@inline] put_uvar b pos v =
  let v = ref v and p = ref pos in
  while !v land lnot 0x7f <> 0 do
    Bytes.unsafe_set b !p (Char.unsafe_chr (!v land 0x7f lor 0x80));
    v := !v lsr 7;
    incr p
  done;
  Bytes.unsafe_set b !p (Char.unsafe_chr !v);
  !p + 1

(* One to three bytes, values below 2^21, are written without a loop. *)
let[@inline] w_uvar w v =
  if v land lnot 0x7f = 0 then begin
    room w 1;
    Bytes.unsafe_set w.buf w.wpos (Char.unsafe_chr v);
    w.wpos <- w.wpos + 1
  end
  else if v land lnot 0x3fff = 0 then begin
    room w 2;
    let b = w.buf and p = w.wpos in
    Bytes.unsafe_set b p (Char.unsafe_chr (v land 0x7f lor 0x80));
    Bytes.unsafe_set b (p + 1) (Char.unsafe_chr (v lsr 7));
    w.wpos <- p + 2
  end
  else if v land lnot 0x1f_ffff = 0 then begin
    room w 3;
    let b = w.buf and p = w.wpos in
    Bytes.unsafe_set b p (Char.unsafe_chr (v land 0x7f lor 0x80));
    Bytes.unsafe_set b (p + 1)
      (Char.unsafe_chr ((v lsr 7) land 0x7f lor 0x80));
    Bytes.unsafe_set b (p + 2) (Char.unsafe_chr (v lsr 14));
    w.wpos <- p + 3
  end
  else begin
    room w (uvar_size v);
    w.wpos <- put_uvar w.buf w.wpos v
  end

(* The length usually fits the one byte left for it; a longer one moves
   what it counts up to make room. *)
let w_len_at w off =
  let len = w.wpos - off - 1 in
  if off < 0 || len < 0 then invalid_arg "Binc.w_len_at";
  if len < 0x80 then begin
    Bytes.unsafe_set w.buf off (Char.unsafe_chr len);
    len + 1
  end
  else begin
    let n = uvar_size len in
    room w (n - 1);
    Bytes.blit w.buf (off + 1) w.buf (off + n) len;
    w.wpos <- w.wpos + n - 1;
    ignore (put_uvar w.buf off len : int);
    len + n
  end

(* Zigzag: 0, -1, 1, -2, ... map to 0, 1, 2, 3, ..., so a small
   magnitude of either sign takes few bytes. *)
let zigzag v = (v lsl 1) lxor (v asr 62)

(* When nine bytes a value fit, the run is written under one room check,
   with no call in the loop, so its state stays in registers. *)
let w_uvars w (a : int array) n =
  if n > Array.length a then invalid_arg "Binc.w_uvars";
  if w.wpos + (9 * n) > Bytes.length w.buf then
    for i = 0 to n - 1 do
      w_uvar w (Array.unsafe_get a i)
    done
  else begin
    let p = ref w.wpos in
    for i = 0 to n - 1 do
      p := put_uvar w.buf !p (Array.unsafe_get a i)
    done;
    w.wpos <- !p
  end

let w_vstr w s =
  let n = String.length s in
  w_uvar w n;
  room w n;
  Bytes.unsafe_blit_string s 0 w.buf w.wpos n;
  w.wpos <- w.wpos + n

(* A shared length and a rest below 128, the common case, are one byte
   each, written under one room check. *)
let w_front w ~prev s =
  let n = String.length s in
  let max_shared = Int.min n (String.length prev) in
  let k = ref 0 in
  while
    !k < max_shared && String.unsafe_get s !k = String.unsafe_get prev !k
  do
    incr k
  done;
  let k = !k in
  let rest = n - k in
  if k < 0x80 && rest < 0x80 && w.wpos + 2 + rest <= Bytes.length w.buf
  then begin
    let b = w.buf and p = w.wpos in
    Bytes.unsafe_set b p (Char.unsafe_chr k);
    Bytes.unsafe_set b (p + 1) (Char.unsafe_chr rest);
    Bytes.unsafe_blit_string s k b (p + 2) rest;
    w.wpos <- p + 2 + rest
  end
  else begin
    w_uvar w k;
    w_uvar w rest;
    room w rest;
    Bytes.unsafe_blit_string s k w.buf w.wpos rest;
    w.wpos <- w.wpos + rest
  end

(* --- readers --- *)

let reader s = { s; pos = 0; limit = String.length s }

let fail msg = raise (Corrupt msg)

let remaining r = r.limit - r.pos

let r_u8 r =
  if r.pos >= r.limit then fail "eof in u8";
  let v = Char.code (String.unsafe_get r.s r.pos) in
  r.pos <- r.pos + 1;
  v

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

(* Only what [w_uvar] writes is accepted: at most nine bytes, the ninth
   holding the last seven of the 63 bits, and no zero high byte. *)
let r_uvar_loop r =
  let p = ref r.pos and shift = ref 0 and acc = ref 0 and last = ref false in
  while not !last do
    if !p >= r.limit then fail "eof in varint";
    let c = Char.code (String.unsafe_get r.s !p) in
    incr p;
    acc := !acc lor ((c land 0x7f) lsl !shift);
    if c < 0x80 then begin
      if c = 0 && !shift > 0 then fail "overlong varint";
      last := true
    end
    else if !shift = 56 then fail "varint longer than nine bytes"
    else shift := !shift + 7
  done;
  r.pos <- !p;
  !acc

(* A varint whose first byte is not its last, or none at all. Two and
   three bytes, values below 2^21, are read with no loop and no call, so
   nothing is kept on the stack. *)
let r_uvar_slow r =
  let s = r.s and p = r.pos in
  if p + 3 <= r.limit then begin
    let c1 = Char.code (String.unsafe_get s (p + 1)) in
    let lo = Char.code (String.unsafe_get s p) land 0x7f in
    if c1 > 0 && c1 < 0x80 then begin
      r.pos <- p + 2;
      lo lor (c1 lsl 7)
    end
    else begin
      let c2 = Char.code (String.unsafe_get s (p + 2)) in
      if c1 >= 0x80 && c2 > 0 && c2 < 0x80 then begin
        r.pos <- p + 3;
        lo lor ((c1 land 0x7f) lsl 7) lor (c2 lsl 14)
      end
      else r_uvar_loop r
    end
  end
  else r_uvar_loop r

let[@inline] r_uvar r =
  let p = r.pos in
  if p < r.limit && Char.code (String.unsafe_get r.s p) < 0x80 then begin
    r.pos <- p + 1;
    Char.code (String.unsafe_get r.s p)
  end
  else r_uvar_slow r

let r_uvars r (dst : int array) n =
  if n > Array.length dst then invalid_arg "Binc.r_uvars";
  for i = 0 to n - 1 do
    Array.unsafe_set dst i (r_uvar r)
  done

let unzigzag z = (z lsr 1) lxor -(z land 1)

let uvar_end b pos =
  let p = ref pos in
  while Bytes.get b !p >= '\x80' do
    incr p
  done;
  !p + 1

let uvar_at b pos =
  let c = Char.code (Bytes.get b pos) in
  if c < 0x80 then c
  else begin
    let p = ref pos and shift = ref 0 and acc = ref 0 and c = ref c in
    while !c >= 0x80 do
      acc := !acc lor ((!c land 0x7f) lsl !shift);
      shift := !shift + 7;
      incr p;
      c := Char.code (Bytes.get b !p)
    done;
    !acc lor (!c lsl !shift)
  end

let block s ~pos ~limit =
  if pos < 0 || limit > String.length s || pos > limit then
    invalid_arg "Binc.block";
  if pos < limit && Char.code (String.unsafe_get s pos) < 0x80 then begin
    (* a one-byte length, the common case *)
    let n = Char.code (String.unsafe_get s pos) in
    if n > limit - pos - 1 then None
    else Some { s; pos = pos + 1; limit = pos + 1 + n }
  end
  else begin
    (* a length whose last byte lies past the limit was cut short *)
    let p = ref pos in
    while
      !p < limit && !p - pos < 9 && Char.code (String.unsafe_get s !p) >= 0x80
    do
      incr p
    done;
    if !p >= limit then None
    else begin
      let r = { s; pos; limit } in
      let n = r_uvar r in
      if n < 0 then fail "bad block length";
      if n > remaining r then None
      else begin
        r.limit <- r.pos + n;
        Some r
      end
    end
  end

let r_vstr r =
  let n = r_uvar r in
  if n < 0 || n > remaining r then fail "bad string length";
  let b = Bytes.create n in
  Bytes.unsafe_blit_string r.s r.pos b 0 n;
  r.pos <- r.pos + n;
  Bytes.unsafe_to_string b

(* Two one-byte lengths, the common case, are read with no call. *)
let r_front r ~prev =
  let p = r.pos in
  let k, n =
    if p + 2 <= r.limit
       && Char.code (String.unsafe_get r.s p) < 0x80
       && Char.code (String.unsafe_get r.s (p + 1)) < 0x80
    then begin
      r.pos <- p + 2;
      (Char.code (String.unsafe_get r.s p), Char.code (String.unsafe_get r.s (p + 1)))
    end
    else begin
      let k = r_uvar r in
      let n = r_uvar r in
      (k, n)
    end
  in
  if k < 0 || k > String.length prev then fail "bad shared prefix";
  if n < 0 || n > remaining r then fail "bad string length";
  let s =
    if n = 0 && k = String.length prev then prev
    else begin
      let b = Bytes.create (k + n) in
      Bytes.unsafe_blit_string prev 0 b 0 k;
      Bytes.unsafe_blit_string r.s r.pos b k n;
      Bytes.unsafe_to_string b
    end
  in
  r.pos <- r.pos + n;
  s

let pos r = r.pos

let at_end r = r.pos = r.limit
