open Oib_util

(* A leaf keeps its entries in the format of its page image: [buf] holds
   the records <8-byte kv length, kv, 8-byte RID page, 8-byte RID slot,
   flag byte> back to back in key order, [off.(i)] is where entry i
   starts in [buf], and [pfx.(i)] caches its [Ikey] prefix for the binary
   search. Writing the leaf back is a header plus one blit of
   [buf.[0..used)]. *)
type leaf = {
  mutable buf : Bytes.t;
  mutable used : int;
  mutable off : int array;
  mutable pfx : int array;
  mutable n : int;
  mutable bytes : int;
  mutable next : int;
  mutable high : Ikey.t option;
}

type internal = {
  mutable seps : Ikey.t array;
  mutable children : int array;
  mutable nc : int;
  mutable ibytes : int;
}

type node = Leaf of leaf | Internal of internal

type Oib_storage.Page.payload += Node of node

let dummy_key = Ikey.make "" Rid.minus_infinity

let leaf_entry_cost k = Ikey.encoded_size k

(* separator + child pointer + directory slot *)
let sep_cost k = Ikey.encoded_size k + 12

(* a record is its kv plus the length, RID page, RID slot and flag *)
let record_overhead = 25

let record_size (k : Ikey.t) = String.length k.kv + record_overhead

(* Records are read and written through unchecked 64-bit loads and
   stores behind explicit bounds checks, one per field read and one per
   record written: the checked library calls cost about twice as much on
   the insert path. Both are little-endian, as the image is. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let () = assert (not Sys.big_endian)

let get_int buf o =
  if o < 0 || o > Bytes.length buf - 8 then invalid_arg "Bt_node.get_int";
  Int64.to_int (get64u buf o)

let kv_length = get_int

let rid_at buf o = Rid.make ~page:(get_int buf o) ~slot:(get_int buf (o + 8))

let write_record buf o (k : Ikey.t) pseudo =
  let len = String.length k.kv in
  if o < 0 || o + len + record_overhead > Bytes.length buf then
    invalid_arg "Bt_node.write_record";
  set64u buf o (Int64.of_int len);
  Bytes.unsafe_blit_string k.kv 0 buf (o + 8) len;
  set64u buf (o + 8 + len) (Int64.of_int k.rid.Rid.page);
  set64u buf (o + 16 + len) (Int64.of_int k.rid.Rid.slot);
  Bytes.unsafe_set buf (o + 24 + len) (if pseudo then '\001' else '\000')

let new_leaf () =
  { buf = Bytes.create 256; used = 0; off = Array.make 8 0;
    pfx = Array.make 8 0; n = 0; bytes = 0; next = -1; high = None }

let new_internal ~children ~seps =
  let ibytes = Array.fold_left (fun acc s -> acc + sep_cost s) 0 seps in
  {
    seps = Array.copy seps;
    children = Array.copy children;
    nc = Array.length children;
    ibytes;
  }

(* --- leaf accessors --- *)

let leaf_n l = l.n
let leaf_bytes l = l.bytes
let leaf_next l = l.next
let leaf_set_next l next = l.next <- next
let leaf_high l = l.high
let leaf_set_high l high = l.high <- high

let check_index l i =
  if i < 0 || i >= l.n then invalid_arg "Bt_node: leaf entry index"

let leaf_key l i =
  check_index l i;
  let o = l.off.(i) in
  let len = kv_length l.buf o in
  Ikey.make (Bytes.sub_string l.buf (o + 8) len) (rid_at l.buf (o + 8 + len))

let leaf_pseudo l i =
  check_index l i;
  let o = l.off.(i) in
  Bytes.get l.buf (o + 24 + kv_length l.buf o) = '\001'

let leaf_get l i = (leaf_key l i, leaf_pseudo l i)

(* Entry i's key value against [kv], as [String.compare] orders them,
   given that their prefixes are equal: their first [Ikey.prefix_bytes]
   bytes (or all of the shorter one) then match already. *)
let compare_kv_at buf pos len kv =
  let klen = String.length kv in
  let m = if len < klen then len else klen in
  let j = ref (if m < Ikey.prefix_bytes then m else Ikey.prefix_bytes) in
  while !j < m && Bytes.get buf (pos + !j) = String.unsafe_get kv !j do
    incr j
  done;
  if !j < m then Char.compare (Bytes.get buf (pos + !j)) (String.unsafe_get kv !j)
  else Int.compare len klen

let leaf_compare_kv l i (key : Ikey.t) =
  let p = l.pfx.(i) in
  if p < key.pfx then -1
  else if p > key.pfx then 1
  else
    let o = l.off.(i) in
    compare_kv_at l.buf (o + 8) (kv_length l.buf o) key.kv

let leaf_compare l i (key : Ikey.t) =
  let p = l.pfx.(i) in
  if p < key.pfx then -1
  else if p > key.pfx then 1
  else
    let o = l.off.(i) in
    let len = kv_length l.buf o in
    match compare_kv_at l.buf (o + 8) len key.kv with
    | 0 ->
      let o = o + 8 + len in
      (match Int.compare (get_int l.buf o) key.rid.page with
      | 0 -> Int.compare (get_int l.buf (o + 8)) key.rid.slot
      | c -> c)
    | c -> c

(* --- binary node image — what actually sits in the stable store --- *)

let key_size (k : Ikey.t) = Binc.str_size k.kv + 16

let w_key w (k : Ikey.t) =
  Binc.w_str w k.kv;
  Binc.w_i64 w k.rid.Rid.page;
  Binc.w_i64 w k.rid.Rid.slot

let r_key r =
  let kv = Binc.r_str r in
  let page = Binc.r_i64 r in
  let slot = Binc.r_i64 r in
  Ikey.make kv (Rid.make ~page ~slot)

let encode_node node =
  match node with
  | Leaf l ->
    let high_size = match l.high with None -> 0 | Some h -> key_size h in
    let w = Binc.writer (26 + high_size + l.used) in
    Binc.w_u8 w 0;
    Binc.w_i64 w l.n;
    Binc.w_i64 w l.bytes;
    Binc.w_i64 w l.next;
    (match l.high with
    | None -> Binc.w_bool w false
    | Some h ->
      Binc.w_bool w true;
      w_key w h);
    Binc.w_blit w l.buf 0 l.used;
    Binc.contents w
  | Internal n ->
    let size = ref (17 + (8 * n.nc)) in
    for i = 0 to n.nc - 2 do
      size := !size + key_size n.seps.(i)
    done;
    let w = Binc.writer !size in
    Binc.w_u8 w 1;
    Binc.w_i64 w n.nc;
    Binc.w_i64 w n.ibytes;
    for i = 0 to n.nc - 1 do
      Binc.w_i64 w n.children.(i)
    done;
    for i = 0 to n.nc - 2 do
      w_key w n.seps.(i)
    done;
    Binc.contents w

(* The records after a leaf header are validated field by field as the
   reader would read them, then copied into the leaf in one blit. *)
let decode_leaf s r =
  let n = Binc.r_count r ~min_bytes:record_overhead in
  let bytes = Binc.r_i64 r in
  let next = Binc.r_i64 r in
  let high = if Binc.r_bool r then Some (r_key r) else None in
  let start = Binc.pos r in
  let off = Array.make (max 8 n) 0 and pfx = Array.make (max 8 n) 0 in
  for i = 0 to n - 1 do
    off.(i) <- Binc.pos r - start;
    let len = Binc.r_skip_str r in
    pfx.(i) <- Ikey.prefix_at s ~pos:(Binc.pos r - len) ~len;
    ignore (Binc.r_i64 r : int);
    ignore (Binc.r_i64 r : int);
    ignore (Binc.r_bool r : bool)
  done;
  let used = Binc.pos r - start in
  let buf = Bytes.create (max 256 used) in
  Bytes.blit_string s start buf 0 used;
  Leaf { buf; used; off; pfx; n; bytes; next; high }

let decode_node s =
  let r = Binc.reader s in
  let node =
    match Binc.r_u8 r with
    | 0 -> decode_leaf s r
    | 1 ->
      let nc = Binc.r_count r ~min_bytes:8 in
      if nc < 1 then raise (Binc.Corrupt "internal arity");
      let ibytes = Binc.r_i64 r in
      let children = Array.make nc (-1) in
      for i = 0 to nc - 1 do
        children.(i) <- Binc.r_i64 r
      done;
      let seps = Array.make (max 1 (nc - 1)) dummy_key in
      for i = 0 to nc - 2 do
        seps.(i) <- r_key r
      done;
      Internal { seps; children; nc; ibytes }
    | t -> raise (Binc.Corrupt (Printf.sprintf "node tag %d" t))
  in
  if not (Binc.at_end r) then raise (Binc.Corrupt "trailing bytes");
  node

let of_payload = function
  | Node n -> n
  | _ -> invalid_arg "Bt_node.of_payload: not a btree node"

let kind =
  { Oib_storage.Page.role = "Btree";
    encode = (fun p -> encode_node (of_payload p));
    decode = (fun s -> Node (decode_node s)) }

let leaf_of_payload p =
  match of_payload p with
  | Leaf l -> l
  | Internal _ -> invalid_arg "Bt_node.leaf_of_payload: internal node"

(* --- leaf operations --- *)

(* First index with entry >= key. The last entry is tried first: the
   builder's ascending inserts land past it, and then no search runs. *)
let leaf_lower_bound l key =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if leaf_compare l mid key < 0 then go (mid + 1) hi else go lo mid
  in
  let last = l.n - 1 in
  if last < 0 || leaf_compare l last key < 0 then l.n else go 0 last

let leaf_find l key =
  let i = leaf_lower_bound l key in
  if i < l.n && leaf_compare l i key = 0 then Some i else None

(* Room for one more record of [size] bytes. *)
(* The largest buffer the minor heap allocates (256 words, less the
   padding byte); a bigger one goes straight to the major heap and adds
   to its collection work. A leaf grows past it only when it must. *)
let minor_bytes = (Sys.word_size / 8 * 256) - 1

let leaf_grow l size =
  if l.used + size > Bytes.length l.buf then begin
    let need = l.used + size in
    let cap = 2 * Bytes.length l.buf in
    let cap = if cap > minor_bytes && need <= minor_bytes then minor_bytes else cap in
    let bigger = Bytes.create (if need > cap then need else cap) in
    Bytes.blit l.buf 0 bigger 0 l.used;
    l.buf <- bigger
  end;
  if l.n = Array.length l.off then begin
    let cap = 2 * Array.length l.off in
    let off = Array.make cap 0 and pfx = Array.make cap 0 in
    Array.blit l.off 0 off 0 l.n;
    Array.blit l.pfx 0 pfx 0 l.n;
    l.off <- off;
    l.pfx <- pfx
  end

let leaf_fits l ~capacity key = l.bytes + leaf_entry_cost key <= capacity

(* Add [key] past the last entry: no shifting. *)
let push l (key : Ikey.t) pseudo =
  let size = record_size key in
  leaf_grow l size;
  write_record l.buf l.used key pseudo;
  l.off.(l.n) <- l.used;
  l.pfx.(l.n) <- key.pfx;
  l.n <- l.n + 1;
  l.used <- l.used + size;
  l.bytes <- l.bytes + leaf_entry_cost key

let leaf_insert_at l i (key : Ikey.t) ~pseudo =
  if i = l.n then push l key pseudo
  else begin
    assert (leaf_compare l i key <> 0);
    let size = record_size key in
    leaf_grow l size;
    let o = l.off.(i) in
    Bytes.blit l.buf o l.buf (o + size) (l.used - o);
    write_record l.buf o key pseudo;
    Array.blit l.off i l.off (i + 1) (l.n - i);
    Array.blit l.pfx i l.pfx (i + 1) (l.n - i);
    l.off.(i) <- o;
    l.pfx.(i) <- key.pfx;
    l.n <- l.n + 1;
    for j = i + 1 to l.n - 1 do
      l.off.(j) <- l.off.(j) + size
    done;
    l.used <- l.used + size;
    l.bytes <- l.bytes + leaf_entry_cost key
  end

let leaf_insert l key ~pseudo =
  leaf_insert_at l (leaf_lower_bound l key) key ~pseudo

let leaf_append l key ~pseudo =
  assert (l.n = 0 || leaf_compare l (l.n - 1) key < 0);
  push l key pseudo

let leaf_set_flag l i pseudo =
  check_index l i;
  let o = l.off.(i) in
  Bytes.set l.buf (o + 24 + kv_length l.buf o) (if pseudo then '\001' else '\000')

let leaf_remove_at l i =
  check_index l i;
  let o = l.off.(i) in
  let len = kv_length l.buf o in
  let size = len + record_overhead in
  Bytes.blit l.buf (o + size) l.buf o (l.used - o - size);
  Array.blit l.off (i + 1) l.off i (l.n - i - 1);
  Array.blit l.pfx (i + 1) l.pfx i (l.n - i - 1);
  l.n <- l.n - 1;
  for j = i to l.n - 1 do
    l.off.(j) <- l.off.(j) - size
  done;
  l.used <- l.used - size;
  l.bytes <- l.bytes - Ikey.cost_of_kv_length len

(* Shortest separator s with [before] < s <= [first]: the shortest prefix
   of [first]'s key value that still sorts above [before]'s (classic prefix
   truncation — smaller separators mean higher internal fanout). When the
   two key values are equal (duplicates split across leaves) only the full
   entry discriminates. *)
let separator ~before ~first =
  let bkv = before.Ikey.kv and fkv = first.Ikey.kv in
  if String.compare bkv fkv >= 0 then first
  else begin
    let len = ref 1 in
    while
      !len <= String.length fkv
      && String.compare (String.sub fkv 0 !len) bkv <= 0
    do
      incr len
    done;
    if !len > String.length fkv then first
    else Ikey.make (String.sub fkv 0 !len) Rid.minus_infinity
  end

(* Move entries [from..n) to a fresh right leaf: one blit of their
   records, offsets rebased to the new buffer. *)
let take_tail l from =
  let o = if from = l.n then l.used else l.off.(from) in
  let moved = l.n - from and size = l.used - o in
  let right =
    { buf = Bytes.create (max 256 size); used = size;
      off = Array.make (max 8 moved) 0; pfx = Array.make (max 8 moved) 0;
      n = moved; bytes = 0; next = l.next; high = l.high }
  in
  Bytes.blit l.buf o right.buf 0 size;
  for j = 0 to moved - 1 do
    let ro = l.off.(from + j) - o in
    right.off.(j) <- ro;
    right.pfx.(j) <- l.pfx.(from + j);
    right.bytes <- right.bytes + Ikey.cost_of_kv_length (kv_length right.buf ro)
  done;
  l.n <- from;
  l.used <- o;
  l.bytes <- l.bytes - right.bytes;
  let first = leaf_key right 0 in
  let sep =
    if from = 0 then first
    else separator ~before:(leaf_key l (from - 1)) ~first
  in
  l.high <- Some sep;
  (right, sep)

let leaf_split_half l =
  assert (l.n >= 2);
  take_tail l (l.n / 2)

let leaf_split_above l key =
  (* first entry > key: lower_bound gives >= key; the key itself is not in
     the leaf (caller is about to insert it), so >= is >. *)
  let i = leaf_lower_bound l key in
  assert (i < l.n);
  take_tail l i

(* --- internal operations --- *)

let child_for n key =
  (* smallest i with key < seps.(i); else last child *)
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Ikey.compare key n.seps.(mid) < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (n.nc - 1)

let internal_fits n ~capacity key = n.ibytes + sep_cost key <= capacity

let internal_grow n need =
  if n.nc + need > Array.length n.children then begin
    let cap = max (2 * Array.length n.children) (n.nc + need) in
    let children = Array.make cap (-1) in
    Array.blit n.children 0 children 0 n.nc;
    n.children <- children;
    let seps = Array.make cap dummy_key in
    Array.blit n.seps 0 seps 0 (max 0 (n.nc - 1));
    n.seps <- seps
  end

let internal_insert_sep n ~at sep ~right =
  internal_grow n 1;
  (* shift children after [at], and seps from [at] *)
  Array.blit n.children (at + 1) n.children (at + 2) (n.nc - at - 1);
  Array.blit n.seps at n.seps (at + 1) (n.nc - 1 - at);
  n.children.(at + 1) <- right;
  n.seps.(at) <- sep;
  n.nc <- n.nc + 1;
  n.ibytes <- n.ibytes + sep_cost sep

let internal_append n sep ~child =
  internal_grow n 1;
  n.seps.(n.nc - 1) <- sep;
  n.children.(n.nc) <- child;
  n.nc <- n.nc + 1;
  n.ibytes <- n.ibytes + sep_cost sep

let internal_split_half n =
  assert (n.nc >= 4);
  let mid = n.nc / 2 in
  (* children[mid..] go right; seps[mid] is pushed up *)
  let push_up = n.seps.(mid - 1) in
  let right_children = Array.sub n.children mid (n.nc - mid) in
  let right_seps = Array.sub n.seps mid (n.nc - 1 - mid) in
  let right = new_internal ~children:right_children ~seps:right_seps in
  n.nc <- mid;
  n.ibytes <-
    Array.fold_left
      (fun acc i -> acc + sep_cost n.seps.(i))
      0
      (Array.init (max 0 (n.nc - 1)) Fun.id);
  (right, push_up)
