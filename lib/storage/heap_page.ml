open Oib_util

(* A heap page keeps its slots in the format of its page image: [buf]
   holds exactly the bytes [encode] returns, [buf.[0..len)], and
   [off.(i)] is where slot i's tag byte sits in [buf]. The image is a
   24-byte header <capacity, slot count, used bytes>, then per slot a tag
   (0 free, 1 reserved, 2 record) followed, for a reservation, by its
   8-byte charge, and for a record by its 8-byte column count and each
   column as <8-byte length, bytes>. Slot i ends where slot i + 1 starts
   (or at [len]). [nslots] and [used_bytes] mirror the header's fields,
   which every mutation rewrites. The directory is not part of the image:
   decode rebuilds it. *)
type t = {
  capacity : int;
  mutable buf : Bytes.t;
  mutable len : int;
  mutable off : int array;
  mutable nslots : int;
  mutable used_bytes : int;
}

type Page.payload += Heap of t

let slot_overhead = 4

let header_bytes = 24

let free_tag = '\000'
let reserved_tag = '\001'
let record_tag = '\002'

let get_int buf o = Int64.to_int (Bytes.get_int64_le buf o)
let set_int buf o v = Bytes.set_int64_le buf o (Int64.of_int v)

let set_nslots t n =
  t.nslots <- n;
  set_int t.buf 8 n

let set_used t u =
  t.used_bytes <- u;
  set_int t.buf 16 u

let create ~capacity =
  let buf = Bytes.create 256 in
  set_int buf 0 capacity;
  set_int buf 8 0;
  set_int buf 16 0;
  { capacity; buf; len = header_bytes; off = Array.make 8 0; nslots = 0;
    used_bytes = 0 }

(* binary page image — what actually sits in the stable store *)
let encode t = Bytes.sub_string t.buf 0 t.len

(* One validating walk, with every check the image's reader makes, then
   one copy of the image. *)
let decode s =
  let r = Binc.reader s in
  let capacity = Binc.r_i64 r in
  (* every slot takes at least its tag byte *)
  let nslots = Binc.r_count r ~min_bytes:1 in
  let used_bytes = Binc.r_i64 r in
  let off = Array.make (max 8 nslots) 0 in
  for i = 0 to nslots - 1 do
    off.(i) <- Binc.pos r;
    match Binc.r_u8 r with
    | 0 -> ()
    | 1 -> ignore (Binc.r_i64 r : int)
    | 2 ->
      (* every column takes at least its length prefix *)
      let n = Binc.r_count r ~min_bytes:8 in
      for _ = 1 to n do
        ignore (Binc.r_skip_str r : int)
      done
    | n -> raise (Binc.Corrupt (Printf.sprintf "slot tag %d" n))
  done;
  if not (Binc.at_end r) then raise (Binc.Corrupt "trailing bytes");
  { capacity; buf = Bytes.of_string s; len = String.length s; off; nslots;
    used_bytes }

let of_payload = function
  | Heap t -> t
  | _ -> invalid_arg "Heap_page.of_payload: not a heap page"

let kind =
  { Page.role = "Heap_file";
    encode = (fun p -> encode (of_payload p));
    decode = (fun s -> Heap (decode s)) }

let copy_payload p = kind.decode (kind.encode p)

let capacity t = t.capacity

let free_bytes t = t.capacity - t.used_bytes

let tag t i = Bytes.get t.buf t.off.(i)

let occupied t i = i >= 0 && i < t.nslots && tag t i = record_tag

let record_count t =
  let n = ref 0 in
  for i = 0 to t.nslots - 1 do
    if tag t i = record_tag then incr n
  done;
  !n

let cost r = Record.encoded_size r + slot_overhead

let slot_end t i = if i + 1 < t.nslots then t.off.(i + 1) else t.len

(* [cost] of the record at occupied slot [i], from its image size: the
   image spends 9 + 8n + L bytes on n columns of L bytes in all, the cost
   12 + 2n + L. *)
let record_cost t i =
  let o = t.off.(i) in
  slot_end t i - o + 3 - (6 * get_int t.buf (o + 1))

let reserved_cost t i = get_int t.buf (t.off.(i) + 1)

(* the bytes slot [i] holds charged against the capacity *)
let charge t i =
  let tg = tag t i in
  if tg = record_tag then record_cost t i
  else if tg = reserved_tag then reserved_cost t i
  else 0

(* The largest buffer the minor heap allocates (256 words, less the
   padding byte). A buffer grows by half as the page fills, which leaves
   a full 1 KB page (about 1.3 KB of image) less slack than doubling,
   and stops at [minor_bytes] while the image fits, as leaf buffers do. *)
let minor_bytes = (Sys.word_size / 8 * 256) - 1

let ensure t extra =
  let need = t.len + extra in
  if need > Bytes.length t.buf then begin
    let cap = Bytes.length t.buf * 3 / 2 in
    let cap = if cap > minor_bytes && need <= minor_bytes then minor_bytes else cap in
    let bigger = Bytes.create (max need cap) in
    Bytes.blit t.buf 0 bigger 0 t.len;
    t.buf <- bigger
  end

(* Open a free slot past the last one. *)
let add_slot t =
  if t.nslots = Array.length t.off then begin
    let bigger = Array.make (2 * t.nslots) 0 in
    Array.blit t.off 0 bigger 0 t.nslots;
    t.off <- bigger
  end;
  ensure t 1;
  t.off.(t.nslots) <- t.len;
  Bytes.set t.buf t.len free_tag;
  t.len <- t.len + 1;
  set_nslots t (t.nslots + 1)

(* Make slot [i] [size] bytes long, shifting the slots after it, and
   return where it starts. *)
let resize t i size =
  let o = t.off.(i) in
  let old = slot_end t i - o in
  let d = size - old in
  if d <> 0 then begin
    ensure t d;
    Bytes.blit t.buf (o + old) t.buf (o + size) (t.len - o - old);
    for j = i + 1 to t.nslots - 1 do
      t.off.(j) <- t.off.(j) + d
    done;
    t.len <- t.len + d
  end;
  o

let set_free t i = Bytes.set t.buf (resize t i 1) free_tag

let set_reserved t i c =
  let o = resize t i 9 in
  Bytes.set t.buf o reserved_tag;
  set_int t.buf (o + 1) c

let set_record t i (r : Record.t) =
  let size =
    Array.fold_left (fun acc c -> acc + Binc.str_size c) 9 r.Record.cols
  in
  let o = resize t i size in
  Bytes.set t.buf o record_tag;
  set_int t.buf (o + 1) (Array.length r.Record.cols);
  let p = ref (o + 9) in
  Array.iter
    (fun c ->
      let n = String.length c in
      set_int t.buf !p n;
      Bytes.blit_string c 0 t.buf (!p + 8) n;
      p := !p + 8 + n)
    r.Record.cols

let first_free t =
  let rec go i =
    if i >= t.nslots then None
    else if tag t i = free_tag then Some i
    else go (i + 1)
  in
  go 0

let fits t r = cost r <= free_bytes t

let reserve t r =
  if not (fits t r) then invalid_arg "Heap_page.reserve: does not fit";
  let c = cost r in
  let slot =
    match first_free t with
    | Some i -> i
    | None ->
      add_slot t;
      t.nslots - 1
  in
  set_reserved t slot c;
  set_used t (t.used_bytes + c);
  slot

let put t slot r =
  if slot < 0 then invalid_arg "Heap_page.put: bad slot";
  while slot >= t.nslots do add_slot t done;
  let freed = charge t slot in
  set_record t slot r;
  set_used t (t.used_bytes - freed + cost r)

let unreserve t slot =
  if slot >= 0 && slot < t.nslots then
    if tag t slot = reserved_tag then begin
      set_used t (t.used_bytes - reserved_cost t slot);
      set_free t slot
    end
    else invalid_arg "Heap_page.unreserve: not reserved"

(* Record [i]'s columns, read from the image. *)
let record_at t i =
  let o = t.off.(i) in
  let p = ref (o + 9) in
  Record.make
    (Array.init (get_int t.buf (o + 1)) (fun _ ->
         let n = get_int t.buf !p in
         let c = Bytes.sub_string t.buf (!p + 8) n in
         p := !p + 8 + n;
         c))

let get t slot = if occupied t slot then Some (record_at t slot) else None

let key_value t slot cols =
  if not (occupied t slot) then invalid_arg "Heap_page.key_value: no record";
  let o = t.off.(slot) in
  let ncols = get_int t.buf (o + 1) in
  (* where column [i]'s length prefix starts *)
  let column i =
    if i < 0 || i >= ncols then
      invalid_arg "Heap_page.key_value: column out of range";
    let p = ref (o + 9) in
    for _ = 1 to i do
      p := !p + 8 + get_int t.buf !p
    done;
    !p
  in
  match cols with
  | [ i ] ->
    let p = column i in
    Bytes.sub_string t.buf (p + 8) (get_int t.buf p)
  | _ ->
    (* the columns joined by the unit separator, as [Record.key_value] *)
    let ps = List.map column cols in
    let size =
      List.fold_left (fun acc p -> acc + 1 + get_int t.buf p) (-1) ps
    in
    let key = Bytes.create (max 0 size) in
    ignore
      (List.fold_left
         (fun at p ->
           if at > 0 then Bytes.set key (at - 1) '\x1f';
           let n = get_int t.buf p in
           Bytes.blit t.buf (p + 8) key at n;
           at + n + 1)
         0 ps
        : int);
    Bytes.unsafe_to_string key

let remove t slot =
  if slot >= 0 && slot < t.nslots then begin
    set_used t (t.used_bytes - charge t slot);
    set_free t slot
  end

let iter_slots t f =
  for i = 0 to t.nslots - 1 do
    if tag t i = record_tag then f i
  done

let iter t f = iter_slots t (fun i -> f i (record_at t i))

let records t =
  let acc = ref [] in
  iter t (fun i r -> acc := (i, r) :: !acc);
  List.rev !acc
