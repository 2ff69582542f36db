open Oib_util

(* a slot is Free, Reserved (insert in progress; space charged), or a record *)
type slot = Free | Reserved of int (* reserved bytes *) | Occupied of Record.t

type t = {
  capacity : int;
  mutable slots : slot array;
  mutable nslots : int;
  mutable used_bytes : int;
}

type Page.payload += Heap of t

let slot_overhead = 4

let create ~capacity = { capacity; slots = Array.make 8 Free; nslots = 0; used_bytes = 0 }

(* binary page image — what actually sits in the stable store *)
let slot_image_size = function
  | Free -> 1
  | Reserved _ -> 9
  | Occupied r ->
    Array.fold_left (fun acc c -> acc + Binc.str_size c) 9 r.Record.cols

let encode t =
  let size = ref 24 in
  for i = 0 to t.nslots - 1 do
    size := !size + slot_image_size t.slots.(i)
  done;
  let w = Binc.writer !size in
  Binc.w_i64 w t.capacity;
  Binc.w_i64 w t.nslots;
  Binc.w_i64 w t.used_bytes;
  for i = 0 to t.nslots - 1 do
    match t.slots.(i) with
    | Free -> Binc.w_u8 w 0
    | Reserved c ->
      Binc.w_u8 w 1;
      Binc.w_i64 w c
    | Occupied r ->
      Binc.w_u8 w 2;
      Binc.w_i64 w (Array.length r.Record.cols);
      Array.iter (Binc.w_str w) r.Record.cols
  done;
  Binc.contents w

let decode s =
  let r = Binc.reader s in
  let capacity = Binc.r_i64 r in
  (* every slot takes at least its tag byte *)
  let nslots = Binc.r_count r ~min_bytes:1 in
  let used_bytes = Binc.r_i64 r in
  let slots = Array.make (max 8 nslots) Free in
  for i = 0 to nslots - 1 do
    slots.(i) <-
      (match Binc.r_u8 r with
      | 0 -> Free
      | 1 -> Reserved (Binc.r_i64 r)
      | 2 ->
        (* every column takes at least its length prefix *)
        let n = Binc.r_count r ~min_bytes:8 in
        Occupied (Record.make (Array.init n (fun _ -> Binc.r_str r)))
      | n -> raise (Binc.Corrupt (Printf.sprintf "slot tag %d" n)))
  done;
  if not (Binc.at_end r) then raise (Binc.Corrupt "trailing bytes");
  { capacity; slots; nslots; used_bytes }

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

let record_count t =
  let n = ref 0 in
  for i = 0 to t.nslots - 1 do
    match t.slots.(i) with Occupied _ -> incr n | Free | Reserved _ -> ()
  done;
  !n

let cost r = Record.encoded_size r + slot_overhead

let grow t =
  if t.nslots = Array.length t.slots then begin
    let bigger = Array.make (2 * Array.length t.slots) Free in
    Array.blit t.slots 0 bigger 0 t.nslots;
    t.slots <- bigger
  end

let first_free t =
  let rec go i = if i >= t.nslots then None
    else match t.slots.(i) with Free -> Some i | _ -> go (i + 1)
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
      grow t;
      let i = t.nslots in
      t.nslots <- t.nslots + 1;
      i
  in
  t.slots.(slot) <- Reserved c;
  t.used_bytes <- t.used_bytes + c;
  slot

let put t slot r =
  if slot < 0 then invalid_arg "Heap_page.put: bad slot";
  while slot >= Array.length t.slots do grow t done;
  if slot >= t.nslots then t.nslots <- slot + 1;
  let c = cost r in
  (match t.slots.(slot) with
  | Free -> t.used_bytes <- t.used_bytes + c
  | Reserved c0 -> t.used_bytes <- t.used_bytes - c0 + c
  | Occupied old -> t.used_bytes <- t.used_bytes - cost old + c);
  t.slots.(slot) <- Occupied r

let unreserve t slot =
  if slot >= 0 && slot < t.nslots then
    match t.slots.(slot) with
    | Reserved c ->
      t.used_bytes <- t.used_bytes - c;
      t.slots.(slot) <- Free
    | Free | Occupied _ -> invalid_arg "Heap_page.unreserve: not reserved"

let get t slot =
  if slot < 0 || slot >= t.nslots then None
  else match t.slots.(slot) with
    | Occupied r -> Some r
    | Free | Reserved _ -> None

let remove t slot =
  if slot >= 0 && slot < t.nslots then begin
    (match t.slots.(slot) with
    | Occupied r -> t.used_bytes <- t.used_bytes - cost r
    | Reserved c -> t.used_bytes <- t.used_bytes - c
    | Free -> ());
    t.slots.(slot) <- Free
  end

let iter t f =
  for i = 0 to t.nslots - 1 do
    match t.slots.(i) with
    | Occupied r -> f i r
    | Free | Reserved _ -> ()
  done

let records t =
  let acc = ref [] in
  iter t (fun i r -> acc := (i, r) :: !acc);
  List.rev !acc
