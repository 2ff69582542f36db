open Oib_util

type leaf = {
  mutable entries : (Ikey.t * bool) array;
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

let new_leaf () =
  { entries = Array.make 8 (dummy_key, false); n = 0; bytes = 0; next = -1;
    high = None }

let new_internal ~children ~seps =
  let ibytes = Array.fold_left (fun acc s -> acc + sep_cost s) 0 seps in
  {
    seps = Array.copy seps;
    children = Array.copy children;
    nc = Array.length children;
    ibytes;
  }

(* binary node image — what actually sits in the stable store *)
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
  let w = Binc.writer () in
  (match node with
  | Leaf l ->
    Binc.w_u8 w 0;
    Binc.w_i64 w l.n;
    Binc.w_i64 w l.bytes;
    Binc.w_i64 w l.next;
    (match l.high with
    | None -> Binc.w_bool w false
    | Some h ->
      Binc.w_bool w true;
      w_key w h);
    for i = 0 to l.n - 1 do
      let k, pseudo = l.entries.(i) in
      w_key w k;
      Binc.w_bool w pseudo
    done
  | Internal n ->
    Binc.w_u8 w 1;
    Binc.w_i64 w n.nc;
    Binc.w_i64 w n.ibytes;
    for i = 0 to n.nc - 1 do
      Binc.w_i64 w n.children.(i)
    done;
    for i = 0 to n.nc - 2 do
      w_key w n.seps.(i)
    done);
  Binc.contents w

let decode_node s =
  let r = Binc.reader s in
  let node =
    match Binc.r_u8 r with
    | 0 ->
      (* an entry is a key (three 8-byte fields at least) and a flag *)
      let n = Binc.r_count r ~min_bytes:25 in
      let bytes = Binc.r_i64 r in
      let next = Binc.r_i64 r in
      let high = if Binc.r_bool r then Some (r_key r) else None in
      let entries = Array.make (max 8 n) (dummy_key, false) in
      for i = 0 to n - 1 do
        let k = r_key r in
        let pseudo = Binc.r_bool r in
        entries.(i) <- (k, pseudo)
      done;
      Leaf { entries; n; bytes; next; high }
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

let leaf_lower_bound l key =
  (* first index with entry >= key *)
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Ikey.compare (fst l.entries.(mid)) key < 0 then go (mid + 1) hi
      else go lo mid
  in
  go 0 l.n

let leaf_find l key =
  let i = leaf_lower_bound l key in
  if i < l.n && Ikey.equal (fst l.entries.(i)) key then Some i else None

let leaf_get l i =
  if i < 0 || i >= l.n then invalid_arg "Bt_node.leaf_get";
  l.entries.(i)

let leaf_grow l need =
  if l.n + need > Array.length l.entries then begin
    let cap = max (2 * Array.length l.entries) (l.n + need) in
    let bigger = Array.make cap (dummy_key, false) in
    Array.blit l.entries 0 bigger 0 l.n;
    l.entries <- bigger
  end

let leaf_fits l ~capacity key = l.bytes + leaf_entry_cost key <= capacity

let leaf_insert l key ~pseudo =
  let i = leaf_lower_bound l key in
  assert (not (i < l.n && Ikey.equal (fst l.entries.(i)) key));
  leaf_grow l 1;
  Array.blit l.entries i l.entries (i + 1) (l.n - i);
  l.entries.(i) <- (key, pseudo);
  l.n <- l.n + 1;
  l.bytes <- l.bytes + leaf_entry_cost key

let leaf_append l key ~pseudo =
  assert (l.n = 0 || Ikey.compare (fst l.entries.(l.n - 1)) key < 0);
  leaf_grow l 1;
  l.entries.(l.n) <- (key, pseudo);
  l.n <- l.n + 1;
  l.bytes <- l.bytes + leaf_entry_cost key

let leaf_set_flag l i pseudo =
  let key, _ = leaf_get l i in
  l.entries.(i) <- (key, pseudo)

let leaf_remove_at l i =
  let key, _ = leaf_get l i in
  Array.blit l.entries (i + 1) l.entries i (l.n - i - 1);
  l.n <- l.n - 1;
  l.bytes <- l.bytes - leaf_entry_cost key

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

let take_tail l from =
  let moved = Array.sub l.entries from (l.n - from) in
  let right = new_leaf () in
  right.entries <- moved;
  right.n <- Array.length moved;
  right.bytes <-
    Array.fold_left (fun acc (k, _) -> acc + leaf_entry_cost k) 0 moved;
  right.next <- l.next;
  right.high <- l.high;
  l.n <- from;
  l.bytes <- l.bytes - right.bytes;
  let sep =
    if from = 0 then fst right.entries.(0)
    else
      separator ~before:(fst l.entries.(from - 1)) ~first:(fst right.entries.(0))
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

let internal_truncate_after n i =
  assert (i >= 0 && i < n.nc);
  let dropped = ref [] in
  for j = n.nc - 1 downto i + 1 do
    dropped := n.children.(j) :: !dropped
  done;
  n.nc <- i + 1;
  n.ibytes <-
    Array.fold_left
      (fun acc j -> acc + sep_cost n.seps.(j))
      0
      (Array.init (max 0 (n.nc - 1)) Fun.id);
  !dropped
