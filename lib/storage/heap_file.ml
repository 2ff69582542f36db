open Oib_util

type Durable_kv.value += Pages of int list (* newest first *)

(* Placement is first-fit in allocation order, consulting a free-space
   inventory (the FSIP analog) first. Both walks run over a max segment
   tree of per-page free-space bounds, so an insert costs O(log pages)
   page lookups rather than one per page:

   - [bound] keeps, per ordinal, an upper bound on the page's free bytes:
     [max_int] until the page is first tried in this incarnation, then
     its free bytes after every [try_page]. Every site that can raise a
     page's free bytes reports it through [note_gain] before it can yield,
     which puts the bound back to [max_int]. A bound is therefore never
     below the page's true free space, and a page whose bound is below a
     record's cost is one [try_page] would reject: skipping it leaves
     every placement as a page-by-page walk would make it.
   - The inventory is the explicitly noted pages, newest note first,
     followed by the ordinals [cursor, stop): the list a page-by-page
     walk would keep, without its long tail materialised. *)
type t = {
  pool : Buffer_pool.t;
  kv : Durable_kv.t;
  table_id : int;
  page_capacity : int;
  mutable pages_rev : int list; (* newest first: the durable form *)
  mutable ids : int array; (* ordinal -> page id; capacity a power of 2 *)
  mutable count : int;
  ordinal : (int, int) Hashtbl.t;
  mutable bound : int array;
      (* max tree: node i's children are 2i and 2i+1, ordinal o's leaf is
         [Array.length ids + o]; unused leaves hold [no_page] *)
  mutable noted : int list;
  noted_set : (int, unit) Hashtbl.t; (* the members of [noted] *)
  mutable cursor : int;
  mutable stop : int;
}

type Durable_kv.value += Capacity of int

let no_page = -1

let meta_key id = Printf.sprintf "table/%d/pages" id
let cap_key id = Printf.sprintf "table/%d/capacity" id

let persist t =
  Durable_kv.set t.kv (meta_key t.table_id) (Pages t.pages_rev)

(* --- page order and free-space bounds --- *)

let leaf t ord = Array.length t.ids + ord

let set_bound t ord v =
  let i = ref (leaf t ord) in
  t.bound.(!i) <- v;
  while !i > 1 do
    i := !i / 2;
    t.bound.(!i) <- Int.max t.bound.(2 * !i) t.bound.((2 * !i) + 1)
  done

let grow t =
  let cap = 2 * Array.length t.ids in
  let ids = Array.make cap no_page in
  Array.blit t.ids 0 ids 0 t.count;
  let bound = Array.make (2 * cap) no_page in
  Array.blit t.bound (Array.length t.ids) bound cap t.count;
  for i = cap - 1 downto 1 do
    bound.(i) <- Int.max bound.(2 * i) bound.((2 * i) + 1)
  done;
  t.ids <- ids;
  t.bound <- bound

(* a page not yet tried in this incarnation may have any amount of room *)
let append t id =
  if t.count = Array.length t.ids then grow t;
  t.ids.(t.count) <- id;
  Hashtbl.replace t.ordinal id t.count;
  set_bound t t.count max_int;
  t.count <- t.count + 1

(* the lowest ordinal in [lo, hi) whose bound is at least [need] *)
let first_fit t ~lo ~hi need =
  let leaves = Array.length t.ids in
  let rec go node nlo nhi =
    if nhi <= lo || nlo >= hi || t.bound.(node) < need then None
    else if node >= leaves then Some nlo
    else
      let mid = (nlo + nhi) / 2 in
      match go (2 * node) nlo mid with
      | Some _ as r -> r
      | None -> go ((2 * node) + 1) mid nhi
  in
  go 1 0 leaves

(* number the pages of [pages_rev] in allocation order, every bound unknown *)
let index_pages t =
  t.ids <- [| no_page |];
  t.bound <- [| no_page; no_page |];
  t.count <- 0;
  Hashtbl.reset t.ordinal;
  List.iter (append t) (List.rev t.pages_rev)

let make pool kv ~table_id ~page_capacity pages_rev =
  let t =
    { pool; kv; table_id; page_capacity; pages_rev; ids = [||]; count = 0;
      ordinal = Hashtbl.create 64; bound = [||]; noted = [];
      noted_set = Hashtbl.create 16; cursor = 0; stop = 0 }
  in
  index_pages t;
  t

let create pool kv ~table_id ~page_capacity =
  if Durable_kv.mem kv (meta_key table_id) then
    invalid_arg "Heap_file.create: table already exists";
  let t = make pool kv ~table_id ~page_capacity [] in
  Durable_kv.set kv (cap_key table_id) (Capacity page_capacity);
  persist t;
  t

let open_existing pool kv ~table_id =
  let pages_rev =
    match Durable_kv.get kv (meta_key table_id) with
    | Some (Pages l) -> l
    | _ -> raise Not_found
  in
  let page_capacity =
    match Durable_kv.get kv (cap_key table_id) with
    | Some (Capacity c) -> c
    | _ -> raise Not_found
  in
  let t = make pool kv ~table_id ~page_capacity pages_rev in
  (* every page is in the inventory *)
  t.stop <- t.count;
  t

let table_id t = t.table_id

let page_ids t = List.rev t.pages_rev

let page_count t = t.count

let last_page_id t = match t.pages_rev with [] -> None | id :: _ -> Some id

let owns t id = Hashtbl.mem t.ordinal id

let page t id = Buffer_pool.get t.pool ~kind:Heap_page.kind id

(* --- the free-space inventory --- *)

(* Replace the inventory, keeping [noted_set] in step with [noted]. *)
let set_inventory t noted ~cursor ~stop =
  (match t.noted with
  | id :: rest when rest == noted -> Hashtbl.remove t.noted_set id
  | old when old == noted -> ()
  | old ->
    List.iter (Hashtbl.remove t.noted_set) old;
    List.iter (fun id -> Hashtbl.replace t.noted_set id ()) noted);
  t.noted <- noted;
  t.cursor <- cursor;
  t.stop <- stop

let in_inventory t id ord =
  Hashtbl.mem t.noted_set id || (t.cursor <= ord && ord < t.stop)

let note_gain t id =
  match Hashtbl.find_opt t.ordinal id with
  | Some ord -> set_bound t ord max_int
  | None -> ()

let note_free t id =
  note_gain t id;
  match Hashtbl.find_opt t.ordinal id with
  | Some ord when not (in_inventory t id ord) ->
    t.noted <- id :: t.noted;
    Hashtbl.replace t.noted_set id ()
  | Some _ | None -> ()

let extend t =
  let p =
    Buffer_pool.new_page t.pool ~kind:Heap_page.kind
      ~payload:(Heap_page.Heap (Heap_page.create ~capacity:t.page_capacity))
  in
  t.pages_rev <- p.Page.id :: t.pages_rev;
  append t p.Page.id;
  persist t;
  (* redo-only record: media recovery rebuilds the page inventory from the
     log, since the forced metadata store may be part of the lost disk *)
  ignore
    (Oib_wal.Log_manager.append (Buffer_pool.log t.pool) ~txn:None
       ~prev_lsn:Oib_wal.Lsn.nil
       (Oib_wal.Log_record.Heap_extend { table = t.table_id; page = p.Page.id }));
  p

let ensure_page_registered t id =
  if not (owns t id) then begin
    if t.count = 0 || id > t.ids.(t.count - 1) then begin
      (* a later extension: it stays out of the inventory *)
      t.pages_rev <- id :: t.pages_rev;
      append t id
    end
    else begin
      (* out of allocation order (never seen in practice): renumber every
         page, forgetting the bounds, and spell the inventory out *)
      let inventory =
        t.noted @ List.init (max 0 (t.stop - t.cursor)) (fun i -> t.ids.(t.cursor + i))
      in
      t.pages_rev <- List.sort (fun a b -> compare b a) (id :: t.pages_rev);
      index_pages t;
      set_inventory t inventory ~cursor:0 ~stop:0
    end;
    persist t
  end

(* Placement consults the free-space inventory first, falling back to a
   full first-fit scan (which rebuilds the inventory), and extends the
   file as a last resort. Checking [fits] without the latch is a benign
   race in this cooperative setting: the state cannot change between the
   check and the X-latch acquisition unless we block, in which case we
   re-check after acquiring. Whatever the outcome, the page's bound
   becomes its free bytes as seen here. *)
let try_page t id record =
  let p = page t id in
  let ord = Hashtbl.find t.ordinal id in
  let hp = Heap_page.of_payload p.Page.payload in
  if Heap_page.fits hp record then begin
    Oib_sim.Latch.acquire p.Page.latch X;
    let hp = Heap_page.of_payload p.Page.payload in
    if Heap_page.fits hp record then begin
      let slot = Heap_page.reserve hp record in
      set_bound t ord (Heap_page.free_bytes hp);
      Some (p, slot)
    end
    else begin
      set_bound t ord (Heap_page.free_bytes hp);
      Oib_sim.Latch.release p.Page.latch X;
      None
    end
  end
  else begin
    set_bound t ord (Heap_page.free_bytes hp);
    None
  end

(* A failed try drops the inventory's head, restoring what was behind it
   before the try: the latch wait may have let other inserters replace the
   inventory meanwhile, and a page-by-page walk would overwrite their
   change the same way. *)
let prepare_insert t record =
  let need = Heap_page.cost record in
  (* 1. inventory hits (dropping entries that cannot take the record) *)
  let rec from_inventory () =
    match t.noted with
    | id :: rest -> (
      let cursor = t.cursor and stop = t.stop in
      let fits_bound = t.bound.(leaf t (Hashtbl.find t.ordinal id)) >= need in
      match if fits_bound then try_page t id record else None with
      | Some r -> Some r
      | None ->
        set_inventory t rest ~cursor ~stop;
        from_inventory ())
    | [] -> (
      let stop = t.stop in
      match first_fit t ~lo:t.cursor ~hi:stop need with
      | None ->
        t.cursor <- stop;
        None
      | Some ord -> (
        (* the pages before [ord] cannot take the record: dropped untried *)
        t.cursor <- ord;
        match try_page t t.ids.(ord) record with
        | Some r -> Some r
        | None ->
          set_inventory t [] ~cursor:(ord + 1) ~stop;
          from_inventory ()))
  in
  match from_inventory () with
  | Some r -> r
  | None -> (
    (* 2. first-fit over the pages that exist now; the inventory becomes
       the hit and every page after it *)
    let stop = t.count in
    let rec search = function
      | None -> None
      | Some ord -> (
        match try_page t t.ids.(ord) record with
        | Some r ->
          set_inventory t [] ~cursor:ord ~stop;
          Some r
        | None -> search (first_fit t ~lo:(ord + 1) ~hi:stop need))
    in
    match search (first_fit t ~lo:0 ~hi:stop need) with
    | Some r -> r
    | None ->
      (* 3. extend *)
      let p = extend t in
      Oib_sim.Latch.acquire p.Page.latch X;
      let hp = Heap_page.of_payload p.Page.payload in
      let ord = Hashtbl.find t.ordinal p.Page.id in
      set_inventory t [] ~cursor:ord ~stop:(ord + 1);
      let slot = Heap_page.reserve hp record in
      set_bound t ord (Heap_page.free_bytes hp);
      (p, slot))
[@@lint.allow
  "L1: returns an X-latched page with space reserved; the caller applies \
   the insert, logs it, and releases the latch"]

let latch_rid t rid mode =
  let p = page t rid.Rid.page in
  Oib_sim.Latch.acquire p.Page.latch mode;
  p

let read_record t rid =
  let p = latch_rid t rid S in
  let r = Heap_page.get (Heap_page.of_payload p.Page.payload) rid.Rid.slot in
  Oib_sim.Latch.release p.Page.latch S;
  r

let scan_pages t ~upto f =
  List.iter (fun id -> if id <= upto then f (page t id)) (page_ids t)

let record_count t =
  List.fold_left
    (fun acc id ->
      acc + Heap_page.record_count (Heap_page.of_payload (page t id).Page.payload))
    0 (page_ids t)

let iter_slots t f =
  List.iter
    (fun id ->
      let hp = Heap_page.of_payload (page t id).Page.payload in
      Heap_page.iter_slots hp (fun slot -> f hp (Rid.make ~page:id ~slot)))
    (page_ids t)

let rids t =
  let acc = ref [] in
  iter_slots t (fun _ rid -> acc := rid :: !acc);
  List.rev !acc
