open Oib_util
open Oib_storage
open Oib_testsupport
module Lsn = Oib_wal.Lsn

let rcd s = Record.make [| s |]

(* --- heap page --- *)

let test_heap_page_put_get () =
  let hp = Heap_page.create ~capacity:256 in
  let s0 = Heap_page.reserve hp (rcd "a") in
  Heap_page.put hp s0 (rcd "a");
  Alcotest.(check (option (of_pp Record.pp))) "get" (Some (rcd "a"))
    (Heap_page.get hp s0);
  Alcotest.(check int) "one record" 1 (Heap_page.record_count hp)

let test_heap_page_slot_reuse () =
  let hp = Heap_page.create ~capacity:256 in
  let s0 = Heap_page.reserve hp (rcd "a") in
  Heap_page.put hp s0 (rcd "a");
  let s1 = Heap_page.reserve hp (rcd "b") in
  Heap_page.put hp s1 (rcd "b");
  Heap_page.remove hp s0;
  (* the freed slot must be reused first: the paper's §2.2.3 example needs a
     new record to land at the same RID as a deleted one *)
  let s2 = Heap_page.reserve hp (rcd "c") in
  Alcotest.(check int) "slot reused" s0 s2

let test_heap_page_free_bytes_accounting () =
  let hp = Heap_page.create ~capacity:200 in
  let free0 = Heap_page.free_bytes hp in
  let s = Heap_page.reserve hp (rcd "abc") in
  Heap_page.put hp s (rcd "abc");
  let free1 = Heap_page.free_bytes hp in
  Alcotest.(check bool) "space charged" true (free1 < free0);
  Heap_page.remove hp s;
  Alcotest.(check int) "space returned" free0 (Heap_page.free_bytes hp)

let test_heap_page_unreserve () =
  let hp = Heap_page.create ~capacity:200 in
  let free0 = Heap_page.free_bytes hp in
  let s = Heap_page.reserve hp (rcd "abc") in
  Heap_page.unreserve hp s;
  Alcotest.(check int) "reservation refunded" free0 (Heap_page.free_bytes hp)

let test_heap_page_capacity_enforced () =
  let hp = Heap_page.create ~capacity:40 in
  let big = Record.make [| String.make 100 'x' |] in
  Alcotest.(check bool) "does not fit" false (Heap_page.fits hp big);
  Alcotest.check_raises "reserve refused"
    (Invalid_argument "Heap_page.reserve: does not fit") (fun () ->
      ignore (Heap_page.reserve hp big))

(* --- heap file --- *)

let insert_one env hf r =
  let page, slot = Heap_file.prepare_insert hf r in
  Heap_page.put (Heap_page.of_payload page.Page.payload) slot r;
  Page.set_lsn page (Oib_wal.Log_manager.last_lsn env.Tenv.log);
  Oib_sim.Latch.release page.Page.latch X;
  Rid.make ~page:page.Page.id ~slot

let test_heap_file_grows () =
  let env = Tenv.make () in
  let hf =
    Heap_file.create env.Tenv.pool env.Tenv.kv ~table_id:1 ~page_capacity:128
  in
  let rids = List.init 50 (fun i -> insert_one env hf (rcd (Printf.sprintf "r%02d" i))) in
  Alcotest.(check int) "all stored" 50 (Heap_file.record_count hf);
  Alcotest.(check bool) "multiple pages" true (Heap_file.page_count hf > 1);
  List.iteri
    (fun i rid ->
      Alcotest.(check (option (of_pp Record.pp)))
        "readback"
        (Some (rcd (Printf.sprintf "r%02d" i)))
        (Heap_file.read_record hf rid))
    rids

let test_heap_file_reopen () =
  let env = Tenv.make () in
  let hf =
    Heap_file.create env.Tenv.pool env.Tenv.kv ~table_id:7 ~page_capacity:128
  in
  let _ = List.init 20 (fun i -> insert_one env hf (rcd (string_of_int i))) in
  Buffer_pool.flush_all env.Tenv.pool;
  let env' = Tenv.crash env in
  let hf' = Heap_file.open_existing env'.Tenv.pool env'.Tenv.kv ~table_id:7 in
  Alcotest.(check int) "records survive" 20 (Heap_file.record_count hf');
  Alcotest.(check (list int)) "page list survives" (Heap_file.page_ids hf)
    (Heap_file.page_ids hf')

let test_heap_file_scan_upto () =
  let env = Tenv.make () in
  let hf =
    Heap_file.create env.Tenv.pool env.Tenv.kv ~table_id:1 ~page_capacity:128
  in
  let _ = List.init 40 (fun i -> insert_one env hf (rcd (string_of_int i))) in
  let last = Option.get (Heap_file.last_page_id hf) in
  (* extend after noting the scan end *)
  let _ = List.init 40 (fun i -> insert_one env hf (rcd (string_of_int (100 + i)))) in
  let seen = ref 0 in
  Heap_file.scan_pages hf ~upto:last (fun p ->
      seen := !seen + Heap_page.record_count (Heap_page.of_payload p.Page.payload));
  Alcotest.(check int) "scan stops at noted page" 40 !seen

let test_duplicate_create_rejected () =
  let env = Tenv.make () in
  let _ = Heap_file.create env.Tenv.pool env.Tenv.kv ~table_id:3 ~page_capacity:64 in
  Alcotest.check_raises "exists"
    (Invalid_argument "Heap_file.create: table already exists") (fun () ->
      ignore
        (Heap_file.create env.Tenv.pool env.Tenv.kv ~table_id:3 ~page_capacity:64))

(* --- placement equivalence --- *)

(* The page-by-page placement that the free-space bounds replaced, kept as
   the reference: a list inventory walked one page at a time, then a
   first-fit scan over every page, then an extension. *)
module Ref_heap = struct
  type t = {
    pool : Buffer_pool.t;
    capacity : int;
    mutable pages_rev : int list;
    mutable fsip : int list;
  }

  let try_page t id record =
    let p = Buffer_pool.get t.pool ~kind:Heap_page.kind id in
    if Heap_page.fits (Heap_page.of_payload p.Page.payload) record then begin
      Oib_sim.Latch.acquire p.Page.latch X;
      let hp = Heap_page.of_payload p.Page.payload in
      if Heap_page.fits hp record then Some (p, Heap_page.reserve hp record)
      else begin
        Oib_sim.Latch.release p.Page.latch X;
        None
      end
    end
    else None

  let prepare_insert t record =
    let rec from_fsip () =
      match t.fsip with
      | [] -> None
      | id :: rest -> (
        match try_page t id record with
        | Some r -> Some r
        | None ->
          t.fsip <- rest;
          from_fsip ())
    in
    match from_fsip () with
    | Some r -> r
    | None -> (
      let rec search = function
        | [] -> None
        | id :: rest -> (
          match try_page t id record with
          | Some r ->
            t.fsip <- id :: rest;
            Some r
          | None -> search rest)
      in
      match search (List.rev t.pages_rev) with
      | Some r -> r
      | None ->
        let p =
          Buffer_pool.new_page t.pool ~kind:Heap_page.kind
            ~payload:(Heap_page.Heap (Heap_page.create ~capacity:t.capacity))
        in
        t.pages_rev <- p.Page.id :: t.pages_rev;
        Oib_sim.Latch.acquire p.Page.latch X;
        t.fsip <- [ p.Page.id ];
        (p, Heap_page.reserve (Heap_page.of_payload p.Page.payload) record))

  let note_free t id = if not (List.mem id t.fsip) then t.fsip <- id :: t.fsip

  let ensure_page_registered t id =
    if not (List.mem id t.pages_rev) then
      t.pages_rev <- List.sort (fun a b -> compare b a) (id :: t.pages_rev)

  let reopen t = t.fsip <- List.rev t.pages_rev
end

(* Integer arguments index the live records / pages / orphans modulo their
   count; sizes are column lengths (a record costs 14 + size bytes). *)
type place_op =
  | Insert of int
  | Delete of int  (** then [note_free], as [Table_ops.delete] *)
  | Shrink of int * int  (** put a shorter record, as [Table_ops.update] *)
  | Cancel of int
      (** reserve, then unreserve: [Table_ops.insert]'s lock-denied retry *)
  | Undo_insert of int  (** insert, then remove it: a rolled-back insert *)
  | Evict of int  (** write the page back and drop it from the pool *)
  | Reopen
  | Orphan  (** allocate a page the file does not know yet *)
  | Register of int  (** recovery registers an orphan *)

(* the gain reports a caller owes the heap file; [skip] drops one kind *)
type report_site = Rep_shrink | Rep_cancel | Rep_undo

let show_place_op = function
  | Insert n -> Printf.sprintf "Insert %d" n
  | Delete i -> Printf.sprintf "Delete %d" i
  | Shrink (i, n) -> Printf.sprintf "Shrink (%d, %d)" i n
  | Cancel n -> Printf.sprintf "Cancel %d" n
  | Undo_insert n -> Printf.sprintf "Undo_insert %d" n
  | Evict i -> Printf.sprintf "Evict %d" i
  | Reopen -> "Reopen"
  | Orphan -> "Orphan"
  | Register i -> Printf.sprintf "Register %d" i

let gen_place_ops =
  QCheck.Gen.(
    let size = int_range 0 80 and ix = int_bound 1000 in
    list_size (int_range 1 150)
      (frequency
         [
           (10, map (fun n -> Insert n) size);
           (3, map (fun i -> Delete i) ix);
           (3, map2 (fun i n -> Shrink (i, n)) ix size);
           (2, map (fun n -> Cancel n) size);
           (2, map (fun n -> Undo_insert n) size);
           (1, map (fun i -> Evict i) ix);
           (1, return Reopen);
           (1, return Orphan);
           (1, map (fun i -> Register i) ix);
         ]))

(* Run [ops] on the heap file and on the reference, each over its own
   fresh system; true iff every placement agrees. *)
let placements_agree ?skip ops =
  let capacity = 256 in
  let er = Tenv.make () and em = Tenv.make () in
  let hf = ref (Heap_file.create er.Tenv.pool er.Tenv.kv ~table_id:1 ~page_capacity:capacity) in
  let m = { Ref_heap.pool = em.Tenv.pool; capacity; pages_rev = []; fsip = [] } in
  let rcd_of n = rcd (String.make n 'x') in
  let live = ref [] (* (rid, size), newest first *) and orphans = ref [] in
  let nth l i = List.nth l (i mod List.length l) in
  let report site id =
    if skip <> Some site then Heap_file.note_gain !hf id
  in
  (* change a page on both sides, dirtying it as the logged paths do *)
  let on_page id f =
    List.iter
      (fun pool ->
        let p = Buffer_pool.get pool ~kind:Heap_page.kind id in
        f (Heap_page.of_payload p.Page.payload);
        Page.mark_dirty p)
      [ er.Tenv.pool; em.Tenv.pool ]
  in
  (* place [r] on both sides; the X latches stay held *)
  let place r =
    let pr, sr = Heap_file.prepare_insert !hf r in
    let pm, sm = Ref_heap.prepare_insert m r in
    if pr.Page.id <> pm.Page.id || sr <> sm then None
    else Some (pr, pm, Rid.make ~page:pr.Page.id ~slot:sr)
  in
  let release pr pm =
    Oib_sim.Latch.release pr.Page.latch X;
    Oib_sim.Latch.release pm.Page.latch X
  in
  let step = function
    | Insert n -> (
      let r = rcd_of n in
      match place r with
      | None -> false
      | Some (pr, pm, rid) ->
        on_page rid.Rid.page (fun hp -> Heap_page.put hp rid.Rid.slot r);
        release pr pm;
        live := (rid, n) :: !live;
        true)
    | Delete i ->
      (if !live <> [] then
         let rid, _ = nth !live i in
         on_page rid.Rid.page (fun hp -> Heap_page.remove hp rid.Rid.slot);
         Heap_file.note_free !hf rid.Rid.page;
         Ref_heap.note_free m rid.Rid.page;
         live := List.filter (fun (r, _) -> not (Rid.equal r rid)) !live);
      true
    | Shrink (i, n) ->
      (if !live <> [] then
         let rid, old = nth !live i in
         let n = min n old in
         on_page rid.Rid.page (fun hp -> Heap_page.put hp rid.Rid.slot (rcd_of n));
         report Rep_shrink rid.Rid.page;
         live :=
           List.map (fun (r, s) -> if Rid.equal r rid then (r, n) else (r, s)) !live);
      true
    | Cancel n -> (
      match place (rcd_of n) with
      | None -> false
      | Some (pr, pm, rid) ->
        on_page rid.Rid.page (fun hp -> Heap_page.unreserve hp rid.Rid.slot);
        report Rep_cancel rid.Rid.page;
        release pr pm;
        true)
    | Undo_insert n -> (
      let r = rcd_of n in
      match place r with
      | None -> false
      | Some (pr, pm, rid) ->
        on_page rid.Rid.page (fun hp ->
            Heap_page.put hp rid.Rid.slot r;
            Heap_page.remove hp rid.Rid.slot);
        report Rep_undo rid.Rid.page;
        release pr pm;
        true)
    | Evict i ->
      (match Heap_file.page_ids !hf with
      | [] -> ()
      | ids ->
        let id = nth ids i in
        List.iter
          (fun pool ->
            Buffer_pool.flush_page pool (Buffer_pool.get pool ~kind:Heap_page.kind id);
            Buffer_pool.evict pool id)
          [ er.Tenv.pool; em.Tenv.pool ]);
      true
    | Reopen ->
      hf := Heap_file.open_existing er.Tenv.pool er.Tenv.kv ~table_id:1;
      Ref_heap.reopen m;
      true
    | Orphan ->
      let fresh pool =
        (Buffer_pool.new_page pool ~kind:Heap_page.kind
           ~payload:(Heap_page.Heap (Heap_page.create ~capacity)))
          .Page.id
      in
      let a = fresh er.Tenv.pool and b = fresh em.Tenv.pool in
      orphans := a :: !orphans;
      a = b
    | Register i ->
      (if !orphans <> [] then
         let id = nth !orphans i in
         Heap_file.ensure_page_registered !hf id;
         Ref_heap.ensure_page_registered m id;
         orphans := List.filter (( <> ) id) !orphans);
      true
  in
  List.for_all step ops

let prop_placement_matches_reference =
  QCheck.Test.make ~name:"placement matches the page-by-page reference"
    ~count:300
    (QCheck.make ~print:(QCheck.Print.list show_place_op)
       ~shrink:QCheck.Shrink.list gen_place_ops)
    (fun ops -> placements_agree ops)

(* the property has teeth: drop any one kind of gain report and some
   sequence places a record elsewhere *)
let test_unreported_gain_diverges () =
  let rand = Random.State.make [| 7 |] in
  let samples = QCheck.Gen.generate ~rand ~n:300 gen_place_ops in
  List.iter
    (fun (site, name) ->
      Alcotest.(check bool)
        (name ^ " unreported: some placement differs")
        true
        (List.exists (fun ops -> not (placements_agree ~skip:site ops)) samples))
    [ (Rep_shrink, "shrink"); (Rep_cancel, "cancel"); (Rep_undo, "undo") ]

(* --- buffer pool / WAL rule --- *)

let test_wal_rule_enforced () =
  let env = Tenv.make () in
  let hf = Heap_file.create env.Tenv.pool env.Tenv.kv ~table_id:1 ~page_capacity:256 in
  let lsn = Oib_wal.Log_manager.append env.Tenv.log ~txn:(Some 1)
      ~prev_lsn:Lsn.nil Oib_wal.Log_record.Begin
  in
  let page, slot = Heap_file.prepare_insert hf (rcd "x") in
  Heap_page.put (Heap_page.of_payload page.Page.payload) slot (rcd "x");
  Page.set_lsn page lsn;
  Oib_sim.Latch.release page.Page.latch X;
  Alcotest.(check int) "log not yet durable" 0
    (Lsn.to_int (Oib_wal.Log_manager.flushed_lsn env.Tenv.log));
  Buffer_pool.flush_page env.Tenv.pool page;
  Alcotest.(check bool) "page write forced the log" true
    (Lsn.( >= ) (Oib_wal.Log_manager.flushed_lsn env.Tenv.log) lsn)

let test_crash_loses_unflushed_pages () =
  let env = Tenv.make () in
  let hf = Heap_file.create env.Tenv.pool env.Tenv.kv ~table_id:1 ~page_capacity:256 in
  let rid1 = insert_one env hf (rcd "durable") in
  Buffer_pool.flush_all env.Tenv.pool;
  let rid2 = insert_one env hf (rcd "volatile") in
  let env' = Tenv.crash env in
  let hf' = Heap_file.open_existing env'.Tenv.pool env'.Tenv.kv ~table_id:1 in
  Alcotest.(check (option (of_pp Record.pp))) "flushed record survives"
    (Some (rcd "durable"))
    (Heap_file.read_record hf' rid1);
  (* rid2's page was never flushed: either the page is missing entirely or
     it reads back without the record *)
  (match Heap_file.read_record hf' rid2 with
  | exception Not_found -> ()
  | None -> ()
  | Some r ->
    Alcotest.failf "unflushed record survived crash: %s" (Record.to_string r))

let test_no_steal_respected () =
  let env = Tenv.make () in
  let p =
    Buffer_pool.new_page env.Tenv.pool ~kind:Heap_page.kind
      ~payload:(Heap_page.Heap (Heap_page.create ~capacity:64))
  in
  p.Page.no_steal <- true;
  Page.mark_dirty p;
  let rng = Rng.create 1 in
  Buffer_pool.flush_some env.Tenv.pool rng 1.0;
  Alcotest.(check bool) "not stolen" false (Stable_store.mem env.Tenv.store p.Page.id);
  Buffer_pool.flush_page env.Tenv.pool p;
  Alcotest.(check bool) "explicit flush works" true
    (Stable_store.mem env.Tenv.store p.Page.id)

let test_stable_store_holds_flushed_image () =
  let env = Tenv.make () in
  let hf = Heap_file.create env.Tenv.pool env.Tenv.kv ~table_id:1 ~page_capacity:256 in
  let rid = insert_one env hf (rcd "v1") in
  let leaf = Oib_btree.Bt_node.new_leaf () in
  Oib_btree.Bt_node.leaf_insert leaf (Tenv.keyn 1) ~pseudo:false;
  let node =
    Buffer_pool.new_page env.Tenv.pool ~kind:Oib_btree.Bt_node.kind
      ~payload:(Oib_btree.Bt_node.Node (Leaf leaf))
  in
  Buffer_pool.flush_all env.Tenv.pool;
  (* mutate both cached pages after the flush; the stable store must hold
     the images taken at flush time *)
  let page = Heap_file.page hf rid.Rid.page in
  Heap_page.put (Heap_page.of_payload page.Page.payload) rid.Rid.slot (rcd "v2");
  Oib_btree.Bt_node.leaf_insert leaf (Tenv.keyn 2) ~pseudo:true;
  let env' = Tenv.crash env in
  let hf' = Heap_file.open_existing env'.Tenv.pool env'.Tenv.kv ~table_id:1 in
  Alcotest.(check (option (of_pp Record.pp))) "heap page as flushed"
    (Some (rcd "v1"))
    (Heap_file.read_record hf' rid);
  let node' =
    Buffer_pool.get env'.Tenv.pool ~kind:Oib_btree.Bt_node.kind node.Page.id
  in
  let leaf' = Oib_btree.Bt_node.leaf_of_payload node'.Page.payload in
  Alcotest.(check int) "btree page as flushed" 1 (Oib_btree.Bt_node.leaf_n leaf');
  Alcotest.(check bool) "flushed entry" true
    (Ikey.equal (Tenv.keyn 1) (fst (Oib_btree.Bt_node.leaf_get leaf' 0)))

(* Every page read, write-back and eviction event names the role of the
   page it moved, for heap and B+-tree pages alike. *)
let test_page_events_carry_role () =
  let trace = Oib_obs.Trace.create () in
  let seen = ref [] in
  Oib_obs.Trace.add_sink trace ~name:"test" (fun e ->
      match e.Oib_obs.Event.event with
      | Oib_obs.Event.Page_read { page; role } ->
        seen := ("read", page, role) :: !seen
      | Page_write { page; role; _ } -> seen := ("write", page, role) :: !seen
      | Page_evict { page; role } -> seen := ("evict", page, role) :: !seen
      | _ -> ());
  let sched = Oib_sim.Sched.create ~trace () in
  let metrics = Oib_sim.Metrics.create () in
  let pool =
    Buffer_pool.create ~sched ~metrics
      ~log:(Oib_wal.Log_manager.create metrics)
      ~store:(Stable_store.create ())
  in
  let heap =
    Buffer_pool.new_page pool ~kind:Heap_page.kind
      ~payload:(Heap_page.Heap (Heap_page.create ~capacity:64))
  in
  let node =
    Buffer_pool.new_page pool ~kind:Oib_btree.Bt_node.kind
      ~payload:(Oib_btree.Bt_node.Node (Leaf (Oib_btree.Bt_node.new_leaf ())))
  in
  let cycle kind (p : Page.t) =
    Buffer_pool.flush_page pool p;
    Buffer_pool.evict pool p.Page.id;
    ignore (Buffer_pool.get pool ~kind p.Page.id)
  in
  cycle Heap_page.kind heap;
  cycle Oib_btree.Bt_node.kind node;
  let h = heap.Page.id and n = node.Page.id in
  Alcotest.(check (list (triple string int string))) "roles"
    [
      ("write", h, "Heap_file"); ("evict", h, "Heap_file");
      ("read", h, "Heap_file"); ("write", n, "Btree");
      ("evict", n, "Btree"); ("read", n, "Btree");
    ]
    (List.rev !seen)

(* A page whose stable image does not decode is refused on the read: the
   pool caches nothing, and the read's io span still ends. *)
let test_corrupt_image_refused () =
  let trace = Oib_obs.Trace.create () in
  let events = ref [] in
  Oib_obs.Trace.add_sink trace ~name:"test" (fun e ->
      events := e.Oib_obs.Event.event :: !events);
  let sched = Oib_sim.Sched.create ~trace () in
  let metrics = Oib_sim.Metrics.create () in
  let store = Stable_store.create () in
  let pool =
    Buffer_pool.create ~sched ~metrics
      ~log:(Oib_wal.Log_manager.create metrics)
      ~store
  in
  Stable_store.write store 3 { image = "garbage"; lsn = Lsn.nil };
  let refused () =
    match Buffer_pool.get pool ~kind:Heap_page.kind 3 with
    | exception Binc.Corrupt _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "read refused" true (refused ());
  Alcotest.(check int) "nothing cached" 0 (Buffer_pool.cached_count pool);
  Alcotest.(check bool) "refused again" true (refused ());
  let io_spans =
    List.filter_map
      (function
        | Oib_obs.Event.Span_begin { span; cat = "io"; _ } -> Some span
        | _ -> None)
      !events
  in
  Alcotest.(check int) "one io span per read" 2 (List.length io_spans);
  List.iter
    (fun span ->
      Alcotest.(check bool) "io span ended" true
        (List.mem (Oib_obs.Event.Span_end { span }) !events))
    io_spans

(* --- heap page against a slot-array model --- *)

(* The page as an array of slots, with the image encoder the page had
   when it held decoded records: the oracle for the image bytes. *)
type model_slot = M_free | M_reserved of int | M_record of Record.t

type model = {
  m_capacity : int;
  mutable m_slots : model_slot array;
  mutable m_used : int;
}

let model_encode m =
  let b = Buffer.create 256 in
  let i64 v = Buffer.add_int64_le b (Int64.of_int v) in
  i64 m.m_capacity;
  i64 (Array.length m.m_slots);
  i64 m.m_used;
  Array.iter
    (function
      | M_free -> Buffer.add_uint8 b 0
      | M_reserved c ->
        Buffer.add_uint8 b 1;
        i64 c
      | M_record r ->
        Buffer.add_uint8 b 2;
        i64 (Array.length r.Record.cols);
        Array.iter
          (fun c ->
            i64 (String.length c);
            Buffer.add_string b c)
          r.Record.cols)
    m.m_slots;
  Buffer.contents b

let model_charge = function
  | M_free -> 0
  | M_reserved c -> c
  | M_record r -> Heap_page.cost r

let model_set m slot v =
  let n = Array.length m.m_slots in
  if slot >= n then
    m.m_slots <-
      Array.init (slot + 1) (fun i -> if i < n then m.m_slots.(i) else M_free);
  m.m_used <- m.m_used - model_charge m.m_slots.(slot) + model_charge v;
  m.m_slots.(slot) <- v

type page_op =
  | Reserve of Record.t
  | Put of int * Record.t
  | Unreserve of int
  | Remove of int

let show_page_op = function
  | Reserve r -> "Reserve " ^ Record.to_string r
  | Put (i, r) -> Printf.sprintf "Put %d %s" i (Record.to_string r)
  | Unreserve i -> Printf.sprintf "Unreserve %d" i
  | Remove i -> Printf.sprintf "Remove %d" i

let gen_page_ops =
  QCheck.Gen.(
    let col = string_size ~gen:printable (int_range 0 12) in
    let record = map Record.make (array_size (int_range 0 3) col) in
    let slot = int_range (-1) 12 in
    list_size (int_range 0 60)
      (frequency
         [
           (4, map (fun r -> Reserve r) record);
           (4, map2 (fun i r -> Put (i, r)) slot record);
           (2, map (fun i -> Unreserve i) slot);
           (3, map (fun i -> Remove i) slot);
         ]))

let arb_page_ops =
  QCheck.make ~print:(QCheck.Print.list show_page_op)
    ~shrink:QCheck.Shrink.list gen_page_ops

let page_capacity = 400

(* Apply [op] to the page and the model; false if they disagree on the
   outcome. *)
let apply_page_op hp m op =
  let raises f = match f () with () -> false | exception Invalid_argument _ -> true in
  match op with
  | Reserve r ->
    if Heap_page.cost r <= m.m_capacity - m.m_used then begin
      let slot = Heap_page.reserve hp r in
      let first_free =
        let rec go i =
          if i >= Array.length m.m_slots then i
          else if m.m_slots.(i) = M_free then i
          else go (i + 1)
        in
        go 0
      in
      model_set m first_free (M_reserved (Heap_page.cost r));
      slot = first_free
    end
    else raises (fun () -> ignore (Heap_page.reserve hp r))
  | Put (slot, r) ->
    if slot < 0 then raises (fun () -> Heap_page.put hp slot r)
    else begin
      Heap_page.put hp slot r;
      model_set m slot (M_record r);
      true
    end
  | Unreserve slot ->
    if slot < 0 || slot >= Array.length m.m_slots then begin
      Heap_page.unreserve hp slot;
      true
    end
    else begin
      match m.m_slots.(slot) with
      | M_reserved _ ->
        Heap_page.unreserve hp slot;
        model_set m slot M_free;
        true
      | M_free | M_record _ -> raises (fun () -> Heap_page.unreserve hp slot)
    end
  | Remove slot ->
    Heap_page.remove hp slot;
    if slot >= 0 && slot < Array.length m.m_slots then model_set m slot M_free;
    true

let key_value_or_error f =
  match f () with
  | k -> Ok k
  | exception Invalid_argument _ -> Error ()

let page_agrees hp m =
  let image = Heap_page.encode hp in
  let slots_agree =
    let ok = ref true in
    Array.iteri
      (fun i v ->
        let r = match v with M_record r -> Some r | _ -> None in
        if Heap_page.get hp i <> r then ok := false;
        match r with
        | Some r ->
          List.iter
            (fun cols ->
              if
                key_value_or_error (fun () -> Heap_page.key_value hp i cols)
                <> key_value_or_error (fun () -> Record.key_value r cols)
              then ok := false)
            [ [ 0 ]; [ 1 ]; [ 2; 0 ]; [ 1; 2 ]; [ 0; 1; 2 ]; []; [ -1 ] ]
        | None -> ())
      m.m_slots;
    !ok
  in
  let decoded = Heap_page.decode image in
  image = model_encode m
  && Heap_page.free_bytes hp = m.m_capacity - m.m_used
  && Heap_page.record_count hp
     = Array.fold_left
         (fun n v -> match v with M_record _ -> n + 1 | _ -> n)
         0 m.m_slots
  && slots_agree
  && Heap_page.encode decoded = image
  && Heap_page.records decoded = Heap_page.records hp
  && Heap_page.free_bytes decoded = Heap_page.free_bytes hp

let page_of_ops ops =
  let hp = Heap_page.create ~capacity:page_capacity in
  let m = { m_capacity = page_capacity; m_slots = [||]; m_used = 0 } in
  let ok = List.for_all (fun op -> apply_page_op hp m op && page_agrees hp m) ops in
  (hp, m, ok)

let prop_heap_page_matches_model =
  QCheck.Test.make ~name:"page agrees with the slot-array model" ~count:300
    arb_page_ops (fun ops ->
      let _, _, ok = page_of_ops ops in
      ok)

(* Offsets of the image's tag and count bytes: the slot count, and each
   slot's tag and (for a record) its column count. *)
let tag_and_count_bytes m =
  let at = ref 24 and acc = ref (List.init 8 (fun i -> 8 + i)) in
  Array.iter
    (fun v ->
      acc := !at :: !acc;
      match v with
      | M_free -> at := !at + 1
      | M_reserved _ -> at := !at + 9
      | M_record r ->
        acc := List.init 8 (fun i -> !at + 1 + i) @ !acc;
        at := Array.fold_left (fun a c -> a + 8 + String.length c) (!at + 9) r.Record.cols)
    m.m_slots;
  !acc

(* The decoder the page had when it held decoded records: the oracle
   for which images are refused. *)
let model_decode s =
  let r = Binc.reader s in
  let m_capacity = Binc.r_i64 r in
  let n = Binc.r_count r ~min_bytes:1 in
  let m_used = Binc.r_i64 r in
  let m_slots =
    Array.init n (fun _ ->
        match Binc.r_u8 r with
        | 0 -> M_free
        | 1 -> M_reserved (Binc.r_i64 r)
        | 2 ->
          let k = Binc.r_count r ~min_bytes:8 in
          M_record (Record.make (Array.init k (fun _ -> Binc.r_str r)))
        | t -> raise (Binc.Corrupt (Printf.sprintf "slot tag %d" t)))
  in
  if not (Binc.at_end r) then raise (Binc.Corrupt "trailing bytes");
  { m_capacity; m_slots; m_used }

(* A damaged image is refused with [Binc.Corrupt] exactly when the
   oracle decoder refuses it; otherwise it is a page whose image is
   exactly those bytes and which agrees with the oracle's slots. Nothing
   else escapes decode. *)
let refused_or_faithful s =
  let oracle = match model_decode s with m -> Some m | exception Binc.Corrupt _ -> None in
  match Heap_page.decode s, oracle with
  | hp, Some m -> Heap_page.encode hp = s && page_agrees hp m
  | exception Binc.Corrupt _ -> oracle = None
  | _, None -> false
  | exception _ -> false

let prop_heap_page_damage =
  QCheck.Test.make ~name:"damaged page images refused" ~count:100 arb_page_ops
    (fun ops ->
      let _, m, _ = page_of_ops ops in
      let image = model_encode m in
      let prefixes_ok =
        List.for_all
          (fun n -> refused_or_faithful (String.sub image 0 n))
          (List.init (String.length image) Fun.id)
      in
      let changes_ok =
        List.for_all
          (fun pos ->
            let orig = Char.code image.[pos] in
            List.for_all
              (fun v ->
                let b = Bytes.of_string image in
                Bytes.set b pos (Char.chr (v land 0xff));
                refused_or_faithful (Bytes.to_string b))
              [ 0; 1; 2; 3; 0x7f; 0x80; 0xff; orig + 1; orig - 1 ])
          (tag_and_count_bytes m)
      in
      prefixes_ok && changes_ok)

let () =
  Alcotest.run "storage"
    [
      ( "heap-page",
        [
          Alcotest.test_case "put/get" `Quick test_heap_page_put_get;
          Alcotest.test_case "slot reuse" `Quick test_heap_page_slot_reuse;
          Alcotest.test_case "free bytes accounting" `Quick
            test_heap_page_free_bytes_accounting;
          Alcotest.test_case "unreserve" `Quick test_heap_page_unreserve;
          Alcotest.test_case "capacity enforced" `Quick
            test_heap_page_capacity_enforced;
          QCheck_alcotest.to_alcotest prop_heap_page_matches_model;
          QCheck_alcotest.to_alcotest prop_heap_page_damage;
        ] );
      ( "heap-file",
        [
          Alcotest.test_case "grows across pages" `Quick test_heap_file_grows;
          Alcotest.test_case "reopen after crash" `Quick test_heap_file_reopen;
          Alcotest.test_case "scan bounded by noted page" `Quick
            test_heap_file_scan_upto;
          Alcotest.test_case "duplicate create rejected" `Quick
            test_duplicate_create_rejected;
        ] );
      ( "placement",
        [
          QCheck_alcotest.to_alcotest prop_placement_matches_reference;
          Alcotest.test_case "unreported gain diverges" `Quick
            test_unreported_gain_diverges;
        ] );
      ( "buffer-pool",
        [
          Alcotest.test_case "WAL rule" `Quick test_wal_rule_enforced;
          Alcotest.test_case "crash loses unflushed" `Quick
            test_crash_loses_unflushed_pages;
          Alcotest.test_case "no-steal respected" `Quick test_no_steal_respected;
          Alcotest.test_case "stable store holds flushed image" `Quick
            test_stable_store_holds_flushed_image;
          Alcotest.test_case "corrupt image refused" `Quick
            test_corrupt_image_refused;
          Alcotest.test_case "page events carry their role" `Quick
            test_page_events_carry_role;
        ] );
    ]
