(* Per-layer cost probes: direct calls into one layer's public API on the
   workload's own data, timed after the traced repetition. Each reports
   wall ns per item, so a layer's cost can be read apart from the
   scheduling around it. *)

open Oib_util
open Oib_core
module Btree = Oib_btree.Btree
module Heap_file = Oib_storage.Heap_file
module Heap_page = Oib_storage.Heap_page

let now = Layers.now

let ns_per ~items f =
  let t0 = now () in
  f ();
  float_of_int (now () - t0) /. float_of_int (max 1 items)

(* Each probe runs over the whole table, and the per-page copy several
   times, so one reading spans milliseconds, not microseconds. *)
let copy_passes = 5

let run (ctx : Ctx.t) =
  let heap = (Catalog.table ctx.Ctx.catalog Rep.table).Catalog.heap in
  let info = Catalog.index ctx.Ctx.catalog Rep.index_id in
  let page_ids = Heap_file.page_ids heap in
  let page_keys =
    List.map
      (fun id ->
        let hp = Heap_page.of_payload (Heap_file.page heap id).Oib_storage.Page.payload in
        ( id,
          List.map
            (fun (slot, r) -> Catalog.key_of info r ~rid:(Rid.make ~page:id ~slot))
            (Heap_page.records hp) ))
      page_ids
  in
  let keys = Array.of_list (List.concat_map snd page_keys) in
  Array.sort Ikey.compare keys;
  let n = Array.length keys in
  (* WAL codec: encode then decode every record this engine logged *)
  let records = Oib_wal.Log_manager.all_records ctx.Ctx.log in
  let n_records = List.length records in
  let encoded = ref [] in
  let encode_ns =
    ns_per ~items:n_records (fun () ->
        encoded := List.rev_map Oib_wal.Log_codec.encode records)
  in
  let decode_ns =
    ns_per ~items:n_records (fun () ->
        List.iter
          (fun s -> ignore (Oib_wal.Log_codec.decode s ~pos:0))
          !encoded)
  in
  (* the stable store's encode/decode round trip, per heap page *)
  let payloads =
    List.map (fun id -> (Heap_file.page heap id).Oib_storage.Page.payload) page_ids
  in
  let page_copy_ns =
    ns_per
      ~items:(copy_passes * List.length payloads)
      (fun () ->
        for _ = 1 to copy_passes do
          List.iter (fun p -> ignore (Heap_page.copy_payload p)) payloads
        done)
  in
  (* B+-tree: NSF's cursor inserts and SF's bottom-up load of the sorted
     keys into fresh trees, and point probes on the workload's index *)
  let scratch = Engine.create () in
  let fresh id =
    Btree.create scratch.Ctx.pool scratch.Ctx.kv ~index_id:id
      ~page_capacity:(Catalog.page_capacity ctx.Ctx.catalog) ~unique:false
  in
  let cursor_tree = fresh 1 in
  let cursor = Btree.new_cursor cursor_tree in
  let cursor_insert_ns =
    ns_per ~items:n (fun () ->
        Array.iter
          (fun k ->
            ignore (Btree.insert_if_absent cursor_tree ~ib_split:true ~cursor k))
          keys)
  in
  let bulk_add_ns =
    ns_per ~items:n (fun () ->
        let b = Btree.Bulk.start (fresh 2) in
        Array.iter (Btree.Bulk.add b) keys;
        Btree.Bulk.finish b)
  in
  let probe_ns =
    ns_per ~items:n (fun () ->
        Array.iter (fun k -> ignore (Btree.read_state info.Catalog.tree k)) keys)
  in
  (* sort: run formation at the builder's tournament size, then the merge *)
  let kv = Oib_storage.Durable_kv.create () in
  let store = Oib_sort.Run_store.create () in
  let runs = ref [] in
  let feed_ns =
    ns_per ~items:n (fun () ->
        let s =
          Oib_sort.Sort_phase.start kv store ~ckpt_id:"probe-sort"
            ~memory_keys:(Ib.default_config Ib.Nsf).Ib.memory_keys
        in
        List.iter
          (fun (id, ks) -> Oib_sort.Sort_phase.feed_page s ~scan_pos:id ks)
          page_keys;
        runs := Oib_sort.Sort_phase.finish s)
  in
  let merge_ns =
    ns_per ~items:n (fun () ->
        ignore
          (Oib_sort.Merge_phase.merge_all kv store ~ckpt_id:"probe-merge"
             ~inputs:!runs ~output:"probe-out" ~fan_in:16 ~ckpt_every:4096))
  in
  [
    ("wal.codec_ns_per_record", encode_ns +. decode_ns);
    ("storage.page_copy_ns", page_copy_ns);
    ("btree.cursor_insert_ns", cursor_insert_ns);
    ("btree.bulk_add_ns", bulk_add_ns);
    ("btree.probe_ns", probe_ns);
    ("sort.feed_ns_per_key", feed_ns);
    ("sort.merge_ns_per_key", merge_ns);
  ]
