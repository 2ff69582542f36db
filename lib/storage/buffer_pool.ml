type t = {
  sched : Oib_sim.Sched.t;
  metrics : Oib_sim.Metrics.t;
  log : Oib_wal.Log_manager.t;
  store : Stable_store.t;
  cache : (int, Page.t) Hashtbl.t;
  mutable next_page_id : int;
  mutable io_registry : Oib_obs.Registry.t option;
  mutable io_counters : (string * Oib_obs.Registry.counter option array) list;
      (* per role, indexed by [io_index]: handles found in [io_registry] *)
}

type io = Read | Write | Evict

let create ~sched ~metrics ~log ~store =
  {
    sched;
    metrics;
    log;
    store;
    cache = Hashtbl.create 256;
    (* after a crash, page ids must not be reused *)
    next_page_id = Stable_store.max_page_id store + 1;
    io_registry = None;
    io_counters = [];
  }

let sched t = t.sched
let metrics t = t.metrics
let log t = t.log
let store t = t.store

let io_index = function Read -> 0 | Write -> 1 | Evict -> 2

let io_name = function
  | Read -> "pool.page_read"
  | Write -> "pool.page_write"
  | Evict -> "pool.page_evict"

(* Role-labeled page-traffic counters in the central registry (e.g.
   [pool.page_read{role=Heap_file}]), a no-op when no registry is
   attached. Each handle is found (or created) by its rendered name on
   its first bump and cached until the metrics carry another registry,
   so a page I/O renders and hashes no name. *)
let bump t io ~role =
  match Oib_sim.Metrics.registry t.metrics with
  | None -> ()
  | Some reg ->
    (match t.io_registry with
    | Some r when r == reg -> ()
    | _ ->
      t.io_registry <- Some reg;
      t.io_counters <- []);
    let rec find = function
      | (r, slots) :: rest ->
        if r == role || String.equal r role then slots else find rest
      | [] ->
        let slots = Array.make 3 None in
        t.io_counters <- (role, slots) :: t.io_counters;
        slots
    in
    let slots = find t.io_counters in
    let c =
      match slots.(io_index io) with
      | Some c -> c
      | None ->
        let c =
          Oib_obs.Registry.counter reg ~labels:[ ("role", role) ] (io_name io)
        in
        slots.(io_index io) <- Some c;
        c
    in
    Oib_obs.Registry.incr c

let new_page t ~kind ~payload =
  let id = t.next_page_id in
  t.next_page_id <- id + 1;
  let page = Page.make ~kind ~id ~sched:t.sched ~metrics:t.metrics ~payload in
  page.dirty <- true;
  Hashtbl.replace t.cache id page;
  page

let get t ~(kind : Page.kind) id =
  match Hashtbl.find_opt t.cache id with
  | Some p -> p
  | None -> begin
    match Stable_store.read t.store id with
    | None -> raise Not_found
    | Some { image; lsn } ->
      Oib_sim.Metrics.add t.metrics Page_reads 1;
      bump t Read ~role:kind.role;
      let tr = Oib_sim.Sched.trace t.sched in
      let span =
        if Oib_obs.Trace.tracing tr then
          Oib_obs.Trace.span_begin tr ~cat:"io"
            ~name:(Printf.sprintf "read:page-%d" id)
        else 0
      in
      if Oib_obs.Trace.tracing tr then
        Oib_obs.Trace.emit tr (Oib_obs.Event.Page_read { page = id });
      (* the decode is part of the read; a corrupt image ends the span
         and leaves nothing cached *)
      let payload =
        try kind.decode image
        with e ->
          Oib_obs.Trace.span_end tr span;
          raise e
      in
      let page = Page.make ~kind ~id ~sched:t.sched ~metrics:t.metrics ~payload in
      page.Page.lsn <- lsn;
      Hashtbl.replace t.cache id page;
      Oib_obs.Trace.span_end tr span;
      page
  end

let mem t id = Hashtbl.mem t.cache id || Stable_store.mem t.store id

let install t ~kind id ~payload =
  if mem t id then invalid_arg "Buffer_pool.install: page exists";
  let page = Page.make ~kind ~id ~sched:t.sched ~metrics:t.metrics ~payload in
  page.dirty <- true;
  Hashtbl.replace t.cache id page;
  if id >= t.next_page_id then t.next_page_id <- id + 1;
  page

(* The page write-back shared by the live path (which forces the log
   first) and the test-only WAL-bypass (which must be observable as a
   steal-before-flush by the sanitizer). *)
let write_back t (page : Page.t) =
  let tr = Oib_sim.Sched.trace t.sched in
  Oib_sim.Metrics.add t.metrics Page_writes 1;
  bump t Write ~role:page.kind.role;
  if Oib_obs.Trace.tracing tr then
    Oib_obs.Trace.emit tr
      (Oib_obs.Event.Page_write
         {
           page = page.id;
           page_lsn = Oib_wal.Lsn.to_int page.Page.lsn;
           flushed_lsn =
             Oib_wal.Lsn.to_int (Oib_wal.Log_manager.flushed_lsn t.log);
         });
  Stable_store.write t.store page.id
    { image = page.kind.encode page.payload; lsn = page.Page.lsn };
  page.dirty <- false

let flush_page t (page : Page.t) =
  if page.dirty then begin
    let tr = Oib_sim.Sched.trace t.sched in
    let span =
      if Oib_obs.Trace.tracing tr then
        Oib_obs.Trace.span_begin tr ~cat:"io"
          ~name:(Printf.sprintf "write:page-%d" page.id)
      else 0
    in
    (* write-ahead rule; its logflush span nests inside this io span *)
    Oib_wal.Log_manager.flush t.log ~upto:page.Page.lsn;
    write_back t page;
    Oib_obs.Trace.span_end tr span
  end

let unsafe_steal_without_wal t (page : Page.t) =
  if page.dirty then write_back t page

let flush_all t =
  let pages = Hashtbl.fold (fun _ p acc -> p :: acc) t.cache [] in
  let pages = List.sort (fun (a : Page.t) b -> compare a.id b.id) pages in
  (* no-steal pages (index pages between sharp image checkpoints) are only
     written by their owner's explicit checkpoint *)
  List.iter
    (fun (p : Page.t) -> if not p.no_steal then flush_page t p)
    pages

let flush_some t rng p =
  Hashtbl.iter
    (fun _ page ->
      if page.Page.dirty && (not page.Page.no_steal) && Oib_util.Rng.chance rng p
      then flush_page t page)
    t.cache

let reserve_page_ids t ~upto =
  if upto >= t.next_page_id then t.next_page_id <- upto + 1

let note_evict t id =
  match Hashtbl.find_opt t.cache id with
  | None -> ()
  | Some page ->
    let tr = Oib_sim.Sched.trace t.sched in
    if Oib_obs.Trace.tracing tr then
      Oib_obs.Trace.emit tr (Oib_obs.Event.Page_evict { page = id });
    bump t Evict ~role:page.Page.kind.role;
    Oib_sim.Metrics.add t.metrics Pages_evicted 1

let evict t id =
  note_evict t id;
  Hashtbl.remove t.cache id

let drop t id =
  note_evict t id;
  Hashtbl.remove t.cache id;
  Stable_store.remove t.store id

let dirty_count t =
  Hashtbl.fold (fun _ p acc -> if p.Page.dirty then acc + 1 else acc) t.cache 0

let cached_count t = Hashtbl.length t.cache
