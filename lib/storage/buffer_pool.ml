type t = {
  sched : Oib_sim.Sched.t;
  metrics : Oib_sim.Metrics.t;
  log : Oib_wal.Log_manager.t;
  store : Stable_store.t;
  cache : (int, Page.t) Hashtbl.t;
  mutable next_page_id : int;
}

let create ~sched ~metrics ~log ~store =
  {
    sched;
    metrics;
    log;
    store;
    cache = Hashtbl.create 256;
    (* after a crash, page ids must not be reused *)
    next_page_id = Stable_store.max_page_id store + 1;
  }

let sched t = t.sched
let metrics t = t.metrics
let log t = t.log
let store t = t.store

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
      let tr = Oib_sim.Sched.trace t.sched in
      let span =
        if Oib_obs.Trace.tracing tr then
          Oib_obs.Trace.span_begin tr ~cat:"io"
            ~name:(Printf.sprintf "read:page-%d" id)
        else 0
      in
      if Oib_obs.Trace.tracing tr then
        Oib_obs.Trace.emit tr
          (Oib_obs.Event.Page_read { page = id; role = kind.role });
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
  if Oib_obs.Trace.tracing tr then
    Oib_obs.Trace.emit tr
      (Oib_obs.Event.Page_write
         {
           page = page.id;
           role = page.kind.role;
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
      Oib_obs.Trace.emit tr
        (Oib_obs.Event.Page_evict { page = id; role = page.Page.kind.role });
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
