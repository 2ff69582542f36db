type t = {
  page_lsn : (int, int) Hashtbl.t;  (* shadow: last LSN seen per page *)
  undoing : (int, unit) Hashtbl.t;  (* txns inside an undo walk *)
  report : check:string -> site:string -> string -> unit;
}

let create ~report =
  { page_lsn = Hashtbl.create 64; undoing = Hashtbl.create 8; report }

let undo_kinds = [ "clr"; "abort"; "end" ]

let feed t (ev : Oib_obs.Event.t) =
  match ev with
  | Lsn_set { page; old_lsn; new_lsn; site } ->
    let shadow =
      Option.value ~default:0 (Hashtbl.find_opt t.page_lsn page)
    in
    let floor = max old_lsn shadow in
    if new_lsn < floor then
      t.report ~check:"lsn-monotonic"
        ~site:("page-" ^ string_of_int page ^ ":" ^ site)
        ("page " ^ string_of_int page ^ " LSN moved backwards: "
       ^ string_of_int floor ^ " -> " ^ string_of_int new_lsn ^ " at "
       ^ site);
    Hashtbl.replace t.page_lsn page (max floor new_lsn)
  | Page_write { page; page_lsn; flushed_lsn; _ } ->
    if flushed_lsn < page_lsn then
      t.report ~check:"steal-before-flush"
        ~site:("page-" ^ string_of_int page)
        ("page " ^ string_of_int page ^ " written back at LSN "
       ^ string_of_int page_lsn ^ " but the log is only durable to "
       ^ string_of_int flushed_lsn
       ^ " (write-ahead rule: force the log before stealing)")
  | Page_evict { page; _ } -> Hashtbl.remove t.page_lsn page
  | Undo_begin { txn } -> Hashtbl.replace t.undoing txn ()
  | Undo_end { txn } -> Hashtbl.remove t.undoing txn
  | Log_append { txn; kind; _ } ->
    if txn >= 0 && Hashtbl.mem t.undoing txn && not (List.mem kind undo_kinds)
    then
      t.report ~check:"clr-discipline"
        ~site:("txn-" ^ string_of_int txn ^ ":" ^ kind)
        ("txn " ^ string_of_int txn ^ " appended a non-compensation record ("
       ^ kind ^ ") while undoing — rollback must log CLRs only")
  | Epoch _ | Run_start ->
    Hashtbl.reset t.page_lsn;
    Hashtbl.reset t.undoing
  | Fiber_spawn _ | Fiber_exit | Resume _ | Latch_grant _
  | Latch_released _ | Lock_grant _ | Lock_rel _ | Access _ ->
    ()
  (* rendered only *)
  | Latch_wait _ | Latch_acquired _ | Lock_wait _ | Lock_acquired _
  | Lock_denied _ | Lock_released_all _ | Page_read _ | Log_flush _
  | Txn_begin _ | Txn_commit _ | Txn_abort _ | Txn_rollback_step _
  | Ib_phase _ | Ib_checkpoint _ | Ib_throttle _ | Sidefile_append _
  | Sidefile_drained _ | Checkpoint _ | Recovery_step _ | Crash _
  | Span_begin _ | Span_end _ | Sample _
  | Prof_sample _ ->
    ()
