module Diag = Oib_lint.Diag
module Event = Oib_obs.Event

(* one held latch *)
type held_latch = { h_uid : int; h_role : string; h_excl : bool }

type t = {
  (* happens-before state *)
  fiber_vc : (int, Vc.t) Hashtbl.t;
  latch_rel_vc : (int, Vc.t) Hashtbl.t;  (* latch uid -> last release *)
  lock_rel_vc : (string, Vc.t) Hashtbl.t;  (* lock target -> last release *)
  (* what each fiber holds right now *)
  held_latches : (int, held_latch list) Hashtbl.t;
  held_locks : (int, (string * bool) list) Hashtbl.t;  (* target, table *)
  lockset : Lockset.t;
  goodlock : Goodlock.t;
  wal : Wal_check.t;
  mutable reports : Diag.t list;
  seen : (string, unit) Hashtbl.t;  (* rule ^ site dedup *)
  mutable notify : (Diag.t -> unit) option;
  mutable events : int;
  mutable runs : int;
  mutable races : int;
  mutable wal_violations : int;
}

(* --- report plumbing --- *)

let add_report t (d : Diag.t) count =
  let key = d.rule ^ "\x00" ^ d.site in
  if not (Hashtbl.mem t.seen key) then begin
    Hashtbl.add t.seen key ();
    t.reports <- d :: t.reports;
    count ();
    match t.notify with None -> () | Some f -> f d
  end

let race_diag ~page ~(prev : Lockset.access) ~(cur : Lockset.access) =
  let tokens s =
    if Lockset.Sset.is_empty s then "nothing"
    else String.concat "," (Lockset.Sset.elements s)
  in
  let half (a : Lockset.access) =
    (if a.a_write then "write" else "read")
    ^ " at " ^ a.a_site ^ " by fiber " ^ string_of_int a.a_fiber
    ^ " holding " ^ tokens a.a_locks
  in
  Diag.make
    ~site:
      ("page-" ^ string_of_int page ^ ":" ^ prev.a_site ^ "/" ^ cur.a_site)
    ~file:"<san>" ~line:0 ~col:0 ~rule:"SAN-race"
    ~hint:
      "latch the page (X for writes) across the access, or order the \
       fibers with an explicit sync edge"
    ("unsynchronized access pair on page " ^ string_of_int page ^ ": "
   ^ half prev ^ ", then " ^ half cur
   ^ " with no common latch and no happens-before edge between them")

let wal_diag ~check ~site msg =
  Diag.make ~site:(check ^ ":" ^ site) ~file:"<san>" ~line:0 ~col:0
    ~rule:"SAN-wal"
    ~hint:
      "WAL protocol violation — force the log before stealing, keep page \
       LSNs monotone, log only CLRs during undo"
    msg

let create () =
  let rec t =
    lazy
      {
        fiber_vc = Hashtbl.create 32;
        latch_rel_vc = Hashtbl.create 128;
        lock_rel_vc = Hashtbl.create 128;
        held_latches = Hashtbl.create 32;
        held_locks = Hashtbl.create 32;
        lockset =
          Lockset.create ~report:(fun ~page ~prev ~cur ->
              let s = Lazy.force t in
              add_report s (race_diag ~page ~prev ~cur) (fun () ->
                  s.races <- s.races + 1));
        goodlock = Goodlock.create ();
        wal =
          Wal_check.create ~report:(fun ~check ~site msg ->
              let s = Lazy.force t in
              add_report s (wal_diag ~check ~site msg) (fun () ->
                  s.wal_violations <- s.wal_violations + 1));
        reports = [];
        seen = Hashtbl.create 32;
        notify = None;
        events = 0;
        runs = 0;
        races = 0;
        wal_violations = 0;
      }
  in
  Lazy.force t

let on_report t f = t.notify <- Some f

(* --- vector-clock helpers --- *)

let vc t f =
  match Hashtbl.find_opt t.fiber_vc f with
  | Some v -> v
  | None ->
    let v = Vc.tick f Vc.empty in
    Hashtbl.replace t.fiber_vc f v;
    v

let set_vc t f v = Hashtbl.replace t.fiber_vc f v

(* release-side of a sync edge: publish my clock, then advance past it *)
let publish t tbl key f =
  Hashtbl.replace tbl key (vc t f);
  set_vc t f (Vc.tick f (vc t f))

(* acquire-side: absorb the last published clock, if any *)
let absorb t tbl key f =
  match Hashtbl.find_opt tbl key with
  | None -> ()
  | Some v -> set_vc t f (Vc.join (vc t f) v)

(* --- held-set helpers --- *)

let latches_of t f = Option.value ~default:[] (Hashtbl.find_opt t.held_latches f)
let locks_of t f = Option.value ~default:[] (Hashtbl.find_opt t.held_locks f)

(* The releasing fiber is usually the holder, but latch ownership can
   transfer between fibers (heap_file hands latched pages over); fall
   back to a scan so the shadow held-set never leaks. Returns the fiber
   the entry was found under. *)
let remove_latch t f uid =
  let mine = latches_of t f in
  if List.exists (fun h -> h.h_uid = uid) mine then begin
    Hashtbl.replace t.held_latches f
      (List.filter (fun h -> h.h_uid <> uid) mine);
    f
  end
  else begin
    let owner = ref f in
    Hashtbl.iter
      (fun g hs ->
        if !owner = f && List.exists (fun h -> h.h_uid = uid) hs then
          owner := g)
      t.held_latches;
    if !owner <> f then
      Hashtbl.replace t.held_latches !owner
        (List.filter (fun h -> h.h_uid <> uid) (latches_of t !owner));
    !owner
  end

let remove_lock t f target =
  let mine = locks_of t f in
  if List.exists (fun (tg, _) -> tg = target) mine then
    Hashtbl.replace t.held_locks f
      (List.filter (fun (tg, _) -> tg <> target) mine)
  else
    Hashtbl.iter
      (fun g ls ->
        if List.exists (fun (tg, _) -> tg = target) ls then
          Hashtbl.replace t.held_locks g
            (List.filter (fun (tg, _) -> tg <> target) ls))
      t.held_locks

let lock_node table = if table then "lock:table" else "lock:record"

let latch_token uid = "L" ^ string_of_int uid
let lock_token target = "K:" ^ target

let access_of t f ~write ~site =
  let latches = latches_of t f in
  let locks = locks_of t f in
  let all =
    List.fold_left
      (fun s h -> Lockset.Sset.add (latch_token h.h_uid) s)
      (List.fold_left
         (fun s (tg, _) -> Lockset.Sset.add (lock_token tg) s)
         Lockset.Sset.empty locks)
      latches
  in
  let xs =
    List.fold_left
      (fun s h -> if h.h_excl then Lockset.Sset.add (latch_token h.h_uid) s else s)
      (List.fold_left
         (fun s (tg, _) -> Lockset.Sset.add (lock_token tg) s)
         Lockset.Sset.empty locks)
      latches
  in
  {
    Lockset.a_fiber = f;
    a_vc = vc t f;
    a_locks = all;
    a_xlocks = xs;
    a_write = write;
    a_site = site;
  }

let reset_volatile t =
  Hashtbl.reset t.fiber_vc;
  Hashtbl.reset t.latch_rel_vc;
  Hashtbl.reset t.lock_rel_vc;
  Hashtbl.reset t.held_latches;
  Hashtbl.reset t.held_locks;
  Lockset.reset t.lockset

(* --- the consumer --- *)

(* One event from fiber [f]; false for the rendered-only kinds, which the
   sanitizer neither analyses nor counts. *)
let analyse t f (ev : Event.t) =
  match ev with
  | Fiber_spawn { fiber = child; _ } ->
    set_vc t child (Vc.join (vc t child) (vc t f));
    set_vc t f (Vc.tick f (vc t f));
    true
  | Fiber_exit ->
    (* joins into the main context (fiber -1): everything after the
       scheduler loop returns is ordered after every fiber *)
    set_vc t (-1) (Vc.join (vc t (-1)) (vc t f));
    Hashtbl.remove t.held_latches f;
    Hashtbl.remove t.held_locks f;
    true
  | Resume { fiber } ->
    (* stamped fiber [f] is the resumer: the thunk runs in its context *)
    set_vc t fiber (Vc.join (vc t fiber) (vc t f));
    set_vc t f (Vc.tick f (vc t f));
    true
  | Latch_grant { uid; role; page; excl } ->
    absorb t t.latch_rel_vc uid f;
    List.iter
      (fun h ->
        Goodlock.add_edge t.goodlock ~src:h.h_role ~dst:role)
      (latches_of t f);
    List.iter
      (fun (_, table) ->
        Goodlock.add_edge t.goodlock ~src:(lock_node table) ~dst:role)
      (locks_of t f);
    Hashtbl.replace t.held_latches f
      ({ h_uid = uid; h_role = role; h_excl = excl } :: latches_of t f);
    (* a page latch grant is itself a page access (S = read, X = write):
       the S chokepoint gives the race detector read coverage without an
       event at every read site *)
    if page >= 0 then
      Lockset.record t.lockset ~page
        (access_of t f ~write:excl ~site:(role ^ ".latch"));
    true
  | Latch_released { uid; _ } ->
    ignore (remove_latch t f uid : int);
    publish t t.latch_rel_vc uid f;
    true
  | Lock_grant { target; table; cond; _ } ->
    absorb t t.lock_rel_vc target f;
    (* conditional requests never wait, so they cannot close a deadlock
       cycle: the lock is recorded as held (it protects accesses and may
       source later edges) but draws no incoming order edge — this is
       precisely the paper's latched-conditional-lock discipline *)
    if not cond then begin
      List.iter
        (fun h ->
          Goodlock.add_edge t.goodlock ~src:h.h_role ~dst:(lock_node table))
        (latches_of t f);
      List.iter
        (fun (_, tb') ->
          Goodlock.add_edge t.goodlock ~src:(lock_node tb')
            ~dst:(lock_node table))
        (locks_of t f)
    end;
    Hashtbl.replace t.held_locks f ((target, table) :: locks_of t f);
    true
  | Lock_rel { target; _ } ->
    remove_lock t f target;
    publish t t.lock_rel_vc target f;
    true
  | Access { page; write; site } ->
    Lockset.record t.lockset ~page (access_of t f ~write ~site);
    true
  | Lsn_set _ | Page_write _ | Log_append _ | Undo_begin _ | Undo_end _ ->
    true (* the WAL checker's alone *)
  | Page_evict { page; _ } ->
    Lockset.clear_page t.lockset page;
    true
  | Epoch _ | Run_start ->
    t.runs <- t.runs + 1;
    reset_volatile t;
    true
  | Latch_wait _ | Latch_acquired _ | Lock_wait _ | Lock_acquired _
  | Lock_denied _ | Lock_released_all _ | Page_read _ | Log_flush _
  | Txn_begin _ | Txn_commit _ | Txn_abort _ | Txn_rollback_step _
  | Ib_phase _ | Ib_checkpoint _ | Ib_throttle _ | Sidefile_append _
  | Sidefile_drained _ | Checkpoint _ | Recovery_step _ | Crash _
  | Span_begin _ | Span_end _ | Sample _
  | Prof_sample _ ->
    false

let feed t (s : Event.stamped) =
  Wal_check.feed t.wal s.event;
  if analyse t s.fiber s.event then t.events <- t.events + 1

let attach t trace = Oib_obs.Trace.add_sink trace ~name:"oib-san" (feed t)

(* --- results --- *)

let cycle_diags t =
  List.map
    (fun cyc ->
      let path = String.concat " -> " (cyc @ [ List.hd cyc ]) in
      Diag.make ~site:path ~file:"<san>" ~line:0 ~col:0 ~rule:"SAN-order"
        ~hint:
          "establish one global acquisition order between these \
           structures; the cycle is assembled from edges possibly seen \
           in different runs — no deadlock need have manifested"
        ("potential deadlock: acquisition-order cycle " ^ path))
    (Goodlock.cycles t.goodlock)

let reports t = Diag.dedupe (cycle_diags t @ t.reports)

let clean t = reports t = []

let runtime_edges t = Goodlock.edges t.goodlock

let stats_json t =
  let order_cycles = List.length (Goodlock.cycles t.goodlock) in
  "{\"events\":" ^ string_of_int t.events
  ^ ",\"runs\":" ^ string_of_int t.runs
  ^ ",\"races\":" ^ string_of_int t.races
  ^ ",\"order_cycles\":" ^ string_of_int order_cycles
  ^ ",\"wal_violations\":" ^ string_of_int t.wal_violations
  ^ ",\"edges\":" ^ string_of_int (List.length (runtime_edges t))
  ^ "}"
