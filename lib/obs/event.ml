(* The event taxonomy of the engine. Every constructor is one observable
   thing that happens during a run: a latch or lock transition, a page
   I/O, a log append/flush, a transaction lifecycle step, an index-builder
   phase transition, side-file traffic, a checkpoint, or a crash/recovery
   step. Events carry only primitive payloads (ints, strings) so this
   library sits below every subsystem in the dependency order.

   One stream serves two kinds of consumer: the renderers (flight
   recorder, JSONL, the profiler and dashboards) and the oib-san
   sanitizer. Some constructors exist for the sanitizer alone — every
   latch/lock grant, data accesses, page-LSN moves, resumptions — and
   [sanitizer_only] marks them so the stock renderers skip them. *)

type t =
  | Fiber_spawn of { fiber : int; name : string }
  | Fiber_exit
  | Resume of { fiber : int }
  | Latch_wait of { latch : string; mode : string; holders : string }
  | Latch_grant of { uid : int; role : string; page : int; excl : bool }
  | Latch_acquired of { latch : string; mode : string; waited : int }
  | Latch_released of {
      latch : string;
      mode : string;
      uid : int;
      role : string;
      page : int;
    }
  | Lock_wait of { owner : int; target : string; mode : string; blockers : string }
  | Lock_grant of { txn : int; target : string; table : bool; cond : bool }
  | Lock_acquired of { owner : int; target : string; mode : string; waited : int }
  | Lock_denied of { owner : int; target : string; mode : string; blockers : string }
      (** the request would deadlock; the caller becomes a victim *)
  | Lock_rel of { txn : int; target : string; table : bool }
  | Lock_released_all of { owner : int }
  | Page_read of { page : int; role : string }
  | Page_write of {
      page : int;
      role : string;
      page_lsn : int;
      flushed_lsn : int;
    }
  | Access of { page : int; write : bool; site : string }
  | Lsn_set of { page : int; old_lsn : int; new_lsn : int; site : string }
  | Page_evict of { page : int; role : string }
  | Log_append of { lsn : int; kind : string; bytes : int; txn : int }
  | Log_flush of { upto : int }
  | Txn_begin of { txn : int }
  | Txn_commit of { txn : int; latency : int }
  | Txn_abort of { txn : int; latency : int }
  | Txn_rollback_step of { txn : int; lsn : int }
  | Undo_begin of { txn : int }
  | Undo_end of { txn : int }
  | Ib_phase of { index : int; phase : string }
  | Ib_checkpoint of { index : int; stage : string }
  | Ib_throttle of { level : int; reason : string }
  | Sidefile_append of { sidefile : int; insert : bool; pos : int }
  | Sidefile_drained of { sidefile : int; from_pos : int; upto : int }
  | Checkpoint of { scope : string }
  | Recovery_step of { step : string; detail : string }
  | Crash of { reason : string }
  | Span_begin of { span : int; parent : int; cat : string; name : string }
  | Span_end of { span : int }
  | Sample of { key : string; value : int }
  | Prof_sample of {
      fiber : int;
      fname : string;
      state : string;
      path : string;
      resource : string;
      blocker : string;
    }
  | Epoch of { label : string }
      (** engine-incarnation boundary in a multi-run trace; the step clock
          restarts at the next event *)
  | Run_start

(* An event stamped with the scheduler's step clock and the fiber that
   produced it ([fiber] = -1, ["main"] outside any fiber). *)
type stamped = { step : int; fiber : int; fiber_name : string; event : t }

let kind = function
  | Fiber_spawn _ -> "fiber.spawn"
  | Fiber_exit -> "fiber.exit"
  | Resume _ -> "fiber.resume"
  | Latch_wait _ -> "latch.wait"
  | Latch_grant _ -> "latch.grant"
  | Latch_acquired _ -> "latch.acquired"
  | Latch_released _ -> "latch.released"
  | Lock_wait _ -> "lock.wait"
  | Lock_grant _ -> "lock.grant"
  | Lock_acquired _ -> "lock.acquired"
  | Lock_denied _ -> "lock.denied"
  | Lock_rel _ -> "lock.release"
  | Lock_released_all _ -> "lock.released_all"
  | Page_read _ -> "page.read"
  | Page_write _ -> "page.write"
  | Access _ -> "page.access"
  | Lsn_set _ -> "page.lsn_set"
  | Page_evict _ -> "page.evict"
  | Log_append _ -> "log.append"
  | Log_flush _ -> "log.flush"
  | Txn_begin _ -> "txn.begin"
  | Txn_commit _ -> "txn.commit"
  | Txn_abort _ -> "txn.abort"
  | Txn_rollback_step _ -> "txn.rollback_step"
  | Undo_begin _ -> "txn.undo_begin"
  | Undo_end _ -> "txn.undo_end"
  | Ib_phase _ -> "ib.phase"
  | Ib_checkpoint _ -> "ib.checkpoint"
  | Ib_throttle _ -> "ib.throttle"
  | Sidefile_append _ -> "sidefile.append"
  | Sidefile_drained _ -> "sidefile.drained"
  | Checkpoint _ -> "checkpoint"
  | Recovery_step _ -> "recovery.step"
  | Crash _ -> "crash"
  | Span_begin _ -> "span.begin"
  | Span_end _ -> "span.end"
  | Sample _ -> "sample"
  | Prof_sample _ -> "prof.sample"
  | Epoch _ -> "epoch"
  | Run_start -> "run.start"

(* Total on purpose: a new constructor must be classified before the tree
   compiles. The five facts both consumers need (spawn, latch release,
   page write-back, log append, epoch) are rendered. *)
let sanitizer_only = function
  | Fiber_exit | Resume _ | Latch_grant _ | Lock_grant _ | Lock_rel _
  | Access _ | Lsn_set _ | Page_evict _ | Undo_begin _ | Undo_end _
  | Run_start ->
    true
  | Fiber_spawn _ | Latch_wait _ | Latch_acquired _ | Latch_released _
  | Lock_wait _ | Lock_acquired _ | Lock_denied _ | Lock_released_all _
  | Page_read _ | Page_write _ | Log_append _ | Log_flush _ | Txn_begin _
  | Txn_commit _ | Txn_abort _ | Txn_rollback_step _ | Ib_phase _
  | Ib_checkpoint _ | Ib_throttle _
  | Sidefile_append _ | Sidefile_drained _ | Checkpoint _ | Recovery_step _
  | Crash _ | Span_begin _ | Span_end _ | Sample _ | Prof_sample _ | Epoch _ ->
    false

(* key=value detail string, shared by the textual dump and pp. The
   sanitizer's payload on the shared events (latch uid/role/page, page
   and flushed LSNs at write-back, the appending txn) and the page
   events' role stay out of it, so dumps read as they always have. *)
let detail = function
  | Fiber_spawn { fiber; name } -> Printf.sprintf "fiber=%d name=%s" fiber name
  | Fiber_exit | Run_start -> ""
  | Resume { fiber } -> Printf.sprintf "fiber=%d" fiber
  | Latch_wait { latch; mode; holders } ->
    Printf.sprintf "latch=%s mode=%s holders=%s" latch mode holders
  | Latch_grant { uid; role; page; excl } ->
    Printf.sprintf "uid=%d role=%s page=%d excl=%b" uid role page excl
  | Latch_acquired { latch; mode; waited } ->
    Printf.sprintf "latch=%s mode=%s waited=%d" latch mode waited
  | Latch_released { latch; mode; _ } ->
    Printf.sprintf "latch=%s mode=%s" latch mode
  | Lock_wait { owner; target; mode; blockers } ->
    Printf.sprintf "owner=%d target=%s mode=%s blockers=%s" owner target mode
      blockers
  | Lock_grant { txn; target; table; cond } ->
    Printf.sprintf "txn=%d target=%s table=%b cond=%b" txn target table cond
  | Lock_acquired { owner; target; mode; waited } ->
    Printf.sprintf "owner=%d target=%s mode=%s waited=%d" owner target mode
      waited
  | Lock_denied { owner; target; mode; blockers } ->
    Printf.sprintf "owner=%d target=%s mode=%s blockers=%s" owner target mode
      blockers
  | Lock_rel { txn; target; table } ->
    Printf.sprintf "txn=%d target=%s table=%b" txn target table
  | Lock_released_all { owner } -> Printf.sprintf "owner=%d" owner
  | Page_read { page; _ } | Page_write { page; _ } | Page_evict { page; _ } ->
    Printf.sprintf "page=%d" page
  | Access { page; write; site } ->
    Printf.sprintf "page=%d write=%b site=%s" page write site
  | Lsn_set { page; old_lsn; new_lsn; site } ->
    Printf.sprintf "page=%d old=%d new=%d site=%s" page old_lsn new_lsn site
  | Log_append { lsn; kind; bytes; _ } ->
    Printf.sprintf "lsn=%d kind=%s bytes=%d" lsn kind bytes
  | Log_flush { upto } -> Printf.sprintf "upto=%d" upto
  | Txn_begin { txn } | Undo_begin { txn } | Undo_end { txn } ->
    Printf.sprintf "txn=%d" txn
  | Txn_commit { txn; latency } ->
    Printf.sprintf "txn=%d latency=%d" txn latency
  | Txn_abort { txn; latency } -> Printf.sprintf "txn=%d latency=%d" txn latency
  | Txn_rollback_step { txn; lsn } -> Printf.sprintf "txn=%d lsn=%d" txn lsn
  | Ib_phase { index; phase } -> Printf.sprintf "index=%d phase=%s" index phase
  | Ib_checkpoint { index; stage } ->
    Printf.sprintf "index=%d stage=%s" index stage
  | Ib_throttle { level; reason } ->
    Printf.sprintf "level=%d reason=%s" level reason
  | Sidefile_append { sidefile; insert; pos } ->
    Printf.sprintf "sidefile=%d op=%s pos=%d" sidefile
      (if insert then "ins" else "del")
      pos
  | Sidefile_drained { sidefile; from_pos; upto } ->
    Printf.sprintf "sidefile=%d from=%d upto=%d" sidefile from_pos upto
  | Checkpoint { scope } -> Printf.sprintf "scope=%s" scope
  | Recovery_step { step; detail } -> Printf.sprintf "step=%s %s" step detail
  | Crash { reason } -> Printf.sprintf "reason=%s" reason
  | Span_begin { span; parent; cat; name } ->
    Printf.sprintf "span=%d parent=%d cat=%s name=%s" span parent cat name
  | Span_end { span } -> Printf.sprintf "span=%d" span
  | Sample { key; value } -> Printf.sprintf "key=%s value=%d" key value
  | Prof_sample { fiber; fname; state; path; resource; blocker } ->
    Printf.sprintf "fiber=%d fname=%s state=%s path=%s resource=%s blocker=%s"
      fiber fname state path resource blocker
  | Epoch { label } -> Printf.sprintf "label=%s" label

let pp ppf e = Format.fprintf ppf "%-18s %s" (kind e) (detail e)

let pp_stamped ppf s =
  Format.fprintf ppf "step=%-7d %-14s %a" s.step s.fiber_name pp s.event

let to_line s = Format.asprintf "%a" pp_stamped s

(* --- machine-readable JSON (no external dependency) --- *)

let fields = function
  (* "id", not "fiber": the stamp already writes a "fiber" key into the
     same JSON object (like Recovery_step's "what" below) *)
  | Fiber_spawn { fiber; name } ->
    [ ("id", `I fiber); ("name", `S name) ]
  | Fiber_exit | Run_start -> []
  | Resume { fiber } -> [ ("id", `I fiber) ]
  | Latch_wait { latch; mode; holders } ->
    [ ("latch", `S latch); ("mode", `S mode); ("holders", `S holders) ]
  | Latch_grant { uid; role; page; excl } ->
    [ ("uid", `I uid); ("role", `S role); ("page", `I page);
      ("excl", `B excl) ]
  | Latch_acquired { latch; mode; waited } ->
    [ ("latch", `S latch); ("mode", `S mode); ("waited", `I waited) ]
  | Latch_released { latch; mode; uid; role; page } ->
    [ ("latch", `S latch); ("mode", `S mode); ("uid", `I uid);
      ("role", `S role); ("page", `I page) ]
  | Lock_wait { owner; target; mode; blockers } ->
    [ ("owner", `I owner); ("target", `S target); ("mode", `S mode);
      ("blockers", `S blockers) ]
  | Lock_grant { txn; target; table; cond } ->
    [ ("txn", `I txn); ("target", `S target); ("table", `B table);
      ("cond", `B cond) ]
  | Lock_acquired { owner; target; mode; waited } ->
    [ ("owner", `I owner); ("target", `S target); ("mode", `S mode);
      ("waited", `I waited) ]
  | Lock_denied { owner; target; mode; blockers } ->
    [ ("owner", `I owner); ("target", `S target); ("mode", `S mode);
      ("blockers", `S blockers) ]
  | Lock_rel { txn; target; table } ->
    [ ("txn", `I txn); ("target", `S target); ("table", `B table) ]
  | Lock_released_all { owner } -> [ ("owner", `I owner) ]
  | Page_read { page; role } | Page_evict { page; role } ->
    [ ("page", `I page); ("role", `S role) ]
  | Page_write { page; role; page_lsn; flushed_lsn } ->
    [ ("page", `I page); ("role", `S role); ("page_lsn", `I page_lsn);
      ("flushed_lsn", `I flushed_lsn) ]
  | Access { page; write; site } ->
    [ ("page", `I page); ("write", `B write); ("site", `S site) ]
  | Lsn_set { page; old_lsn; new_lsn; site } ->
    [ ("page", `I page); ("old_lsn", `I old_lsn); ("new_lsn", `I new_lsn);
      ("site", `S site) ]
  | Log_append { lsn; kind; bytes; txn } ->
    [ ("lsn", `I lsn); ("kind", `S kind); ("bytes", `I bytes);
      ("txn", `I txn) ]
  | Log_flush { upto } -> [ ("upto", `I upto) ]
  | Txn_begin { txn } | Undo_begin { txn } | Undo_end { txn } ->
    [ ("txn", `I txn) ]
  | Txn_commit { txn; latency } -> [ ("txn", `I txn); ("latency", `I latency) ]
  | Txn_abort { txn; latency } -> [ ("txn", `I txn); ("latency", `I latency) ]
  | Txn_rollback_step { txn; lsn } -> [ ("txn", `I txn); ("lsn", `I lsn) ]
  | Ib_phase { index; phase } -> [ ("index", `I index); ("phase", `S phase) ]
  | Ib_checkpoint { index; stage } ->
    [ ("index", `I index); ("stage", `S stage) ]
  | Ib_throttle { level; reason } ->
    [ ("level", `I level); ("reason", `S reason) ]
  | Sidefile_append { sidefile; insert; pos } ->
    [ ("sidefile", `I sidefile); ("insert", `B insert); ("pos", `I pos) ]
  | Sidefile_drained { sidefile; from_pos; upto } ->
    [ ("sidefile", `I sidefile); ("from", `I from_pos); ("upto", `I upto) ]
  | Checkpoint { scope } -> [ ("scope", `S scope) ]
  (* the payload key is "what", not "step": the stamp already has an
     integer "step" and a JSON object must not repeat a key *)
  | Recovery_step { step; detail } ->
    [ ("what", `S step); ("detail", `S detail) ]
  | Crash { reason } -> [ ("reason", `S reason) ]
  | Span_begin { span; parent; cat; name } ->
    [ ("span", `I span); ("parent", `I parent); ("cat", `S cat);
      ("name", `S name) ]
  | Span_end { span } -> [ ("span", `I span) ]
  | Sample { key; value } -> [ ("key", `S key); ("value", `I value) ]
  (* "id"/"fname", not "fiber"/"fiber_name": the stamp already writes
     both keys into the same JSON object (samples are taken outside any
     fiber, so the stamp says main; the payload names the sampled fiber) *)
  | Prof_sample { fiber; fname; state; path; resource; blocker } ->
    [ ("id", `I fiber); ("fname", `S fname); ("state", `S state);
      ("path", `S path); ("resource", `S resource); ("blocker", `S blocker) ]
  | Epoch { label } -> [ ("label", `S label) ]

let to_json s =
  let esc = Oib_util.Json_string.escape in
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "{\"step\":%d,\"fiber\":%d,\"fiber_name\":\"%s\",\"type\":\"%s\""
       s.step s.fiber (esc s.fiber_name) (kind s.event));
  List.iter
    (fun (k, v) ->
      Buffer.add_string b
        (match v with
        | `I i -> Printf.sprintf ",\"%s\":%d" k i
        | `S x -> Printf.sprintf ",\"%s\":\"%s\"" k (esc x)
        | `B x -> Printf.sprintf ",\"%s\":%b" k x))
    (fields s.event);
  Buffer.add_char b '}';
  Buffer.contents b
