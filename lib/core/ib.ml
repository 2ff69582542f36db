open Oib_util
open Oib_storage
module LR = Oib_wal.Log_record
module Lsn = Oib_wal.Lsn
module LM = Oib_wal.Log_manager
module LockM = Oib_lock.Lock_manager
module Btree = Oib_btree.Btree
module Latch = Oib_sim.Latch
module Sched = Oib_sim.Sched
module SF = Oib_sidefile.Side_file
module Sort = Oib_sort.Sort_phase
module Merge = Oib_sort.Merge_phase
module Runs = Oib_sort.Run_store

type algorithm = LR.algorithm = Nsf | Sf

type config = {
  algorithm : algorithm;
  memory_keys : int;
  batch_size : int;
  ckpt_every_pages : int;
  ckpt_every_keys : int;
  specialized_split : bool;
  sort_sidefile : bool;
}

let default_config algorithm =
  {
    algorithm;
    memory_keys = 512;
    batch_size = 32;
    ckpt_every_pages = 64;
    ckpt_every_keys = 4096;
    specialized_split = true;
    sort_sidefile = false;
  }

exception Build_unique_violation of { index : int; kv : string }

exception Build_paused of { index : int }

type spec = { index_id : int; key_cols : int list; unique : bool }

(* --- test observer (DST scan-accounting oracle) ---

   Process-global, so a harness can watch every engine incarnation. *)

type scan_event =
  | Scan_start of { index : int; pos : int }
  | Page_extracted of { index : int; page : int }
  | Scan_checkpoint of { index : int; pos : int }

let scan_observer : (scan_event -> unit) option ref = ref None
let set_scan_observer f = scan_observer := f

let observe e = match !scan_observer with Some f -> f e | None -> ()

(* --- admission-controlled pacing --- *)

(* An IB pacing point: one voluntary yield so transactions interleave,
   then one more per throttle level, read after that yield, while the
   builder is backed off. At level 0 there are no extra yields, so
   fault-free runs are step-identical to pre-throttle builds. *)
let pace ctx =
  Sched.yield ctx.Ctx.sched;
  for _ = 1 to Throttle.extra_yields ctx.Ctx.throttle do
    Sched.yield ctx.Ctx.sched
  done

(* Operator pause: honored only right after a durable checkpoint, so the
   interrupted build resumes exactly where a crash would have. *)
let check_pause ctx ~index_id =
  if Throttle.pause_requested ctx.Ctx.throttle then
    raise (Build_paused { index = index_id })

(* --- a build's durable state ---

   Everything a build keeps lives under "ib/<id>/": the progress record,
   the sort and merge checkpoints, the supersede list,
   and every sorted run. [drop_build_state] is the one place it goes. *)

(* Durable build progress: the stage a restart re-enters the driver at.
   The build's algorithm is in its Build_start record. *)
type stage =
  | Scanning of { last_scan_page : int }
      (* heap end noted at admission (-1: empty); NSF scans up to it *)
  | Merging of { runs : string list }
  | Inserting of { highest : Ikey.t option } (* NSF *)
  | Bulking of { highest : Ikey.t option } (* SF *)
  | Draining of { pos : int } (* SF *)

(* (side-file length, scan position) pairs noted at each scan-stage
   resume of an SF build: the drain skips entry i with RID r when some
   pair has i < length and r > position *)
type Durable_kv.value +=
  | Ib_progress of stage
  | Ib_superseded of (int * Rid.t) list

let build_key index_id name = Printf.sprintf "ib/%d/%s" index_id name
let progress_key index_id = build_key index_id "progress"
let sort_key index_id = build_key index_id "sort"
let sorted_run_name index_id = build_key index_id "merged-output"

let scan_checkpoint ctx ~index_id =
  Sort.checkpointed_scan_pos ctx.Ctx.kv ~ckpt_id:(sort_key index_id)

let drop_build_state ctx index_id =
  let mine = String.starts_with ~prefix:(build_key index_id "") in
  List.iter
    (fun n -> if mine n then Runs.delete_run ctx.Ctx.runs n)
    (Runs.run_names ctx.Ctx.runs);
  List.iter
    (fun k -> if mine k then Durable_kv.remove ctx.Ctx.kv k)
    (Durable_kv.keys ctx.Ctx.kv)

(* a lock-owner id for IB's own lock calls, distinct from transaction ids *)
let ib_owner index_id = 1_000_000 + index_id

(* --- published build progress (Build_status + trace events) --- *)

module BS = Build_status

let status ctx ~index_id ~algorithm =
  match Hashtbl.find_opt ctx.Ctx.builds index_id with
  | Some st -> st
  | None ->
    let st = BS.create ~index_id ~algorithm in
    Hashtbl.replace ctx.Ctx.builds index_id st;
    st

let algorithm_name = function Nsf -> "nsf" | Sf -> "sf"

let algorithm_of (info : Catalog.index_info) =
  match info.phase with Catalog.Nsf_building _ -> Nsf | _ -> Sf

(* the status a stage attaches to: normally created by the entry point,
   so the algorithm label is already right *)
let job_status ctx (info : Catalog.index_info) =
  status ctx ~index_id:info.index_id
    ~algorithm:(algorithm_name (algorithm_of info))

let stage_phase = function
  | Scanning _ -> BS.Scan
  | Merging _ -> BS.Merge
  | Inserting _ -> BS.Insert
  | Bulking _ -> BS.Bulk
  | Draining _ -> BS.Drain

let note_phase ctx (st : BS.t) phase =
  if phase <> st.BS.phase then begin
    BS.set_phase st ~step:(Sched.steps ctx.Ctx.sched) phase;
    let tr = Sched.trace ctx.Ctx.sched in
    if Oib_obs.Trace.tracing tr then
      Oib_obs.Trace.emit tr
        (Oib_obs.Event.Ib_phase
           { index = st.BS.index_id; phase = BS.phase_name phase });
    (* one span per phase: close the previous one (may happen on a
       different fiber than the begin — pipeline children end phases) and
       open the next, except for the terminal Ready. *)
    Oib_obs.Trace.span_end tr st.BS.phase_span;
    st.BS.phase_span <-
      (if phase = BS.Ready then 0
       else
         Oib_obs.Trace.span_begin tr ~cat:"ib"
           ~name:
             (Printf.sprintf "index-%d/%s" st.BS.index_id
                (BS.phase_name phase)))
  end

(* Explicit charge target of a build's sort, once its status exists: the
   shared scan (§6.2) feeds several builds' sorters from one fiber, so the
   fiber's account cannot tell them apart. *)
let sort_charge ctx index_id =
  Option.map
    (fun (st : BS.t) -> Oib_sim.Metrics.target ctx.Ctx.metrics st.BS.resources)
    (Hashtbl.find_opt ctx.Ctx.builds index_id)

(* Charge everything [f] does on the current fiber to [st]'s account.
   Registrations nest (shadowing), so a pipeline child fiber re-pointing
   at its own build is fine. *)
let with_account ctx (st : BS.t) f =
  match Sched.current_fiber ctx.Ctx.sched with
  | None -> f ()
  | Some fiber ->
    Oib_sim.Metrics.register_account ctx.Ctx.metrics ~fiber st.BS.resources;
    Fun.protect
      ~finally:(fun () ->
        Oib_sim.Metrics.unregister_account ctx.Ctx.metrics ~fiber)
      f

let set_progress ctx (info : Catalog.index_info) stage =
  Durable_kv.set ctx.Ctx.kv (progress_key info.index_id) (Ib_progress stage)

let get_progress ctx index_id =
  match Durable_kv.get ctx.Ctx.kv (progress_key index_id) with
  | Some (Ib_progress p) -> Some p
  | _ -> None

(* A sharp stage checkpoint (§2.2.3 "Periodic Checkpointing by IB"): force
   the log (the commit call), take an image of the tree, record [stage]. *)
let checkpoint_stage ctx (info : Catalog.index_info) stage =
  LM.flush_all ctx.Ctx.log;
  Btree.checkpoint_image info.tree ~lsn:(LM.flushed_lsn ctx.Ctx.log);
  set_progress ctx info stage;
  let st = job_status ctx info in
  st.BS.checkpoints <- st.BS.checkpoints + 1;
  let tr = Sched.trace ctx.Ctx.sched in
  if Oib_obs.Trace.tracing tr then
    Oib_obs.Trace.emit tr
      (Oib_obs.Event.Ib_checkpoint
         { index = info.index_id; stage = BS.phase_name (stage_phase stage) })

(* --- the SF visibility frontier (§3.1) ---

   [set_frontier] is the only writer of an SF build's Current-RID and
   current key. During the scan the frontier trails the scan; past it,
   every RID is visible. After a restart [restore_frontier] recomputes it
   from the durable stage: in the scan stage it regresses to the sort
   checkpoint's position, because IB re-extracts everything after it.

   That regression makes the side-file entries already written for RIDs
   above the restored position stale: the rescan extracts those records'
   current values, and a later change to such a record appends nothing
   while it is behind the frontier. So each scan-stage resume notes the
   pair (side-file length, restored position) durably, and the drain
   skips the entries any pair covers. A key-order build resumes as a
   RID-order rescan from the start, so all its earlier entries are
   skipped. *)

type frontier =
  | Page_done of int (* every record up to this heap page is extracted *)
  | Key_done of string (* key-order scan (§6.2): up to this primary key *)
  | Scan_done (* later file extensions go to the side-file (§3.2.2) *)

let set_frontier (info : Catalog.index_info) frontier =
  match info.phase with
  | Catalog.Ready | Catalog.Nsf_building _ -> ()
  | Catalog.Sf_building sf -> (
    match frontier with
    | Key_done pk -> sf.Catalog.current_key <- Some pk
    | Page_done page ->
      sf.Catalog.current_rid <-
        (if page < 0 then Rid.minus_infinity else Rid.make ~page ~slot:max_int)
    | Scan_done -> sf.Catalog.current_rid <- Rid.infinity)

let superseded_key index_id = build_key index_id "superseded"

let superseded ctx index_id =
  match Durable_kv.get ctx.Ctx.kv (superseded_key index_id) with
  | Some (Ib_superseded pairs) -> pairs
  | _ -> []

(* [resuming]: the builder is about to rescan, so note the supersede pair *)
let restore_frontier ctx (info : Catalog.index_info) stage ~resuming =
  match (stage, info.phase) with
  | Scanning _, Catalog.Sf_building sf ->
    let page = scan_checkpoint ctx ~index_id:info.index_id in
    set_frontier info (Page_done (Option.value page ~default:(-1)));
    if resuming then begin
      (* force the log first: every position below the noted length is
         then durable, so no later restart renumbers it *)
      LM.flush_all ctx.Ctx.log;
      Durable_kv.set ctx.Ctx.kv (superseded_key info.index_id)
        (Ib_superseded
           ((SF.length sf.Catalog.sidefile, sf.Catalog.current_rid)
           :: superseded ctx info.index_id))
    end
  | _ -> set_frontier info Scan_done

(* --- IB unique-key-value verification (§2.2.3) ---

   Two entries with the same key value and different RIDs: lock both
   records in share mode, then verify the duplicate condition still holds
   against the data pages. *)
let ib_unique_check ctx (info : Catalog.index_info) (a : Ikey.t) (b : Ikey.t) =
  let owner = ib_owner info.index_id in
  let tbl = Catalog.table ctx.Ctx.catalog info.table_id in
  let lock_rid rid =
    match LockM.lock ctx.Ctx.locks ~txn:owner (LockM.Record rid) S with
    | LockM.Granted -> ()
    | LockM.Deadlock -> () (* IB holds no other locks: cannot deadlock *)
  in
  lock_rid a.rid;
  lock_rid b.rid;
  let kv_of rid =
    match Heap_file.read_record tbl.Catalog.heap rid with
    | Some record -> Some (Record.key_value record info.key_cols)
    | None -> None
    | exception Not_found -> None
  in
  let still =
    kv_of a.rid = Some a.kv && kv_of b.rid = Some b.kv
    && String.equal a.kv b.kv
  in
  LockM.unlock_all ctx.Ctx.locks ~txn:owner;
  still

let cancel_build ctx ~index_id =
  (* quiesce updaters so rollbacks cannot run into a missing descriptor
     (§2.3.2), then drop everything *)
  let info = Catalog.index ctx.Ctx.catalog index_id in
  let owner = ib_owner index_id in
  (match
     LockM.lock ctx.Ctx.locks ~txn:owner (LockM.Table info.table_id) S
   with
  | LockM.Granted -> ()
  | LockM.Deadlock -> ());
  ignore
    (LM.append ctx.Ctx.log ~txn:None ~prev_lsn:Lsn.nil
       (LR.Build_done { index = index_id }));
  ignore
    (LM.append ctx.Ctx.log ~txn:None ~prev_lsn:Lsn.nil
       (LR.Drop_index { index = index_id }));
  LM.flush_all ctx.Ctx.log;
  Catalog.drop_index ctx.Ctx.catalog index_id;
  drop_build_state ctx index_id;
  LockM.unlock_all ctx.Ctx.locks ~txn:owner

(* [a] and [b] share a key value: if both records still hold it, the
   unique index cannot be built — cancel the build and fail *)
let reject_if_duplicate ctx (info : Catalog.index_info) a b =
  if ib_unique_check ctx info a b then begin
    cancel_build ctx ~index_id:info.index_id;
    raise (Build_unique_violation { index = info.index_id; kv = a.Ikey.kv })
  end

(* before IB puts [key] in a unique index: every live rival entry with its
   key value *)
let unique_guard ctx (info : Catalog.index_info) (key : Ikey.t) =
  List.iter
    (fun ((k : Ikey.t), pseudo) ->
      if (not pseudo) && not (Rid.equal k.rid key.rid) then
        reject_if_duplicate ctx info key k)
    (Btree.find_kv info.tree key.kv)

(* --- scan + extract + sort (shared by NSF and SF) --- *)

let start_sorter ctx cfg index_id =
  let charge = sort_charge ctx index_id and ckpt_id = sort_key index_id in
  let memory_keys = cfg.memory_keys in
  match Sort.resume ?charge ctx.Ctx.kv ctx.Ctx.runs ~ckpt_id ~memory_keys with
  | Some s -> s
  | None -> Sort.start ?charge ctx.Ctx.kv ctx.Ctx.runs ~ckpt_id ~memory_keys

(* One heap scan feeding every job's sorter (§6.2: several indexes in one
   scan). SF chases the end of the file so that pages added by concurrent
   extensions are still scanned — only extensions after the scan has
   drained the file go through the Current-RID = infinity rule (§3.2.2).
   NSF instead scans up to [last_scan_page], noted at admission, and lets
   transactions index later extensions directly (§2.3.1). *)
let heap_scan ctx cfg ~last_scan_page jobs =
  let first_info : Catalog.index_info = fst (List.hd jobs) in
  let tbl = Catalog.table ctx.Ctx.catalog first_info.Catalog.table_id in
  (* The sort checkpoint is the scan's restart record: a sorter resumed
     at scan position p holds the keys of every page up to p, so the scan
     feeds it only the pages above p. *)
  List.iter
    (fun ((info : Catalog.index_info), s) ->
      observe (Scan_start { index = info.index_id; pos = Sort.scan_pos s }))
    jobs;
  let first_needed =
    List.fold_left (fun acc (_, s) -> min acc (Sort.scan_pos s)) max_int jobs
  in
  let checkpoint_sorters () =
    List.iter
      (fun ((info : Catalog.index_info), s) ->
        Sort.checkpoint s;
        observe
          (Scan_checkpoint { index = info.index_id; pos = Sort.scan_pos s }))
      jobs
  in
  let pages_done = ref 0 in
  let process_page (page : Page.t) =
    let pid = page.Page.id in
    if pid > first_needed then begin
      Oib_sim.Metrics.add ctx.Ctx.metrics Sequential_reads 1;
      (* extract under a share latch; no locks (§2.2.2 / §3.2.2) *)
      Latch.acquire page.Page.latch S;
      let per_job = List.map (fun j -> (j, ref [])) jobs in
      let hp = Heap_page.of_payload page.Page.payload in
      Heap_page.iter_slots hp (fun slot ->
          let rid = Rid.make ~page:pid ~slot in
          List.iter
            (fun ((info, _), acc) -> acc := Catalog.key_at info hp ~rid :: !acc)
            per_job);
      (* the whole page is done: advance Current-RID to the page boundary
         while still holding the latch, so an insert into a later slot of
         this page (blocked on the latch right now) sees itself behind the
         scan and writes its side-file entry *)
      List.iter
        (fun (info, _) ->
          (job_status ctx info).BS.scan_pos <-
            BS.At_rid (Rid.make ~page:pid ~slot:max_int);
          set_frontier info (Page_done pid))
        jobs;
      Latch.release page.Page.latch S;
      (* The extracted keys may reflect uncommitted updates, and the sorter
         can spill them to the instantly-durable run store at any feed. If
         such a transaction's log tail were lost in a crash it would not be
         a loser, yet its effects would survive inside the durable runs
         with nothing to compensate them. Force the log first so every
         transaction whose effects we captured is durably logged (and hence
         rolled back as a loser if it never commits). *)
      LM.flush_all ctx.Ctx.log;
      List.iter
        (fun ((info, sorter), acc) ->
          if pid > Sort.scan_pos sorter then begin
            observe
              (Page_extracted { index = info.Catalog.index_id; page = pid });
            Sort.feed_page sorter ~scan_pos:pid (List.rev !acc);
            let st = job_status ctx info in
            st.BS.keys_processed <-
              st.BS.keys_processed + List.length !acc
          end)
        per_job;
      incr pages_done;
      if !pages_done mod cfg.ckpt_every_pages = 0 then begin
        checkpoint_sorters ();
        check_pause ctx ~index_id:first_info.index_id
      end
    end;
    (* let transactions interleave between pages *)
    pace ctx
  in
  (match algorithm_of first_info with
  | Nsf ->
    Heap_file.scan_pages tbl.Catalog.heap ~upto:last_scan_page process_page
  | Sf ->
    let highest_done = ref (-1) in
    let rec chase () =
      let fresh =
        List.filter
          (fun id -> id > !highest_done)
          (Heap_file.page_ids tbl.Catalog.heap)
      in
      match fresh with
      | [] -> () (* drained: the caller flips Current-RID to infinity
                    without yielding in between *)
      | _ ->
        List.iter
          (fun id ->
            process_page (Heap_file.page tbl.Catalog.heap id);
            highest_done := id)
          fresh;
        chase ()
    in
    chase ());
  (* scan complete: checkpoint the sorters, making the tail durable *)
  checkpoint_sorters ()

(* Run per-index post-scan pipelines in parallel, one fiber per index
   (§6.2: "a process can be spawned for each index to sort the keys,
   insert them and process the side-file"). Exceptions from children are
   re-raised in the caller after all fibers finish. *)
let parallel_jobs ctx jobs f =
  (* every pipeline — inline or spawned — charges its own build *)
  let f ((info, _) as job) =
    with_account ctx (job_status ctx info) (fun () -> f job)
  in
  match jobs with
  | [ job ] -> f job
  | _ ->
    let remaining = ref (List.length jobs) in
    let failed = ref None in
    let cond = Sched.Cond.create ctx.Ctx.sched in
    List.iter
      (fun ((info : Catalog.index_info), _ as job) ->
        ignore
          (Sched.spawn ctx.Ctx.sched
             ~name:(Printf.sprintf "ib-pipeline-%d" info.index_id)
             (fun () ->
               (try f job
                with e -> if !failed = None then failed := Some e);
               decr remaining;
               if !remaining = 0 then Sched.Cond.broadcast cond)))
      jobs;
    while !remaining > 0 do
      Sched.Cond.wait cond
    done;
    match !failed with Some e -> raise e | None -> ()

(* --- the post-scan stages --- *)

(* where a resumed insert or bulk load continues in the sorted run: the
   first key above the checkpointed highest *)
let first_above run highest =
  match highest with
  | None -> 0
  | Some h ->
    let n = Runs.length run in
    let rec find i =
      if i >= n then n
      else if Ikey.compare (Runs.get run i) h > 0 then i
      else find (i + 1)
    in
    find 0

(* NSF insert phase (§2.2.3) *)
let nsf_insert_phase ctx cfg (info : Catalog.index_info) ~from_key =
  let st = job_status ctx info in
  let run = Runs.find_run ctx.Ctx.runs (sorted_run_name info.index_id) in
  let cursor = Btree.new_cursor info.tree in
  let highest = ref from_key in
  let batch = ref [] in
  let batch_n = ref 0 in
  let since_ckpt = ref 0 in
  let flush_batch () =
    if !batch <> [] then begin
      ignore
        (LM.append ctx.Ctx.log ~txn:None ~prev_lsn:Lsn.nil
           (LR.Index_bulk_insert
              { index = info.index_id; keys = List.rev !batch }));
      batch := [];
      batch_n := 0
    end
  in
  (* Keys go in runs under one leaf latch (§2.3.1). A run ends exactly
     where the per-key loop acted between keys: after a key whose index
     is a multiple of 16 (pace), on the insert that fills the batch
     (flush), when the checkpoint interval is reached, and after every
     key of a unique index, whose guard S-latches leaves. *)
  let n = Runs.length run in
  let i = ref (first_above run from_key) in
  while !i < n do
    let from = !i in
    let upto =
      if info.uniq then from + 1
      else
        min n
          (min
             (from + max 1 (cfg.ckpt_every_keys - !since_ckpt))
             (((from + 15) / 16 * 16) + 1))
    in
    if info.uniq then unique_guard ctx info (Runs.get run from);
    let full = ref false in
    let next =
      Btree.insert_run info.tree ~ib_split:cfg.specialized_split ~cursor
        ~key_at:(Runs.get run) ~from ~upto (fun key -> function
        | `Inserted ->
          batch := key :: !batch;
          incr batch_n;
          (* backed-off batches are smaller: shorter latch tenure per
             flush *)
          full :=
            !batch_n >= Throttle.scaled ctx.Ctx.throttle ~base:cfg.batch_size;
          not !full
        | `Rejected _ -> true (* a transaction or a tombstone won the race *))
    in
    if !full then flush_batch ();
    let last = next - 1 in
    highest := Some (Runs.get run last);
    st.BS.keys_processed <- st.BS.keys_processed + (next - from);
    since_ckpt := !since_ckpt + (next - from);
    if !since_ckpt >= cfg.ckpt_every_keys then begin
      flush_batch ();
      checkpoint_stage ctx info (Inserting { highest = !highest });
      (* gradual availability (footnote 3): everything strictly below the
         checkpointed key value is complete and may serve reads *)
      (match (info.phase, !highest) with
      | Catalog.Nsf_building st, Some h ->
        st.Catalog.avail_below <- Some h.Ikey.kv
      | _ -> ());
      since_ckpt := 0;
      check_pause ctx ~index_id:info.index_id
    end;
    if last mod 16 = 0 then pace ctx;
    i := next
  done;
  flush_batch ()

(* SF bulk build (§3.2.4) *)
let sf_bulk_phase ctx cfg (info : Catalog.index_info) ~from_key =
  let st = job_status ctx info in
  let run = Runs.find_run ctx.Ctx.runs (sorted_run_name info.index_id) in
  let b =
    match from_key with
    | None -> Btree.Bulk.start info.tree
    | Some _ -> Btree.Bulk.resume info.tree
  in
  let since_ckpt = ref 0 in
  let prev = ref from_key in
  for i = first_above run from_key to Runs.length run - 1 do
    let key = Runs.get run i in
    (* adjacent equal key values in the sorted stream: unique check *)
    (if info.uniq then
       match !prev with
       | Some p when String.equal p.Ikey.kv key.Ikey.kv ->
         reject_if_duplicate ctx info p key
       | _ -> ());
    Btree.Bulk.add b key;
    prev := Some key;
    st.BS.keys_processed <- st.BS.keys_processed + 1;
    incr since_ckpt;
    if !since_ckpt >= cfg.ckpt_every_keys then begin
      checkpoint_stage ctx info (Bulking { highest = Some key });
      since_ckpt := 0;
      check_pause ctx ~index_id:info.index_id
    end;
    if i mod 16 = 0 then pace ctx
  done;
  Btree.Bulk.finish b

let sf_state (info : Catalog.index_info) =
  match info.phase with
  | Catalog.Sf_building sf -> sf
  | _ -> invalid_arg "Ib.sf_state: not an SF build"

(* apply one side-file entry to the tree as a transaction would, logging
   redo-undo records (§3.2.5) *)
let sf_apply_entry ?cursor ctx (info : Catalog.index_info) (e : SF.entry) =
  if e.insert && info.uniq then unique_guard ctx info e.key;
  let after = if e.insert then LR.Present else LR.Absent in
  let before = Btree.set_state info.tree ?cursor e.key after in
  if before <> after then
    ignore
      (LM.append ctx.Ctx.log ~txn:None ~prev_lsn:Lsn.nil
         (LR.Index_key
            {
              redoable = true;
              op = { index = info.index_id; key = e.key; before; after };
            }))

(* SF side-file drain (§3.2.5) *)
let sf_drain_phase ctx cfg (info : Catalog.index_info) ~from_pos =
  let st = job_status ctx info in
  let sf = sf_state info in
  sf.Catalog.draining <- true;
  let live =
    match superseded ctx info.index_id with
    | [] -> fun _ _ -> true
    | pairs ->
      fun i (e : SF.entry) ->
        not
          (List.exists
             (fun (len, rid) -> i < len && Rid.compare e.key.Ikey.rid rid > 0)
             pairs)
  in
  let pos = ref from_pos in
  let update_backlog () =
    st.BS.backlog <- max 0 (SF.length sf.Catalog.sidefile - !pos)
  in
  update_backlog ();
  let since_ckpt = ref 0 in
  let checkpoint () = checkpoint_stage ctx info (Draining { pos = !pos }) in
  checkpoint ();
  let apply_upto upto ~sorted =
    let from_pos = !pos in
    (* a sorted slice comes without its superseded entries *)
    let entries =
      if sorted then
        SF.sorted_slice ~keep:live sf.Catalog.sidefile ~from:from_pos ~upto
      else SF.slice sf.Catalog.sidefile ~from:from_pos ~upto
    in
    (* a sorted stream is key-local: a remembered-path cursor avoids most
       root-to-leaf traversals (the measurable benefit of §3.2.5) *)
    let cursor = if sorted then Some (Btree.new_cursor info.tree) else None in
    List.iteri
      (fun k e ->
        if sorted || live (from_pos + k) e then begin
          sf_apply_entry ?cursor ctx info e;
          st.BS.keys_processed <- st.BS.keys_processed + 1
        end;
        incr since_ckpt;
        if !since_ckpt >= cfg.ckpt_every_keys then begin
          (* position moves wholesale after the batch when sorting; only
             checkpoint inside a batch when applying sequentially *)
          if not sorted then begin
            pos := !pos + !since_ckpt;
            update_backlog ();
            checkpoint ();
            check_pause ctx ~index_id:info.index_id
          end;
          since_ckpt := 0
        end)
      entries;
    pos := upto;
    since_ckpt := 0;
    update_backlog ();
    (let tr = Sched.trace ctx.Ctx.sched in
     if Oib_obs.Trace.tracing tr then
       Oib_obs.Trace.emit tr
         (Oib_obs.Event.Sidefile_drained
            { sidefile = info.index_id; from_pos; upto }));
    pace ctx
  in
  (* the bulk of the side-file may be applied sorted (§3.2.5); the chase
     loop then applies new arrivals sequentially until it catches up *)
  let first_target = SF.length sf.Catalog.sidefile in
  if cfg.sort_sidefile && first_target > !pos then
    apply_upto first_target ~sorted:true;
  let rec chase () =
    let target = SF.length sf.Catalog.sidefile in
    if target > !pos then begin
      apply_upto target ~sorted:false;
      chase ()
    end
  in
  chase ();
  (* caught up: no yield between the check above and the flip below, so no
     transaction can append in between *)
  st.BS.backlog <- 0;
  info.phase <- Catalog.Ready

(* Build_done ends the build: from it on, restart leaves the index Ready *)
let finish_build ctx (info : Catalog.index_info) =
  ignore
    (LM.append ctx.Ctx.log ~txn:None ~prev_lsn:Lsn.nil
       (LR.Build_done { index = info.index_id }));
  LM.flush_all ctx.Ctx.log;
  Btree.checkpoint_image info.tree ~lsn:(LM.flushed_lsn ctx.Ctx.log);
  drop_build_state ctx info.index_id;
  info.phase <- Catalog.Ready;
  note_phase ctx (job_status ctx info) BS.Ready

(* --- the stage driver ---

   Every build runs through [drive], entered at any durable stage: fresh
   builds at the scan stage after admission, resumed builds at the stage
   their progress record names. From the scan it runs the merge (§5.2),
   then NSF's insert phase or SF's bulk load and side-file drain, and
   finishes the build. Each stage is recorded before it runs, so a crash
   anywhere re-enters the driver where it stopped. *)

let rec drive ctx cfg (info : Catalog.index_info) stage =
  note_phase ctx (job_status ctx info) (stage_phase stage);
  match stage with
  | Scanning { last_scan_page } -> scan_stage ctx cfg [ info ] ~last_scan_page
  | Merging { runs } ->
    ignore
      (Merge.merge_all
         ?charge:(sort_charge ctx info.index_id)
         ctx.Ctx.kv ctx.Ctx.runs
         ~ckpt_id:(build_key info.index_id "mergeckpt")
         ~inputs:runs
         ~output:(sorted_run_name info.index_id)
         ~fan_in:16 ~ckpt_every:4096);
    enter ctx cfg info
      (match algorithm_of info with
      | Nsf -> Inserting { highest = None }
      | Sf -> Bulking { highest = None })
  | Inserting { highest } ->
    nsf_insert_phase ctx cfg info ~from_key:highest;
    finish_build ctx info
  | Bulking { highest } ->
    sf_bulk_phase ctx cfg info ~from_key:highest;
    (* the drain's first checkpoint records its stage *)
    drive ctx cfg info (Draining { pos = 0 })
  | Draining { pos } ->
    sf_drain_phase ctx cfg info ~from_pos:pos;
    finish_build ctx info

and enter ctx cfg info stage =
  set_progress ctx info stage;
  drive ctx cfg info stage

(* The heap-scan stage, shared by every build admitted together *)
and scan_stage ctx cfg infos ~last_scan_page =
  List.iter (fun info -> note_phase ctx (job_status ctx info) BS.Scan) infos;
  let jobs =
    List.map
      (fun (info : Catalog.index_info) ->
        (info, start_sorter ctx cfg info.index_id))
      infos
  in
  heap_scan ctx cfg ~last_scan_page jobs;
  List.iter (fun (info, _) -> set_frontier info Scan_done) jobs;
  end_scan ctx cfg jobs

(* the sorters become runs; each build continues in its own pipeline *)
and end_scan ctx cfg jobs =
  parallel_jobs ctx jobs (fun (info, sorter) ->
      note_phase ctx (job_status ctx info) BS.Merge;
      enter ctx cfg info (Merging { runs = Sort.finish sorter }))

(* --- admission and the entry points --- *)

let sf_building ~key_scan sidefile =
  Catalog.Sf_building
    {
      sidefile;
      current_rid = Rid.minus_infinity;
      current_key = None;
      key_scan;
      draining = false;
    }

(* Admission: descriptors and Build_start, then the durable scan stage.
   Nothing here can suspend: for NSF the caller holds the quiesce lock,
   and for SF no operation is side-file-visible before the scan moves
   Current-RID, so nothing is missed in the window. *)
let admit ctx ~table ~phase specs =
  let infos =
    List.map
      (fun spec ->
        let info =
          Catalog.add_index ctx.Ctx.catalog ctx.Ctx.pool ~table_id:table
            ~index_id:spec.index_id ~key_cols:spec.key_cols
            ~unique:spec.unique ~phase:(phase spec)
        in
        ignore
          (LM.append ctx.Ctx.log ~txn:None ~prev_lsn:Lsn.nil
             (LR.Build_start
                { index = spec.index_id; table; algorithm = algorithm_of info }));
        info)
      specs
  in
  LM.flush_all ctx.Ctx.log;
  let heap = (Catalog.table ctx.Ctx.catalog table).Catalog.heap in
  let last_scan_page =
    Option.value ~default:(-1) (Heap_file.last_page_id heap)
  in
  List.iter
    (fun info -> set_progress ctx info (Scanning { last_scan_page }))
    infos;
  (infos, last_scan_page)

let build_indexes ctx cfg ~table specs =
  if specs = [] then invalid_arg "Ib.build_indexes: no specs";
  let stats =
    List.map
      (fun spec ->
        status ctx ~index_id:spec.index_id
          ~algorithm:(algorithm_name cfg.algorithm))
      specs
  in
  (* the orchestrating fiber's work (quiesce, shared scan) charges the
     first build; per-index pipelines re-point to their own *)
  with_account ctx (List.hd stats) @@ fun () ->
  let infos, last_scan_page =
    match cfg.algorithm with
    | Nsf ->
      List.iter (fun st -> note_phase ctx st BS.Quiesce) stats;
      (* short quiesce: create all descriptors under an S table lock
         (§2.2.1); updaters run against them once it is released *)
      let owner = ib_owner (List.hd specs).index_id in
      (match LockM.lock ctx.Ctx.locks ~txn:owner (LockM.Table table) S with
      | LockM.Granted -> ()
      | LockM.Deadlock -> assert false);
      let admitted =
        admit ctx ~table specs ~phase:(fun _ ->
            Catalog.Nsf_building { avail_below = None })
      in
      LockM.unlock_all ctx.Ctx.locks ~txn:owner;
      admitted
    | Sf ->
      (* no quiesce: descriptors appear while updaters run (§3.2.1) *)
      admit ctx ~table specs ~phase:(fun spec ->
          sf_building ~key_scan:None (SF.create ~sidefile_id:spec.index_id))
  in
  scan_stage ctx cfg infos ~last_scan_page

let build_index ctx cfg ~table spec = build_indexes ctx cfg ~table [ spec ]

(* The baseline the paper's introduction rails against: the table is locked
   against all updates for the entire duration of the build ("current DBMSs
   do not allow updates to a table while building an index on it", §1).
   Readers (IS/S) still pass. Implemented as an SF build executed under an
   S table lock held from before the descriptor until the index is Ready,
   so the code path measured is identical except for availability. *)
let build_index_offline ctx cfg ~table spec =
  let owner = ib_owner spec.index_id + 250_000 in
  (match LockM.lock ctx.Ctx.locks ~txn:owner (LockM.Table table) S with
  | LockM.Granted -> ()
  | LockM.Deadlock -> assert false (* this owner holds nothing else *));
  Fun.protect
    ~finally:(fun () -> LockM.unlock_all ctx.Ctx.locks ~txn:owner)
    (fun () ->
      build_indexes ctx { cfg with algorithm = Sf } ~table [ spec ])

(* --- §6.2: secondary build over an index-organized table ---

   The records are reached through a unique primary index and the scan
   proceeds in primary-key order; "in place of Current-RID, we would use
   the current-key as the scan position" (§6.2). Visibility compares an
   operation's primary key against the scan's current-key (Catalog's
   key_scan mode). Only SF applies (that is the section's context). Only
   the scan is this build's own: admission and every later stage are the
   heap build's, and a restart in the scan stage resumes as a RID-order
   rescan (same keys, different order — the sort absorbs it). *)

let build_secondary_via_primary ctx cfg ~table ~primary spec =
  let tbl = Catalog.table ctx.Ctx.catalog table in
  let pinfo = Catalog.index ctx.Ctx.catalog primary in
  if pinfo.Catalog.table_id <> table then
    invalid_arg "Ib.build_secondary_via_primary: primary on another table";
  if not pinfo.Catalog.uniq then
    invalid_arg "Ib.build_secondary_via_primary: primary index not unique";
  (match pinfo.Catalog.phase with
  | Catalog.Ready -> ()
  | _ -> invalid_arg "Ib.build_secondary_via_primary: primary still building");
  if spec.unique then
    invalid_arg
      "Ib.build_secondary_via_primary: unique secondary over an IOT is not \
       supported (entries are <key value, primary key>)";
  let bst = status ctx ~index_id:spec.index_id ~algorithm:"via-primary" in
  with_account ctx bst @@ fun () ->
  (* the paper's storage model: secondary entries are
     <key value, primary key value> (§6.2) — realized by appending the
     primary key columns to the secondary key, which gives every record
     version an identity whose visibility matches its side-file routing *)
  let infos, _ =
    admit ctx ~table
      [ { spec with key_cols = spec.key_cols @ pinfo.Catalog.key_cols } ]
      ~phase:(fun spec ->
        sf_building ~key_scan:(Some pinfo.Catalog.key_cols)
          (SF.create ~sidefile_id:spec.index_id))
  in
  let info = List.hd infos in
  note_phase ctx bst BS.Scan;
  (* a dedicated checkpoint id: scan positions here are leaf ordinals, not
     page ids, so a restart must not resume the heap-scan sorter from them *)
  let sorter =
    Sort.start ctx.Ctx.kv ctx.Ctx.runs
      ~ckpt_id:(build_key spec.index_id "ksort")
      ~memory_keys:cfg.memory_keys
  in
  (* Scan rounds: copy the primary leaf chain (advancing current-key to
     each leaf's upper copied bound under its latch), then fetch records
     and feed the sort. Inserts with keys above the scan position arrive
     in the primary index while we work, so chase until a round finds
     nothing new; the final empty check and the flip to "scan complete"
     happen without yielding. *)
  let sf = sf_state info in
  let batch_no = ref (-1) in
  let scan_round () =
    let floor = sf.Catalog.current_key in
    let above pk =
      match floor with None -> true | Some ck -> String.compare pk ck > 0
    in
    let copied = ref [] in
    Btree.iter_leaves pinfo.Catalog.tree (fun _pid leaf ->
        let batch = ref [] in
        for i = Oib_btree.Bt_node.leaf_n leaf - 1 downto 0 do
          if not (Oib_btree.Bt_node.leaf_pseudo leaf i) then begin
            let k = Oib_btree.Bt_node.leaf_key leaf i in
            if above k.Ikey.kv then batch := (k.Ikey.kv, k.Ikey.rid) :: !batch
          end
        done;
        (match !batch with
        | [] -> ()
        | entries ->
          let last_pk = fst (List.nth entries (List.length entries - 1)) in
          set_frontier info (Key_done last_pk);
          bst.BS.scan_pos <- BS.At_key last_pk);
        if !batch <> [] then copied := !batch :: !copied);
    let batches = List.rev !copied in
    List.iter
      (fun batch ->
        incr batch_no;
        let keys = ref [] in
        List.iter
          (fun (pk, rid) ->
            let page = Heap_file.latch_rid tbl.Catalog.heap rid S in
            let hp = Heap_page.of_payload page.Page.payload in
            let slot = rid.Rid.slot in
            (* a deleted record is covered by the side-file; a RID reused
               by a record with another primary key holds a stale copy,
               and the new record belongs to a later scan round or to the
               side-file *)
            if Heap_page.occupied hp slot
               && String.equal
                    (Heap_page.key_value hp slot pinfo.Catalog.key_cols) pk
            then keys := Catalog.key_at info hp ~rid :: !keys;
            Latch.release page.Page.latch S)
          batch;
        Oib_sim.Metrics.add ctx.Ctx.metrics Sequential_reads 1;
        Sort.feed_page sorter ~scan_pos:!batch_no (List.rev !keys);
        bst.BS.keys_processed <- bst.BS.keys_processed + List.length !keys;
        pace ctx)
      batches;
    batches <> []
  in
  let rec chase () = if scan_round () then chase () in
  chase ();
  set_frontier info Scan_done;
  end_scan ctx cfg [ (info, sorter) ]

(* --- restart: phase restoration and resumption --- *)

let interrupted_builds ctx =
  List.filter_map
    (fun key ->
      match Durable_kv.get ctx.Ctx.kv key with
      | Some (Ib_progress _) ->
        (* key shape: ib/<id>/progress *)
        (try Scanf.sscanf key "ib/%d/progress" (fun id -> Some id)
         with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
      | _ -> None)
    (Durable_kv.keys ctx.Ctx.kv)

(* The log says the build is unfinished, so the index is building
   whether or not its progress record survived; without one (a media
   restore from a backup older than the build) it cannot resume, and the
   lifecycle oracle names it. *)
let restore_phase_after_restart ctx ~algorithm ~sidefile ~index_id =
  Catalog.set_phase ctx.Ctx.catalog index_id
    (match algorithm with
    | Nsf -> Catalog.Nsf_building { avail_below = None }
    | Sf ->
      (* a key-order build resumes in RID order *)
      sf_building ~key_scan:None sidefile);
  match get_progress ctx index_id with
  | None -> ()
  | Some stage ->
    (* publish the build's status from the first step after reopen, not
       only once the resuming builder gets scheduled *)
    note_phase ctx
      (status ctx ~index_id ~algorithm:(algorithm_name algorithm))
      (stage_phase stage);
    restore_frontier ctx (Catalog.index ctx.Ctx.catalog index_id) stage
      ~resuming:false

let resume_one ctx cfg index_id =
  match get_progress ctx index_id with
  | None -> ()
  | Some stage -> (
    let info = Catalog.index ctx.Ctx.catalog index_id in
    match info.phase with
    | Catalog.Ready ->
      (* The crash hit finish_build after Build_done became durable but
         before cleanup: the build is complete (recovery redid the tree
         and left the phase Ready), only the leftovers need collecting. *)
      drop_build_state ctx index_id;
      Option.iter
        (fun st -> note_phase ctx st BS.Ready)
        (Hashtbl.find_opt ctx.Ctx.builds index_id)
    | Catalog.Nsf_building _ | Catalog.Sf_building _ ->
      let st =
        status ctx ~index_id ~algorithm:(algorithm_name (algorithm_of info))
      in
      with_account ctx st @@ fun () ->
      restore_frontier ctx info stage ~resuming:true;
      drive ctx cfg info stage)

let resume_builds ctx cfg =
  List.iter (fun id -> resume_one ctx cfg id) (interrupted_builds ctx)

(* --- pseudo-deleted key garbage collection (§2.2.4) --- *)

(* Background garbage collection (§2.2.4: "garbage collection of the
   pseudo-deleted keys in the index can be scheduled as a background
   activity"). The daemon sweeps periodically until stopped. *)
let rec spawn_gc_daemon ctx ~index_id ~every =
  let stop = ref false in
  let collected = ref 0 in
  ignore
    (Sched.spawn ctx.Ctx.sched
       ~name:(Printf.sprintf "gc-%d" index_id)
       (fun () ->
         while not !stop do
           for _ = 1 to every do
             if not !stop then Sched.yield ctx.Ctx.sched
           done;
           if not !stop then
             match Catalog.index ctx.Ctx.catalog index_id with
             | info when info.Catalog.phase = Catalog.Ready ->
               collected := !collected + gc_once ctx ~index_id
             | _ | (exception Invalid_argument _) -> ()
         done));
  ((fun () -> stop := true), collected)

and gc_once ctx ~index_id =
  let info = Catalog.index ctx.Ctx.catalog index_id in
  let owner = ib_owner index_id + 500_000 in
  (* Commit_LSN shortcut at system granularity: with no transaction active,
     every pseudo-delete is committed and no lock calls are needed *)
  let quiescent = Oib_txn.Txn_manager.active_count ctx.Ctx.txns = 0 in
  let keep (key : Ikey.t) =
    if quiescent then false
    else if
      LockM.try_instant_lock ctx.Ctx.locks ~txn:owner (LockM.Record key.rid) S
    then false (* deleter finished: collect *)
    else true (* probably uncommitted: skip (§2.2.4) *)
  in
  let log_removal key =
    ignore
      (LM.append ctx.Ctx.log ~txn:None ~prev_lsn:Lsn.nil
         (LR.Index_key
            {
              redoable = true;
              op =
                { index = index_id; key; before = LR.Pseudo_deleted;
                  after = LR.Absent };
            }))
  in
  let removed =
    Btree.gc_pseudo_deleted info.tree ~keep:(fun key ->
        let k = keep key in
        if not k then log_removal key;
        k)
  in
  removed

let gc_pseudo_deleted ctx ~index_id = gc_once ctx ~index_id
