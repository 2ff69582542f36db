(* The benchmark's workloads, and one repetition of one of them on a fresh
   engine.

   Every table is populated by [Driver.populate] (column 0 uniform over
   10^6 values, ~36 rows per 1 KiB heap page) and indexed on column 0,
   nonunique. A repetition has a set-up, a measured window, and a
   foreground of closed-loop updater clients ({!Load}):

   - [*-cold-build]: after populate, every heap page is flushed and evicted,
     so the build's scan misses the buffer pool on every page. The window
     is the build alone; once the index is readable the clients run a
     fixed number of transactions that use it.
   - [*-under-updates]: the pool stays warm and the clients loop until the
     builder returns; the window is the build, and the foreground is the
     transactions that ran during it.
   - [oltp-ready]: the index is created on the empty table and filled by
     normal maintenance during populate; the window is a fixed number of
     transactions, each with one index lookup. No build runs in it. *)

open Oib_core
module Sched = Oib_sim.Sched
module Metrics = Oib_sim.Metrics
module Driver = Oib_workload.Driver
module BS = Build_status

type shape =
  | Cold_build of Ib.algorithm
      (** evicted table, build alone, then transactions on the new index *)
  | Under_updates of Ib.algorithm  (** clients loop until the build returns *)
  | Oltp  (** index maintained from the empty table; transactions only *)

type workload = { name : string; shape : shape }

let workloads =
  [
    { name = "nsf-cold-build"; shape = Cold_build Ib.Nsf };
    { name = "sf-cold-build"; shape = Cold_build Ib.Sf };
    { name = "nsf-under-updates"; shape = Under_updates Ib.Nsf };
    { name = "sf-under-updates"; shape = Under_updates Ib.Sf };
    { name = "oltp-ready"; shape = Oltp };
  ]

(* transactions per client per 1,000 table rows, each with an index
   lookup: after a cold build, and in oltp-ready's window *)
let after_cold_build_txns = 10
let oltp_txns = 20

let table = 1
let index_id = 10
let clients = 4
let spec = { Ib.index_id; key_cols = [ 0 ]; unique = false }

let now = Layers.now

type mark = { t : int; steps : int; metrics : Metrics.t; minor : float; major : int }

let mark (ctx : Ctx.t) =
  {
    t = now ();
    steps = Sched.steps ctx.Ctx.sched;
    metrics = Metrics.snapshot ctx.Ctx.metrics;
    minor = Gc.minor_words ();
    major = (Gc.quick_stat ()).Gc.major_collections;
  }

type result = {
  setup_ns : int;
  window_ns : int;  (** the build, or the oltp transactions *)
  fg_ns : int;  (** wall time the foreground transactions ran in *)
  fg : Load.stats;
  counts : (string * int) list;
      (** deterministic for a seed: equal in every repetition *)
  errors : string list;  (** oracle findings; empty when correct *)
  minor_words : float;  (** allocated in the window *)
  major_collections : int;  (** in the window *)
  layers : Layers.t option;  (** traced repetitions only *)
}

(* Virtual steps spent in each build phase, from the status history. *)
let phase_steps (st : BS.t) ~end_step =
  let rec spans = function
    | (p, s0) :: ((_, s1) :: _ as rest) -> (p, s1 - s0) :: spans rest
    | [ (p, s0) ] -> [ (p, end_step - s0) ]
    | [] -> []
  in
  let steps = spans (BS.history st) in
  List.map
    (fun p ->
      ( "ib." ^ BS.phase_name p ^ "_steps",
        List.fold_left (fun acc (q, n) -> if q = p then acc + n else acc) 0 steps ))
    BS.[ Init; Quiesce; Scan; Merge; Insert; Bulk; Drain ]

(* [built]: the window holds the build whose status [Engine.build_progress]
   reports (oltp-ready's only build ran during set-up). *)
let counts ctx ~built ~m0 ~m1 ~(fg : Load.stats) =
  let d = Metrics.diff ~after:m1.metrics ~before:m0.metrics in
  let info = Catalog.index ctx.Ctx.catalog index_id in
  let heap = (Catalog.table ctx.Ctx.catalog table).Catalog.heap in
  let build =
    match Engine.build_progress ctx with
    | [ st ] when built ->
      (("ib.keys_processed", st.BS.keys_processed)
      :: ("ib.checkpoints", st.BS.checkpoints)
      :: List.map
           (fun (k, v) -> ("build." ^ k, v))
           (Oib_obs.Resource.to_assoc st.BS.resources))
      @ phase_steps st ~end_step:m1.steps
    | _ -> []
  in
  [ ("sim.steps", m1.steps - m0.steps) ]
  @ List.map (fun (k, v) -> ("metrics." ^ k, v)) (Metrics.to_assoc d)
  @ build
  @ [
      ("storage.heap_pages", Oib_storage.Heap_file.page_count heap);
      ("btree.depth", Oib_btree.Btree.depth info.Catalog.tree);
      ("btree.leaf_count", Oib_btree.Btree.leaf_count info.Catalog.tree);
      ("fg.requests", fg.Load.requests);
      ("fg.committed", fg.Load.committed);
      ("fg.rolled_back", fg.Load.rolled_back);
      ("fg.deadlocks", fg.Load.deadlocks);
      ("fg.failed", fg.Load.failed);
    ]

(* [inspect] sees the engine after the oracles; the engine itself is not
   returned, so it is garbage once the repetition ends. *)
let run (w : workload) ~rows ~seed ~traced ~inspect =
  let t_setup = now () in
  let trace =
    if traced then Oib_obs.Trace.create () else Oib_obs.Trace.null
  in
  let ctx = Engine.create ~seed ~trace () in
  let sched = ctx.Ctx.sched in
  let heap =
    (Catalog.create_table ctx.Ctx.catalog ctx.Ctx.pool ~table_id:table)
      .Catalog.heap
  in
  let build alg () = Ib.build_index ctx (Ib.default_config alg) ~table spec in
  if w.shape = Oltp then begin
    ignore (Sched.spawn sched ~name:"ib" (build Ib.Nsf));
    Sched.run sched
  end;
  let rids = Driver.populate ctx ~table ~rows ~seed in
  (match w.shape with
  | Cold_build _ ->
    Engine.checkpoint ctx;
    List.iter
      (Oib_storage.Buffer_pool.evict ctx.Ctx.pool)
      (Oib_storage.Heap_file.page_ids heap)
  | Under_updates _ | Oltp -> ());
  let setup_ns = now () - t_setup in
  let live = Load.live_of_array rids in
  let fg = Load.create_stats () in
  let spawn_clients ~lookup ~continue =
    Load.spawn ctx ~table
      ~lookup_index:(if lookup then Some index_id else None)
      ~seed ~clients ~live ~continue fg
  in
  let fixed_txns per_k n = n < per_k * rows / 1000 in
  let measure ~build f =
    let m0 = mark ctx in
    let layers = if traced then Some (Layers.attach ctx ~build) else None in
    f ();
    Option.iter Layers.detach layers;
    (m0, mark ctx, layers)
  in
  let window = ref None in
  let build_window alg () = window := Some (measure ~build:true (build alg)) in
  (* Each scheduler run starts with no major-GC work left over from what
     came before, so it pays only for the garbage it makes itself. *)
  let run_sched () =
    Gc.full_major ();
    let t0 = now () in
    Sched.run sched;
    now () - t0
  in
  let fg_ns =
    match w.shape with
    | Cold_build alg ->
      ignore (Sched.spawn sched ~name:"ib" (build_window alg));
      ignore (run_sched ());
      spawn_clients ~lookup:true ~continue:(fixed_txns after_cold_build_txns);
      run_sched ()
    | Under_updates alg ->
      let stop = ref false in
      ignore
        (Sched.spawn sched ~name:"ib" (fun () ->
             build_window alg ();
             stop := true));
      spawn_clients ~lookup:false ~continue:(fun _ -> not !stop);
      run_sched ()
    | Oltp ->
      spawn_clients ~lookup:true ~continue:(fixed_txns oltp_txns);
      Gc.full_major ();
      let ((m0, m1, _) as measured) =
        measure ~build:false (fun () -> Sched.run sched)
      in
      window := Some measured;
      m1.t - m0.t
  in
  let m0, m1, layers = Option.get !window in
  let errors =
    (if Engine.active_txns ctx = 0 then [] else [ "transactions still active" ])
    @ Engine.consistency_errors ctx
    @ Engine.lifecycle_errors ~final:true ctx
  in
  ( {
      setup_ns;
      window_ns = m1.t - m0.t;
      fg_ns;
      fg;
      counts = counts ctx ~built:(w.shape <> Oltp) ~m0 ~m1 ~fg;
      errors;
      minor_words = m1.minor -. m0.minor;
      major_collections = m1.major - m0.major;
      layers;
    },
    inspect ctx )
