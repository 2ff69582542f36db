(* Periodic time-series sampler: every N virtual steps, read the engine's
   own state (counter totals, log, pool and throttle gauges, the
   foreground latency window, the EWMA rates) and every live build's
   progress and cost into the trace as [Sample] events, evaluate the
   health signals, and advance the latency window one tick. The
   scheduler's tick hook drives it (no fiber: a sampling fiber would keep
   the scheduler alive forever), so samples are stamped as "main" at
   exact multiples of the period and an offline reader can reassemble
   them into aligned series.

   Signal evaluation and window rotation happen on every tick even when
   nothing is tracing: subscribers (e.g. an admission-control throttle)
   and DST assertions must see the same deterministic flips whether or
   not a sink is attached. *)

module Sched = Oib_sim.Sched
module Trace = Oib_obs.Trace
module Event = Oib_obs.Event
module Metrics = Oib_sim.Metrics
module Signal = Oib_obs.Signal
module Resource = Oib_obs.Resource
module Window = Oib_obs.Window
module Pool = Oib_storage.Buffer_pool
module Log = Oib_wal.Log_manager
module BS = Build_status

let round x = int_of_float (Float.round x)

let sample ?rate_steps (ctx : Ctx.t) =
  let m = ctx.Ctx.metrics in
  (* 1. refresh EWMA rates from counter deltas (periodic ticks only) *)
  (match rate_steps with
  | Some steps ->
    List.iter
      (fun (c, r) -> Window.Ewma.observe r ~total:(Metrics.get m c) ~steps)
      ctx.Ctx.rates
  | None -> ());
  (* 2. evaluate health signals — before emission, so the emitted
     [signal.*] states are this tick's; subscribers fire here *)
  ignore (Signal.eval ctx.Ctx.signals);
  (* 3. emit one batch of samples; every key is distinct by construction *)
  let tr = ctx.Ctx.trace in
  if Trace.tracing tr then begin
    let emit key value = Trace.emit tr (Event.Sample { key; value }) in
    (match Metrics.latency m with
    | Some w ->
      let h = Window.merged w in
      let p q = round (Oib_obs.Hist.percentile h q) in
      emit "window.fg.latency.p50" (p 0.50);
      emit "window.fg.latency.p95" (p 0.95);
      emit "window.fg.latency.p99" (p 0.99);
      emit "window.fg.latency.count" (Window.count w)
    | None -> ());
    (* counters by name: the key order is part of the namespace *)
    List.iter
      (fun (name, v) -> emit ("metrics." ^ name) v)
      (List.sort compare (Metrics.to_assoc m));
    emit "pool.cached_pages" (Pool.cached_count ctx.Ctx.pool);
    emit "pool.dirty_pages" (Pool.dirty_count ctx.Ctx.pool);
    (* a rate reports from the first periodic tick on *)
    List.iter
      (fun (c, r) ->
        if Window.Ewma.started r then
          emit ("rate." ^ Resource.name c)
            (round (Window.Ewma.rate r *. 1000.0)))
      ctx.Ctx.rates;
    emit "throttle.level" (Throttle.level ctx.Ctx.throttle);
    emit "wal.durable_bytes" (Log.durable_bytes ctx.Ctx.log);
    emit "wal.unflushed_bytes" (Log.unflushed_bytes ctx.Ctx.log);
    Hashtbl.fold (fun _ st acc -> st :: acc) ctx.Ctx.builds []
    |> List.sort (fun (a : BS.t) b -> compare a.BS.index_id b.BS.index_id)
    |> List.iter (fun (st : BS.t) ->
           let emit_b suffix value =
             emit (Printf.sprintf "build.%d.%s" st.BS.index_id suffix) value
           in
           emit_b "keys_processed" st.BS.keys_processed;
           emit_b "backlog" st.BS.backlog;
           emit_b "phase" (BS.rank st.BS.phase);
           let cost = Resource.get st.BS.resources in
           emit_b "cost.pages" (cost Page_reads + cost Page_writes);
           emit_b "cost.log_bytes" (cost Log_bytes);
           emit_b "cost.wait_steps" (cost Latch_wait_steps + cost Lock_wait_steps);
           emit_b "cost.compares" (cost Sort_compares));
    List.iter
      (fun s ->
        emit
          ("signal." ^ Signal.name s)
          (if Signal.active s then 1 else 0))
      (Signal.signals ctx.Ctx.signals)
  end;
  (* 4. advance the latency window: this tick's observations are now the
     newest slot; the oldest ages out *)
  Option.iter Window.rotate (Metrics.latency m)

let install (ctx : Ctx.t) ~every =
  Sched.set_tick ctx.Ctx.sched ~every (fun _ -> sample ~rate_steps:every ctx)

let uninstall (ctx : Ctx.t) = Sched.clear_tick ctx.Ctx.sched

(* The profiler glue: [Profiler] lives below the scheduler in the
   dependency order, so the translation from [Sched.fiber_state] to its
   run-state mirror and the step-hook cadence both live here. The hook
   (not the single tick slot — that belongs to the metrics sampler
   above) samples every live fiber every [every] steps. *)
module Profiler = Oib_obs.Profiler

let install_profiler (ctx : Ctx.t) ?(every = 10) () =
  if every <= 0 then
    invalid_arg "Obs_sampler.install_profiler: every must be positive";
  let prof = Profiler.create ctx.Ctx.trace in
  let sched = ctx.Ctx.sched in
  let hook =
    Sched.add_step_hook sched (fun step ->
        (* also fire at the incarnation's very first step, so even a
           scheduler run shorter than one period yields a profile *)
        if step = 1 || step mod every = 0 then
          Profiler.sample prof
            ~fibers:
              (List.map
                 (fun (id, name, st) ->
                   ( id,
                     name,
                     match (st : Sched.fiber_state) with
                     | Sched.Running -> Profiler.Running
                     | Sched.Runnable -> Profiler.Runnable
                     | Sched.Blocked -> Profiler.Blocked ))
                 (Sched.fiber_states sched)))
  in
  let uninstall () =
    Sched.remove_step_hook sched hook;
    Profiler.detach prof
  in
  (prof, uninstall)
