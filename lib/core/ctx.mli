(** The assembled system: every subsystem one engine instance owns. Shared
    by the record-operation layer, the index builders, and the engine
    façade. The record is deliberately transparent — construction happens
    in {!Engine} and each layer picks the subsystems it needs. *)

type t = {
  sched : Oib_sim.Sched.t;
  metrics : Oib_sim.Metrics.t;
  trace : Oib_obs.Trace.t;
  log : Oib_wal.Log_manager.t;
  store : Oib_storage.Stable_store.t;
  kv : Oib_storage.Durable_kv.t;
  pool : Oib_storage.Buffer_pool.t;
  locks : Oib_lock.Lock_manager.t;
  txns : Oib_txn.Txn_manager.t;
  catalog : Catalog.t;
  runs : Oib_sort.Run_store.t;
  builds : (int, Build_status.t) Hashtbl.t;  (** index_id -> live progress *)
  rates : (Oib_obs.Resource.counter * Oib_obs.Window.Ewma.t) list;
      (** the EWMA rates the periodic sampler folds and reports as
          [rate.<counter>], in key order; survive crash/restart with
          [metrics] *)
  signals : Oib_obs.Signal.set;
      (** overload/health signals evaluated on sampler ticks; survives
          crash/restart *)
  throttle : Throttle.t;
      (** IB admission control driven by [signals]; carried across
          crash/restart with them (its signal subscription must outlive
          incarnations) *)
}
