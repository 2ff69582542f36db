(* The assembled system: every subsystem one engine instance owns. Shared
   by the record-operation layer, the index builders, and the engine
   façade. *)

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
  builds : (int, Build_status.t) Hashtbl.t; (* index_id -> live progress *)
  rates : (Oib_obs.Resource.counter * Oib_obs.Window.Ewma.t) list;
      (* the sampler's EWMA rates, in key order *)
  signals : Oib_obs.Signal.set; (* overload/health signals *)
  throttle : Throttle.t; (* IB admission control; survives crash *)
}
