type payload = ..

type kind = {
  role : string;
  encode : payload -> string;
  decode : string -> payload;
}

type t = {
  id : int;
  kind : kind;
  latch : Oib_sim.Latch.t;
  mutable lsn : Oib_wal.Lsn.t;
  mutable payload : payload;
  mutable dirty : bool;
  mutable no_steal : bool;
}

let make ~kind ~id ~sched ~metrics ~payload =
  {
    id;
    kind;
    latch = Oib_sim.Latch.create ~role:kind.role ~page:id sched metrics;
    lsn = Oib_wal.Lsn.nil;
    payload;
    dirty = false;
    no_steal = false;
  }

let set_lsn t lsn =
  (let tr = Oib_sim.Latch.trace t.latch in
   if Oib_obs.Trace.tracing tr then begin
     Oib_obs.Trace.emit tr
       (Oib_obs.Event.Lsn_set
          {
            page = t.id;
            old_lsn = Oib_wal.Lsn.to_int t.lsn;
            new_lsn = Oib_wal.Lsn.to_int lsn;
            site = "Page.set_lsn";
          });
     Oib_obs.Trace.emit tr
       (Oib_obs.Event.Access
          { page = t.id; write = true; site = "Page.set_lsn" })
   end);
  t.lsn <- lsn;
  t.dirty <- true

let mark_dirty t =
  (let tr = Oib_sim.Latch.trace t.latch in
   if Oib_obs.Trace.tracing tr then
     Oib_obs.Trace.emit tr
       (Oib_obs.Event.Access
          { page = t.id; write = true; site = "Page.mark_dirty" }));
  t.dirty <- true
