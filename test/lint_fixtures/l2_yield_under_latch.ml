(* planted L2, three times under a latch: a direct scheduler yield, a
   transitive WAL force through a local helper, and a condition wait *)
module Latch = Oib_sim.Latch
module Sched = Oib_sim.Sched

let force_log log = Oib_wal.Log_manager.flush log ~upto:lsn

let direct p =
  Latch.acquire p X;
  Sched.yield ();
  Latch.release p X

let transitive p log =
  Latch.acquire p X;
  force_log log;
  Latch.release p X

let condition_wait p cond =
  Latch.acquire p X;
  Sched.Cond.wait cond;
  Latch.release p X
