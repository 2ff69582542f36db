(* a perfectly balanced function carrying an allow that suppresses
   nothing: --strict must report it as stale *)
module Latch = Oib_sim.Latch

let balanced p =
  (Latch.acquire p X;
   Latch.release p X)
[@@lint.allow "L1: stale justification that no diagnostic ever needed"]
