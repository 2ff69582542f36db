(* an allow naming the retired L5 (module latch-order cycles): it must
   be reported as malformed, not silently honoured. Expected: exactly
   one "allow" diagnostic. *)
module Latch = Oib_sim.Latch

let cross p q =
  Latch.acquire p X;
  (Lower.enter q [@lint.allow "L5: upper before lower is the global order"]);
  Latch.release p X
