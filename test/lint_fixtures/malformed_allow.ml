(* planted "allow" findings: one suppression payload names no rule and
   one names the retired L9, so both must be reported rather than
   silently honoured *)
module Latch = Oib_sim.Latch

let sloppy p = (Latch.acquire p X) [@lint.allow "bogus"]

let retired p =
  (Latch.acquire p X) [@lint.allow "L9: names a rule that no longer runs"]
