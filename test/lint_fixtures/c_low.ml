(* Bottom of the chain (see a_top.ml): returns the page X-latched *)
module Latch = Oib_sim.Latch

let fetch heap rid =
  let p = Heap_file.page heap rid in
  Latch.acquire p.Page.latch X;
  p
