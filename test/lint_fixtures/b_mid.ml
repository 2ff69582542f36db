(* Middle of the chain (see a_top.ml): hands C_low's latched page on *)
let get heap rid = C_low.fetch heap rid
