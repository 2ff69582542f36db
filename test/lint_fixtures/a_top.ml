(* Top of a three-file chain listed in reverse call order: leak ->
   B_mid.get -> C_low.fetch, which returns its page X-latched *)
let leak heap rid =
  let p = B_mid.get heap rid in
  ignore p.Page.payload
