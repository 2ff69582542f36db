type t = int

let nil = 0
external of_int : int -> t = "%identity"
external to_int : t -> int = "%identity"
let next t = t + 1
let compare = Int.compare
let equal = Int.equal
let ( < ) a b = compare a b < 0
let ( <= ) a b = compare a b <= 0
let ( > ) a b = compare a b > 0
let ( >= ) a b = compare a b >= 0
let max a b = Stdlib.max a b
let pp ppf t = Format.fprintf ppf "lsn:%d" t
