type t = { kv : string; rid : Rid.t; pfx : int }

let prefix_bytes = 7

(* The first [prefix_bytes] bytes of [kv], big-endian, zero-padded: 56
   bits, so always a nonnegative OCaml int. *)
let prefix kv =
  let n = String.length kv in
  let p = ref 0 in
  for i = 0 to prefix_bytes - 1 do
    p := (!p lsl 8) lor if i < n then Char.code (String.unsafe_get kv i) else 0
  done;
  !p

let make kv rid = { kv; rid; pfx = prefix kv }

(* A prefix that differs decides the order; equal prefixes decide nothing
   and fall through to the full strings. *)
let compare_kv a b =
  if a.pfx < b.pfx then -1
  else if a.pfx > b.pfx then 1
  else String.compare a.kv b.kv

let compare a b =
  match compare_kv a b with 0 -> Rid.compare a.rid b.rid | c -> c

let equal a b = compare a b = 0

(* key bytes + 8-byte RID + 2-byte slot directory entry + 1 flag byte *)
let encoded_size t = String.length t.kv + 11

let pp ppf t = Format.fprintf ppf "<%S,%a>" t.kv Rid.pp t.rid

let to_string t = Format.asprintf "%a" pp t
