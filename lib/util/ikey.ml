type t = { kv : string; rid : Rid.t; pfx : int }

let prefix_bytes = 7

(* The first [prefix_bytes] bytes of [s.[pos..pos+len)], big-endian,
   zero-padded: 56 bits, so always a nonnegative OCaml int. *)
let prefix_at s ~pos ~len =
  let p = ref 0 in
  for i = 0 to prefix_bytes - 1 do
    p :=
      (!p lsl 8)
      lor if i < len then Char.code (String.unsafe_get s (pos + i)) else 0
  done;
  !p

let prefix kv = prefix_at kv ~pos:0 ~len:(String.length kv)

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
let cost_of_kv_length len = len + 11

let encoded_size t = cost_of_kv_length (String.length t.kv)

let pp ppf t = Format.fprintf ppf "<%S,%a>" t.kv Rid.pp t.rid

let to_string t = Format.asprintf "%a" pp t
