open Oib_util

type entry = { insert : bool; key : Ikey.t }

type t = {
  sidefile_id : int;
  mutable entries : entry array;
  mutable n : int;
}

let dummy = { insert = true; key = Ikey.make "" Rid.minus_infinity }

let create ~sidefile_id = { sidefile_id; entries = Array.make 64 dummy; n = 0 }

let sidefile_id t = t.sidefile_id

let apply_append t ~insert key =
  if t.n = Array.length t.entries then begin
    let bigger = Array.make (2 * t.n) dummy in
    Array.blit t.entries 0 bigger 0 t.n;
    t.entries <- bigger
  end;
  let pos = t.n in
  t.entries.(pos) <- { insert; key };
  t.n <- t.n + 1;
  pos

let length t = t.n

let get t i =
  if i < 0 || i >= t.n then invalid_arg "Side_file.get";
  t.entries.(i)

let iter_from t from f =
  for i = max 0 from to t.n - 1 do
    f i t.entries.(i)
  done

let slice t ~from ~upto =
  let upto = min upto t.n and from = max 0 from in
  if from >= upto then [] else Array.to_list (Array.sub t.entries from (upto - from))

let sorted_slice ?keep t ~from ~upto =
  let entries = slice t ~from ~upto in
  let entries =
    match keep with
    | None -> entries
    | Some keep -> List.filteri (fun k e -> keep (max 0 from + k) e) entries
  in
  List.stable_sort (fun a b -> Ikey.compare a.key b.key) entries

let pp_entry ppf e =
  Format.fprintf ppf "%s %a" (if e.insert then "ins" else "del") Ikey.pp e.key
