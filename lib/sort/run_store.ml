open Oib_util

type run = {
  name : string;
  mutable keys : Ikey.t array;
  mutable len : int;
  mutable forced : int;
}

type t = { runs : (string, run) Hashtbl.t }

let create () = { runs = Hashtbl.create 16 }

let crash t =
  let survivor = { runs = Hashtbl.create 16 } in
  Hashtbl.iter
    (fun name r ->
      Hashtbl.replace survivor.runs name
        {
          name;
          keys = Array.sub r.keys 0 r.forced;
          len = r.forced;
          forced = r.forced;
        })
    t.runs;
  survivor

let dummy = Ikey.make "" Rid.minus_infinity

let create_run ?(capacity = 0) t ~name =
  if Hashtbl.mem t.runs name then
    invalid_arg "Run_store.create_run: run exists";
  let r = { name; keys = Array.make capacity dummy; len = 0; forced = 0 } in
  Hashtbl.replace t.runs name r;
  r

let find_run t name = Hashtbl.find t.runs name

let delete_run t name = Hashtbl.remove t.runs name

let run_names t = Hashtbl.fold (fun n _ acc -> n :: acc) t.runs []

let name r = r.name

let append r k =
  if r.len = Array.length r.keys then begin
    let cap = max 16 (2 * Array.length r.keys) in
    let bigger = Array.make cap dummy in
    Array.blit r.keys 0 bigger 0 r.len;
    r.keys <- bigger
  end;
  r.keys.(r.len) <- k;
  r.len <- r.len + 1

let force r = r.forced <- r.len

let truncate r len =
  if len < 0 || len > r.len then invalid_arg "Run_store.truncate";
  r.len <- len;
  if r.forced > len then r.forced <- len

let length r = r.len

let forced_length r = r.forced

let get r i =
  if i < 0 || i >= r.len then invalid_arg "Run_store.get";
  r.keys.(i)

let iter_from r pos f =
  for i = max 0 pos to r.len - 1 do
    f r.keys.(i)
  done

let to_list r = List.init r.len (fun i -> r.keys.(i))

let is_sorted r =
  let ok = ref true in
  for i = 1 to r.len - 1 do
    if Ikey.compare r.keys.(i - 1) r.keys.(i) > 0 then ok := false
  done;
  !ok
