open Oib_util
open Bt_node

let collect_entries t =
  let acc = ref [] in
  Btree.iter_entries t (fun k ~pseudo -> acc := (k, pseudo) :: !acc);
  List.rev !acc

let entries_sorted t =
  let rec sorted = function
    | [] | [ _ ] -> true
    | (a, _) :: ((b, _) :: _ as rest) ->
      Ikey.compare a b < 0 && sorted rest
  in
  sorted (collect_entries t)

let check t =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  (* leaf chain: ordering, high keys, byte accounting *)
  let prev_last = ref None in
  let leaf_chain = ref [] in
  Btree.iter_leaves t (fun pid l ->
      leaf_chain := pid :: !leaf_chain;
      let bytes = ref 0 in
      for i = 0 to leaf_n l - 1 do
        let k = leaf_key l i in
        bytes := !bytes + leaf_entry_cost k;
        if i > 0 && Ikey.compare (leaf_key l (i - 1)) k >= 0 then
          err "leaf %d: entries out of order at %d" pid i;
        (match leaf_high l with
        | Some h when Ikey.compare k h >= 0 ->
          err "leaf %d: entry %d >= high key" pid i
        | _ -> ());
        match !prev_last with
        | Some pk when i = 0 && Ikey.compare pk k >= 0 ->
          err "leaf %d: first entry <= previous leaf's last" pid
        | _ -> ()
      done;
      if !bytes <> leaf_bytes l then
        err "leaf %d: byte accounting %d <> %d" pid (leaf_bytes l) !bytes;
      if leaf_bytes l > Btree.page_capacity t then
        err "leaf %d: overflows capacity" pid;
      if leaf_n l > 0 then prev_last := Some (leaf_key l (leaf_n l - 1)));
  (* structure: separators bound subtrees; reachable leaves = next-chain *)
  let reachable_leaves = ref [] and reachable = ref [] in
  let rec walk pid lo hi =
    reachable := pid :: !reachable;
    match Btree.node_at t pid with
    | Leaf l ->
      reachable_leaves := pid :: !reachable_leaves;
      for i = 0 to leaf_n l - 1 do
        let k = leaf_key l i in
        (match lo with
        | Some b when Ikey.compare k b < 0 ->
          err "leaf %d: entry below subtree lower bound" pid
        | _ -> ());
        match hi with
        | Some b when Ikey.compare k b >= 0 ->
          err "leaf %d: entry above subtree upper bound" pid
        | _ -> ()
      done
    | Internal n ->
      if n.nc < 1 then err "internal %d: no children" pid;
      for i = 0 to n.nc - 2 do
        if i > 0 && Ikey.compare n.seps.(i - 1) n.seps.(i) >= 0 then
          err "internal %d: separators out of order" pid
      done;
      if n.ibytes > Btree.page_capacity t then
        err "internal %d: overflows capacity" pid;
      for i = 0 to n.nc - 1 do
        let lo' = if i = 0 then lo else Some n.seps.(i - 1) in
        let hi' = if i = n.nc - 1 then hi else Some n.seps.(i) in
        walk n.children.(i) lo' hi'
      done
  in
  walk (Btree.root_page_id t) None None;
  let chain = List.rev !leaf_chain in
  if List.length (List.sort_uniq compare chain) <> List.length chain then
    err "leaf chain contains duplicate pages";
  if List.sort compare chain <> List.sort compare !reachable_leaves then
    err "leaf chain disagrees with tree reachability";
  if List.sort compare (Btree.page_ids t) <> List.sort compare !reachable then
    err "page inventory disagrees with tree reachability";
  List.rev !errs

let clustering t =
  let pids = ref [] in
  Btree.iter_leaves t (fun pid _ -> pids := pid :: !pids);
  let pids = List.rev !pids in
  match pids with
  | [] | [ _ ] -> 1.0
  | _ ->
    let rec count acc n = function
      | a :: (b :: _ as rest) ->
        count (if b > a then acc + 1 else acc) (n + 1) rest
      | _ -> (acc, n)
    in
    let good, total = count 0 0 pids in
    float_of_int good /. float_of_int total

let avg_leaf_fill t =
  let total = ref 0.0 in
  let n = ref 0 in
  Btree.iter_leaves t (fun _ l ->
      total :=
        !total
        +. (float_of_int (leaf_bytes l) /. float_of_int (Btree.page_capacity t));
      incr n);
  if !n = 0 then 0.0 else !total /. float_of_int !n
