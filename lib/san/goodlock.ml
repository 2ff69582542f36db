type t = { edges : (string * string, unit) Hashtbl.t }

let create () = { edges = Hashtbl.create 32 }

let add_edge t ~src ~dst =
  if src <> dst then Hashtbl.replace t.edges (src, dst) ()

let edges t =
  List.sort_uniq compare
    (Hashtbl.fold (fun k _ acc -> k :: acc) t.edges [])

(* Deterministic cycle extraction: DFS over sorted nodes with sorted
   adjacency, deduplicating cycles by their canonical (sorted) node set. *)
let cycles t =
  let es = edges t in
  let adj : (string, string list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (a, b) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt adj a) in
      Hashtbl.replace adj a (prev @ [ b ]))
    es;
  let nodes = List.sort_uniq compare (List.concat_map (fun (a, b) -> [ a; b ]) es) in
  let color : (string, [ `Grey | `Black ]) Hashtbl.t = Hashtbl.create 16 in
  let out = ref [] in
  let seen = Hashtbl.create 4 in
  let rec dfs stack n =
    match Hashtbl.find_opt color n with
    | Some `Black -> ()
    | Some `Grey ->
      (* stack head is the revisited node; the cycle runs from its
         previous occurrence (deeper in the stack) forward to here *)
      let rec take = function
        | x :: _ when x = n -> []
        | x :: rest -> x :: take rest
        | [] -> []
      in
      let cyc = n :: List.rev (take (List.tl stack)) in
      let key = String.concat "," (List.sort compare cyc) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        out := cyc :: !out
      end
    | None ->
      Hashtbl.replace color n `Grey;
      List.iter
        (fun m -> dfs (m :: stack) m)
        (Option.value ~default:[] (Hashtbl.find_opt adj n));
      Hashtbl.replace color n `Black
  in
  List.iter (fun n -> dfs [ n ] n) nodes;
  List.rev !out
