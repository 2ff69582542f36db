open Oib_util

(* Flat layout: per leaf slot, a live flag, the head key and its cached
   prefix, read at pull time, so most matches are one int compare with no
   pointer chased. *)
type t = {
  streams : (unit -> Ikey.t option) array;
  k2 : int; (* leaf slots, power of two *)
  live : bool array; (* false = exhausted (+infinity) *)
  key : Ikey.t array; (* head key, meaningful while live *)
  pfx : int array; (* [key.(s).pfx] *)
  losers : int array; (* internal node -> losing leaf slot *)
  mutable win1 : int; (* overall winner slot *)
  charge : Oib_sim.Metrics.target option; (* merge compares charged here *)
  mutable compares : int; (* counted by [beats], not yet charged *)
}

let dummy = Ikey.make "" Rid.minus_infinity

(* Pull slot [s]'s next head from its stream. Only slots below the stream
   count are ever live, so only they are pulled. *)
let pull t s =
  match t.streams.(s) () with
  | Some k ->
    t.live.(s) <- true;
    t.key.(s) <- k;
    t.pfx.(s) <- k.Ikey.pfx
  | None -> t.live.(s) <- false

(* slot a beats slot b? An exhausted slot is +infinity; ties break to the
   lower slot, which makes merging stable. *)
let beats t a b =
  Array.unsafe_get t.live a
  && ((not (Array.unsafe_get t.live b))
     || begin
          t.compares <- t.compares + 1;
          let pa = Array.unsafe_get t.pfx a and pb = Array.unsafe_get t.pfx b in
          pa < pb
          || pa = pb
             &&
             let c = Ikey.compare (Array.unsafe_get t.key a) (Array.unsafe_get t.key b) in
             c < 0 || (c = 0 && a < b)
        end)

(* one charge per [make] or [pop] rather than one per comparison *)
let settle t =
  (match t.charge with
  | Some target -> Oib_sim.Metrics.add_to target Sort_compares t.compares
  | None -> ());
  t.compares <- 0

let make ?charge ~streams () =
  let k = Array.length streams in
  if k = 0 then invalid_arg "Loser_tree.make: no streams";
  let k2 = ref 1 in
  while !k2 < k do
    k2 := !k2 * 2
  done;
  let k2 = !k2 in
  let t =
    {
      streams;
      k2;
      live = Array.make k2 false;
      key = Array.make k2 dummy;
      pfx = Array.make k2 0;
      losers = Array.make k2 0;
      win1 = 0;
      charge;
      compares = 0;
    }
  in
  for i = 0 to k - 1 do
    pull t i
  done;
  (* build the initial tournament bottom-up *)
  let win = Array.make (2 * k2) 0 in
  for j = 0 to k2 - 1 do
    win.(k2 + j) <- j
  done;
  for i = k2 - 1 downto 1 do
    let a = win.(2 * i) and b = win.((2 * i) + 1) in
    if beats t a b then begin
      win.(i) <- a;
      t.losers.(i) <- b
    end
    else begin
      win.(i) <- b;
      t.losers.(i) <- a
    end
  done;
  t.win1 <- win.(1);
  settle t;
  t

let pop t =
  let w = t.win1 in
  if not t.live.(w) then None
  else begin
    let key = t.key.(w) in
    (* refill the winner's leaf and replay its path to the root *)
    pull t w;
    let winner = ref w in
    let i = ref ((t.k2 + w) / 2) in
    while !i >= 1 do
      let l = Array.unsafe_get t.losers !i in
      if beats t l !winner then begin
        Array.unsafe_set t.losers !i !winner;
        winner := l
      end;
      i := !i / 2
    done;
    t.win1 <- !winner;
    settle t;
    Some (key, w)
  end

let drain t =
  let rec go acc = match pop t with None -> List.rev acc | Some x -> go (x :: acc) in
  go []
