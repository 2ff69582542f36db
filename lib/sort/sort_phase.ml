open Oib_util
open Oib_storage

(* Charge [n] events to the owning build, if any. *)
let charge target c n =
  match target with Some t -> Oib_sim.Metrics.add_to t c n | None -> ()

(* Tree of losers for replacement selection (Knuth's Algorithm R), over
   flat arrays. Slot [s] is leaf [size + s] of an implicit binary tree;
   internal node [i] (1 = root) holds the slot that lost the match played
   there, and [winner] is the slot that won them all. A slot holds a key
   and its run tag; tag-major order makes keys destined for the next run
   lose to everything in the current one.

   Two tags hold no key: [fill] wins every match and marks a slot not yet
   filled since the last reset, [empty] loses every match and marks a slot
   with nothing in it (retired, drained, or at or above the tournament's
   capacity). A replay is only valid from the winner's leaf, so while the
   tree fills, the slot being filled must be the winner — which the [fill]
   tag guarantees. *)
module Tournament = struct
  let fill = -1
  let empty = max_int

  let dummy = Ikey.make "" Rid.minus_infinity

  type t = {
    capacity : int; (* slots that take keys: [memory_keys] *)
    size : int; (* leaf slots, a power of two >= [capacity] *)
    tag : int array;
    pfx : int array; (* [key.(s).pfx], unboxed *)
    key : Ikey.t array;
    loser : int array; (* internal node -> losing slot *)
    mutable winner : int;
    mutable fills : int; (* [fill] slots left *)
    mutable compares : int;
        (* key comparisons not yet charged: a comparison is a field bump,
           and [settle] charges them once per call into the sorter *)
  }

  (* Does slot [a] beat slot [b]? Tags decide unless they are equal and
     real; then the cached prefixes, then the full keys. Only a match
     between two keys of the same run counts as a comparison. *)
  let beats t a b =
    let ta = Array.unsafe_get t.tag a and tb = Array.unsafe_get t.tag b in
    ta < tb
    || ta = tb && ta <> fill && ta <> empty
       && begin
            t.compares <- t.compares + 1;
            let pa = Array.unsafe_get t.pfx a and pb = Array.unsafe_get t.pfx b in
            pa < pb
            || pa = pb
               && Ikey.compare (Array.unsafe_get t.key a) (Array.unsafe_get t.key b)
                  < 0
          end

  (* Play every match bottom-up: slots below [capacity] become [fill], the
     rest [empty]. Tags decide every match, so this compares no keys. Every
     slot already holds [dummy]: fresh, or retired by a drain. *)
  let reset t =
    for s = 0 to t.size - 1 do
      t.tag.(s) <- (if s < t.capacity then fill else empty)
    done;
    let win = Array.make (2 * t.size) 0 in
    for s = 0 to t.size - 1 do
      win.(t.size + s) <- s
    done;
    for i = t.size - 1 downto 1 do
      let a = win.(2 * i) and b = win.((2 * i) + 1) in
      if beats t b a then begin
        win.(i) <- b;
        t.loser.(i) <- a
      end
      else begin
        win.(i) <- a;
        t.loser.(i) <- b
      end
    done;
    t.winner <- win.(1);
    t.fills <- t.capacity

  let create capacity =
    let size = ref 1 in
    while !size < capacity do
      size := !size * 2
    done;
    let size = !size in
    let t =
      {
        capacity;
        size;
        tag = Array.make size empty;
        pfx = Array.make size 0;
        key = Array.make size dummy;
        loser = Array.make size 0;
        winner = 0;
        fills = 0;
        compares = 0;
      }
    in
    reset t;
    t

  (* Replace the winner's slot and replay its leaf-to-root path. *)
  let replace t tag key =
    let s = t.winner in
    t.tag.(s) <- tag;
    t.pfx.(s) <- key.Ikey.pfx;
    t.key.(s) <- key;
    let w = ref s in
    let i = ref ((t.size + s) lsr 1) in
    while !i > 0 do
      let l = Array.unsafe_get t.loser !i in
      if beats t l !w then begin
        Array.unsafe_set t.loser !i !w;
        w := l
      end;
      i := !i lsr 1
    done;
    t.winner <- !w

  (* Empty the winner's slot. *)
  let retire t = replace t empty dummy
end

type Durable_kv.value +=
  | Sort_ckpt of {
      completed : string list; (* oldest first *)
      current : string;
      current_len : int;
      scan_pos : int;
      highest_out : Ikey.t option;
      run_counter : int;
    }

type t = {
  kv : Durable_kv.t;
  store : Run_store.t;
  ckpt_id : string;
  charge : Oib_sim.Metrics.target option;
  tree : Tournament.t;
  mutable cur_tag : int;
  mutable last_emitted : Ikey.t option;
      (* the last key output as of the last drain; read only while the
         tree fills, as a full tree tags each fed key against the key it
         pushes out *)
  mutable completed : string list; (* newest first *)
  mutable current : Run_store.run;
  mutable pos : int;
  mutable run_counter : int;
}

let run_name ckpt_id i = Printf.sprintf "%s/run-%04d" ckpt_id i

(* The runs a sorter names, and so the only ones it may delete: a sibling
   sharing the bare [ckpt_id] prefix (["ib/1/sorted"] next to
   ["ib/1/sort"]) is not ours. *)
let owns ~ckpt_id name = String.starts_with ~prefix:(ckpt_id ^ "/") name

let make ?charge kv store ~ckpt_id ~memory_keys ~current ~last_emitted
    ~completed ~pos ~run_counter =
  if memory_keys < 1 then invalid_arg "Sort_phase: memory_keys < 1";
  {
    kv;
    store;
    ckpt_id;
    charge;
    tree = Tournament.create memory_keys;
    cur_tag = 0;
    last_emitted;
    completed;
    current;
    pos;
    run_counter;
  }

let start ?charge kv store ~ckpt_id ~memory_keys =
  (* a previous life that crashed before its first checkpoint leaves
     orphan (necessarily empty-forced) runs under our name space: clear
     them — had a checkpoint existed, the caller would have resumed *)
  List.iter
    (fun n -> if owns ~ckpt_id n then Run_store.delete_run store n)
    (Run_store.run_names store);
  let current = Run_store.create_run store ~name:(run_name ckpt_id 0) in
  make ?charge kv store ~ckpt_id ~memory_keys ~current ~last_emitted:None
    ~completed:[] ~pos:(-1) ~run_counter:1

let roll_run t =
  charge t.charge Run_spills 1;
  Run_store.force t.current;
  t.completed <- Run_store.name t.current :: t.completed;
  t.current <- Run_store.create_run t.store ~name:(run_name t.ckpt_id t.run_counter);
  t.run_counter <- t.run_counter + 1

(* Write the winner's key to its run, opening the next run first if the
   winner's tag is past the current one; returns the key. *)
let emit_winner t =
  let tr = t.tree in
  let tag = tr.tag.(tr.winner) and key = tr.key.(tr.winner) in
  if tag > t.cur_tag then begin
    roll_run t;
    t.cur_tag <- tag
  end;
  Run_store.append t.current key;
  key

(* The run tag of a key fed after [last] was output: keys below it wait
   for the next run. *)
let tag_after t key last =
  t.tree.compares <- t.tree.compares + 1;
  if Ikey.compare key last < 0 then t.cur_tag + 1 else t.cur_tag

(* A fed key takes the winner's slot: a [fill] slot while the tree fills
   (the last key output is then [last_emitted], from before the fill),
   else the slot of the key it pushes out. *)
let feed_key t key =
  let tr = t.tree in
  let tag =
    if tr.fills > 0 then begin
      tr.fills <- tr.fills - 1;
      match t.last_emitted with
      | Some last -> tag_after t key last
      | None -> t.cur_tag
    end
    else tag_after t key (emit_winner t)
  in
  Tournament.replace tr tag key

(* Charge the comparisons counted since the last call. Nothing in the
   sorter yields, so no one can read the account between a comparison and
   its charge. *)
let settle t =
  charge t.charge Sort_compares t.tree.compares;
  t.tree.compares <- 0

let feed_page t ~scan_pos keys =
  assert (scan_pos > t.pos);
  List.iter (feed_key t) keys;
  settle t;
  t.pos <- scan_pos

(* Emit every key in memory and leave the tree ready to fill again. The
   [fill] slots left over from a partial fill go first: each is the winner
   in turn, and none holds a key to emit. *)
let drain t =
  let tr = t.tree in
  while tr.fills > 0 do
    tr.fills <- tr.fills - 1;
    Tournament.retire tr
  done;
  while tr.tag.(tr.winner) <> Tournament.empty do
    t.last_emitted <- Some (emit_winner t);
    Tournament.retire tr
  done;
  Tournament.reset tr;
  settle t

let checkpoint t =
  drain t;
  List.iter (fun n -> Run_store.force (Run_store.find_run t.store n)) t.completed;
  Run_store.force t.current;
  Durable_kv.set t.kv t.ckpt_id
    (Sort_ckpt
       {
         completed = List.rev t.completed;
         current = Run_store.name t.current;
         current_len = Run_store.length t.current;
         scan_pos = t.pos;
         highest_out = t.last_emitted;
         run_counter = t.run_counter;
       })

let finish t =
  checkpoint t;
  List.rev (Run_store.name t.current :: t.completed)

let scan_pos t = t.pos

let run_count t = List.length t.completed + 1

let checkpointed_scan_pos kv ~ckpt_id =
  match Durable_kv.get kv ckpt_id with
  | Some (Sort_ckpt c) -> Some c.scan_pos
  | _ -> None

let resume ?charge kv store ~ckpt_id ~memory_keys =
  match Durable_kv.get kv ckpt_id with
  | Some (Sort_ckpt c) ->
    (* discard runs born after the checkpoint *)
    let keep = c.current :: c.completed in
    List.iter
      (fun n ->
        if owns ~ckpt_id n && not (List.mem n keep) then
          Run_store.delete_run store n)
      (Run_store.run_names store);
    let current = Run_store.find_run store c.current in
    Run_store.truncate current c.current_len;
    (* the paper's same-stream rule: keys continuing the current run must
       sort above the checkpointed highest output *)
    Some
      (make ?charge kv store ~ckpt_id ~memory_keys ~current
         ~last_emitted:c.highest_out ~completed:(List.rev c.completed)
         ~pos:c.scan_pos ~run_counter:c.run_counter)
  | _ -> None
