open Oib_util
open Oib_storage

(* Charge [n] events to the owning build, if any. *)
let charge target c n =
  match target with Some t -> Oib_sim.Metrics.add_to t c n | None -> ()

(* binary min-heap over (run tag, key): tag-major so keys destined for the
   next run sink below everything in the current run *)
module Heap = struct
  type t = {
    mutable a : (int * Ikey.t) array;
    mutable n : int;
    mutable compares : int;
        (* key comparisons not yet charged: a comparison is a field bump,
           and [settle] charges them once per call into the sorter *)
  }

  let dummy = (0, Ikey.make "" Rid.minus_infinity)

  let create () = { a = Array.make 64 dummy; n = 0; compares = 0 }

  (* tags annotated [int] so their test is an int compare, not a call to
     polymorphic compare *)
  let less h ((t1 : int), k1) ((t2 : int), k2) =
    t1 < t2
    || t1 = t2
       && begin
            h.compares <- h.compares + 1;
            Ikey.compare k1 k2 < 0
          end

  let size h = h.n

  let push h x =
    if h.n = Array.length h.a then begin
      let bigger = Array.make (2 * h.n) dummy in
      Array.blit h.a 0 bigger 0 h.n;
      h.a <- bigger
    end;
    let i = ref h.n in
    h.n <- h.n + 1;
    h.a.(!i) <- x;
    while !i > 0 && less h h.a.(!i) h.a.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      let tmp = h.a.(p) in
      h.a.(p) <- h.a.(!i);
      h.a.(!i) <- tmp;
      i := p
    done

  let pop h =
    assert (h.n > 0);
    let top = h.a.(0) in
    h.n <- h.n - 1;
    h.a.(0) <- h.a.(h.n);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.n && less h h.a.(l) h.a.(!smallest) then smallest := l;
      if r < h.n && less h h.a.(r) h.a.(!smallest) then smallest := r;
      if !smallest = !i then continue := false
      else begin
        let tmp = h.a.(!smallest) in
        h.a.(!smallest) <- h.a.(!i);
        h.a.(!i) <- tmp;
        i := !smallest
      end
    done;
    top
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
  memory_keys : int;
  charge : Oib_sim.Metrics.target option;
  heap : Heap.t;
  mutable cur_tag : int;
  mutable last_emitted : Ikey.t option;
  mutable completed : string list; (* newest first *)
  mutable current : Run_store.run;
  mutable pos : int;
  mutable run_counter : int;
}

let run_name t i = Printf.sprintf "%s/run-%04d" t.ckpt_id i

let start ?charge kv store ~ckpt_id ~memory_keys =
  (* a previous life that crashed before its first checkpoint leaves
     orphan (necessarily empty-forced) runs under our name space: clear
     them — had a checkpoint existed, the caller would have resumed *)
  let prefix = ckpt_id ^ "/" in
  List.iter
    (fun n ->
      if
        String.length n >= String.length prefix
        && String.sub n 0 (String.length prefix) = prefix
      then Run_store.delete_run store n)
    (Run_store.run_names store);
  let current =
    Run_store.create_run store ~name:(Printf.sprintf "%s/run-%04d" ckpt_id 0)
  in
  {
    kv;
    store;
    ckpt_id;
    memory_keys;
    charge;
    heap = Heap.create ();
    cur_tag = 0;
    last_emitted = None;
    completed = [];
    current;
    pos = -1;
    run_counter = 1;
  }

let roll_run t =
  charge t.charge Run_spills 1;
  Run_store.force t.current;
  t.completed <- Run_store.name t.current :: t.completed;
  t.current <- Run_store.create_run t.store ~name:(run_name t t.run_counter);
  t.run_counter <- t.run_counter + 1

let emit_min t =
  let tag, key = Heap.pop t.heap in
  if tag > t.cur_tag then begin
    roll_run t;
    t.cur_tag <- tag
  end;
  Run_store.append t.current key;
  t.last_emitted <- Some key

let push_key t key =
  let tag =
    match t.last_emitted with
    | Some e ->
      t.heap.Heap.compares <- t.heap.Heap.compares + 1;
      if Ikey.compare key e < 0 then t.cur_tag + 1 else t.cur_tag
    | None -> t.cur_tag
  in
  Heap.push t.heap (tag, key)

(* Charge the comparisons counted since the last call. Nothing in the
   sorter yields, so no one can read the account between a comparison and
   its charge. *)
let settle t =
  charge t.charge Sort_compares t.heap.Heap.compares;
  t.heap.Heap.compares <- 0

let feed_page t ~scan_pos keys =
  assert (scan_pos > t.pos);
  List.iter
    (fun key ->
      if Heap.size t.heap >= t.memory_keys then emit_min t;
      push_key t key)
    keys;
  settle t;
  t.pos <- scan_pos

let drain t =
  while Heap.size t.heap > 0 do
    emit_min t
  done;
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
        if
          String.length n >= String.length ckpt_id
          && String.sub n 0 (String.length ckpt_id) = ckpt_id
          && not (List.mem n keep)
        then Run_store.delete_run store n)
      (Run_store.run_names store);
    let current = Run_store.find_run store c.current in
    Run_store.truncate current c.current_len;
    Some
      {
        kv;
        store;
        ckpt_id;
        memory_keys;
        charge;
        heap = Heap.create ();
        cur_tag = 0;
        (* the paper's same-stream rule: keys continuing the current run
           must sort above the checkpointed highest output *)
        last_emitted = c.highest_out;
        completed = List.rev c.completed;
        current;
        pos = c.scan_pos;
        run_counter = c.run_counter;
      }
  | _ -> None
