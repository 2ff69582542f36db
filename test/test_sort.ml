open Oib_util
open Oib_sort
open Oib_storage

let keyn i = Ikey.make (Printf.sprintf "k%06d" i) (Rid.make ~page:i ~slot:0)

let shuffled_keys seed n =
  let rng = Rng.create seed in
  let a = Array.init n keyn in
  Rng.shuffle rng a;
  Array.to_list a

(* [keys] cut into "pages" of [page_size] keys *)
let rec chunks page_size = function
  | [] -> []
  | keys ->
    let rec take k acc = function
      | x :: tl when k > 0 -> take (k - 1) (x :: acc) tl
      | tl -> (List.rev acc, tl)
    in
    let page, rest = take page_size [] keys in
    page :: chunks page_size rest

(* Feed keys as "pages" of [page_size] keys. *)
let feed_all sorter keys ~page_size =
  List.iteri
    (fun pos page -> Sort_phase.feed_page sorter ~scan_pos:pos page)
    (chunks page_size keys)

let merged_list store runs =
  let out =
    Merge_phase.merge_all
      (Durable_kv.create ())
      store ~ckpt_id:"t/m" ~inputs:runs ~output:"t/out" ~fan_in:8
      ~ckpt_every:1000
  in
  Run_store.to_list out

(* --- loser tree --- *)

let test_loser_tree_merges () =
  let mk l =
    let r = ref l in
    fun () ->
      match !r with
      | [] -> None
      | x :: tl ->
        r := tl;
        Some x
  in
  let streams =
    [|
      mk [ keyn 0; keyn 3; keyn 6 ];
      mk [ keyn 1; keyn 4; keyn 7 ];
      mk [ keyn 2; keyn 5 ];
    |]
  in
  let tree = Loser_tree.make ~streams () in
  let out = Loser_tree.drain tree in
  Alcotest.(check (list int))
    "sorted output"
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    (List.map (fun (k, _) -> k.Ikey.rid.Rid.page) out);
  (* stream attribution must be correct *)
  List.iter
    (fun ((k : Ikey.t), s) ->
      Alcotest.(check int) "attribution" (k.Ikey.rid.Rid.page mod 3) s)
    out

let test_loser_tree_single_stream () =
  let r = ref [ keyn 1; keyn 2 ] in
  let streams = [| (fun () -> match !r with [] -> None | x :: tl -> r := tl; Some x) |] in
  let tree = Loser_tree.make ~streams () in
  Alcotest.(check int) "two keys" 2 (List.length (Loser_tree.drain tree))

let test_loser_tree_stability () =
  (* identical keys: lower stream index must win (stable merge) *)
  let k = keyn 5 in
  let mk l = let r = ref l in fun () ->
    match !r with [] -> None | x :: tl -> r := tl; Some x
  in
  let streams = [| mk [ k ]; mk [ k ]; mk [ k ] |] in
  let tree = Loser_tree.make ~streams () in
  let out = Loser_tree.drain tree in
  Alcotest.(check (list int)) "stream order preserved" [ 0; 1; 2 ]
    (List.map snd out)

(* --- sort phase --- *)

let test_sort_produces_sorted_runs () =
  let kv = Durable_kv.create () in
  let store = Run_store.create () in
  let sorter = Sort_phase.start kv store ~ckpt_id:"t/s" ~memory_keys:50 in
  feed_all sorter (shuffled_keys 1 2000) ~page_size:20;
  let runs = Sort_phase.finish sorter in
  Alcotest.(check bool) "several runs" true (List.length runs > 1);
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " sorted") true
        (Run_store.is_sorted (Run_store.find_run store name)))
    runs;
  let total =
    List.fold_left
      (fun acc n -> acc + Run_store.length (Run_store.find_run store n))
      0 runs
  in
  Alcotest.(check int) "no key lost" 2000 total

let test_replacement_selection_long_runs () =
  (* random input: replacement selection produces runs ~2x memory *)
  let kv = Durable_kv.create () in
  let store = Run_store.create () in
  let sorter = Sort_phase.start kv store ~ckpt_id:"t/s" ~memory_keys:100 in
  feed_all sorter (shuffled_keys 3 5000) ~page_size:50;
  let runs = Sort_phase.finish sorter in
  let avg = 5000.0 /. float_of_int (List.length runs) in
  Alcotest.(check bool)
    (Printf.sprintf "avg run length %.0f > memory" avg)
    true (avg > 100.0)

let test_sorted_input_single_run () =
  let kv = Durable_kv.create () in
  let store = Run_store.create () in
  let sorter = Sort_phase.start kv store ~ckpt_id:"t/s" ~memory_keys:10 in
  feed_all sorter (List.init 500 keyn) ~page_size:25;
  let runs = Sort_phase.finish sorter in
  Alcotest.(check int) "one run for sorted input" 1 (List.length runs)

let test_end_to_end_sort () =
  let kv = Durable_kv.create () in
  let store = Run_store.create () in
  let sorter = Sort_phase.start kv store ~ckpt_id:"t/s" ~memory_keys:64 in
  feed_all sorter (shuffled_keys 7 3000) ~page_size:30;
  let runs = Sort_phase.finish sorter in
  let out = merged_list store runs in
  Alcotest.(check int) "all keys" 3000 (List.length out);
  Alcotest.(check (list int)) "fully sorted"
    (List.init 3000 Fun.id)
    (List.map (fun (k : Ikey.t) -> k.Ikey.rid.Rid.page) out)

(* --- tournament vs the binary heap it replaced --- *)

(* Replacement selection over a binary min-heap of (run tag, key), as the
   sort phase did before its tree of losers: the reference model whose
   runs the tournament must reproduce exactly. Its checkpoint is an OCaml
   value standing in for the durable record; compares are counted as the
   heap counted them. *)
module Heap_sorter = struct
  type ckpt = {
    completed : string list; (* oldest first *)
    current : string;
    current_len : int;
    scan_pos : int;
    highest_out : Ikey.t option;
    run_counter : int;
  }

  type t = {
    store : Run_store.t;
    memory_keys : int;
    mutable heap : (int * Ikey.t) array;
    mutable n : int;
    mutable compares : int;
    mutable cur_tag : int;
    mutable last_emitted : Ikey.t option;
    mutable completed : string list; (* newest first *)
    mutable current : Run_store.run;
    mutable pos : int;
    mutable run_counter : int;
  }

  let run_name i = Printf.sprintf "t/s/run-%04d" i

  let of_ckpt store ~memory_keys (c : ckpt) =
    let current = Run_store.find_run store c.current in
    Run_store.truncate current c.current_len;
    {
      store;
      memory_keys;
      heap = [||];
      n = 0;
      compares = 0;
      cur_tag = 0;
      last_emitted = c.highest_out;
      completed = List.rev c.completed;
      current;
      pos = c.scan_pos;
      run_counter = c.run_counter;
    }

  let start store ~memory_keys =
    ignore (Run_store.create_run store ~name:(run_name 0));
    of_ckpt store ~memory_keys
      {
        completed = [];
        current = run_name 0;
        current_len = 0;
        scan_pos = -1;
        highest_out = None;
        run_counter = 1;
      }

  let less h ((t1 : int), k1) ((t2 : int), k2) =
    t1 < t2
    || t1 = t2
       && begin
            h.compares <- h.compares + 1;
            Ikey.compare k1 k2 < 0
          end

  let swap a i j =
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x

  let push h x =
    if h.n = Array.length h.heap then begin
      let bigger = Array.make (max 64 (2 * h.n)) x in
      Array.blit h.heap 0 bigger 0 h.n;
      h.heap <- bigger
    end;
    let i = ref h.n in
    h.n <- h.n + 1;
    h.heap.(!i) <- x;
    while !i > 0 && less h h.heap.(!i) h.heap.((!i - 1) / 2) do
      swap h.heap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop h =
    let top = h.heap.(0) in
    h.n <- h.n - 1;
    h.heap.(0) <- h.heap.(h.n);
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.n && less h h.heap.(l) h.heap.(!smallest) then smallest := l;
      if r < h.n && less h h.heap.(r) h.heap.(!smallest) then smallest := r;
      if !smallest = !i then continue := false
      else begin
        swap h.heap !smallest !i;
        i := !smallest
      end
    done;
    top

  let emit_min h =
    let tag, key = pop h in
    if tag > h.cur_tag then begin
      Run_store.force h.current;
      h.completed <- Run_store.name h.current :: h.completed;
      h.current <- Run_store.create_run h.store ~name:(run_name h.run_counter);
      h.run_counter <- h.run_counter + 1;
      h.cur_tag <- tag
    end;
    Run_store.append h.current key;
    h.last_emitted <- Some key

  let feed_page h ~scan_pos keys =
    List.iter
      (fun key ->
        if h.n >= h.memory_keys then emit_min h;
        let tag =
          match h.last_emitted with
          | Some e ->
            h.compares <- h.compares + 1;
            if Ikey.compare key e < 0 then h.cur_tag + 1 else h.cur_tag
          | None -> h.cur_tag
        in
        push h (tag, key))
      keys;
    h.pos <- scan_pos

  let checkpoint h =
    while h.n > 0 do
      emit_min h
    done;
    List.iter (fun n -> Run_store.force (Run_store.find_run h.store n)) h.completed;
    Run_store.force h.current;
    {
      completed = List.rev h.completed;
      current = Run_store.name h.current;
      current_len = Run_store.length h.current;
      scan_pos = h.pos;
      highest_out = h.last_emitted;
      run_counter = h.run_counter;
    }
end

(* One sorter life cycle as closures, so both implementations follow the
   same plan. [crash_resume] crashes the run store, resumes from the last
   checkpoint (or starts afresh without one) and returns the scan
   position to continue after. *)
type sorter = {
  feed : scan_pos:int -> Ikey.t list -> unit;
  checkpoint : unit -> unit;
  crash_resume : unit -> int;
  finish : unit -> string list;
  store : unit -> Run_store.t;
  compares : unit -> int;
}

let tournament_sorter ~memory_keys =
  let m = Oib_sim.Metrics.create () in
  let charge = Oib_sim.Metrics.target m (Oib_obs.Resource.create ()) in
  let kv = Durable_kv.create () in
  let store = ref (Run_store.create ()) in
  let start () = Sort_phase.start ~charge kv !store ~ckpt_id:"t/s" ~memory_keys in
  let s = ref (start ()) in
  {
    feed = (fun ~scan_pos keys -> Sort_phase.feed_page !s ~scan_pos keys);
    checkpoint = (fun () -> Sort_phase.checkpoint !s);
    crash_resume =
      (fun () ->
        store := Run_store.crash !store;
        s :=
          (match Sort_phase.resume ~charge kv !store ~ckpt_id:"t/s" ~memory_keys with
          | Some s -> s
          | None -> start ());
        Sort_phase.scan_pos !s);
    finish = (fun () -> Sort_phase.finish !s);
    store = (fun () -> !store);
    compares = (fun () -> Oib_sim.Metrics.get m Sort_compares);
  }

let heap_sorter ~memory_keys =
  let store = ref (Run_store.create ()) in
  let h = ref (Heap_sorter.start !store ~memory_keys) in
  let ckpt = ref None and compares = ref 0 in
  let settle () =
    compares := !compares + !h.compares;
    !h.compares <- 0
  in
  {
    feed =
      (fun ~scan_pos keys ->
        Heap_sorter.feed_page !h ~scan_pos keys;
        settle ());
    checkpoint =
      (fun () ->
        ckpt := Some (Heap_sorter.checkpoint !h);
        settle ());
    crash_resume =
      (fun () ->
        store := Run_store.crash !store;
        (* runs the checkpoint does not name were born after it *)
        let keep =
          match !ckpt with Some c -> c.current :: c.completed | None -> []
        in
        List.iter
          (fun n -> if not (List.mem n keep) then Run_store.delete_run !store n)
          (Run_store.run_names !store);
        h :=
          (match !ckpt with
          | Some c -> Heap_sorter.of_ckpt !store ~memory_keys c
          | None -> Heap_sorter.start !store ~memory_keys);
        !h.pos);
    finish =
      (fun () ->
        let c = Heap_sorter.checkpoint !h in
        settle ();
        c.completed @ [ c.current ]);
    store = (fun () -> !store);
    compares = (fun () -> !compares);
  }

(* Feed [pages] in order; after page [i], [plan.(i)] is 0 (nothing),
   1 (checkpoint), 2 (checkpoint, then crash and resume) or 3 (crash and
   resume). A crash fires once and rescans from the resumed position. *)
let run_plan sorter pages plan =
  let fired = Array.make (Array.length pages) false in
  let i = ref 0 in
  while !i < Array.length pages do
    sorter.feed ~scan_pos:!i pages.(!i);
    let next = ref (!i + 1) in
    if plan.(!i) = 1 || plan.(!i) = 2 then sorter.checkpoint ();
    if plan.(!i) >= 2 && not fired.(!i) then begin
      fired.(!i) <- true;
      next := sorter.crash_resume () + 1
    end;
    i := !next
  done;
  sorter.finish ()

(* Every run and every key must match the heap's. The tournament replays
   one leaf-to-root path per key where the heap sifts with up to two
   compares per level, so it charges fewer compares — but not on every
   short input: a 3-slot tree can charge one more than a 3-key heap (15
   keys: 35 against 34). The compare bound is checked from 100 keys on. *)
let prop_tournament_matches_heap =
  let from_one hi = QCheck.(map ~rev:pred succ (int_bound (hi - 1))) in
  QCheck.Test.make
    ~name:"tournament runs = heap runs"
    ~count:150
    QCheck.(quad (from_one 700) (from_one 40) (int_bound 1500) small_nat)
    (fun (memory_keys, page_size, n, seed) ->
      let rng = Rng.create seed in
      (* few distinct values and rids, so equal keys and ties occur *)
      let keys =
        List.init n (fun _ ->
            Ikey.make
              (Printf.sprintf "v%03d" (Rng.int rng 300))
              (Rid.make ~page:(Rng.int rng 8) ~slot:0))
      in
      let pages = Array.of_list (chunks page_size keys) in
      let plan =
        Array.map
          (fun _ ->
            match Rng.int rng 20 with 0 | 1 -> 1 | 2 -> 2 | 3 -> 3 | _ -> 0)
          pages
      in
      let tournament = tournament_sorter ~memory_keys
      and heap = heap_sorter ~memory_keys in
      let runs = run_plan tournament pages plan in
      let contents sorter =
        List.sort compare (Run_store.run_names (sorter.store ()))
        |> List.map (fun name ->
               (name, Run_store.to_list (Run_store.find_run (sorter.store ()) name)))
      in
      runs = run_plan heap pages plan
      && contents tournament = contents heap
      && (n < 100 || tournament.compares () <= heap.compares ()))

(* --- sort phase crash / restart --- *)

let sort_with_crash ~crash_after_pages ~ckpt_every_pages seed =
  let kv = Durable_kv.create () in
  let store = ref (Run_store.create ()) in
  let keys = shuffled_keys seed 2000 in
  let pages =
    let rec go acc cur n = function
      | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
      | x :: tl ->
        if n = 20 then go (List.rev cur :: acc) [ x ] 1 tl
        else go acc (x :: cur) (n + 1) tl
    in
    go [] [] 0 keys
  in
  let pages = Array.of_list pages in
  let sorter = Sort_phase.start kv !store ~ckpt_id:"t/s" ~memory_keys:50 in
  (* first life: feed until the crash point, checkpointing periodically *)
  (try
     Array.iteri
       (fun i page ->
         if i = crash_after_pages then raise Exit;
         Sort_phase.feed_page sorter ~scan_pos:i page;
         if (i + 1) mod ckpt_every_pages = 0 then Sort_phase.checkpoint sorter)
       pages
   with Exit -> ());
  (* crash: run store loses unforced tails *)
  store := Run_store.crash !store;
  let sorter' =
    match Sort_phase.resume kv !store ~ckpt_id:"t/s" ~memory_keys:50 with
    | Some s -> s
    | None -> Sort_phase.start kv !store ~ckpt_id:"t/s2" ~memory_keys:50
  in
  let resume_pos = Sort_phase.scan_pos sorter' in
  (* second life: rescan from the checkpointed position only *)
  Array.iteri
    (fun i page ->
      if i > resume_pos then Sort_phase.feed_page sorter' ~scan_pos:i page)
    pages;
  let runs = Sort_phase.finish sorter' in
  (resume_pos, merged_list !store runs)

let test_sort_restart_exact () =
  let _, out = sort_with_crash ~crash_after_pages:60 ~ckpt_every_pages:25 2 in
  Alcotest.(check int) "all keys after restart" 2000 (List.length out);
  Alcotest.(check (list int)) "sorted and complete"
    (List.init 2000 Fun.id)
    (List.map (fun (k : Ikey.t) -> k.Ikey.rid.Rid.page) out)

let test_sort_restart_bounds_lost_work () =
  let resume_pos, _ = sort_with_crash ~crash_after_pages:60 ~ckpt_every_pages:25 2 in
  (* 50 pages were checkpointed before the crash at page 60 *)
  Alcotest.(check int) "resumes at last checkpoint" 49 resume_pos

(* Runs the sorter does not name are not its to delete, even when their
   name shares the checkpoint id's bare prefix. *)
let test_sibling_runs_kept () =
  let kv = Durable_kv.create () in
  let store = Run_store.create () in
  let plant store name =
    let r = Run_store.create_run store ~name in
    Run_store.append r (keyn 1);
    Run_store.force r
  in
  plant store "ib/1/sorted";
  let sorter = Sort_phase.start kv store ~ckpt_id:"ib/1/sort" ~memory_keys:8 in
  feed_all sorter (shuffled_keys 4 100) ~page_size:10;
  Sort_phase.checkpoint sorter;
  (* born after the checkpoint: resume must discard it *)
  plant store "ib/1/sort/run-9999";
  let store = Run_store.crash store in
  ignore (Sort_phase.resume kv store ~ckpt_id:"ib/1/sort" ~memory_keys:8);
  let names = Run_store.run_names store in
  Alcotest.(check bool) "sibling kept" true (List.mem "ib/1/sorted" names);
  Alcotest.(check int) "sibling intact" 1
    (Run_store.length (Run_store.find_run store "ib/1/sorted"));
  Alcotest.(check bool) "orphan run discarded" false
    (List.mem "ib/1/sort/run-9999" names)

let test_is_sorted_allows_equal_neighbours () =
  let run keys =
    let r = Run_store.create_run (Run_store.create ()) ~name:"t/r" in
    List.iter (Run_store.append r) keys;
    r
  in
  Alcotest.(check bool) "equal neighbours" true
    (Run_store.is_sorted (run [ keyn 1; keyn 1; keyn 2 ]));
  Alcotest.(check bool) "descent" false
    (Run_store.is_sorted (run [ keyn 2; keyn 1 ]))

let prop_sort_restart_any_crash_point =
  QCheck.Test.make ~name:"sort restart correct at any crash point" ~count:20
    QCheck.(pair small_nat (int_bound 99))
    (fun (seed, crash_at) ->
      let _, out = sort_with_crash ~crash_after_pages:crash_at ~ckpt_every_pages:10 seed in
      List.map (fun (k : Ikey.t) -> k.Ikey.rid.Rid.page) out
      = List.init 2000 Fun.id)

(* --- merge crash / restart --- *)

let merge_with_crash ~crash_after ~ckpt_every seed =
  let kv = Durable_kv.create () in
  let store = ref (Run_store.create ()) in
  let sorter = Sort_phase.start kv !store ~ckpt_id:"t/s" ~memory_keys:50 in
  feed_all sorter (shuffled_keys seed 2000) ~page_size:20;
  let runs = Sort_phase.finish sorter in
  (* first life: crash after [crash_after] merged keys *)
  (try
     ignore
       (Merge_phase.merge ~stop_after:crash_after kv !store ~ckpt_id:"t/m"
          ~inputs:runs ~output:"t/out" ~ckpt_every)
   with Merge_phase.Injected_crash -> ());
  store := Run_store.crash !store;
  (* second life: resume from the merge checkpoint *)
  let out =
    Merge_phase.merge kv !store ~ckpt_id:"t/m" ~inputs:runs ~output:"t/out"
      ~ckpt_every
  in
  out

let test_merge_restart () =
  let out = merge_with_crash ~crash_after:900 ~ckpt_every:100 5 in
  Alcotest.(check int) "no key lost, none duplicated" 2000 (Run_store.length out);
  Alcotest.(check bool) "sorted" true (Run_store.is_sorted out);
  Alcotest.(check (list int)) "exact content"
    (List.init 2000 Fun.id)
    (List.map (fun (k : Ikey.t) -> k.Ikey.rid.Rid.page) (Run_store.to_list out))

let prop_merge_restart_any_crash_point =
  QCheck.Test.make ~name:"merge restart correct at any crash point" ~count:15
    QCheck.(pair small_nat (int_bound 1999))
    (fun (seed, crash_at) ->
      let out = merge_with_crash ~crash_after:crash_at ~ckpt_every:73 seed in
      Run_store.length out = 2000 && Run_store.is_sorted out)

(* --- qcheck: loser tree on arbitrary inputs --- *)

let prop_loser_tree_sorted_permutation =
  (* arbitrary stream contents (sorted per stream — the merge
     precondition); the merged output must be ordered by key value and a
     permutation of the union, entry for entry (rids are unique tags) *)
  QCheck.Test.make ~name:"loser tree: sorted permutation of arbitrary input"
    ~count:200
    QCheck.(
      list_of_size Gen.(1 -- 6) (list_of_size Gen.(0 -- 40) (int_bound 30)))
    (fun raw ->
      let id = ref 0 in
      let streams_keys =
        List.map
          (fun vals ->
            List.map
              (fun v ->
                incr id;
                Ikey.make (Printf.sprintf "k%02d" v) (Rid.make ~page:!id ~slot:0))
              vals
            |> List.sort Ikey.compare)
          raw
      in
      let streams =
        Array.of_list
          (List.map
             (fun l ->
               let r = ref l in
               fun () ->
                 match !r with
                 | [] -> None
                 | x :: tl ->
                   r := tl;
                   Some x)
             streams_keys)
      in
      let out = List.map fst (Loser_tree.drain (Loser_tree.make ~streams ())) in
      let rec nondecreasing = function
        | a :: (b :: _ as tl) -> Ikey.compare_kv a b <= 0 && nondecreasing tl
        | _ -> true
      in
      nondecreasing out
      && List.sort Ikey.compare out
         = List.sort Ikey.compare (List.concat streams_keys))

(* --- qcheck: resumed merge is byte-identical to an uninterrupted one --- *)

let merge_uninterrupted ~ckpt_every seed =
  let kv = Durable_kv.create () in
  let store = Run_store.create () in
  let sorter = Sort_phase.start kv store ~ckpt_id:"t/s" ~memory_keys:50 in
  feed_all sorter (shuffled_keys seed 2000) ~page_size:20;
  let runs = Sort_phase.finish sorter in
  Merge_phase.merge kv store ~ckpt_id:"t/m" ~inputs:runs ~output:"t/out"
    ~ckpt_every

let prop_merge_resume_byte_identical =
  (* crash at an arbitrary output position, resume from the checkpoint:
     every key AND every rid must match the uninterrupted merge exactly *)
  QCheck.Test.make
    ~name:"merge resumed from any checkpoint = uninterrupted output"
    ~count:15
    QCheck.(pair small_nat (int_bound 1999))
    (fun (seed, crash_at) ->
      Run_store.to_list (merge_with_crash ~crash_after:crash_at ~ckpt_every:73 seed)
      = Run_store.to_list (merge_uninterrupted ~ckpt_every:73 seed))

(* --- qcheck: the cached key prefix never changes the order --- *)

(* Keys built to stress [Ikey]'s 7-byte prefix: empty strings, NUL and
   high bytes, lengths 0-12 around a shared 7-byte stem, and multi-column
   values joined by [Record.key_value]'s 0x1f separator. *)
let gen_key =
  let open QCheck.Gen in
  let byte = oneofl [ '\000'; '\001'; 'a'; 'b'; '\x1f'; '\x7f'; '\x80'; '\xff' ] in
  let stem =
    oneofl [ "abcdefg"; "\000\000\000\000\000\000\000"; "\xff\xff\xff\xff\xff\xff\xff" ]
  in
  let near_stem =
    map3
      (fun s cut tail -> String.sub s 0 cut ^ tail)
      stem (0 -- 7)
      (string_size ~gen:byte (0 -- 5))
  in
  let multi_col =
    map
      (fun cols ->
        Record.key_value (Record.make (Array.of_list cols))
          (List.init (List.length cols) Fun.id))
      (list_size (1 -- 3) (string_size ~gen:byte (0 -- 4)))
  in
  let kv =
    frequency
      [ (3, near_stem); (2, multi_col); (1, string_size ~gen:byte (0 -- 12)) ]
  in
  map2
    (fun kv (page, slot) -> Ikey.make kv (Rid.make ~page ~slot))
    kv
    (pair (0 -- 2) (0 -- 2))

let arb_key = QCheck.make ~print:Ikey.to_string gen_key

(* the order [Ikey] must reproduce: key bytes, then RID *)
let reference_compare (a : Ikey.t) (b : Ikey.t) =
  match String.compare a.kv b.kv with 0 -> Rid.compare a.rid b.rid | c -> c

let sign c = Int.compare c 0

let prop_prefix_order =
  QCheck.Test.make ~name:"ikey prefix keeps key order" ~count:2000
    (QCheck.pair arb_key arb_key)
    (fun (a, b) ->
      sign (Ikey.compare a b) = sign (reference_compare a b)
      && sign (Ikey.compare_kv a b) = sign (String.compare a.kv b.kv))

let prop_sorts_agree =
  QCheck.Test.make ~name:"heap and loser tree sort like List" ~count:200
    (QCheck.list_of_size QCheck.Gen.(0 -- 60) arb_key)
    (fun keys ->
      let expected = List.sort reference_compare keys in
      let singleton k =
        let r = ref (Some k) in
        fun () ->
          let x = !r in
          r := None;
          x
      in
      let by_tree =
        match keys with
        | [] -> []
        | _ ->
          let streams = Array.of_list (List.map singleton keys) in
          List.map fst (Loser_tree.drain (Loser_tree.make ~streams ()))
      in
      (* replacement selection: all in memory (one run), then with a small
         tournament (several runs, merged) *)
      let by_runs memory_keys =
        let store = Run_store.create () in
        let sorter =
          Sort_phase.start (Durable_kv.create ()) store ~ckpt_id:"t/s"
            ~memory_keys
        in
        feed_all sorter keys ~page_size:5;
        merged_list store (Sort_phase.finish sorter)
      in
      by_tree = expected && by_runs 64 = expected && by_runs 3 = expected)

let () =
  Alcotest.run "sort"
    [
      ( "loser-tree",
        [
          Alcotest.test_case "merges" `Quick test_loser_tree_merges;
          Alcotest.test_case "single stream" `Quick test_loser_tree_single_stream;
          Alcotest.test_case "stability" `Quick test_loser_tree_stability;
        ] );
      ( "sort-phase",
        [
          Alcotest.test_case "sorted runs" `Quick test_sort_produces_sorted_runs;
          Alcotest.test_case "replacement selection run length" `Quick
            test_replacement_selection_long_runs;
          Alcotest.test_case "sorted input, one run" `Quick
            test_sorted_input_single_run;
          Alcotest.test_case "end to end" `Quick test_end_to_end_sort;
          Alcotest.test_case "is_sorted: non-decreasing" `Quick
            test_is_sorted_allows_equal_neighbours;
        ] );
      ( "restart",
        [
          Alcotest.test_case "sort restart exact" `Quick test_sort_restart_exact;
          Alcotest.test_case "bounded lost work" `Quick
            test_sort_restart_bounds_lost_work;
          Alcotest.test_case "merge completes" `Quick test_merge_restart;
          Alcotest.test_case "sibling runs kept" `Quick test_sibling_runs_kept;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_sort_restart_any_crash_point;
            prop_merge_restart_any_crash_point;
            prop_loser_tree_sorted_permutation;
            prop_merge_resume_byte_identical;
            prop_prefix_order;
            prop_sorts_agree;
            prop_tournament_matches_heap;
          ]
      );
    ]
