open Oib_util
open Oib_sort
open Oib_storage

let keyn i = Ikey.make (Printf.sprintf "k%06d" i) (Rid.make ~page:i ~slot:0)

let shuffled_keys seed n =
  let rng = Rng.create seed in
  let a = Array.init n keyn in
  Rng.shuffle rng a;
  Array.to_list a

(* Feed keys as "pages" of [page_size] keys; returns the sorter. *)
let feed_all sorter keys ~page_size =
  let rec go pos = function
    | [] -> ()
    | rest ->
      let rec take k acc = function
        | x :: tl when k > 0 -> take (k - 1) (x :: acc) tl
        | tl -> (List.rev acc, tl)
      in
      let page, rest = take page_size [] rest in
      Sort_phase.feed_page sorter ~scan_pos:pos page;
      go (pos + 1) rest
  in
  go 0 keys

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
      (* replacement selection: all in memory (one heap-sorted run), then
         with a small heap (several runs, merged) *)
      let by_heap memory_keys =
        let store = Run_store.create () in
        let sorter =
          Sort_phase.start (Durable_kv.create ()) store ~ckpt_id:"t/s"
            ~memory_keys
        in
        feed_all sorter keys ~page_size:5;
        merged_list store (Sort_phase.finish sorter)
      in
      by_tree = expected && by_heap 64 = expected && by_heap 3 = expected)

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
        ] );
      ( "restart",
        [
          Alcotest.test_case "sort restart exact" `Quick test_sort_restart_exact;
          Alcotest.test_case "bounded lost work" `Quick
            test_sort_restart_bounds_lost_work;
          Alcotest.test_case "merge completes" `Quick test_merge_restart;
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
          ]
      );
    ]
