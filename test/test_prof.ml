(* The deterministic virtual-time profiler: qcheck invariants on the
   fold (folded weights partition the sample count, globally
   and per fiber; every sample lands in exactly one wait-state bucket),
   online-vs-offline folding agreement over an instrumented build,
   byte-for-byte same-seed determinism, the empty self-diff, and a
   signed NSF-vs-SF differential. *)

open Oib_core
module Sched = Oib_sim.Sched
module Trace = Oib_obs.Trace
module Event = Oib_obs.Event
module Profiler = Oib_obs.Profiler
module Profile = Oib_obs_analysis.Profile
module Driver = Oib_workload.Driver

(* --- pure-profiler qcheck: no engine, synthetic sampling rounds ------ *)

(* A round is a list of (fiber id, run state); fiber names derive from
   the id so equal ids collapse to equal normalized names. *)
let run_rounds rounds =
  let trace = Trace.create () in
  let captured = ref [] in
  Trace.add_sink trace ~name:"capture" (fun (s : Event.stamped) ->
      match s.event with
      | Event.Prof_sample _ -> captured := s :: !captured
      | _ -> ());
  let prof = Profiler.create trace in
  List.iter
    (fun round ->
      Profiler.sample prof
        ~fibers:
          (List.map
             (fun (id, st) ->
               let state =
                 match st mod 3 with
                 | 0 -> Profiler.Running
                 | 1 -> Profiler.Runnable
                 | _ -> Profiler.Blocked
               in
               (id, Printf.sprintf "worker-%d" id, state))
             round))
    rounds;
  (prof, List.rev !captured)

let sum l = List.fold_left (fun a (_, w) -> a + w) 0 l

let weights_partition_samples rounds =
  let prof, captured = run_rounds rounds in
  let total = List.fold_left (fun a r -> a + List.length r) 0 rounds in
  (* global: path weights, bucket counts and event count all equal the
     number of (round, fiber) pairs handed in *)
  let fold = Profiler.fold prof in
  Profiler.total fold = total
  && sum (Profiler.weights fold) = total
  && sum (Profiler.by_state fold) = total
  && List.length captured = total
  (* per fiber: the stacks rooted at each fiber's frame carry exactly
     that fiber's sample count *)
  && List.for_all
       (fun (fname, n) ->
         let rooted =
           List.filter
             (fun (path, _) ->
               match String.index_opt path ';' with
               | Some i -> String.sub path 0 i = fname
               | None -> path = fname)
             (Profiler.weights fold)
         in
         sum rooted = n)
       (Profiler.by_fiber fold)

let buckets_partition rounds =
  let _, captured = run_rounds rounds in
  List.for_all
    (fun (s : Event.stamped) ->
      match s.event with
      | Event.Prof_sample { state; _ } ->
        List.length (List.filter (String.equal state) Profiler.states) = 1
      | _ -> false)
    captured

let round_gen =
  QCheck.(
    small_list (small_list (pair (int_range 0 5) (int_range 0 8))))

let qcheck_weights =
  QCheck.Test.make ~count:200
    ~name:"folded weights sum to sampled count, per fiber and in total"
    round_gen weights_partition_samples

let qcheck_buckets =
  QCheck.Test.make ~count:200
    ~name:"every sample lands in exactly one of the six buckets" round_gen
    buckets_partition

(* --- instrumented builds ------------------------------------------- *)

let index10 = { Ib.index_id = 10; key_cols = [ 0 ]; unique = false }

let profiled_build ?(specs = [ index10 ]) alg ~seed =
  let trace = Trace.create () in
  let jsonl = Buffer.create 4096 in
  Trace.add_jsonl_buffer_sink trace ~name:"jsonl" jsonl;
  let events = ref [] in
  Trace.add_sink trace ~name:"events" (fun s -> events := s :: !events);
  let ctx = Engine.create ~seed ~page_capacity:512 ~trace () in
  let _ = Catalog.create_table ctx.Ctx.catalog ctx.Ctx.pool ~table_id:1 in
  let _ = Driver.populate ctx ~table:1 ~rows:150 ~seed in
  let prof, _ = Obs_sampler.install_profiler ctx ~every:3 () in
  let _ =
    Driver.spawn_workers ctx
      { Driver.default with seed; workers = 2; txns_per_worker = 8 }
      ~table:1
  in
  ignore
    (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
         Ib.build_indexes ctx (Ib.default_config alg) ~table:1 specs));
  Sched.run ctx.Ctx.sched;
  (prof, List.rev !events, Buffer.contents jsonl)

(* One index, and two built in one scan (paper §6.2): the second one's
   pipeline fibers ("ib-pipeline-#") put paths beside the builder's "ib"
   whose joined form sorts differently from their frame lists. *)
let test_online_eq_offline () =
  List.iter
    (fun (specs, seed) ->
      let prof, events, _ = profiled_build ~specs Ib.Nsf ~seed in
      let online = Profiler.fold prof and offline = Profile.fold events in
      Alcotest.(check bool) "profile non-empty" true
        (Profiler.total online > 0);
      Alcotest.(check string) "online fold = offline fold"
        (Profiler.folded offline) (Profiler.folded online);
      Alcotest.(check int) "offline total weight = online sample count"
        (Profiler.total online) (Profiler.total offline))
    [
      ([ index10 ], 11);
      ([ index10; { Ib.index_id = 11; key_cols = [ 1 ]; unique = false } ], 3);
    ]

let test_build_buckets () =
  let _, events, _ = profiled_build Ib.Sf ~seed:11 in
  let samples = Profile.samples events in
  Alcotest.(check bool) "sampled" true (samples <> []);
  List.iter
    (fun (s : Profile.sample) ->
      if not (List.mem s.Profile.state Profiler.states) then
        Alcotest.failf "sample in unknown bucket %S" s.Profile.state)
    samples;
  Alcotest.(check int) "by_state partitions the capture"
    (List.length samples)
    (sum (Profiler.by_state (Profile.fold events)))

let test_determinism () =
  let prof_a, _, jsonl_a = profiled_build Ib.Nsf ~seed:23 in
  let prof_b, _, jsonl_b = profiled_build Ib.Nsf ~seed:23 in
  Alcotest.(check string) "same seed, byte-identical capture" jsonl_a jsonl_b;
  Alcotest.(check string) "same seed, byte-identical folded profile"
    (Profiler.folded (Profiler.fold prof_a))
    (Profiler.folded (Profiler.fold prof_b))

let test_self_diff_empty () =
  let _, events, _ = profiled_build Ib.Nsf ~seed:5 in
  Alcotest.(check int) "diff of a run against itself is empty" 0
    (List.length (Profile.diff events events))

let test_nsf_sf_diff_signed () =
  let _, nsf, _ = profiled_build Ib.Nsf ~seed:5 in
  let _, sf, _ = profiled_build Ib.Sf ~seed:5 in
  let deltas = Profile.diff nsf sf in
  Alcotest.(check bool) "nsf-vs-sf diff reports at least one delta" true
    (deltas <> []);
  Alcotest.(check bool) "deltas are signed (zero paths dropped)" true
    (List.for_all (fun (_, d) -> d <> 0) deltas)

let () =
  Alcotest.run "prof"
    [
      ( "invariants",
        [
          QCheck_alcotest.to_alcotest qcheck_weights;
          QCheck_alcotest.to_alcotest qcheck_buckets;
        ] );
      ( "build",
        [
          Alcotest.test_case "online = offline folding" `Quick
            test_online_eq_offline;
          Alcotest.test_case "buckets partition a real capture" `Quick
            test_build_buckets;
          Alcotest.test_case "same-seed byte determinism" `Quick
            test_determinism;
          Alcotest.test_case "self-diff is empty" `Quick test_self_diff_empty;
          Alcotest.test_case "nsf-vs-sf diff is signed" `Quick
            test_nsf_sf_diff_signed;
        ] );
    ]
