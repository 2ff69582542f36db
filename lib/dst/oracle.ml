open Oib_core

let consistency ctx = Engine.consistency_errors ctx

let progress_monotonic ctx =
  List.concat_map
    (fun (st : Build_status.t) ->
      let errs = ref [] in
      let rec walk = function
        | (p1, s1) :: ((p2, s2) :: _ as rest) ->
          if Build_status.rank p2 < Build_status.rank p1 then
            errs :=
              Printf.sprintf "index %d: phase regressed %s@%d -> %s@%d"
                st.Build_status.index_id
                (Build_status.phase_name p1)
                s1
                (Build_status.phase_name p2)
                s2
              :: !errs;
          if s2 < s1 then
            errs :=
              Printf.sprintf "index %d: phase step went backwards %d -> %d"
                st.Build_status.index_id s1 s2
              :: !errs;
          walk rest
        | _ -> ()
      in
      walk (Build_status.history st);
      List.rev !errs)
    (Engine.build_progress ctx)

let completion ctx =
  List.map
    (fun (id, phase) ->
      Printf.sprintf "index %d: build left unfinished (%s)" id phase)
    (Engine.unfinished_builds ctx)
  @ List.map
      (fun (id, n) ->
        Printf.sprintf "index %d: side-file not drained (%d entries)" id n)
      (Engine.undrained_sidefiles ctx)

let lifecycle ?final ctx = Engine.lifecycle_errors ?final ctx

let battery ?(final = true) ctx =
  let pre =
    let n = Engine.active_txns ctx in
    if n > 0 then
      [ Printf.sprintf "oracle precondition: %d transaction(s) still active" n ]
    else []
  in
  pre @ consistency ctx @ progress_monotonic ctx
  @ lifecycle ~final ctx
  @ (if final then completion ctx else [])
