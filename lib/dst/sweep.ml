type point = {
  crash_step : int;
  errors : string list;
  failed_at : string option;
}

type result = {
  scenario : Scenario.t;
  base_steps : int;
  base_errors : string list;
  points : point list;
  checkpoints : int;
}

let crash_points ~base_steps ~points =
  let every = max 1 (base_steps / max 1 points) in
  let rec go acc s = if s > base_steps then List.rev acc else go (s :: acc) (s + every) in
  go [] every

let sweep ?trace ?inject ?during ?(on_point = fun _ _ -> ()) sc ~points =
  let checkpoints = ref 0 in
  (* one run under a fresh scan oracle; its errors join the battery's *)
  let checked faults =
    let chk = Scan_check.create () in
    Scan_check.install chk;
    let o =
      Fun.protect ~finally:Scan_check.uninstall (fun () ->
          Runner.run ?trace ?inject ?during
            ~on_engine:(fun _ -> Scan_check.new_epoch chk)
            (Scenario.override ~faults sc))
    in
    checkpoints := !checkpoints + Scan_check.checkpoints chk;
    (o, o.Runner.errors @ Scan_check.errors chk)
  in
  let base, base_errors = checked [] in
  let base_steps = base.Runner.total_steps in
  let results =
    if base_errors <> [] then []
    else
      List.map
        (fun c ->
          let o, errors = checked [ Scenario.Crash_at c ] in
          on_point c errors;
          { crash_step = c; errors; failed_at = o.Runner.failed_at })
        (crash_points ~base_steps ~points)
  in
  { scenario = sc; base_steps; base_errors; points = results;
    checkpoints = !checkpoints }

let failures r = List.filter (fun p -> p.errors <> []) r.points
