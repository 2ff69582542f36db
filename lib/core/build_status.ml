(* Live progress of one online index build, published by [Ib] and queried
   through [Engine.build_progress]. One value per index build; it survives
   for as long as the engine instance (a crash+restart creates a fresh one
   during [resume_builds]). *)

type phase = Init | Quiesce | Scan | Merge | Insert | Bulk | Drain | Ready

(* Monotonic progress order. Insert (NSF) and Bulk (SF) are alternatives
   at the same stage of the pipeline, so they share a rank. *)
let rank = function
  | Init -> 0
  | Quiesce -> 1
  | Scan -> 2
  | Merge -> 3
  | Insert | Bulk -> 4
  | Drain -> 5
  | Ready -> 6

let phase_name = function
  | Init -> "init"
  | Quiesce -> "quiesce"
  | Scan -> "scan"
  | Merge -> "merge"
  | Insert -> "insert"
  | Bulk -> "bulk"
  | Drain -> "drain"
  | Ready -> "ready"

(* Where the scan stands, kept as data: the text is built only when a
   status is rendered, never on the builder's per-record path. *)
type scan_pos = Not_scanned | At_rid of Oib_util.Rid.t | At_key of string

type t = {
  index_id : int;
  algorithm : string; (* "nsf" | "sf" | "via-primary" *)
  mutable phase : phase;
  mutable scan_pos : scan_pos; (* Current-RID (or current key) of the scan *)
  mutable keys_processed : int;
  mutable backlog : int; (* side-file entries appended but not yet drained *)
  mutable checkpoints : int;
  mutable history : (phase * int) list; (* (phase, step), newest first *)
  mutable phase_span : int; (* open trace span of the current phase (0 none) *)
  resources : Oib_obs.Resource.t; (* total cost charged to this build *)
  mutable cost_marks : (phase * Oib_obs.Resource.t) list;
      (* resource totals captured at each phase entry, newest first *)
}

let create ~index_id ~algorithm =
  let resources = Oib_obs.Resource.create () in
  {
    index_id;
    algorithm;
    phase = Init;
    scan_pos = Not_scanned;
    keys_processed = 0;
    backlog = 0;
    checkpoints = 0;
    history = [ (Init, 0) ];
    phase_span = 0;
    resources;
    cost_marks = [ (Init, Oib_obs.Resource.snapshot resources) ];
  }

let set_phase t ~step phase =
  if phase <> t.phase then begin
    t.phase <- phase;
    t.history <- (phase, step) :: t.history;
    t.cost_marks <- (phase, Oib_obs.Resource.snapshot t.resources) :: t.cost_marks
  end

let history t = List.rev t.history

(* Per-phase deltas, oldest first: each mark is the running total at
   phase entry, so a phase's cost is the next mark minus its own; the
   current phase runs to the live total. *)
let phase_costs t =
  let rec go = function
    | [] -> []
    | [ (ph, at) ] -> [ (ph, Oib_obs.Resource.diff ~after:t.resources ~before:at) ]
    | (ph, at) :: ((_, next_at) :: _ as rest) ->
      (ph, Oib_obs.Resource.diff ~after:next_at ~before:at) :: go rest
  in
  go (List.rev t.cost_marks)

let pp ppf t =
  Format.fprintf ppf "index %d [%s] %s: keys=%d backlog=%d ckpts=%d%s"
    t.index_id t.algorithm (phase_name t.phase) t.keys_processed t.backlog
    t.checkpoints
    (match t.scan_pos with
    | Not_scanned -> ""
    | At_rid rid -> " rid=" ^ Oib_util.Rid.to_string rid
    | At_key pk -> " rid=key:" ^ pk)

let to_json t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"index\":%d,\"algorithm\":\"%s\",\"phase\":\"%s\",\
        \"keys_processed\":%d,\"backlog\":%d,\"checkpoints\":%d,\
        \"history\":["
       t.index_id t.algorithm (phase_name t.phase) t.keys_processed t.backlog
       t.checkpoints);
  List.iteri
    (fun i (ph, step) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"phase\":\"%s\",\"step\":%d}" (phase_name ph) step))
    (history t);
  Buffer.add_string b "],\"cost\":";
  Buffer.add_string b (Oib_obs.Resource.to_json t.resources);
  Buffer.add_string b ",\"phase_costs\":[";
  List.iteri
    (fun i (ph, cost) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"phase\":\"%s\",\"cost\":%s}" (phase_name ph)
           (Oib_obs.Resource.to_json cost)))
    (phase_costs t);
  Buffer.add_string b "]}";
  Buffer.contents b
