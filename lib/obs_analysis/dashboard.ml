(* Dashboard state fold: latest value per sample key plus a few direct
   event counters, rendered as one text frame. Key names follow the
   namespace contract documented on [Oib_obs.Event.Sample]. *)

module Event = Oib_obs.Event

type t = {
  latest : (string, int) Hashtbl.t; (* newest value per sample key *)
  mutable last_step : int;
  mutable samples : int;
  reads : (string, int) Hashtbl.t; (* page reads per page role *)
  mutable commits : int;
  mutable aborts : int;
  mutable deadlocks : int;
  mutable crashes : int;
  mutable epochs : int;
}

let create () =
  {
    latest = Hashtbl.create 128;
    last_step = 0;
    samples = 0;
    reads = Hashtbl.create 8;
    commits = 0;
    aborts = 0;
    deadlocks = 0;
    crashes = 0;
    epochs = 1;
  }

let feed t (s : Event.stamped) =
  t.last_step <- max t.last_step s.step;
  match s.event with
  | Event.Sample { key; value } ->
    Hashtbl.replace t.latest key value;
    t.samples <- t.samples + 1
  | Event.Txn_commit _ -> t.commits <- t.commits + 1
  | Event.Txn_abort _ -> t.aborts <- t.aborts + 1
  | Event.Lock_denied _ -> t.deadlocks <- t.deadlocks + 1
  (* captures written before page events carried a role have none *)
  | Event.Page_read { role; _ } when role <> "" ->
    Hashtbl.replace t.reads role
      (1 + Option.value (Hashtbl.find_opt t.reads role) ~default:0)
  | Event.Crash _ -> t.crashes <- t.crashes + 1
  | Event.Epoch _ ->
    t.epochs <- t.epochs + 1;
    (* a restart resets the step clock and invalidates build/gauge state *)
    t.last_step <- s.step
  | _ -> ()

let feed_all t events = List.iter (feed t) events

let step t = t.last_step
let samples t = t.samples

let get t key = Hashtbl.find_opt t.latest key
let get0 t key = Option.value (get t key) ~default:0

(* keys matching [prefix]<middle>[suffix], returned as (middle, value)
   sorted by middle — e.g. build ids or signal names *)
let matching t ~prefix ~suffix =
  let plen = String.length prefix and slen = String.length suffix in
  Hashtbl.fold
    (fun key v acc ->
      let klen = String.length key in
      if
        klen > plen + slen
        && String.sub key 0 plen = prefix
        && String.sub key (klen - slen) slen = suffix
      then (String.sub key plen (klen - plen - slen), v) :: acc
      else acc)
    t.latest []
  |> List.sort compare

(* Build_status.rank, inverted (Insert and Bulk share rank 4) *)
let phase_of_rank = function
  | 0 -> "init"
  | 1 -> "quiesce"
  | 2 -> "scan"
  | 3 -> "merge"
  | 4 -> "insert/bulk"
  | 5 -> "drain"
  | 6 -> "ready"
  | r -> Printf.sprintf "phase-%d" r

let render t =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf
    "oib-top  step %-10d epoch %-3d crashes %-3d samples %d\n" t.last_step
    t.epochs t.crashes t.samples;
  (* foreground latency: the fg.latency sliding window + txn outcomes *)
  (match get t "window.fg.latency.count" with
  | Some n ->
    Printf.bprintf buf
      "fg latency   p50 %-6d p95 %-6d p99 %-6d (n=%d in window)\n"
      (get0 t "window.fg.latency.p50")
      (get0 t "window.fg.latency.p95")
      (get0 t "window.fg.latency.p99")
      n
  | None -> Buffer.add_string buf "fg latency   (no window samples yet)\n");
  Printf.bprintf buf "txns         commits %-8d aborts %-8d deadlocks %d\n"
    t.commits t.aborts t.deadlocks;
  (* EWMA rates, already scaled to events per 1000 steps *)
  (match matching t ~prefix:"rate." ~suffix:"" with
  | [] -> Buffer.add_string buf "rates /1k    (no rate samples yet)\n"
  | rates ->
    Buffer.add_string buf "rates /1k   ";
    List.iter (fun (name, v) -> Printf.bprintf buf " %s %d" name v) rates;
    Buffer.add_char buf '\n');
  Printf.bprintf buf "pool         dirty %d / cached %d    wal unflushed %d B\n"
    (get0 t "pool.dirty_pages")
    (get0 t "pool.cached_pages")
    (get0 t "wal.unflushed_bytes");
  (* page reads by the role of the page read *)
  (match List.sort compare (List.of_seq (Hashtbl.to_seq t.reads)) with
  | [] -> ()
  | roles ->
    Buffer.add_string buf "reads/role  ";
    List.iter (fun (role, v) -> Printf.bprintf buf " %s %d" role v) roles;
    Buffer.add_char buf '\n');
  (* health signals: filled dot = active *)
  (match matching t ~prefix:"signal." ~suffix:"" with
  | [] -> Buffer.add_string buf "signals      (none registered)\n"
  | signals ->
    Buffer.add_string buf "signals     ";
    List.iter
      (fun (name, v) ->
        Printf.bprintf buf " %s %s" (if v <> 0 then "[*]" else "[ ]") name)
      signals;
    Buffer.add_char buf '\n');
  (* one row per build, ids recovered from the build.<id>.phase keys *)
  (match
     List.sort
       (fun (a, _) (b, _) ->
         compare (int_of_string_opt a) (int_of_string_opt b))
       (matching t ~prefix:"build." ~suffix:".phase")
   with
  | [] -> Buffer.add_string buf "builds       (none)\n"
  | builds ->
    Printf.bprintf buf "%-5s %-12s %9s %8s %7s %10s %7s %9s\n" "build"
      "phase" "keys" "backlog" "pages" "log_bytes" "waits" "compares";
    List.iter
      (fun (id, rank) ->
        let g suffix = get0 t (Printf.sprintf "build.%s.%s" id suffix) in
        Printf.bprintf buf "%-5s %-12s %9d %8d %7d %10d %7d %9d\n" id
          (phase_of_rank rank) (g "keys_processed") (g "backlog")
          (g "cost.pages") (g "cost.log_bytes") (g "cost.wait_steps")
          (g "cost.compares"))
      builds);
  Buffer.contents buf
