type labels = (string * string) list

type counter = { mutable v : int }

type rate = { ewma : Window.Ewma.t; mutable last : int option }

type entry =
  | E_counter of counter
  | E_gauge of (unit -> int)
  | E_window of Window.t
  | E_rate of rate

type t = { entries : (string, entry) Hashtbl.t }

let create () = { entries = Hashtbl.create 64 }

(* Stable rendered name: [name] alone, or [name{k=v,...}] with label
   pairs sorted by key so the same logical series always renders the
   same string. *)
let render_name ?(labels = []) name =
  match labels with
  | [] -> name
  | _ ->
    let sorted =
      List.sort (fun (a, _) (b, _) -> String.compare a b) labels
    in
    let b = Buffer.create (String.length name + 16) in
    Buffer.add_string b name;
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b k;
        Buffer.add_char b '=';
        Buffer.add_string b v)
      sorted;
    Buffer.add_char b '}';
    Buffer.contents b

let kind_of = function
  | E_counter _ -> "counter"
  | E_gauge _ -> "gauge"
  | E_window _ -> "window"
  | E_rate _ -> "rate"

let clash name existing wanted =
  invalid_arg
    (Printf.sprintf "Registry: %S already registered as a %s, wanted a %s"
       name (kind_of existing) wanted)

(* Find-or-create: re-registering the same (name, kind) returns the
   existing entry, so call sites can look series up by name without
   threading handles around. A kind mismatch is a programming error. *)
let intern t ~name ~kind ~make ~cast =
  match Hashtbl.find_opt t.entries name with
  | Some e -> (match cast e with Some x -> x | None -> clash name e kind)
  | None ->
    let e, x = make () in
    Hashtbl.replace t.entries name e;
    x

let counter t ?labels name =
  let name = render_name ?labels name in
  intern t ~name ~kind:"counter"
    ~make:(fun () ->
      let c = { v = 0 } in
      (E_counter c, c))
    ~cast:(function E_counter c -> Some c | _ -> None)

let incr c = c.v <- c.v + 1
let add c n = c.v <- c.v + n
let counter_value c = c.v

(* Gauges replace on re-registration: a derived gauge's closure must be
   re-pointed at fresh subsystems after a crash/restart. *)
let gauge t ?labels name read =
  let name = render_name ?labels name in
  match Hashtbl.find_opt t.entries name with
  | None | Some (E_gauge _) -> Hashtbl.replace t.entries name (E_gauge read)
  | Some e -> clash name e "gauge"

let window t ?bounds ?(slots = 8) ?labels name =
  let name = render_name ?labels name in
  intern t ~name ~kind:"window"
    ~make:(fun () ->
      let w = Window.create ?bounds ~slots () in
      (E_window w, w))
    ~cast:(function E_window w -> Some w | _ -> None)

(* Lookup by a name that exists as a different kind is the same
   programming error [intern] catches on registration — raise, don't
   shadow: a silent None here would make the caller's observations
   vanish. A missing name stays None so fire-and-forget observation
   sites work before the window is wired. *)
let find_window t name =
  match Hashtbl.find_opt t.entries name with
  | Some (E_window w) -> Some w
  | Some e -> clash name e "window"
  | None -> None

let observe_window t name v =
  match find_window t name with
  | Some w -> Window.observe w v
  | None -> ()

let rotate_windows t =
  Hashtbl.iter
    (fun _ e -> match e with E_window w -> Window.rotate w | _ -> ())
    t.entries

let rate t ?alpha ?labels name =
  let name = render_name ?labels name in
  intern t ~name ~kind:"rate"
    ~make:(fun () ->
      let r = { ewma = Window.Ewma.create ?alpha (); last = None } in
      (E_rate r, r))
    ~cast:(function E_rate r -> Some r | _ -> None)

let rate_observe r ~total ~steps =
  (match r.last with
  | Some prev -> Window.Ewma.tick r.ewma ~count:(total - prev) ~steps
  | None -> ());
  r.last <- Some total

let rate_value r = Window.Ewma.rate r.ewma

type value =
  | Int of int
  | Float of float
  | Windowed of Window.t

let sorted_entries t =
  Hashtbl.fold (fun name e acc -> (name, e) :: acc) t.entries []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot t =
  List.map
    (fun (name, e) ->
      let v =
        match e with
        | E_counter c -> Int c.v
        | E_gauge read -> Int (read ())
        | E_window w -> Windowed w
        | E_rate r -> Float (rate_value r)
      in
      (name, v))
    (sorted_entries t)

(* Flattened integer view for Sample events. Windows expand to
   window.<name>.p50/.p95/.p99/.count (the prefix marks them as sliding
   quantiles, not raw series); rates scale to events per 1000 steps so
   they survive the integer sample channel. *)
let sample_values t =
  List.concat_map
    (fun (name, e) ->
      match e with
      | E_counter c -> [ (name, c.v) ]
      | E_gauge read -> [ (name, read ()) ]
      | E_window w ->
        let k suffix = "window." ^ name ^ suffix in
        [
          (k ".p50", int_of_float (Float.round (Window.percentile w 0.50)));
          (k ".p95", int_of_float (Float.round (Window.percentile w 0.95)));
          (k ".p99", int_of_float (Float.round (Window.percentile w 0.99)));
          (k ".count", Window.count w);
        ]
      | E_rate r ->
        [ (name, int_of_float (Float.round (rate_value r *. 1000.0))) ])
    (sorted_entries t)

let to_json t =
  let b = Buffer.create 1024 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (name, e) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":" (Event.json_escape name));
      match e with
      | E_counter c -> Buffer.add_string b (string_of_int c.v)
      | E_gauge read -> Buffer.add_string b (string_of_int (read ()))
      | E_window w -> Buffer.add_string b (Window.to_json w)
      | E_rate r -> Buffer.add_string b (Printf.sprintf "%.4f" (rate_value r)))
    (sorted_entries t);
  Buffer.add_char b '}';
  Buffer.contents b
