(* Admission-controlled IB backoff driven by the engine's health signals.
   See throttle.mli. *)

module Signal = Oib_obs.Signal

type t = {
  max_level : int;
  mutable level : int;
  mutable backoffs : int;
  mutable restores : int;
  mutable watched : string list;
  mutable notify : (t -> string -> unit) option;
  mutable pause : bool;
}

let create ?(max_level = 3) () =
  {
    max_level;
    level = 0;
    backoffs = 0;
    restores = 0;
    watched = [];
    notify = None;
    pause = false;
  }

let level t = t.level

let backoffs t = t.backoffs
let restores t = t.restores

let scaled t ~base = max 1 (base lsr t.level)

let extra_yields t = t.level

let set_notify t f = t.notify <- f

let fire t reason =
  match t.notify with Some f -> f t reason | None -> ()

let on_change t set s change =
  let name = Signal.name s in
  if List.mem name t.watched then
    match change with
    | Signal.Raised ->
      if t.level < t.max_level then begin
        t.level <- t.level + 1;
        t.backoffs <- t.backoffs + 1;
        fire t (name ^ " raised")
      end
    | Signal.Cleared ->
      (* restore only when no watched signal is still raised: a clearing
         WAL backlog must not release a backoff the p99 signal demands *)
      let any_active =
        List.exists
          (fun n ->
            match Signal.find set n with
            | Some s' -> Signal.active s'
            | None -> false)
          t.watched
      in
      if (not any_active) && t.level > 0 then begin
        t.level <- 0;
        t.restores <- t.restores + 1;
        fire t (name ^ " cleared")
      end

let attach t set ~names =
  t.watched <- names;
  Signal.subscribe set (fun s change -> on_change t set s change)

let request_pause t = t.pause <- true
let clear_pause t = t.pause <- false
let pause_requested t = t.pause
