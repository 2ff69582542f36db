type t = {
  ring : Hist.t array; (* ring.(head) is the slot receiving observations *)
  mutable head : int;
  mutable rotations : int;
}

let create ~slots () =
  if slots < 1 then invalid_arg "Window.create: slots < 1";
  {
    ring = Array.init slots (fun _ -> Hist.create ());
    head = 0;
    rotations = 0;
  }

let rotations t = t.rotations

let observe t v = Hist.observe t.ring.(t.head) v

let rotate t =
  t.head <- (t.head + 1) mod Array.length t.ring;
  (* retire the oldest slot by replacing it with a fresh histogram *)
  t.ring.(t.head) <- Hist.create ();
  t.rotations <- t.rotations + 1

let merged t =
  let out = Hist.create () in
  Array.iter (fun h -> Hist.merge_into ~into:out h) t.ring;
  out

let count t = Array.fold_left (fun acc h -> acc + Hist.count h) 0 t.ring

let percentile t p = Hist.percentile (merged t) p

(* Exponentially weighted moving average of an event rate, fed with a
   monotonic counter total once per tick; rates are per scheduler step. *)
module Ewma = struct
  type ewma = {
    alpha : float;
    mutable rate : float;
    mutable primed : bool;
    mutable last : int option; (* the total at the previous tick *)
  }

  type t = ewma

  let create ?(alpha = 0.3) () =
    if alpha <= 0.0 || alpha > 1.0 then invalid_arg "Ewma.create: alpha";
    { alpha; rate = 0.0; primed = false; last = None }

  let tick t ~count ~steps =
    if steps > 0 then begin
      let instant = float_of_int count /. float_of_int steps in
      if t.primed then
        t.rate <- t.rate +. (t.alpha *. (instant -. t.rate))
      else begin
        t.rate <- instant;
        t.primed <- true
      end
    end

  let observe t ~total ~steps =
    (match t.last with
    | Some prev -> tick t ~count:(total - prev) ~steps
    | None -> ());
    t.last <- Some total

  let started t = t.last <> None
  let rate t = t.rate
end
