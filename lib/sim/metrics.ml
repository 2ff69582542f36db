module Resource = Oib_obs.Resource

type t = {
  totals : Resource.t;
  latency : Oib_obs.Window.t option; (* [None] on detached copies *)
  mutable fiber_source : unit -> int;
  accounts : (int, Resource.t) Hashtbl.t;
  (* the last fiber -> account resolution; [cached_fiber = no_fiber]
     means nothing is cached *)
  mutable cached_fiber : int;
  mutable cached_account : Resource.t option;
}

let no_fiber = min_int

let make ~totals ~latency =
  {
    totals;
    latency;
    fiber_source = (fun () -> -1);
    accounts = Hashtbl.create 8;
    cached_fiber = no_fiber;
    cached_account = None;
  }

let create () =
  make ~totals:(Resource.create ())
    ~latency:(Some (Oib_obs.Window.create ~slots:8 ()))

let totals t = t.totals
let get t c = Resource.get t.totals c
let to_assoc t = Resource.to_assoc t.totals
let reset t = Resource.reset t.totals

(* Detached copies carry only counters: no latency window, no accounts. *)
let of_totals totals = make ~totals ~latency:None
let snapshot t = of_totals (Resource.snapshot t.totals)
let diff ~after ~before = of_totals (Resource.diff ~after:after.totals ~before:before.totals)

let latency t = t.latency

let observe_latency t v =
  match t.latency with Some w -> Oib_obs.Window.observe w v | None -> ()

(* --- per-fiber build accounts ---------------------------------------- *)

let forget t = t.cached_fiber <- no_fiber

let set_fiber_source t f =
  t.fiber_source <- f;
  forget t

let register_account t ~fiber r =
  (* Hashtbl.add, not replace: nested registrations shadow and
     [unregister_account] pops back to the outer account. *)
  Hashtbl.add t.accounts fiber r;
  forget t

let unregister_account t ~fiber =
  Hashtbl.remove t.accounts fiber;
  forget t

let clear_accounts t =
  Hashtbl.reset t.accounts;
  forget t

let account t =
  if Hashtbl.length t.accounts = 0 then None
  else begin
    let fiber = t.fiber_source () in
    if fiber <> t.cached_fiber then begin
      t.cached_fiber <- fiber;
      t.cached_account <- Hashtbl.find_opt t.accounts fiber
    end;
    t.cached_account
  end

let add t c n =
  Resource.add t.totals c n;
  match account t with Some r -> Resource.add r c n | None -> ()

type target = { metrics : t; account : Resource.t }

let target metrics account = { metrics; account }

let add_to { metrics; account } c n =
  Resource.add metrics.totals c n;
  Resource.add account c n
