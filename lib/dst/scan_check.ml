(* Scan-accounting oracle for resumable builds. See scan_check.mli. *)

open Oib_core

type t = {
  marks : (int, int) Hashtbl.t; (* index -> last checkpointed scan position *)
  seen : (int * int, unit) Hashtbl.t; (* (index, page) extracted this epoch *)
  mutable epoch : int;
  mutable extractions : int;
  mutable checkpoints : int;
  mutable errs : string list;
}

let create () =
  {
    marks = Hashtbl.create 4;
    seen = Hashtbl.create 256;
    epoch = 0;
    extractions = 0;
    checkpoints = 0;
    errs = [];
  }

let err t fmt = Printf.ksprintf (fun s -> t.errs <- s :: t.errs) fmt

let mark t index = Option.value ~default:(-1) (Hashtbl.find_opt t.marks index)

let observe t (e : Ib.scan_event) =
  match e with
  | Scan_start { index; pos = -1 } ->
    Hashtbl.remove t.marks index;
    Hashtbl.filter_map_inplace
      (fun (i, _) () -> if i = index then None else Some ())
      t.seen
  | Scan_start { index; pos } ->
    if pos <> mark t index then
      err t "index %d: scan resumed at page %d, but its last checkpoint is at %d"
        index pos (mark t index)
  | Page_extracted { index; page } ->
    t.extractions <- t.extractions + 1;
    if page <= mark t index then
      err t
        "index %d: page %d extracted again (epoch %d) after a checkpoint \
         captured up to %d"
        index page t.epoch (mark t index);
    if Hashtbl.mem t.seen (index, page) then
      err t "index %d: page %d extracted twice within epoch %d" index page
        t.epoch;
    Hashtbl.replace t.seen (index, page) ()
  | Scan_checkpoint { index; pos } ->
    t.checkpoints <- t.checkpoints + 1;
    if pos < mark t index then
      err t "index %d: checkpoint went down from %d to %d" index (mark t index)
        pos;
    Hashtbl.replace t.marks index pos

let install t = Ib.set_scan_observer (Some (observe t))
let uninstall () = Ib.set_scan_observer None

let new_epoch t =
  t.epoch <- t.epoch + 1;
  Hashtbl.reset t.seen

let extractions t = t.extractions
let checkpoints t = t.checkpoints
let errors t = List.rev t.errs
