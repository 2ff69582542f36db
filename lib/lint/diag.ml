type t = {
  file : string;
  line : int;
  col : int;
  rule : string;
  msg : string;
  hint : string;
  site : string;
  suppressed : string option;
  trace : string list;
}

let make ?(suppressed = None) ?(site = "") ?(trace = []) ~file ~line ~col
    ~rule ~hint msg =
  { file; line; col; rule; msg; hint; site; suppressed; trace }

let of_location ?(suppressed = None) ?(site = "") ?(trace = []) ~rule ~hint
    (loc : Location.t) msg =
  let p = loc.loc_start in
  {
    file = p.pos_fname;
    line = p.pos_lnum;
    col = p.pos_cnum - p.pos_bol;
    rule;
    msg;
    hint;
    site;
    suppressed;
    trace;
  }

let to_string t =
  let supp =
    match t.suppressed with
    | None -> ""
    | Some why -> " [suppressed: " ^ why ^ "]"
  in
  t.file ^ ":" ^ string_of_int t.line ^ ":" ^ string_of_int t.col
  ^ (if t.site = "" then "" else "(" ^ t.site ^ ")")
  ^ ": [" ^ t.rule ^ "] " ^ t.msg
  ^ (if t.hint = "" then "" else " (hint: " ^ t.hint ^ ")")
  ^ supp

(* Order by rule first so one subsystem's findings group together, then
   by position and site — the key the reports are deduplicated on, which
   is what makes @lint/@san-smoke output byte-stable. *)
let compare a b =
  let c = String.compare a.rule b.rule in
  if c <> 0 then c
  else
    let c = String.compare a.file b.file in
    if c <> 0 then c
    else
      let c = Int.compare a.line b.line in
      if c <> 0 then c
      else
        let c = Int.compare a.col b.col in
        if c <> 0 then c else String.compare a.site b.site

let dedupe diags =
  let sorted = List.sort compare diags in
  let rec go = function
    | a :: (b :: _ as rest) ->
      if compare a b = 0 then go rest else a :: go rest
    | l -> l
  in
  go sorted
