open Parsetree

(* Per-unit summaries plus the re-runnable transfer functions the
   interprocedural engine (Callgraph + Dataflow) iterates to a fixpoint.

   Pass A (register = true) parses each file, creates one [u] per value
   binding, records calls/allows, and runs the transfer function once
   under [initial_ctx] (no interprocedural knowledge). The dataflow
   solver then re-runs units via [u_rerun] with a [ctx] that resolves
   callee effects from the evolving solution; a final emission pass
   ([x_emit = true]) re-walks every unit to refresh findings with the
   converged interprocedural state. *)

type config = {
  l3_modules : string list;
  l3_mutators : string list;
  l3_appends : string list;
  (* L7: page-handle escape *)
  l7_sources : string list;
      (* calls whose result is a latched page handle even when their body
         is out of tree; in-tree transfers are inferred from effects *)
  l7_exempt_modules : string list;
      (* page-cache internals that legitimately store page structures *)
  suspends : string list;
      (* base calls that may suspend the fiber (scheduler yields, lock
         waits, log forces): the seeds of L2's may-block reachability *)
}

let default_config =
  {
    l3_modules = [ "Table_ops"; "Heap_file"; "Btree" ];
    l3_mutators = [ "Heap_page.put"; "Heap_page.remove" ];
    l3_appends = [ "Log_manager.append"; "Txn_manager.log_op" ];
    l7_sources = [ "Heap_file.latch_rid" ];
    l7_exempt_modules = [ "Page"; "Buffer_pool"; "Latch" ];
    suspends =
      [
        "Sched.yield"; "Sched.suspend"; "Sched.Cond.wait";
        "Lock_manager.lock"; "Lock_manager.instant_lock";
        "Log_manager.flush"; "Log_manager.flush_all";
      ];
  }

type allow = {
  a_rule : string;
  a_reason : string;
  a_loc : Location.t;
  a_used : bool ref;
      (* flipped by Rules when this allow suppresses a diagnostic; an
         allow that stays false across a whole run is dead weight *)
}

type call = {
  c_callee : string;
  c_loc : Location.t;
  c_held : (string * string) list;
  c_arg1 : string option;
  c_callback : bool;
      (* a module-qualified function passed as an argument: a call-graph
         edge for reachability, but no effect application at this site *)
  c_allows : allow list;
}

type finding = {
  f_rule : string;
  f_loc : Location.t;
  f_msg : string;
  f_hint : string;
  f_trace : string list;  (* interprocedural frames, innermost first *)
  f_allows : allow list;
}

(* Interprocedural context a unit's transfer function runs under. The
   initial pass knows nothing; the solver and the emission pass thread
   in the evolving callee-effect solution. *)
type ctx = {
  x_effects : caller_module:string -> string -> Latch_effect.t option;
      (* None: unknown/out-of-tree callee (identity, no tracking) *)
  x_appends : caller_module:string -> string -> bool;
      (* callee may (transitively) append to the WAL: discharges L3 *)
  x_emit : bool;  (* final pass: produce findings *)
}

let initial_ctx =
  {
    x_effects = (fun ~caller_module:_ _ -> None);
    x_appends = (fun ~caller_module:_ _ -> false);
    x_emit = false;
  }

type u = {
  u_module : string;
  u_file : string;
  u_name : string;
  u_loc : Location.t;
  u_allows : allow list;
  u_params : string list;  (* positional parameter names, in order *)
  mutable u_calls : call list;
  mutable u_acquires_latch : bool;
  mutable u_local : finding list;
  mutable u_effect : Latch_effect.t;
  u_rerun : ctx -> unit;
      (* re-execute the transfer function under a new context, refreshing
         u_calls / u_acquires_latch / u_local / u_effect in place *)
}

type file_summary = {
  fs_file : string;
  fs_module : string;
  fs_units : u list;
  fs_findings : finding list;
  fs_allows : allow list;
      (* every well-formed [@lint.allow] parsed in the file, in source
         order — the registry the unused-allow report is computed from *)
}

let module_name_of_file f =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename f))

(* --- [@lint.allow "Ln: reason"] attributes --- *)

(* The rules that run, and so the only ones an allow may name. L5, L6
   and L8-L12 are retired; their numbers are not reused. *)
let live_rules = [ "L1"; "L2"; "L3"; "L4"; "L7" ]

let allow_of_attribute (attr : attribute) =
  if attr.attr_name.txt <> "lint.allow" then None
  else
    let malformed why = Some (Error (attr.attr_loc, why)) in
    match attr.attr_payload with
    | PStr
        [
          {
            pstr_desc =
              Pstr_eval
                ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
            _;
          };
        ] -> (
      match String.index_opt s ':' with
      | Some i ->
        let rule = String.trim (String.sub s 0 i) in
        let reason =
          String.trim (String.sub s (i + 1) (String.length s - i - 1))
        in
        if not (List.mem rule live_rules) then
          malformed ("[@lint.allow]: unknown rule " ^ Filename.quote rule)
        else if String.length reason < 8 then
          malformed "[@lint.allow]: justification too short (>= 8 chars)"
        else
          Some
            (Ok
               { a_rule = rule; a_reason = reason; a_loc = attr.attr_loc;
                 a_used = ref false })
      | None -> malformed "[@lint.allow]: missing \"Ln:\" rule prefix")
    | _ -> malformed "[@lint.allow]: payload must be a string literal"

(* --- abstract state --- *)

(* A tracked latch: acquired here (or produced by a callee's effect),
   rooted at zero or more variables that can name it. A pending item is
   the return value of the last call, not yet bound to a name. *)
type item = {
  i_roots : string list;
  i_path : string;  (* field path from a root, e.g. ".Page.latch" *)
  i_mode : string;
  i_loc : Location.t;
  i_origin : string list;  (* interprocedural frames, innermost first *)
  i_pending : bool;
}

type state = {
  held : item list;
  pend : (string * Location.t) list;  (* L3: mutations awaiting an append *)
  dead : (string * Location.t option) list;
      (* L7: handle var -> its release site, or [None] once the name is
         bound again to a value that is no page handle *)
  neg : Latch_effect.atom list;  (* releases of caller-held param latches *)
  alias : string list;  (* roots the last call's return value aliases *)
}

let empty_state = { held = []; pend = []; dead = []; neg = []; alias = [] }

let max_states = 48

let dedup_states sts =
  let rec go seen = function
    | [] -> List.rev seen
    | s :: rest ->
      if List.mem s seen then go seen rest else go (s :: seen) rest
  in
  let d = go [] sts in
  if List.length d > max_states then (
    let rec take n = function
      | x :: r when n > 0 -> x :: take (n - 1) r
      | _ -> []
    in
    take max_states d)
  else d

let union a b = dedup_states (a @ b)

(* --- per-unit accumulator and environment --- *)

type acc = {
  mutable calls : call list;
  mutable local : finding list;
  mutable acq : bool;
  seen : (string, unit) Hashtbl.t;
      (* rule-prefixed keys of findings already emitted: dedups a site
         across the path states that reach it *)
  handles : (string, Location.t) Hashtbl.t;  (* page-handle vars *)
}

let fresh_acc () =
  {
    calls = [];
    local = [];
    acq = false;
    seen = Hashtbl.create 8;
    handles = Hashtbl.create 8;
  }

type env = {
  cfg : config;
  aliases : (string, string list) Hashtbl.t;
  modname : string;
  in_l3 : bool;
  in_l7 : bool;
  allows : allow list;
  acc : acc;
  units : u list ref;
  file : string;
  file_findings : finding list ref;
  all_allows : allow list ref;  (* registration order = source order *)
  allow_memo : (string, allow option) Hashtbl.t;
      (* keyed by attribute location: reruns must see the same physical
         allow records (a_used identity) and must not re-register them *)
  register : bool;  (* first pass only: create sub-units, register allows *)
  ctx : ctx;
  params : string list;  (* current unit's positional parameters *)
  uname : string;  (* scoped name of the unit being walked *)
  scope : (string * string) list;
      (* lexically visible local functions, name -> scoped unit name
         ("go" -> "descend_read.go"): keeps the ubiquitous local helper
         names from aliasing across units in the call graph *)
}

let emit ?(trace = []) env ~rule ~hint loc msg =
  if env.ctx.x_emit then
    env.acc.local <-
      { f_rule = rule; f_loc = loc; f_msg = msg; f_hint = hint;
        f_trace = trace; f_allows = env.allows }
      :: env.acc.local

let emit_once ?trace env key ~rule ~hint loc msg =
  if not (Hashtbl.mem env.acc.seen key) then begin
    Hashtbl.add env.acc.seen key ();
    emit ?trace env ~rule ~hint loc msg
  end

(* --- name resolution (aliases + Oib_* wrapper stripping) --- *)

let rec strip_oib = function
  | p :: (_ :: _ as rest)
    when String.length p >= 4 && String.sub p 0 4 = "Oib_" ->
    strip_oib rest
  | l -> l

let resolve env lid =
  let parts = strip_oib (Longident.flatten lid) in
  let parts =
    match parts with
    | hd :: tl -> (
      match Hashtbl.find_opt env.aliases hd with
      | Some repl -> repl @ tl
      | None -> parts)
    | [] -> parts
  in
  match parts with
  | [ n ] -> (
    match List.assoc_opt n env.scope with Some scoped -> scoped | None -> n)
  | _ -> String.concat "." parts

let rec expr_key e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> String.concat "." (Longident.flatten txt)
  | Pexp_field (b, { txt; _ }) ->
    expr_key b ^ "." ^ String.concat "." (Longident.flatten txt)
  | Pexp_constraint (e, _) | Pexp_open (_, e) | Pexp_newtype (_, e) ->
    expr_key e
  | Pexp_apply (f, _) -> "(" ^ expr_key f ^ " _)"
  | _ -> "<expr>"

let mode_key e =
  match e.pexp_desc with
  | Pexp_construct ({ txt = Longident.Lident (("S" | "X") as m); _ }, None) ->
    m
  | _ -> "?"

let loc_key (loc : Location.t) =
  loc.loc_start.pos_fname ^ ":"
  ^ string_of_int loc.loc_start.pos_lnum
  ^ ":"
  ^ string_of_int (loc.loc_start.pos_cnum - loc.loc_start.pos_bol)

let short_loc (loc : Location.t) =
  Filename.basename loc.loc_start.pos_fname
  ^ ":"
  ^ string_of_int loc.loc_start.pos_lnum

(* split "p.Page.latch" into root "p" and path ".Page.latch" *)
let split_key k =
  match String.index_opt k '.' with
  | None -> (k, "")
  | Some i ->
    (String.sub k 0 i, String.sub k i (String.length k - i))

(* the argument expression as a rootable name: a pure ident is its own
   root; a field chain roots at its full key (releases match on full
   key = root ^ path, so composite roots still line up) *)
let arg_root e =
  match expr_key e with "<expr>" | "(" -> None | k -> Some k

let param_index params name =
  let rec go i = function
    | [] -> None
    | p :: _ when p = name -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 params

(* --- small parsetree utilities --- *)

let raise_names =
  [ "raise"; "raise_notrace"; "failwith"; "invalid_arg";
    "Stdlib.raise"; "Stdlib.raise_notrace"; "Stdlib.failwith";
    "Stdlib.invalid_arg" ]

let positional args =
  List.filter_map
    (fun (l, e) -> match l with Asttypes.Nolabel -> Some e | _ -> None)
    args

let rec strip_fun e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_newtype (_, e) -> strip_fun e
  | _ -> e

let is_function_expr e =
  match (strip_fun e).pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | _ -> false

let binding_name vb =
  let rec pat p =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> txt
    | Ppat_constraint (p, _) -> pat p
    | _ -> "_"
  in
  pat vb.pvb_pat

(* variables bound by a pattern *)
let pat_vars p =
  let out = ref [] in
  let rec go p =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> out := txt :: !out
    | Ppat_alias (p, { txt; _ }) ->
      out := txt :: !out;
      go p
    | Ppat_tuple ps | Ppat_array ps -> List.iter go ps
    | Ppat_construct (_, Some (_, p)) | Ppat_variant (_, Some p) -> go p
    | Ppat_record (fields, _) -> List.iter (fun (_, p) -> go p) fields
    | Ppat_or (a, b) ->
      go a;
      go b
    | Ppat_constraint (p, _) | Ppat_lazy p | Ppat_open (_, p) -> go p
    | _ -> ()
  in
  go p;
  !out

(* positional parameter names of a function expression *)
let rec fun_params e =
  match e.pexp_desc with
  | Pexp_fun (Asttypes.Nolabel, _, p, body) ->
    let n = match pat_vars p with [ v ] -> v | _ -> "_" in
    n :: fun_params body
  | Pexp_fun (_, _, _, body) -> "_" :: fun_params body
  | Pexp_newtype (_, body) | Pexp_constraint (body, _) -> fun_params body
  | _ -> []

(* idents mentioned anywhere in an expression (free or bound — an
   over-approximation used for escape-capture checks) *)
let mentioned_idents e =
  let out = Hashtbl.create 8 in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt = Longident.Lident n; _ } ->
            Hashtbl.replace out n ()
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  out

(* variables bound by any pattern inside an expression (parameters,
   inner lets, match cases) — used to discount shadowed names when
   checking what a closure captures *)
let bound_idents e =
  let out = Hashtbl.create 8 in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) ->
            Hashtbl.replace out txt ()
          | _ -> ());
          Ast_iterator.default_iterator.pat it p);
    }
  in
  it.expr it e;
  out

(* idents reachable as (components of) a value expression: bare idents,
   possibly under tuples/constructors/records — but not under field
   projections or applications, so storing [p.Page.id] does not count as
   storing the handle [p] *)
let value_root_idents e =
  let out = Hashtbl.create 4 in
  let rec go e =
    match e.pexp_desc with
    | Pexp_ident { txt = Longident.Lident n; _ } -> Hashtbl.replace out n ()
    | Pexp_tuple es | Pexp_array es -> List.iter go es
    | Pexp_construct (_, Some a) | Pexp_variant (_, Some a) -> go a
    | Pexp_record (fields, base) ->
      Option.iter go base;
      List.iter (fun (_, fe) -> go fe) fields
    | Pexp_constraint (a, _) | Pexp_open (_, a) | Pexp_newtype (_, a) ->
      go a
    | Pexp_let (_, _, b) | Pexp_sequence (_, b) -> go b
    | Pexp_ifthenelse (_, t, eo) ->
      go t;
      Option.iter go eo
    | Pexp_match (_, cases) | Pexp_try (_, cases) ->
      List.iter (fun c -> go c.pc_rhs) cases
    | _ -> ()
  in
  go e;
  out

(* idents returned by value in tail position: only idents that appear
   as (components of) the final value — tuples, constructors, records —
   never idents inside applications, conditions or scrutinees. *)
let tail_value_idents body =
  let out = Hashtbl.create 8 in
  let rec value e =
    match e.pexp_desc with
    | Pexp_ident { txt = Longident.Lident n; _ } -> Hashtbl.replace out n ()
    | Pexp_tuple es | Pexp_array es -> List.iter value es
    | Pexp_construct (_, Some a) | Pexp_variant (_, Some a) -> value a
    | Pexp_record (fields, base) ->
      Option.iter value base;
      List.iter (fun (_, fe) -> value fe) fields
    | Pexp_constraint (a, _) | Pexp_open (_, a) | Pexp_newtype (_, a) ->
      value a
    | _ -> ()
  in
  let rec tail e =
    match e.pexp_desc with
    | Pexp_let (_, _, b) | Pexp_sequence (_, b) -> tail b
    | Pexp_ifthenelse (_, t, eo) ->
      tail t;
      Option.iter tail eo
    | Pexp_match (_, cases) | Pexp_try (_, cases) ->
      List.iter (fun c -> tail c.pc_rhs) cases
    | Pexp_constraint (a, _) | Pexp_open (_, a) | Pexp_newtype (_, a) ->
      tail a
    | _ -> value e
  in
  tail body;
  out

(* --- latch bookkeeping ---------------------------------------------- *)

let item_named item key =
  List.exists (fun r -> r ^ item.i_path = key) item.i_roots

let live_handle_roots env sts =
  let out = Hashtbl.create 8 in
  List.iter
    (fun s ->
      List.iter
        (fun i ->
          if i.i_path <> "" then
            List.iter
              (fun r ->
                if not (String.contains r '.')
                   && not (List.mem_assoc r s.dead) then
                  Hashtbl.replace out r ())
              i.i_roots)
        s.held)
    sts;
  Hashtbl.iter
    (fun r _ ->
      if List.for_all (fun s -> not (List.mem_assoc r s.dead)) sts then
        Hashtbl.replace out r ())
    env.acc.handles;
  out

let held_snapshot sts =
  let pairs =
    List.concat_map
      (fun s ->
        List.map
          (fun i ->
            let r = match i.i_roots with r :: _ -> r | [] -> "<ret>" in
            (r ^ i.i_path, i.i_mode))
          s.held)
      sts
  in
  List.sort_uniq compare pairs

let record_call ?(callback = false) env sts name loc pos =
  env.acc.calls <-
    {
      c_callee = name;
      c_loc = loc;
      c_held = held_snapshot sts;
      c_arg1 = (match pos with e :: _ -> Some (expr_key e) | [] -> None);
      c_callback = callback;
      c_allows = env.allows;
    }
    :: env.acc.calls

(* flush L3 pending mutations at the end of a latched section *)
let l3_flush env sts =
  List.iter
    (fun s ->
      List.iter
        (fun (mname, mloc) ->
          emit_once env ("l3:" ^ loc_key mloc) ~rule:"L3"
            ~hint:
              "log the mutation (Txn_manager.log_op / Log_manager.append) \
               before releasing the protecting latch"
            mloc
            ("page mutation " ^ mname
           ^ " reaches a latch release with no log append in the same \
              latched section"))
        s.pend)
    sts;
  List.map (fun s -> { s with pend = [] }) sts

let mark_dead s root loc =
  if String.contains root '.' then s
  else { s with dead = (root, Some loc) :: List.remove_assoc root s.dead }

(* Release the latch named [key] (mode [mode]) in one state. If nothing
   matches and the key roots at one of our parameters, the unit is
   releasing a latch its caller holds: record an [Unparam] atom. *)
let release_one env ~params s key mode loc =
  let matched = ref false in
  let rec drop = function
    | [] -> []
    | i :: rest when (not !matched) && item_named i key ->
      matched := true;
      if mode <> "?" && i.i_mode <> "?" && i.i_mode <> mode then
        emit env ~rule:"L1"
          ~hint:"release with the same mode that was acquired" loc
          ("latch " ^ key ^ " released in mode " ^ mode
         ^ " but acquired in mode " ^ i.i_mode ^ " at line "
         ^ string_of_int i.i_loc.Location.loc_start.pos_lnum);
      rest
    | i :: rest -> i :: drop rest
  in
  let held = drop s.held in
  let s = { s with held } in
  let root, path = split_key key in
  let s = mark_dead s root loc in
  if !matched then s
  else
    match param_index params root with
    | Some idx when path <> "" || List.length params > 0 ->
      {
        s with
        neg =
          (let atom =
             {
               Latch_effect.a_kind = Latch_effect.Unparam idx;
               a_path = path;
               a_mode = mode;
               a_loc = loc;
               a_origin = [];
             }
           in
           if
             List.exists
               (fun a -> Latch_effect.atom_key a = Latch_effect.atom_key atom)
               s.neg
           then s.neg
           else atom :: s.neg);
      }
    | _ -> s

(* Apply a callee's latch effect at a call site: each alternative forks
   the state; Ret produces a pending item, Param roots a new item at the
   argument, Unparam releases (or records a caller-level release of) the
   argument's latch. Bottom (no alternatives) kills the state — the
   callee never returns normally. *)
let apply_effect env sts name loc pos =
  match env.ctx.x_effects ~caller_module:env.modname name with
  | None -> List.map (fun s -> { s with alias = [] }) sts
  | Some eff ->
    let frame = name ^ " (" ^ short_loc loc ^ ")" in
    let nth_root i =
      match List.nth_opt pos i with Some e -> arg_root e | None -> None
    in
    let alias_roots = List.filter_map nth_root eff.Latch_effect.ret_params in
    let apply_atom s (atom : Latch_effect.atom) =
      match atom.a_kind with
      | Latch_effect.Ret ->
        {
          s with
          held =
            {
              i_roots = [];
              i_path = atom.a_path;
              i_mode = atom.a_mode;
              i_loc = loc;
              i_origin = frame :: atom.a_origin;
              i_pending = true;
            }
            :: s.held;
        }
      | Latch_effect.Param i -> (
        match nth_root i with
        | Some r ->
          {
            s with
            held =
              {
                i_roots = [ r ];
                i_path = atom.a_path;
                i_mode = atom.a_mode;
                i_loc = loc;
                i_origin = frame :: atom.a_origin;
                i_pending = false;
              }
              :: s.held;
          }
        | None -> s)
      | Latch_effect.Unparam i -> (
        match nth_root i with
        | Some r ->
          release_one env ~params:env.params s (r ^ atom.a_path) atom.a_mode
            loc
        | None -> s)
    in
    let out =
      List.concat_map
        (fun s ->
          let s = { s with alias = [] } in
          List.map
            (fun alt ->
              { (List.fold_left apply_atom s alt) with alias = alias_roots })
            eff.Latch_effect.alts)
        sts
    in
    dedup_states out

(* --- the walker ------------------------------------------------------ *)

let collect_allows env (attrs : attributes) =
  List.filter_map
    (fun (a : attribute) ->
      if a.attr_name.txt <> "lint.allow" then None
      else
        let k = loc_key a.attr_loc in
        match Hashtbl.find_opt env.allow_memo k with
        | Some cached -> cached
        | None ->
          let res =
            match allow_of_attribute a with
            | Some (Ok allow) ->
              env.all_allows := allow :: !(env.all_allows);
              Some allow
            | Some (Error (loc, why)) ->
              env.file_findings :=
                { f_rule = "allow"; f_loc = loc; f_msg = why;
                  f_hint = "use [@lint.allow \"Ln: justification\"]";
                  f_trace = []; f_allows = [] }
                :: !(env.file_findings);
              None
            | None -> None
          in
          Hashtbl.replace env.allow_memo k res;
          res)
    attrs

(* L7: storing a live page handle into mutable structure *)
let l7_store_check env sts loc what rhs =
  if env.in_l7 then begin
    let live = live_handle_roots env sts in
    (* a stored closure escapes everything it captures; a stored value
       escapes only handles reachable as the value itself *)
    let ids =
      if is_function_expr rhs then mentioned_idents rhs
      else value_root_idents rhs
    in
    let bound =
      if is_function_expr rhs then bound_idents rhs else Hashtbl.create 1
    in
    Hashtbl.iter
      (fun r _ ->
        if Hashtbl.mem live r && not (Hashtbl.mem bound r) then
          emit_once env
            ("store:" ^ loc_key loc ^ ":" ^ r)
            ~rule:"L7"
            ~hint:
              "a latched page handle must stay on the stack of the latched \
               section; copy out the data you need instead"
            loc
            ("page handle " ^ r ^ " (latched) escapes into " ^ what))
      ids
  end

(* L7: using a handle whose latch has been released *)
let l7_dead_use env sts loc what root =
  if env.in_l7 then
    List.iter
      (fun s ->
        match List.assoc_opt root s.dead with
        | Some (Some rel) when Hashtbl.mem env.acc.handles root ->
          emit_once env
            ("dead:" ^ loc_key loc ^ ":" ^ root)
            ~rule:"L7" ~hint:"re-latch the page before touching it" loc
            ("page handle " ^ root ^ " used (" ^ what
           ^ ") after its latch was released at line "
           ^ string_of_int rel.Location.loc_start.pos_lnum)
        | _ -> ())
      sts

(* L7: a closure value (returned / bound, not a direct call argument)
   capturing a live latched handle *)
let l7_capture_check env sts loc fn =
  if env.in_l7 then begin
    let live = live_handle_roots env sts in
    let ids = mentioned_idents fn in
    (* a name the closure re-binds (its own parameter, an inner let) is
       shadowed, not captured *)
    let bound = bound_idents fn in
    Hashtbl.iter
      (fun r _ ->
        if Hashtbl.mem live r && not (Hashtbl.mem bound r) then
          emit_once env
            ("capture:" ^ loc_key loc ^ ":" ^ r)
            ~rule:"L7"
            ~hint:
              "closures that outlive the latched section must not capture \
               the page handle"
            loc
            ("page handle " ^ r
           ^ " (latched) is captured by an escaping closure"))
      ids
  end

let rec walk env sts e =
  let env =
    match collect_allows env e.pexp_attributes with
    | [] -> env
    | extra -> { env with allows = extra @ env.allows }
  in
  match e.pexp_desc with
  | Pexp_apply (f, args) -> apply env sts f args
  | Pexp_let (_, vbs, body) ->
    (* local functions enter the lexical scope first (before their own
       bodies run), so recursive and sibling calls resolve to the scoped
       unit name rather than colliding with every other "go"/"walk" *)
    let env =
      let adds =
        List.filter_map
          (fun vb ->
            if is_function_expr vb.pvb_expr then
              match binding_name vb with
              | "_" -> None
              | n -> Some (n, env.uname ^ "." ^ n)
            else None)
          vbs
      in
      match adds with [] -> env | adds -> { env with scope = adds @ env.scope }
    in
    let sts = List.fold_left (fun sts vb -> binding env sts vb) sts vbs in
    walk env sts body
  | Pexp_sequence (a, b) ->
    (* a discarded value cannot carry a latch onward *)
    let sa = walk env sts a in
    let sa =
      List.map
        (fun s ->
          {
            s with
            held = List.filter (fun i -> not i.i_pending) s.held;
            alias = [];
          })
        sa
    in
    walk env sa b
  | Pexp_ifthenelse (c, t, eo) ->
    let sc = walk env sts c in
    let st = walk env sc t in
    let se = match eo with Some el -> walk env sc el | None -> sc in
    union st se
  | Pexp_match (scrut, cases) -> match_union env (walk env sts scrut) cases
  | Pexp_try (body, handlers) ->
    (* handlers approximated as running from the entry state *)
    let sb = walk env sts body in
    let sh = match_union env sts handlers in
    union sb sh
  | Pexp_fun (_, _, _, body) ->
    (* closure creation outside an argument position: check captures,
       then approximate the body as running zero or more times *)
    l7_capture_check env sts e.pexp_loc e;
    union sts (walk env sts body)
  | Pexp_function cases ->
    l7_capture_check env sts e.pexp_loc e;
    union sts (match_union env sts cases)
  | Pexp_while (c, b) ->
    let sc = walk env sts c in
    union sc (walk env sc b)
  | Pexp_for (_, a, b, _, body) ->
    let s1 = walk env (walk env sts a) b in
    union s1 (walk env s1 body)
  | Pexp_construct (_, Some a) | Pexp_variant (_, Some a) -> walk env sts a
  | Pexp_construct (_, None) | Pexp_variant (_, None) -> sts
  | Pexp_tuple es | Pexp_array es -> List.fold_left (walk env) sts es
  | Pexp_record (fields, base) ->
    let sts = match base with Some b -> walk env sts b | None -> sts in
    List.fold_left (fun sts (_, fe) -> walk env sts fe) sts fields
  | Pexp_field (b, fld) ->
    let fname =
      match List.rev (Longident.flatten fld.txt) with
      | f :: _ -> f
      | [] -> ""
    in
    (match b.pexp_desc with
    | Pexp_ident { txt = Longident.Lident r; _ } ->
      if fname <> "id" then l7_dead_use env sts e.pexp_loc ("." ^ fname) r
    | _ -> ());
    walk env sts b
  | Pexp_setfield (a, _, b) ->
    l7_store_check env sts e.pexp_loc "a mutable field" b;
    walk env (walk env sts a) b
  | Pexp_constraint (a, _)
  | Pexp_coerce (a, _, _)
  | Pexp_newtype (_, a)
  | Pexp_open (_, a)
  | Pexp_lazy a
  | Pexp_poly (a, _) -> walk env sts a
  | Pexp_letmodule (name, mexpr, body) ->
    (match (name.txt, mexpr.pmod_desc) with
    | Some n, Pmod_ident { txt; _ } ->
      Hashtbl.replace env.aliases n
        (String.split_on_char '.'
           (String.concat "." (strip_oib (Longident.flatten txt))))
    | _ -> ());
    walk env sts body
  | Pexp_letexception (_, body) -> walk env sts body
  | Pexp_assert a -> (
    match a.pexp_desc with
    | Pexp_construct ({ txt = Longident.Lident "false"; _ }, None) -> []
    | _ -> walk env sts a)
  | _ -> sts

(* union over match/function cases *)
and match_union env s0 cases =
  match cases with
  | [] -> s0
  | _ ->
    List.fold_left
      (fun acc c ->
        (* bind the scrutinee's pending latches to the case's variables *)
        let entry = bind_states env s0 (pat_vars c.pc_lhs) in
        let sg =
          match c.pc_guard with Some g -> walk env entry g | None -> entry
        in
        union acc (walk env sg c.pc_rhs))
      [] cases

(* Root pending items (and alias extensions) at freshly bound names. A
   pattern that binds nothing drops pending items: the alternative where
   a latch was returned cannot be the one this armless pattern matched,
   and a discarded binding cannot carry the latch onward. A name bound
   again is no longer a released handle (L7); unless it now holds a
   handle ([source], or a latch returned here), it is no live one
   either. *)
and bind_states ?(source = false) env sts vars =
  List.map
    (fun s ->
      let held =
        List.filter_map
          (fun i ->
            if i.i_pending then
              match vars with
              | [] -> None
              | _ -> Some { i with i_roots = vars; i_pending = false }
            else if
              s.alias <> [] && List.exists (fun r -> List.mem r s.alias) i.i_roots
            then Some { i with i_roots = vars @ i.i_roots }
            else Some i)
          s.held
      in
      let handle =
        source || List.exists (fun i -> i.i_pending && i.i_path <> "") s.held
      in
      let dead =
        List.filter_map
          (fun v ->
            if handle || not (Hashtbl.mem env.acc.handles v) then None
            else Some (v, None))
          vars
        @ List.filter (fun (r, _) -> not (List.mem r vars)) s.dead
      in
      { s with held; dead; alias = [] })
    sts

and binding env sts vb =
  if is_function_expr vb.pvb_expr then begin
    l7_capture_check env sts vb.pvb_loc vb.pvb_expr;
    if env.register then begin
      let allows = collect_allows env vb.pvb_attributes @ env.allows in
      sub_unit env
        ~name:(env.uname ^ "." ^ binding_name vb)
        ~loc:vb.pvb_loc ~allows vb.pvb_expr
    end;
    sts
  end
  else begin
    let env =
      match collect_allows env vb.pvb_attributes with
      | [] -> env
      | extra -> { env with allows = extra @ env.allows }
    in
    let vars = pat_vars vb.pvb_pat in
    (* a var bound to a configured handle source becomes a tracked page
       handle for L7 *)
    let source =
      match ((strip_fun vb.pvb_expr).pexp_desc, vars) with
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _), [ v ]
        when List.mem (resolve env txt) env.cfg.l7_sources ->
        Hashtbl.replace env.acc.handles v vb.pvb_loc;
        true
      | _ -> false
    in
    let sts = walk env sts vb.pvb_expr in
    (* vars bound to a returned latch are handles too *)
    List.iter
      (fun s ->
        if List.exists (fun i -> i.i_pending && i.i_path <> "") s.held then
          List.iter
            (fun v -> Hashtbl.replace env.acc.handles v vb.pvb_loc)
            vars)
      sts;
    bind_states ~source env sts vars
  end

and apply env sts f args =
  match f.pexp_desc with
  | Pexp_ident { txt; _ } -> (
    let name = resolve env txt in
    match (name, args) with
    | "|>", [ (_, a); (_, fn) ] -> pipe env sts a fn
    | "@@", [ (_, fn); (_, a) ] -> pipe env sts a fn
    | (":=" | "ref"), _ ->
      let rhs =
        match (name, positional args) with
        | ":=", [ _; r ] -> Some r
        | "ref", [ r ] -> Some r
        | _ -> None
      in
      (match rhs with
      | Some r ->
        l7_store_check env sts f.pexp_loc
          (if name = ":=" then "a reference cell" else "a ref")
          r
      | None -> ());
      walk_args env sts args
    | _ -> named_call env sts name f.pexp_loc args)
  | _ ->
    let sts = walk env sts f in
    walk_args env sts args

and pipe env sts a fn =
  let sts = walk env sts a in
  match (strip_fun fn).pexp_desc with
  | Pexp_fun (_, _, _, body) -> walk env sts body
  | Pexp_function cases -> match_union env sts cases
  | Pexp_ident { txt; _ } ->
    named_call env sts (resolve env txt) fn.pexp_loc []
  | _ -> walk env sts fn

and walk_args env sts args =
  List.fold_left
    (fun sts (_, a) ->
      match (strip_fun a).pexp_desc with
      | Pexp_fun (_, _, _, body) ->
        (* callback argument: zero-or-once inline, under the current
           latch state; capture is legal (it does not escape the call) *)
        union sts (walk env sts body)
      | Pexp_function cases -> union sts (match_union env sts cases)
      | Pexp_ident { txt = Longident.Ldot _ as lid; _ } ->
        (* module-qualified function value: a call-graph edge for
           reachability (the HOF may invoke it), no effect application *)
        record_call ~callback:true env sts (resolve env lid) a.pexp_loc [];
        sts
      | _ -> walk env sts a)
    sts args

and named_call env sts name loc args =
  let pos = positional args in
  match name with
  | "Latch.acquire" -> (
    match pos with
    | latch_e :: mode_e :: _ ->
      let sts = walk_args env sts args in
      let key = expr_key latch_e and mode = mode_key mode_e in
      record_call env sts name loc pos;
      env.acc.acq <- true;
      let root, path = split_key key in
      List.map
        (fun s ->
          let s = { s with dead = List.remove_assoc root s.dead } in
          {
            s with
            held =
              {
                i_roots = [ root ];
                i_path = path;
                i_mode = mode;
                i_loc = loc;
                i_origin = [];
                i_pending = false;
              }
              :: s.held;
            alias = [];
          })
        sts
    | _ ->
      record_call env sts name loc pos;
      sts)
  | "Latch.release" -> (
    match pos with
    | latch_e :: mode_e :: _ ->
      let sts = walk_args env sts args in
      let key = expr_key latch_e and mode = mode_key mode_e in
      record_call env sts name loc pos;
      let sts = l3_flush env sts in
      List.map
        (fun s ->
          { (release_one env ~params:env.params s key mode loc) with
            alias = [] })
        sts
    | _ ->
      record_call env sts name loc pos;
      sts)
  | "Latch.with_latch" -> (
    match pos with
    | latch_e :: mode_e :: rest ->
      let key = expr_key latch_e and mode = mode_key mode_e in
      record_call env sts name loc pos;
      env.acc.acq <- true;
      let root, path = split_key key in
      let inner =
        List.map
          (fun s ->
            {
              s with
              held =
                {
                  i_roots = [ root ];
                  i_path = path;
                  i_mode = mode;
                  i_loc = loc;
                  i_origin = [];
                  i_pending = false;
                }
                :: s.held;
            })
          sts
      in
      let inner =
        match rest with
        | fn :: _ -> (
          match (strip_fun fn).pexp_desc with
          | Pexp_fun (_, _, _, body) -> walk env inner body
          | Pexp_function cases -> match_union env inner cases
          | Pexp_ident { txt; _ } ->
            named_call env inner (resolve env txt) fn.pexp_loc []
          | _ -> walk env inner fn)
        | [] -> inner
      in
      let inner = l3_flush env inner in
      List.map
        (fun s ->
          { (release_one env ~params:env.params s key mode loc) with
            alias = [] })
        inner
    | _ ->
      record_call env sts name loc pos;
      sts)
  | _ when List.mem name raise_names ->
    let sts = walk_args env sts args in
    record_call env sts name loc pos;
    []
  | _ ->
    let sts = walk_args env sts args in
    (* dead-handle arguments *)
    List.iter
      (fun e ->
        match e.pexp_desc with
        | Pexp_ident { txt = Longident.Lident r; _ } ->
          l7_dead_use env sts loc ("argument to " ^ name) r
        | _ -> ())
      pos;
    record_call env sts name loc pos;
    let sts =
      if env.in_l3 && List.mem name env.cfg.l3_mutators then
        List.map (fun s -> { s with pend = (name, loc) :: s.pend }) sts
      else if
        List.mem name env.cfg.l3_appends
        || env.ctx.x_appends ~caller_module:env.modname name
      then List.map (fun s -> { s with pend = [] }) sts
      else sts
    in
    apply_effect env sts name loc pos

(* --- units ----------------------------------------------------------- *)

(* Run a unit's transfer function under [ctx] and store the results
   (calls, local findings, latch effect) into [u] in place. This is the
   function the dataflow solver re-invokes via [u_rerun]. *)
and do_run env u expr ctx =
  let acc = fresh_acc () in
  let env =
    { env with
      allows = u.u_allows;
      acc;
      ctx;
      params = u.u_params;
      uname = u.u_name;
    }
  in
  let rec body_of e =
    match e.pexp_desc with
    | Pexp_fun (_, _, _, b) -> body_of b
    | Pexp_newtype (_, b) -> body_of b
    | Pexp_constraint (b, _) -> body_of b
    | _ -> e
  in
  let b = body_of expr in
  let exits =
    match b.pexp_desc with
    | Pexp_function cases ->
      match_union env [ empty_state ] cases
    | _ -> walk env [ empty_state ] b
  in
  let tails =
    match b.pexp_desc with
    | Pexp_function _ -> Hashtbl.create 1
    | _ -> tail_value_idents b
  in
  let returned s r = Hashtbl.mem tails r || List.mem r s.alias in
  let ret_params = ref [] in
  let alts =
    List.map
      (fun s ->
        List.iter
          (fun p ->
            match param_index u.u_params p with
            | Some i when returned s p ->
              if not (List.mem i !ret_params) then
                ret_params := i :: !ret_params
            | _ -> ())
          u.u_params;
        let atoms =
          List.filter_map
            (fun i ->
              if i.i_pending || List.exists (returned s) i.i_roots then
                Some
                  {
                    Latch_effect.a_kind = Latch_effect.Ret;
                    a_path = i.i_path;
                    a_mode = i.i_mode;
                    a_loc = i.i_loc;
                    a_origin = i.i_origin;
                  }
              else
                match
                  List.find_map (fun r -> param_index u.u_params r) i.i_roots
                with
                | Some idx ->
                  Some
                    {
                      Latch_effect.a_kind = Latch_effect.Param idx;
                      a_path = i.i_path;
                      a_mode = i.i_mode;
                      a_loc = i.i_loc;
                      a_origin = i.i_origin;
                    }
                | None ->
                  (* acquired here (or received from a callee), reachable
                     from no returned value and no parameter: leaked *)
                  let what =
                    match i.i_roots with
                    | r :: _ -> "latch " ^ r ^ i.i_path
                    | [] -> "a returned latch"
                  in
                  emit_once ~trace:i.i_origin env
                    ("l1:" ^ loc_key i.i_loc)
                    ~rule:"L1"
                    ~hint:
                      "balance the acquire on every path, use \
                       Latch.with_latch, or justify the ownership \
                       transfer with [@lint.allow]"
                    i.i_loc
                    (what ^ " (" ^ i.i_mode
                   ^ ") acquired here is not released on every path of "
                   ^ u.u_name);
                  None)
            s.held
        in
        atoms @ s.neg)
      exits
  in
  (* L7: returning a handle whose latch was already released *)
  if env.in_l7 && exits <> [] then
    Hashtbl.iter
      (fun v _ ->
        if Hashtbl.mem acc.handles v then
          match
            if
              List.for_all
                (fun s -> Option.join (List.assoc_opt v s.dead) <> None)
                exits
            then Option.join (List.assoc_opt v (List.hd exits).dead)
            else None
          with
          | Some rel ->
            emit env ~rule:"L7"
              ~hint:"return the page id (or re-latch) instead" rel
              ("page handle " ^ v
             ^ " is returned from " ^ u.u_name
             ^ " after its latch was released")
          | None -> ())
      tails;
  u.u_calls <- List.rev acc.calls;
  u.u_acquires_latch <- acc.acq;
  u.u_local <- List.rev acc.local;
  u.u_effect <- Latch_effect.make ~alts ~ret_params:!ret_params

and analyze_unit env ~name ~loc ~allows expr =
  let params = fun_params (strip_fun expr) in
  let rec u =
    {
      u_module = env.modname;
      u_file = env.file;
      u_name = name;
      u_loc = loc;
      u_allows = allows;
      u_params = params;
      u_calls = [];
      u_acquires_latch = false;
      u_local = [];
      u_effect = Latch_effect.bottom;
      u_rerun = (fun ctx -> do_run { env with register = false } u expr ctx);
    }
  in
  env.units := u :: !(env.units);
  do_run env u expr env.ctx

and sub_unit env ~name ~loc ~allows expr =
  analyze_unit env ~name ~loc ~allows expr

(* --- structure traversal --------------------------------------------- *)

let register_module_binding env (mb : module_binding) prefix process =
  match mb.pmb_name.txt with
  | None -> ()
  | Some n -> (
    let rec go (me : module_expr) =
      match me.pmod_desc with
      | Pmod_ident { txt; _ } ->
        Hashtbl.replace env.aliases n (strip_oib (Longident.flatten txt))
      | Pmod_structure items -> process (prefix ^ n ^ ".") items
      | Pmod_functor (_, body) -> go body
      | Pmod_constraint (m, _) -> go m
      | _ -> ()
    in
    go mb.pmb_expr)

let summarize_source ?(config = default_config) ~file src =
  let modname = module_name_of_file file in
  let units = ref [] in
  let file_findings = ref [] in
  let all_allows = ref [] in
  let aliases = Hashtbl.create 16 in
  let env0 =
    {
      cfg = config;
      aliases;
      modname;
      in_l3 = List.mem modname config.l3_modules;
      in_l7 = not (List.mem modname config.l7_exempt_modules);
      allows = [];
      acc = fresh_acc ();
      units;
      file;
      file_findings;
      all_allows;
      allow_memo = Hashtbl.create 16;
      register = true;
      ctx = initial_ctx;
      params = [];
      uname = "";
      scope = [];
    }
  in
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf file;
  Location.input_name := file;
  match Parse.implementation lexbuf with
  | exception exn ->
    let msg =
      match Location.error_of_exn exn with
      | Some (`Ok report) ->
        let s = Format.asprintf "%a" Location.print_report report in
        String.map (function '\n' -> ' ' | c -> c) s
      | _ -> Printexc.to_string exn
    in
    {
      fs_file = file;
      fs_module = modname;
      fs_units = [];
      fs_allows = [];
      fs_findings =
        [
          {
            f_rule = "parse";
            f_loc = Location.in_file file;
            f_msg = "parse error: " ^ msg;
            f_hint = "fix the syntax error";
            f_trace = [];
            f_allows = [];
          };
        ];
    }
  | str ->
    (* pre-scan: module aliases + file-level floating allows *)
    let file_allows = ref [] in
    let rec prescan items =
      List.iter
        (fun item ->
          match item.pstr_desc with
          | Pstr_module mb -> (
            match (mb.pmb_name.txt, mb.pmb_expr.pmod_desc) with
            | Some n, Pmod_ident { txt; _ } ->
              Hashtbl.replace aliases n (strip_oib (Longident.flatten txt))
            | Some _, Pmod_structure inner -> prescan inner
            | _ -> ())
          | Pstr_attribute attr -> (
            let k = loc_key attr.attr_loc in
            if not (Hashtbl.mem env0.allow_memo k) then
              match allow_of_attribute attr with
              | Some (Ok allow) ->
                Hashtbl.replace env0.allow_memo k (Some allow);
                all_allows := allow :: !all_allows;
                file_allows := allow :: !file_allows
              | Some (Error (loc, why)) ->
                Hashtbl.replace env0.allow_memo k None;
                file_findings :=
                  {
                    f_rule = "allow";
                    f_loc = loc;
                    f_msg = why;
                    f_hint = "use [@@@lint.allow \"Ln: justification\"]";
                    f_trace = [];
                    f_allows = [];
                  }
                  :: !file_findings
              | None -> ())
          | _ -> ())
        items
    in
    prescan str;
    let rec process prefix items =
      List.iter
        (fun item ->
          match item.pstr_desc with
          | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                let allows =
                  collect_allows env0 vb.pvb_attributes @ !file_allows
                in
                analyze_unit env0
                  ~name:(prefix ^ binding_name vb)
                  ~loc:vb.pvb_loc ~allows vb.pvb_expr)
              vbs
          | Pstr_eval (e, attrs) ->
            let allows = collect_allows env0 attrs @ !file_allows in
            analyze_unit env0 ~name:(prefix ^ "_toplevel") ~loc:item.pstr_loc
              ~allows e
          | Pstr_module mb -> register_module_binding env0 mb prefix process
          | _ -> ())
        items
    in
    process "" str;
    {
      fs_file = file;
      fs_module = modname;
      fs_units = List.rev !units;
      fs_findings = List.rev !file_findings;
      fs_allows = List.rev !all_allows;
    }

let summarize_file ?config file =
  let ic = open_in_bin file in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  summarize_source ?config ~file src
