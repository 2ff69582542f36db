open Oib_storage

type Durable_kv.value +=
  | Merge_ckpt of {
      inputs : string list;
      counters : int array; (* keys output per input stream *)
      output : string;
      output_len : int;
    }

exception Injected_crash

let merge ?stop_after ?charge kv store ~ckpt_id ~inputs ~output ~ckpt_every =
  (* establish positions: fresh merge or resumption from a checkpoint *)
  let counters, out =
    match Durable_kv.get kv ckpt_id with
    | Some (Merge_ckpt c) when c.output = output && c.inputs = inputs ->
      let out = Run_store.find_run store output in
      Run_store.truncate out c.output_len;
      (Array.copy c.counters, out)
    | _ ->
      let out =
        match Run_store.find_run store output with
        | r ->
          (* stale partial output from a crash before the first checkpoint *)
          Run_store.truncate r 0;
          r
        | exception Not_found ->
          (* sized once: the output holds every input key *)
          let capacity =
            List.fold_left
              (fun acc n -> acc + Run_store.length (Run_store.find_run store n))
              0 inputs
          in
          Run_store.create_run ~capacity store ~name:output
      in
      (Array.make (List.length inputs) 0, out)
  in
  let runs = Array.of_list (List.map (Run_store.find_run store) inputs) in
  (* inputs do not change while they are merged *)
  let lengths = Array.map Run_store.length runs in
  (* pull positions: resume reads each stream from its counter *)
  let pulled = Array.copy counters in
  let streams =
    Array.mapi
      (fun i run () ->
        if pulled.(i) < lengths.(i) then begin
          let k = Run_store.get run pulled.(i) in
          pulled.(i) <- pulled.(i) + 1;
          Some k
        end
        else None)
      runs
  in
  let tree = Loser_tree.make ?charge ~streams () in
  let since_ckpt = ref 0 in
  let take_checkpoint () =
    Run_store.force out;
    Durable_kv.set kv ckpt_id
      (Merge_ckpt
         {
           inputs;
           counters = Array.copy counters;
           output;
           output_len = Run_store.length out;
         })
  in
  let emitted = ref 0 in
  let rec loop () =
    match Loser_tree.pop tree with
    | None -> ()
    | Some (key, stream) ->
      (match stop_after with
      | Some n when !emitted >= n -> raise Injected_crash
      | _ -> ());
      Run_store.append out key;
      counters.(stream) <- counters.(stream) + 1;
      incr emitted;
      incr since_ckpt;
      if !since_ckpt >= ckpt_every then begin
        take_checkpoint ();
        since_ckpt := 0
      end;
      loop ()
  in
  loop ();
  Run_store.force out;
  Durable_kv.remove kv ckpt_id;
  out

(* A group merge is "already done" (completed before a crash) when its
   output run exists with forced content and its in-pass checkpoint was
   cleared at completion. An empty or mid-merge output re-merges — the
   operation is idempotent. *)
let group_merge ?charge kv store ~gid ~inputs ~output ~ckpt_every =
  let completed_before_crash =
    Durable_kv.get kv gid = None
    &&
    match Run_store.find_run store output with
    | r -> Run_store.forced_length r > 0
    | exception Not_found -> false
  in
  if completed_before_crash then Run_store.find_run store output
  else merge ?charge kv store ~ckpt_id:gid ~inputs ~output ~ckpt_every

let merge_all ?charge kv store ~ckpt_id ~inputs ~output ~fan_in ~ckpt_every =
  if fan_in < 2 then invalid_arg "Merge_phase.merge_all: fan_in < 2";
  let rec group acc cur cnt = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if cnt = fan_in then group (List.rev cur :: acc) [ x ] 1 rest
      else group acc (x :: cur) (cnt + 1) rest
  in
  let rec passes pass inputs =
    match inputs with
    | [] -> invalid_arg "Merge_phase.merge_all: no inputs"
    | _ when List.length inputs <= fan_in ->
      group_merge ?charge kv store
        ~gid:(Printf.sprintf "%s/p%d/final" ckpt_id pass)
        ~inputs ~output ~ckpt_every
    | _ ->
      let groups = group [] [] 0 inputs in
      let outputs =
        List.mapi
          (fun gi grp ->
            match grp with
            | [ single ] -> single (* odd remainder passes through *)
            | _ ->
              let oname = Printf.sprintf "%s/p%d/out-%03d" ckpt_id pass gi in
              Run_store.name
                (group_merge ?charge kv store
                   ~gid:(Printf.sprintf "%s/p%d/g%d" ckpt_id pass gi)
                   ~inputs:grp ~output:oname ~ckpt_every))
          groups
      in
      passes (pass + 1) outputs
  in
  passes 0 inputs
