open Oib_util
open Oib_storage
module Latch = Oib_sim.Latch

type state = Oib_wal.Log_record.key_state

open Bt_node

type t = {
  pool : Buffer_pool.t;
  kv : Durable_kv.t;
  index_id : int;
  capacity : int;
  uniq : bool;
  mutable root : int;
  pages : (int, unit) Hashtbl.t;
      (* every page of the tree, added on allocation *)
  mutable dirty : Page.t list;
      (* pages dirtied since the last image, each once (a page joins when
         its dirty bit goes up; the image clears both) *)
}

type cursor = { mutable pid : int }

type Durable_kv.value +=
  | Btree_meta of {
      root : int;
      capacity : int;
      uniq : bool;
      image_lsn : Oib_wal.Lsn.t;
      pages : int list;
    }

let meta_key id = Printf.sprintf "index/%d/meta" id

let metrics t = Buffer_pool.metrics t.pool

let trace t = Oib_sim.Sched.trace (Buffer_pool.sched t.pool)

(* Pages visited root-to-leaf; the per-operation traversal cost of §4. *)
let observe_traversal t depth =
  Oib_obs.Trace.observe (trace t) "traversal_cost" depth

let max_entry t = t.capacity / 4

let node_of (p : Page.t) = Bt_node.of_payload p.payload

let alloc_node t node =
  let p =
    Buffer_pool.new_page t.pool ~kind:Bt_node.kind ~payload:(Node node)
  in
  p.Page.no_steal <- true;
  Hashtbl.replace t.pages p.Page.id ();
  t.dirty <- p :: t.dirty;
  p

let dirty t (p : Page.t) =
  if not p.dirty then t.dirty <- p :: t.dirty;
  Page.mark_dirty p

let page t id =
  let p = Buffer_pool.get t.pool ~kind:Bt_node.kind id in
  p.Page.no_steal <- true;
  p

let page_ids t = Hashtbl.fold (fun id () acc -> id :: acc) t.pages []

(* --- create / persistence --- *)

let persist_meta t ~image_lsn =
  Durable_kv.set t.kv (meta_key t.index_id)
    (Btree_meta
       {
         root = t.root;
         capacity = t.capacity;
         uniq = t.uniq;
         image_lsn;
         pages = page_ids t;
       })

let create pool kv ~index_id ~page_capacity ~unique =
  if Durable_kv.mem kv (meta_key index_id) then
    invalid_arg "Btree.create: index already exists";
  let t =
    { pool; kv; index_id; capacity = page_capacity; uniq = unique; root = -1;
      pages = Hashtbl.create 64; dirty = [] }
  in
  let root = alloc_node t (Leaf (new_leaf ())) in
  t.root <- root.Page.id;
  Buffer_pool.flush_page pool root;
  t.dirty <- [];
  persist_meta t ~image_lsn:Oib_wal.Lsn.nil;
  t

let destroy t = Durable_kv.remove t.kv (meta_key t.index_id)

let open_from_image pool kv ~index_id =
  match Durable_kv.get kv (meta_key index_id) with
  | Some (Btree_meta m) ->
    let t =
      { pool; kv; index_id; capacity = m.capacity; uniq = m.uniq; root = m.root;
        pages = Hashtbl.create 64; dirty = [] }
    in
    (* Pages allocated after the image was taken are deallocated (paper
       §3.2.4); evict any volatile trace so traversals see the image. *)
    List.iter
      (fun id ->
        Buffer_pool.evict pool id;
        Hashtbl.replace t.pages id ())
      m.pages;
    t
  | _ -> raise Not_found

let index_id t = t.index_id
let unique t = t.uniq
let page_capacity t = t.capacity
let root_page_id t = t.root

let image_lsn t =
  match Durable_kv.get t.kv (meta_key t.index_id) with
  | Some (Btree_meta m) -> m.image_lsn
  | _ -> Oib_wal.Lsn.nil

let checkpoint_image t ~lsn =
  (* Tree pages carry no page LSN, so flush_page's WAL guard cannot force
     the log for us: the image may capture effects of in-flight
     transactions, and unless their Begin/op records are durable first,
     a crash would keep those effects without making the txn a loser.
     Force the whole log before the image. *)
  Oib_wal.Log_manager.flush_all (Buffer_pool.log t.pool);
  (* Sharp snapshot: no yields occur between these flushes under the
     cooperative scheduler. Only pages dirtied since the last image can
     differ from it. *)
  let dirty = t.dirty in
  t.dirty <- [];
  List.iter (Buffer_pool.flush_page t.pool) dirty;
  persist_meta t ~image_lsn:lsn

(* --- descent --- *)

let leaf_safe t l = leaf_bytes l + max_entry t <= t.capacity

let internal_safe t n = n.ibytes + max_entry t + 12 <= t.capacity

let node_safe t p =
  match node_of p with
  | Leaf l -> leaf_safe t l
  | Internal n -> internal_safe t n

(* Write descent: X-latch crabbing from the root, releasing all held
   ancestors whenever the newly latched node is safe (cannot split). On
   return the leaf is X-latched and [held] lists the still-latched unsafe
   ancestors, innermost first, each with the child index taken. *)
let descend_write t key =
  Oib_sim.Metrics.add (metrics t) Tree_traversals 1;
  let depth = ref 1 in
  let rec go p held =
    match node_of p with
    | Leaf _ -> (p, held)
    | Internal n ->
      let i = child_for n key in
      let child = page t n.children.(i) in
      Latch.acquire child.Page.latch X;
      incr depth;
      if node_safe t child then begin
        List.iter (fun (q, _, _) -> Latch.release q.Page.latch X) held;
        Latch.release p.Page.latch X;
        go child []
      end
      else go child ((p, n, i) :: held)
  in
  let root = page t t.root in
  Latch.acquire root.Page.latch X;
  let leaf = go root [] in
  observe_traversal t !depth;
  leaf

(* Read descent: S-latch crabbing; returns the S-latched leaf page. *)
let descend_read t key =
  let m = metrics t in
  Oib_sim.Metrics.add m Tree_traversals 1;
  let depth = ref 1 in
  let rec go p =
    match node_of p with
    | Leaf _ -> p
    | Internal n ->
      let i = child_for n key in
      let child = page t n.children.(i) in
      Latch.acquire child.Page.latch S;
      Latch.release p.Page.latch S;
      incr depth;
      go child
  in
  let root = page t t.root in
  Latch.acquire root.Page.latch S;
  let leaf = go root in
  observe_traversal t !depth;
  leaf

(* Leftmost leaf, latched in [mode] by crabbing. *)
let leftmost_leaf t mode =
  let rec go p =
    match node_of p with
    | Leaf _ -> p
    | Internal n ->
      let child = page t n.children.(0) in
      Latch.acquire child.Page.latch mode;
      Latch.release p.Page.latch mode;
      go child
  in
  let root = page t t.root in
  Latch.acquire root.Page.latch mode;
  go root

(* --- splits --- *)

(* Install a fresh page around a split-off right node and wire the leaf
   chain. *)
let install_right t (left : Page.t) right_node =
  let right = alloc_node t right_node in
  (match (node_of left, right_node) with
  | Leaf l, Leaf _ -> leaf_set_next l right.Page.id
  | _ -> ());
  (* the left page lost entries / gained a sibling link *)
  dirty t left;
  right

(* Propagate a (sep, right page id) insertion up the held ancestor chain.
   The outermost held node is guaranteed (by the safe-release policy) to
   absorb the last separator, unless it is the root, which may grow a new
   level. All pages involved are already X-latched by us. *)
let rec propagate t held sep right_pid =
  let m = metrics t in
  Oib_sim.Metrics.add m Page_splits 1;
  match held with
  | [] ->
    (* split reached the root: grow a new root *)
    let old_root = t.root in
    let new_root =
      alloc_node t
        (Internal (new_internal ~children:[| old_root; right_pid |] ~seps:[| sep |]))
    in
    t.root <- new_root.Page.id
  | (p, n, i) :: rest ->
    internal_insert_sep n ~at:i sep ~right:right_pid;
    dirty t p;
    if n.ibytes > t.capacity && n.nc >= 4 then begin
      let right_n, push_up = internal_split_half n in
      let right_page = alloc_node t (Internal right_n) in
      (* If our own child index moved to the new right node, nothing more
         to do here: we only continue upward with the push-up separator. *)
      propagate t rest push_up right_page.Page.id
    end

(* Split [leaf] (X-latched, with [held] ancestors) to make room for [key].
   Returns the leaf (left or right page) into which [key] now fits; that
   page is X-latched, all ancestors and the sibling are released/never
   latched. *)
let split_leaf t (p : Page.t) (l : leaf) held key ~ib_split =
  let choose_std () =
    let right_node, sep = leaf_split_half l in
    let right = install_right t p (Leaf right_node) in
    propagate t held sep right.Page.id;
    if Ikey.compare key sep < 0 then (p, l)
    else begin
      Latch.release p.Page.latch X;
      Latch.acquire right.Page.latch X;
      (right, right_node)
    end
  in
  if not ib_split then choose_std ()
  else begin
    let i = leaf_lower_bound l key in
    if i >= leaf_n l then begin
      (* nothing higher: open a fresh rightmost leaf for the key *)
      let right_node = new_leaf () in
      leaf_set_next right_node (leaf_next l);
      leaf_set_high right_node (leaf_high l);
      let right = install_right t p (Leaf right_node) in
      leaf_set_high l (Some key);
      dirty t p;
      propagate t held key right.Page.id;
      Latch.release p.Page.latch X;
      Latch.acquire right.Page.latch X;
      (right, right_node)
    end
    else begin
      (* move only the higher keys (inserted by transactions) right *)
      let right_node, _sep0 = leaf_split_above l key in
      let right = install_right t p (Leaf right_node) in
      if leaf_fits l ~capacity:t.capacity key then begin
        (* the key becomes the left leaf's last entry, so the separator
           must be computed against it, not the pre-split last *)
        let sep =
          Bt_node.separator ~before:key ~first:(leaf_key right_node 0)
        in
        leaf_set_high l (Some sep);
        dirty t p;
        propagate t held sep right.Page.id;
        (p, l)
      end
      else begin
        (* left is still too full: the key leads the right node instead *)
        leaf_set_high l (Some key);
        dirty t p;
        propagate t held key right.Page.id;
        Latch.release p.Page.latch X;
        Latch.acquire right.Page.latch X;
        (right, right_node)
      end
    end
  end

(* --- compound key operations --- *)

let state_of_flag = function
  | true -> (Oib_wal.Log_record.Pseudo_deleted : state)
  | false -> Oib_wal.Log_record.Present

let read_state t key =
  let p = descend_read t key in
  let l = leaf_of_payload p.Page.payload in
  let st =
    match leaf_find l key with
    | None -> (Oib_wal.Log_record.Absent : state)
    | Some i -> state_of_flag (leaf_pseudo l i)
  in
  Latch.release p.Page.latch S;
  st

(* Crabbing releases ancestors at nodes with room for [max_entry] more
   bytes, so no larger key may enter the tree: refused before any
   latch. *)
let check_size t key =
  if Ikey.encoded_size key > max_entry t then
    invalid_arg "Btree: key larger than max entry size"

(* The one transition table. [j] is [key]'s lower bound in the X-latched
   leaf [l]: move [key] to [target] or, with [add] (the index builder's
   insert, NSF §2.2.3, whose [target] is [Present]), insert it only if it
   is absent, and count the change. Returns the state before. An added
   entry must fit; the caller marks the page dirty. *)
let apply t l j key ~add (target : state) : state =
  let m = metrics t in
  if j < leaf_n l && leaf_compare l j key = 0 then begin
    let before = state_of_flag (leaf_pseudo l j) in
    (if add then Oib_sim.Metrics.add m Keys_rejected_duplicate 1
     else
       match target with
       | Absent -> leaf_remove_at l j
       | Present -> leaf_set_flag l j false
       | Pseudo_deleted ->
         leaf_set_flag l j true;
         if before <> Pseudo_deleted then
           Oib_sim.Metrics.add m Pseudo_deletes 1);
    before
  end
  else begin
    (match target with
    | Absent -> ()
    | Present | Pseudo_deleted ->
      let pseudo = target = Pseudo_deleted in
      Oib_sim.Metrics.add m Keys_inserted 1;
      if pseudo then Oib_sim.Metrics.add m Pseudo_deletes 1;
      leaf_insert_at l j key ~pseudo);
    Absent
  end

(* [apply] changed the leaf: added, removed or re-flagged an entry *)
let wrote ~add (target : state) (before : state) =
  if before = Absent then target <> Absent else not add

(* A root-to-leaf X descent, then a split if [key] must be added to a
   full leaf ([ib_split] selects §2.3.1's split): returns the leaf that
   takes [key], X-latched, and the ancestors still held. *)
let descend_for t ~ib_split key (target : state) =
  let p, held = descend_write t key in
  let l = leaf_of_payload p.Page.payload in
  if
    target = Absent
    || leaf_fits l ~capacity:t.capacity key
    || (let j = leaf_lower_bound l key in
        j < leaf_n l && leaf_compare l j key = 0)
  then (p, held)
  else (fst (split_leaf t p l held key ~ib_split), held)

let new_cursor t = { pid = t.root }

(* [key] keeps the size rule, is at or above the leaf's first entry and
   below its high key, so it belongs to [l], and fits there with no
   split: the one test for entering the cursor leaf and for staying in a
   latched leaf. *)
let takes t l key =
  Ikey.encoded_size key <= max_entry t
  && leaf_n l > 0
  && leaf_compare l 0 key <= 0
  && (match leaf_high l with None -> true | Some h -> Ikey.compare key h < 0)
  && leaf_fits l ~capacity:t.capacity key

(* The cursor leaf, X-latched, if it takes [key]. *)
let latch_cursor t cursor key =
  match Buffer_pool.get t.pool ~kind:Bt_node.kind cursor.pid with
  | exception Not_found -> None
  | p -> (
    match p.Page.payload with
    | Node (Leaf l) ->
      Latch.acquire p.Page.latch X;
      if leaf_of_payload p.Page.payload == l && takes t l key then Some (p, l)
      else begin
        Latch.release p.Page.latch X;
        None
      end
    | _ -> None)

(* End a tenure on a leaf: one dirty mark, its fast-path count, then the
   release of the leaf and of any ancestors its descent kept. *)
let leave t p held ~wrote ~fast =
  if wrote then dirty t p;
  Oib_sim.Metrics.add (metrics t) Fast_path_inserts fast;
  Latch.release p.Page.latch X;
  List.iter (fun (q, _, _) -> Latch.release q.Page.latch X) held

(* One key through a descent; the cursor, if any, follows the leaf. *)
let apply_descended t ~ib_split cursor key ~add target =
  let p, held = descend_for t ~ib_split key target in
  let l = leaf_of_payload p.Page.payload in
  let before = apply t l (leaf_lower_bound l key) key ~add target in
  (match cursor with Some c -> c.pid <- p.Page.id | None -> ());
  leave t p held ~wrote:(wrote ~add target before) ~fast:0;
  before

(* A key a tenure takes without a descent is a fast-path key, unless it
   is a rejected duplicate. *)
let counts_fast ~add (before : state) = not add || before = Absent

let run t ~ib_split ~add ~cursor ~key_at ~state_at ~from ~upto f =
  let rec enter i =
    if i >= upto then i
    else begin
      let key = key_at i in
      check_size t key;
      match latch_cursor t cursor key with
      | Some (p, l) -> hold p l [] i key ~descended:false
      | None -> descend i key
    end
  and descend i key =
    let p, held = descend_for t ~ib_split key (state_at i) in
    cursor.pid <- p.Page.id;
    hold p (leaf_of_payload p.Page.payload) held i key ~descended:true
  (* keys go into the X-latched leaf while they belong there; only the
     first key of a descent was not a fast-path key *)
  and hold p l held i key ~descended =
    let i = ref i and key = ref key in
    let changed = ref false and fast = ref 0 and first = ref descended in
    let go_on = ref true and stay = ref true in
    while !stay do
      let k = !key and target = state_at !i in
      let before = apply t l (leaf_lower_bound l k) k ~add target in
      if wrote ~add target before then changed := true;
      if counts_fast ~add before && not !first then incr fast;
      first := false;
      go_on := f !i k before;
      incr i;
      stay :=
        !go_on && !i < upto
        && begin
             key := key_at !i;
             takes t l !key
           end
    done;
    leave t p held ~wrote:!changed ~fast:!fast;
    (* the key that stopped the loop needs another leaf *)
    if !go_on && !i < upto then begin
      check_size t !key;
      descend !i !key
    end
    else !i
  in
  enter from

let set_state t key target =
  check_size t key;
  apply_descended t ~ib_split:false None key ~add:false target

let set_run t ~cursor ~key_at ~state_at ~from ~upto f =
  run t ~ib_split:false ~add:false ~cursor ~key_at ~state_at ~from ~upto f

let outcome (before : state) =
  if before = Absent then `Inserted else `Rejected before

let insert_run t ?(ib_split = false) ~cursor ~key_at ~from ~upto f =
  run t ~ib_split ~add:true ~cursor ~key_at
    ~state_at:(fun _ -> Oib_wal.Log_record.Present)
    ~from ~upto
    (fun _ key before -> f key (outcome before))

let insert_if_absent t ?(ib_split = false) ?cursor key =
  check_size t key;
  outcome
    (match cursor with
    | None -> apply_descended t ~ib_split None key ~add:true Present
    | Some c -> (
      match latch_cursor t c key with
      | None -> apply_descended t ~ib_split cursor key ~add:true Present
      | Some (p, l) ->
        let before = apply t l (leaf_lower_bound l key) key ~add:true Present in
        leave t p []
          ~wrote:(wrote ~add:true Present before)
          ~fast:(Bool.to_int (counts_fast ~add:true before));
        before))

let find_kv t kv =
  let probe = Ikey.make kv Rid.minus_infinity in
  let p = descend_read t probe in
  let acc = ref [] in
  let rec walk (p : Page.t) =
    let l = leaf_of_payload p.Page.payload in
    (* entries from the lower bound on sort at or above [probe], so a key
       value comparing equal is [kv] *)
    let i = ref (leaf_lower_bound l probe) in
    while !i < leaf_n l && leaf_compare_kv l !i probe = 0 do
      acc := leaf_get l !i :: !acc;
      incr i
    done;
    (* continue right only if we did not see a larger key value and the
       sibling may still hold entries with this key value *)
    let continue_next =
      !i >= leaf_n l
      &&
      match leaf_high l with
      | Some h -> Ikey.compare_kv h probe <= 0
      | None -> false
    in
    if continue_next && leaf_next l >= 0 then begin
      let np = page t (leaf_next l) in
      Latch.acquire np.Page.latch S;
      Latch.release p.Page.latch S;
      walk np
    end
    else Latch.release p.Page.latch S
  in
  walk p;
  List.rev !acc

let iter_range t ?lo ?hi f =
  let start_key =
    match lo with
    | Some kv -> Ikey.make kv Rid.minus_infinity
    | None -> Ikey.make "" Rid.minus_infinity
  in
  let p =
    match lo with Some _ -> descend_read t start_key | None -> leftmost_leaf t S
  in
  let hi_key = Option.map (fun h -> Ikey.make h Rid.minus_infinity) hi in
  let beyond l i =
    match hi_key with Some h -> leaf_compare_kv l i h > 0 | None -> false
  in
  let rec walk (p : Page.t) first =
    let l = leaf_of_payload p.Page.payload in
    let i = ref (if first then leaf_lower_bound l start_key else 0) in
    let stop = ref false in
    while (not !stop) && !i < leaf_n l do
      if beyond l !i then stop := true
      else begin
        f (leaf_key l !i) ~pseudo:(leaf_pseudo l !i);
        incr i
      end
    done;
    let continue_right = (not !stop) && leaf_next l >= 0 in
    if continue_right then begin
      let np = page t (leaf_next l) in
      Latch.acquire np.Page.latch S;
      Latch.release p.Page.latch S;
      walk np false
    end
    else Latch.release p.Page.latch S
  in
  walk p true

let range t ?lo ?hi () =
  let acc = ref [] in
  iter_range t ?lo ?hi (fun k ~pseudo -> acc := (k, pseudo) :: !acc);
  List.rev !acc

let iter_leaves t f =
  let p = leftmost_leaf t S in
  let rec walk (p : Page.t) =
    let l = leaf_of_payload p.Page.payload in
    f p.Page.id l;
    if leaf_next l >= 0 then begin
      let np = page t (leaf_next l) in
      Latch.acquire np.Page.latch S;
      Latch.release p.Page.latch S;
      walk np
    end
    else Latch.release p.Page.latch S
  in
  walk p

let iter_entries t f =
  iter_leaves t (fun _ l ->
      for i = 0 to leaf_n l - 1 do
        f (leaf_key l i) ~pseudo:(leaf_pseudo l i)
      done)

let gc_pseudo_deleted t ~keep =
  let removed = ref 0 in
  let rec walk (p : Page.t) =
    let l = leaf_of_payload p.Page.payload in
    let i = ref 0 in
    while !i < leaf_n l do
      if leaf_pseudo l !i && not (keep (leaf_key l !i)) then begin
        leaf_remove_at l !i;
        dirty t p;
        incr removed
      end
      else incr i
    done;
    let next = leaf_next l in
    Latch.release p.Page.latch X;
    if next >= 0 then begin
      let np = page t next in
      Latch.acquire np.Page.latch X;
      walk np
    end
  in
  walk (leftmost_leaf t X);
  !removed

(* --- bottom-up bulk build (SF) --- *)

module Bulk = struct
  type tree = t

  exception Below_fence of { key : Ikey.t; fence : Ikey.t }

  type b = {
    tree : tree;
    (* spine of the rightmost path, leaf first *)
    mutable spine : Page.t list;
    mutable highest : Ikey.t option;
    (* the rightmost leaf's lower bound, until a key is appended above
       it *)
    mutable fence : Ikey.t option;
  }

  let start tree =
    let root = page tree tree.root in
    (match node_of root with
    | Leaf l when leaf_n l = 0 -> ()
    | _ -> invalid_arg "Btree.Bulk.start: tree not empty");
    { tree; spine = [ root ]; highest = None; fence = None }

  let resume tree =
    (* rightmost path, leaf first; the last separator on the way down is
       the tightest lower bound of the rightmost leaf *)
    let rec walk id acc fence =
      let p = page tree id in
      match node_of p with
      | Leaf l ->
        let n = leaf_n l in
        let highest = if n = 0 then None else Some (leaf_key l (n - 1)) in
        (p :: acc, highest, fence)
      | Internal n ->
        let fence = if n.nc >= 2 then Some n.seps.(n.nc - 2) else fence in
        walk n.children.(n.nc - 1) (p :: acc) fence
    in
    let spine, highest, fence = walk tree.root [] None in
    { tree; spine; highest; fence }

  (* Push (sep, right child) into the spine at [levels_above] the leaf;
     grow new levels as needed. The paper's bottom-up split moves no keys:
     a full node is frozen and a fresh one continues on the right. *)
  let rec push_up b levels sep child_pid =
    let t = b.tree in
    match levels with
    | [] ->
      (* new root *)
      let old_root = t.root in
      let new_root =
        alloc_node t
          (Internal
             (new_internal ~children:[| old_root; child_pid |] ~seps:[| sep |]))
      in
      t.root <- new_root.Page.id;
      b.spine <- b.spine @ [ new_root ]
    | p :: above -> (
      match node_of p with
      | Internal n ->
        if internal_fits n ~capacity:t.capacity sep then begin
          internal_append n sep ~child:child_pid;
          dirty t p
        end
        else begin
          let fresh =
            alloc_node t
              (Internal (new_internal ~children:[| child_pid |] ~seps:[||]))
          in
          (* replace this spine level with the fresh node *)
          let rec replace = function
            | [] -> []
            | q :: rest -> if q == p then fresh :: rest else q :: replace rest
          in
          b.spine <- replace b.spine;
          push_up b above sep fresh.Page.id
        end
      | Leaf _ -> assert false)

  (* Append [key], known to sort above [b.highest], to the rightmost
     leaf. *)
  let append b key =
    let t = b.tree in
    b.highest <- Some key;
    b.fence <- None;
    let m = metrics t in
    Oib_sim.Metrics.add m Keys_inserted 1;
    Oib_sim.Metrics.add m Fast_path_inserts 1;
    match b.spine with
    | [] -> assert false
    | leaf_page :: above ->
      let l = leaf_of_payload leaf_page.Page.payload in
      if leaf_fits l ~capacity:t.capacity key then begin
        leaf_append l key ~pseudo:false;
        dirty t leaf_page
      end
      else begin
        Oib_sim.Metrics.add m Page_splits 1;
        let fresh_leaf = new_leaf () in
        let fresh = alloc_node t (Leaf fresh_leaf) in
        leaf_set_next l fresh.Page.id;
        leaf_set_high l (Some key);
        (* the frozen leaf gained its sibling link / high key *)
        dirty t leaf_page;
        leaf_append fresh_leaf key ~pseudo:false;
        dirty t fresh;
        b.spine <- fresh :: above;
        push_up b above key fresh.Page.id
      end

  (* one comparison per key orders it and spots a re-extracted entry *)
  let add b key =
    check_size b.tree key;
    let c = match b.highest with Some h -> Ikey.compare h key | None -> -1 in
    if c < 0 then begin
      (match b.fence with
      | Some fence when Ikey.compare key fence < 0 ->
        raise (Below_fence { key; fence })
      | _ -> ());
      append b key
    end
    else if c > 0 then invalid_arg "Btree.Bulk.add: keys must be ascending"
    (* else the same logical entry extracted twice (e.g. a record re-read
       across key-order scan rounds): adding it again is a no-op *)

  let finish _b = ()
end

(* --- statistics --- *)

let node_at t id = node_of (page t id)

let count_entries t keep =
  let n = ref 0 in
  iter_entries t (fun _ ~pseudo -> if keep pseudo then incr n);
  !n

let entry_count t = count_entries t (fun _ -> true)
let present_count t = count_entries t not
let pseudo_count t = count_entries t Fun.id

let leaf_count t =
  let n = ref 0 in
  iter_leaves t (fun _ _ -> incr n);
  !n

let depth t =
  let rec go id d =
    match node_of (page t id) with
    | Leaf _ -> d
    | Internal n -> go n.children.(0) (d + 1)
  in
  go t.root 1
