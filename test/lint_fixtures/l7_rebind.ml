(* Clean: a released page handle's name bound again names a new value,
   so using the new binding is no use-after-release. Fixture data for
   test_lint — parsed, never compiled. *)

(* the name re-latches the same page *)
let relatch h r =
  let p = Heap_file.latch_rid h r S in
  Latch.release p.Page.latch S;
  let p = Heap_file.latch_rid h r S in
  ignore p.Page.payload;
  Latch.release p.Page.latch S

(* the name is reused for a decoded copy of the page *)
let decoded h r =
  let p = Heap_file.latch_rid h r S in
  let payload = Bytes.copy p.Page.payload in
  Latch.release p.Page.latch S;
  let p = Heap_page.of_payload payload in
  Heap_page.occupied p r.Rid.slot

(* the decoded copy is no page handle: keeping it is no escape *)
let kept = ref None

let decoded_kept h r =
  let p = Heap_file.latch_rid h r S in
  let payload = Bytes.copy p.Page.payload in
  Latch.release p.Page.latch S;
  let p = Heap_page.of_payload payload in
  kept := Some p

(* released in one closure, bound again in a later one *)
let two_passes h rids =
  List.iter
    (fun r ->
      let hp = Heap_file.latch_rid h r S in
      Latch.release hp.Page.latch S)
    rids;
  List.iter
    (fun r ->
      let page = Heap_file.latch_rid h r S in
      let hp = Heap_page.of_payload page.Page.payload in
      ignore (Heap_page.occupied hp r.Rid.slot);
      Latch.release page.Page.latch S)
    rids
