(* planted: three stale-projection uses — a throttle level compared
   after a direct yield, a counter snapshot used after a transitively
   yielding call, and a page's LSN (qualified [Page.lsn]) used after a
   yield. Expected: 3 x L11, 0 x L10 (no write-back). *)

let force lm = Log_manager.flush_all lm

let stale_direct th sched =
  let level = Throttle.level th in
  Sched.yield sched;
  (* level describes the pre-yield world; deciding on it now acts on a
     snapshot another fiber may have invalidated *)
  if level = 0 then resume_builds th

let stale_via_helper st lm =
  let n = st.Build_status.keys_processed in
  force lm;
  report n

let stale_page_lsn p lm =
  let lsn = p.Page.lsn in
  force lm;
  redo_above lsn
