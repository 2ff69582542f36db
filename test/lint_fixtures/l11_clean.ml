(* clean twin of l11_stale: the projected throttle level is re-validated
   against a fresh read after the yield before anything acts on it, and
   a log record's [lsn] is no page's: it never changes, so carrying it
   across a yield is no stale read. Expected: no findings. *)

let revalidated th sched =
  let level = Throttle.level th in
  Sched.yield sched;
  if level = Throttle.level th then resume_builds th

let log_record_lsn (r : Log_record.t) sched =
  let lsn = r.lsn in
  Sched.yield sched;
  redo_above lsn
