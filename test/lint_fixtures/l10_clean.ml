(* clean twin of l10_window: every read-compute-write over shared state
   either re-reads after the suspension, writes before it, or is an
   adjacent RMW whose right-hand side is itself a fresh read.
   Expected: no findings. *)

let with_revalidation st sched =
  if st.Build_status.keys_processed > 0 then begin
    Sched.yield sched;
    (* fresh read after the yield: the decision is re-made on current
       state, so there is no lost-update window *)
    if st.Build_status.keys_processed > 0 then
      st.Build_status.keys_processed <- 0
  end

let write_then_yield st sched =
  if st.Build_status.backlog > 0 then begin
    st.Build_status.backlog <- 0;
    Sched.yield sched
  end

let adjacent_rmw st sched =
  Sched.yield sched;
  st.Build_status.keys_processed <- st.Build_status.keys_processed + 1
