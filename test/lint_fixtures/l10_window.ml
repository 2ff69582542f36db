(* planted: two L10 lost-update windows — one across a direct yield,
   one across a call that yields only transitively (interprocedural
   witness chain), the second reaching the field through a module
   alias. Expected: 2 x L10, 0 x L11. *)

module BS = Oib_core.Build_status

let force lm = Log_manager.flush_all lm

let direct st sched =
  if st.Build_status.keys_processed > 0 then begin
    Sched.yield sched;
    (* the guard's read is stale: another fiber may have advanced
       keys_processed during the yield *)
    st.Build_status.keys_processed <- 0
  end

let chase st lm =
  if st.BS.backlog > 0 then begin
    force lm;
    st.BS.backlog <- 0
  end
