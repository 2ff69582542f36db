(* an allow naming the retired L10 (lost-update windows): it must be
   reported as malformed, not silently honoured. Expected: exactly one
   "allow" diagnostic. *)

let force lm = Log_manager.flush_all lm

let chase st lm =
  if st.Build_status.backlog > 0 then begin
    force lm;
    (st.Build_status.backlog <- 0)
    [@lint.allow "L10: single-writer fiber owns backlog; drain is the only mutator"]
  end
