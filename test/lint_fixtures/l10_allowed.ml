(* the l10_window "chase" shape with a written justification: a
   single-writer protocol makes the window benign. Expected: 0 errors,
   1 suppressed L10. *)

let force lm = Log_manager.flush_all lm

let chase st lm =
  if st.Build_status.backlog > 0 then begin
    force lm;
    (st.Build_status.backlog <- 0)
    [@lint.allow "L10: single-writer fiber owns backlog; drain is the only mutator"]
  end
