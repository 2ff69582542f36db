(* clean: this module's own record has a [phase] field, as
   Build_status's does. The shared-field table names Build_status.phase,
   so a read of this one, a yield and a write open no lost-update
   window. Expected: no findings. *)

type job = { mutable phase : int }

let advance j sched =
  if j.phase = 0 then begin
    Sched.yield sched;
    j.phase <- 1
  end
