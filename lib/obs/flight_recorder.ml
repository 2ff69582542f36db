(* Ring buffer of the last [capacity] stamped events. Always cheap to feed;
   only read when something goes wrong (deadlock, crash, oracle failure),
   at which point the tail of history is exactly what the post-mortem
   needs — like an aircraft flight recorder. *)

type t = {
  capacity : int;
  buf : Event.stamped array;
  mutable total : int; (* events ever recorded *)
  mutable next : int; (* slot the next event goes to *)
}

let dummy =
  { Event.step = 0; fiber = -1; fiber_name = ""; event = Event.Crash { reason = "" } }

let create ~capacity =
  if capacity <= 0 then invalid_arg "Flight_recorder.create: capacity <= 0";
  { capacity; buf = Array.make capacity dummy; total = 0; next = 0 }

let copy t = { t with buf = Array.copy t.buf }
let capacity t = t.capacity
let total t = t.total
let size t = min t.total t.capacity

let record t ev =
  t.buf.(t.next) <- ev;
  t.next <- (t.next + 1) mod t.capacity;
  t.total <- t.total + 1

(* oldest retained event first *)
let contents t =
  let n = size t in
  let first = (t.next - n + t.capacity) mod t.capacity in
  List.init n (fun i -> t.buf.((first + i) mod t.capacity))

let dump ?(reason = "") t =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "=== flight recorder dump%s: last %d of %d events ===\n"
       (if reason = "" then "" else " (" ^ reason ^ ")")
       (size t) t.total);
  List.iter
    (fun ev ->
      Buffer.add_string b (Event.to_line ev);
      Buffer.add_char b '\n')
    (contents t);
  Buffer.add_string b "=== end of dump ===";
  Buffer.contents b
