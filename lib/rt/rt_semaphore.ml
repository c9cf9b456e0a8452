module Heap = Flipc_sim.Heap

(* [waiting] is keyed by negated priority: highest priority first, first
   come first served within a priority. *)
type t = { sched : Sched.t; mutable value : int; waiting : Sched.thread Heap.t }

let create ?(initial = 0) sched =
  if initial < 0 then invalid_arg "Rt_semaphore.create: negative";
  { sched; value = initial; waiting = Heap.create () }

let value t = t.value
let waiters t = Heap.size t.waiting

let rec wait t thr =
  if t.value > 0 then t.value <- t.value - 1
  else begin
    Heap.push t.waiting (-Sched.priority thr) thr;
    Sched.block thr;
    (* The post incremented the value; recheck, as another thread may have
       consumed it first (classic Mesa-style semantics). *)
    wait t thr
  end

let try_wait t =
  if t.value > 0 then begin
    t.value <- t.value - 1;
    true
  end
  else false

let post t =
  t.value <- t.value + 1;
  if not (Heap.is_empty t.waiting) then Sched.make_ready (Heap.pop t.waiting)
