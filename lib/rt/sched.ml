module Engine = Flipc_sim.Engine
module Heap = Flipc_sim.Heap

type state = Contending | Running | Blocked | Done

(* [ready] is keyed by negated priority: highest priority first, first
   come first served within a priority. *)
type t = {
  engine : Engine.t;
  cpus : int;
  ready : thread Heap.t;
  mutable running : int;
  mutable dispatches : int;
}

and thread = {
  tname : string;
  sched : t;
  mutable tpriority : int;
  mutable state : state;
  mutable wakeup_pending : bool;
  mutable resume : (unit -> unit) option;
}

let create ~engine ~cpus =
  if cpus <= 0 then invalid_arg "Sched.create: cpus must be positive";
  { engine; cpus; ready = Heap.create (); running = 0; dispatches = 0 }

let engine t = t.engine
let cpus t = t.cpus
let running t = t.running
let dispatches t = t.dispatches
let name thr = thr.tname
let priority thr = thr.tpriority
let set_priority thr p = thr.tpriority <- p
let is_done thr = thr.state = Done

let enqueue_ready thr = Heap.push thr.sched.ready (-thr.tpriority) thr

(* Hand free CPUs to the highest-priority ready threads. The resume thunk
   only schedules the continuation on the simulation queue, so dispatch
   never transfers control directly. *)
let rec dispatch t =
  if t.running < t.cpus && not (Heap.is_empty t.ready) then begin
    let thr = Heap.pop t.ready in
    t.running <- t.running + 1;
    t.dispatches <- t.dispatches + 1;
    thr.state <- Running;
    (match thr.resume with
    | Some resume ->
        thr.resume <- None;
        resume ()
    | None -> assert false);
    dispatch t
  end

(* Queue the calling thread for a CPU and suspend until dispatched. *)
let contend thr =
  let t = thr.sched in
  thr.state <- Contending;
  enqueue_ready thr;
  Engine.suspend (fun resume ->
      thr.resume <- Some resume;
      dispatch t)

let release_cpu thr =
  let t = thr.sched in
  t.running <- t.running - 1;
  dispatch t

let yield thr =
  release_cpu thr;
  contend thr

let sleep thr d =
  release_cpu thr;
  Engine.delay d;
  contend thr

let block thr =
  if thr.wakeup_pending then thr.wakeup_pending <- false
  else begin
    release_cpu thr;
    thr.state <- Blocked;
    Engine.suspend (fun resume -> thr.resume <- Some resume)
    (* Resumed via make_ready -> contend path below. *)
  end

let make_ready thr =
  match thr.state with
  | Blocked ->
      let t = thr.sched in
      thr.state <- Contending;
      enqueue_ready thr;
      dispatch t
  | Running | Contending -> thr.wakeup_pending <- true
  | Done -> ()

let spawn ?name t ~priority body =
  let thr =
    {
      tname = Option.value name ~default:(Printf.sprintf "thread-p%d" priority);
      sched = t;
      tpriority = priority;
      state = Contending;
      wakeup_pending = false;
      resume = None;
    }
  in
  Engine.spawn ~name:thr.tname t.engine (fun () ->
      contend thr;
      Fun.protect
        ~finally:(fun () ->
          thr.state <- Done;
          release_cpu thr)
        (fun () -> body thr));
  thr
