open Effect.Deep

(* The queue holds each parked process's continuation itself, keyed by
   the virtual time it wakes at; the stable heap keeps simultaneous
   wake-ups in the order they were queued. *)
type t = {
  mutable now : int;
  mutable limit : int;  (* the running [run]'s [~until]; [min_int] when idle *)
  mutable wake : int;  (* the wake time of the start or delay being parked *)
  queue : (unit, unit) continuation Heap.t;
  mutable live : int;
  mutable steps : int;
  mutable failure : (string * exn) option;
  mutable innermost : bool;
      (* this engine's [run] is the innermost one executing on its domain *)
}

exception Process_failure of string * exn

let () =
  Printexc.register_printer (function
    | Process_failure (name, e) ->
        Some
          (Printf.sprintf "Process_failure(%S, %s)" name (Printexc.to_string e))
    | _ -> None)

type _ Effect.t +=
  | Start : int -> unit Effect.t
  | Park : unit Effect.t
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t

let create () =
  {
    now = 0;
    limit = min_int;
    wake = 0;
    queue = Heap.create ();
    live = 0;
    steps = 0;
    failure = None;
    innermost = false;
  }

let now t = t.now
let steps t = t.steps
let live_processes t = t.live

(* The engine whose [run] is executing on this domain, or an idle engine
   of the domain's own. Domain local because each domain may run its own
   engine at once. *)
let current = Domain.DLS.new_key create

let resumer t k =
  let resumed = ref false in
  fun () ->
    if not !resumed then begin
      resumed := true;
      Heap.push t.queue t.now k
    end

let handler t name =
  (* Allocated once per process, reading the wake time from [t.wake], so
     parking allocates no closure. *)
  let park = Some (fun k -> Heap.push t.queue t.wake k) in
  (* A delay that cannot return in place ends the caller's turn. When the
     next event is queued and within the run, it is what [loop] would pop
     once the caller parked: swap the caller in for it and continue it
     here, one stack switch instead of two. [replace_top] gives the caller
     the push number [push] would, so [now], [steps] and every tie come
     out as park-then-pop gives them. The [continue] is a tail call, so a
     chain of handoffs runs in constant stack, and whatever ends it (an
     exit, a failure, a suspension, the run's limit) returns to [loop]. *)
  let switch =
    Some
      (fun k ->
        let q = t.queue in
        if Heap.is_empty q || Heap.min_key q > Int.min t.wake t.limit then
          Heap.push q t.wake k
        else begin
          t.now <- Heap.min_key q;
          t.steps <- t.steps + 1;
          continue (Heap.replace_top q t.wake k) ()
        end)
  in
  {
    retc = (fun () -> t.live <- t.live - 1);
    exnc =
      (fun e ->
        t.live <- t.live - 1;
        if t.failure = None then t.failure <- Some (name, e));
    effc =
      (fun (type b) (eff : b Effect.t) :
           ((b, unit) continuation -> unit) option ->
        match eff with
        | Start time ->
            t.wake <- time;
            park
        | Park -> switch
        | Suspend register -> Some (fun k -> register (resumer t k))
        | _ -> None);
  }

(* The fiber starts at once and parks on its start event, so the queue
   only ever holds continuations. *)
let start t name time f =
  t.live <- t.live + 1;
  match_with
    (fun () ->
      Effect.perform (Start time);
      f ())
    () (handler t name)

let spawn ?(name = "process") t f = start t name t.now f

let spawn_at ?(name = "process") t time f =
  if time < t.now then invalid_arg "Engine.spawn_at: time is in the past";
  start t name time f

let rec loop t =
  match t.failure with
  | Some (name, e) ->
      t.failure <- None;
      raise (Process_failure (name, e))
  | None ->
      if not (Heap.is_empty t.queue) then begin
        let time = Heap.min_key t.queue in
        if time > t.limit then t.now <- t.limit
        else begin
          let k = Heap.pop t.queue in
          t.now <- time;
          t.steps <- t.steps + 1;
          continue k ();
          loop t
        end
      end

(* [innermost] mirrors [current]: it holds exactly for the engine in the
   domain's slot while a run executes, so [delay_on] can trust it without
   reading the slot. Clearing [outer]'s flag before setting [t]'s keeps
   that true when the two are the same engine. *)
let run ?until t =
  let outer = Domain.DLS.get current and outer_limit = t.limit in
  let outer_innermost = outer.innermost and t_innermost = t.innermost in
  outer.innermost <- false;
  Domain.DLS.set current t;
  t.innermost <- true;
  t.limit <- Option.value until ~default:max_int;
  Fun.protect
    ~finally:(fun () ->
      t.limit <- outer_limit;
      t.innermost <- t_innermost;
      outer.innermost <- outer_innermost;
      Domain.DLS.set current outer)
    (fun () -> loop t)

(* When nothing is queued at or before the wake time (and the run goes
   that far), the slow path would push the caller and pop it straight
   back: same order, same [now], one step. Do that in place. Outside any
   run [current] is idle, whose limit refuses, so the effect goes
   unhandled as before. *)
let delay_on e d =
  let t = if e.innermost then e else Domain.DLS.get current in
  let wake = t.now + d in
  if
    d >= 0 && wake <= t.limit
    && (Heap.is_empty t.queue || Heap.min_key t.queue > wake)
  then begin
    t.now <- wake;
    t.steps <- t.steps + 1
  end
  else if d < 0 then invalid_arg "Engine.delay: negative"
  else begin
    t.wake <- wake;
    Effect.perform Park
  end

let delay d = delay_on (Domain.DLS.get current) d
let yield () = delay 0
let suspend register = Effect.perform (Suspend register)
