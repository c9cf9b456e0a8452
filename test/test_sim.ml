(* Tests for the discrete-event simulation core. *)

module Vtime = Flipc_sim.Vtime
module Heap = Flipc_sim.Heap
module Engine = Flipc_sim.Engine
module Sync = Flipc_sim.Sync
module Prng = Flipc_sim.Prng

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Vtime --- *)

let test_vtime_units () =
  check "us" 1_000 (Vtime.us 1);
  check "ms" 1_000_000 (Vtime.ms 1);
  check "s" 1_000_000_000 (Vtime.s 1);
  check "of_us_float rounds" 1_500 (Vtime.of_us_float 1.5);
  Alcotest.(check (float 1e-9)) "to_us" 1.5 (Vtime.to_us 1_500)

let test_vtime_arith () =
  check "add" 30 (Vtime.add 10 20);
  check "sub" 10 (Vtime.sub 30 20);
  check "scale" 60 (Vtime.scale 3 20);
  check_bool "compare" true (Vtime.compare (Vtime.us 1) (Vtime.ms 1) < 0)

let test_vtime_pp () =
  let s t = Fmt.str "%a" Vtime.pp t in
  Alcotest.(check string) "ns" "42ns" (s 42);
  Alcotest.(check string) "us" "1.50us" (s 1_500);
  Alcotest.(check string) "ms" "2.000ms" (s 2_000_000)

(* --- Heap --- *)

let drain h =
  let rec go acc = if Heap.is_empty h then List.rev acc else go (Heap.pop h :: acc) in
  go []

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter (fun k -> Heap.push h k k) [ 5; 3; 8; 1; 9; 2; 7 ];
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 5; 7; 8; 9 ] (drain h)

let test_heap_peek () =
  let h = Heap.create () in
  Alcotest.check_raises "empty min_key" (Invalid_argument "Heap.min_key: empty")
    (fun () -> ignore (Heap.min_key h));
  Heap.push h 4 "four";
  Heap.push h 2 "two";
  check "min key" 2 (Heap.min_key h);
  check "size unchanged" 2 (Heap.size h);
  Alcotest.(check string) "pop min" "two" (Heap.pop h)

let test_heap_grow () =
  let h = Heap.create () in
  for i = 1000 downto 1 do
    Heap.push h i i
  done;
  check "size" 1000 (Heap.size h);
  check "min of 1000" 1 (Heap.pop h);
  Heap.clear h;
  check "cleared" 0 (Heap.size h);
  Alcotest.check_raises "pop empty" (Invalid_argument "Heap.pop: empty")
    (fun () -> ignore (Heap.pop h : int))

(* [Push k] pushes key [k], [Pop] pops and [Replace k] swaps the top out
   for key [k] with [replace_top]. Every pop or replace must return the
   head of the queued (key, push index) pairs stably sorted by key, so
   equal keys leave in push order; a replace queues its entry as a push
   would. *)
type heap_op = Push of int | Pop | Replace of int

let heap_stable_prop =
  QCheck.Test.make ~name:"heap pops in stable order" ~count:300
    QCheck.(
      make
        ~print:
          (Print.list (function
            | Push k -> Printf.sprintf "push %d" k
            | Pop -> "pop"
            | Replace k -> Printf.sprintf "replace %d" k))
        Gen.(
          list_size (int_range 0 300)
            (frequency
               [
                 (6, map (fun k -> Push k) (int_range (-4) 4));
                 (1, return Pop);
                 (2, map (fun k -> Replace k) (int_range (-4) 4));
               ])))
    (fun ops ->
      let h = Heap.create () in
      let sorted queued =
        List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) queued
      in
      let rec go pushed queued = function
        | [] -> drain h = sorted queued
        | Push k :: rest ->
            Heap.push h k (k, pushed);
            go (pushed + 1) (queued @ [ (k, pushed) ]) rest
        | (Pop | Replace _) :: rest when queued = [] ->
            Heap.is_empty h && go pushed queued rest
        | Pop :: rest ->
            let first = List.hd (sorted queued) in
            Heap.min_key h = fst first
            && Heap.pop h = first
            && go pushed (List.filter (( <> ) first) queued) rest
        | Replace k :: rest ->
            let first = List.hd (sorted queued) in
            Heap.replace_top h k (k, pushed) = first
            && go (pushed + 1)
                 (List.filter (( <> ) first) queued @ [ (k, pushed) ])
                 rest
      in
      go 0 [] ops)

(* --- Engine --- *)

let test_engine_delay_order () =
  let t = Engine.create () in
  let log = ref [] in
  Engine.spawn t (fun () ->
      Engine.delay 30;
      log := "c" :: !log);
  Engine.spawn t (fun () ->
      Engine.delay 10;
      log := "a" :: !log);
  Engine.spawn t (fun () ->
      Engine.delay 20;
      log := "b" :: !log);
  Engine.run t;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  check "final time" 30 (Engine.now t)

let test_engine_fifo_same_time () =
  let t = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.spawn t (fun () -> log := i :: !log)
  done;
  Engine.run t;
  Alcotest.(check (list int)) "spawn order" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_nested_delay () =
  let t = Engine.create () in
  let times = ref [] in
  Engine.spawn t (fun () ->
      Engine.delay 5;
      times := Engine.now t :: !times;
      Engine.delay 7;
      times := Engine.now t :: !times);
  Engine.run t;
  Alcotest.(check (list int)) "cumulative" [ 5; 12 ] (List.rev !times)

let test_engine_until () =
  let t = Engine.create () in
  let fired = ref false in
  Engine.spawn t (fun () ->
      Engine.delay 100;
      fired := true);
  Engine.run ~until:50 t;
  check_bool "not yet" false !fired;
  check "clock at limit" 50 (Engine.now t);
  Engine.run t;
  check_bool "fires later" true !fired

let test_engine_suspend_resume () =
  let t = Engine.create () in
  let resume_cell = ref None in
  let state = ref "init" in
  Engine.spawn t (fun () ->
      Engine.suspend (fun resume -> resume_cell := Some resume);
      state := "resumed");
  Engine.spawn t (fun () ->
      Engine.delay 40;
      match !resume_cell with Some r -> r () | None -> Alcotest.fail "no cell");
  Engine.run t;
  Alcotest.(check string) "resumed" "resumed" !state;
  check "resumed at waker's time" 40 (Engine.now t)

let test_engine_double_resume_harmless () =
  let t = Engine.create () in
  let hits = ref 0 in
  Engine.spawn t (fun () ->
      Engine.suspend (fun resume ->
          resume ();
          resume ());
      incr hits);
  Engine.run t;
  check "continued once" 1 !hits

let test_engine_spawn_at () =
  let t = Engine.create () in
  let at = ref (-1) in
  Engine.spawn_at t 25 (fun () -> at := Engine.now t);
  Engine.run t;
  check "starts at 25" 25 !at;
  Alcotest.check_raises "past spawn rejected"
    (Invalid_argument "Engine.spawn_at: time is in the past") (fun () ->
      Engine.spawn_at t 1 (fun () -> ()))

let test_engine_failure_propagates () =
  let t = Engine.create () in
  Engine.spawn ~name:"boom" t (fun () -> failwith "bang");
  match Engine.run t with
  | () -> Alcotest.fail "expected Process_failure"
  | exception Engine.Process_failure (name, Failure msg) -> (
      Alcotest.(check string) "name" "boom" name;
      Alcotest.(check string) "msg" "bang" msg;
      let t = Engine.create () in
      Engine.spawn ~name:"backwards" t (fun () -> Engine.delay (-1));
      match Engine.run t with
      | () -> Alcotest.fail "expected Process_failure"
      | exception Engine.Process_failure ("backwards", Invalid_argument msg) ->
          Alcotest.(check string) "negative delay" "Engine.delay: negative" msg)
  | exception e -> raise e

let test_engine_live_processes () =
  let t = Engine.create () in
  Engine.spawn t (fun () -> Engine.delay 10);
  Engine.spawn t (fun () -> Engine.suspend (fun _resume -> ()));
  check "two live before run" 2 (Engine.live_processes t);
  Engine.run t;
  (* The suspended process never resumes and stays live. *)
  check "one parked forever" 1 (Engine.live_processes t);
  check_bool "steps counted" true (Engine.steps t > 0)

let test_engine_yield_interleave () =
  let t = Engine.create () in
  let log = ref [] in
  Engine.spawn t (fun () ->
      log := "a1" :: !log;
      Engine.yield ();
      log := "a2" :: !log);
  Engine.spawn t (fun () ->
      log := "b1" :: !log;
      Engine.yield ();
      log := "b2" :: !log);
  Engine.run t;
  Alcotest.(check (list string))
    "interleaved" [ "a1"; "b1"; "a2"; "b2" ] (List.rev !log)

let test_engine_until_then_resume () =
  let t = Engine.create () in
  let log = ref [] in
  Engine.spawn t (fun () ->
      Engine.delay 10;
      log := "a" :: !log;
      Engine.delay 100;
      log := "b" :: !log);
  Engine.run ~until:50 t;
  Alcotest.(check (list string)) "first half" [ "a" ] (List.rev !log);
  Engine.run ~until:200 t;
  Alcotest.(check (list string)) "second half" [ "a"; "b" ] (List.rev !log)

let expect_unhandled label f =
  match f () with
  | () -> Alcotest.fail (label ^ ": expected Effect.Unhandled")
  | exception Effect.Unhandled _ -> ()

let test_delay_outside_run () =
  expect_unhandled "before any run" (fun () -> Engine.delay 0);
  let t = Engine.create () in
  Engine.spawn t (fun () -> Engine.delay 5);
  Engine.run t;
  expect_unhandled "zero delay after a run" (fun () -> Engine.delay 0);
  expect_unhandled "positive delay after a run" (fun () -> Engine.delay 3);
  check "clock untouched" 5 (Engine.now t)

(* A run that raises hands the domain back: the next delay belongs to
   whichever engine is running then, or to none. *)
let test_delay_after_failure () =
  let a = Engine.create () in
  Engine.spawn ~name:"boom" a (fun () ->
      Engine.delay 5;
      failwith "bang");
  Engine.spawn a (fun () -> Engine.delay 100);
  (match Engine.run a with
  | () -> Alcotest.fail "expected Process_failure"
  | exception Engine.Process_failure ("boom", _) -> ());
  check "failed at 5" 5 (Engine.now a);
  expect_unhandled "outside after a failure" (fun () -> Engine.delay 0);
  let b = Engine.create () in
  Engine.spawn b (fun () ->
      Engine.delay 7;
      Engine.delay 0);
  Engine.run b;
  check "b advanced" 7 (Engine.now b);
  check "a untouched" 5 (Engine.now a);
  Engine.run a;
  check "a resumes" 100 (Engine.now a)

(* A process that runs a second engine to completion, or to a failure,
   must go on delaying on its own engine. *)
let test_delay_after_nested_run () =
  let outer = Engine.create () and inner = Engine.create () in
  let log = ref [] in
  let note what t = log := (what, Engine.now t) :: !log in
  Engine.spawn outer (fun () ->
      Engine.delay 10;
      Engine.spawn inner (fun () ->
          Engine.delay 3;
          note "inner" inner);
      Engine.run inner;
      Engine.delay 5;
      note "outer" outer;
      Engine.spawn ~name:"boom" inner (fun () ->
          Engine.delay 1;
          failwith "bang");
      (match Engine.run inner with
      | () -> note "no failure" inner
      | exception Engine.Process_failure ("boom", _) -> ());
      Engine.delay 2;
      note "outer after failure" outer);
  Engine.spawn outer (fun () ->
      Engine.delay 12;
      note "outer peer" outer);
  Engine.run outer;
  Alcotest.(check (list (pair string int)))
    "each delay on its own engine"
    [ ("inner", 3); ("outer peer", 12); ("outer", 15); ("outer after failure", 17) ]
    (List.rev !log);
  check "inner clock" 4 (Engine.now inner);
  check "outer clock" 17 (Engine.now outer)

(* [delay_on e] is [delay] whichever engine it is handed: inside a
   nested run it delays on the inner engine even when handed the outer
   one, after the nested run (or its failure) on the outer engine even
   when handed the inner one, and outside any run it is unhandled. *)
let test_delay_on_nested () =
  let outer = Engine.create () and inner = Engine.create () in
  let log = ref [] in
  let note what t = log := (what, Engine.now t) :: !log in
  Engine.spawn outer (fun () ->
      Engine.delay_on outer 10;
      Engine.spawn inner (fun () ->
          Engine.delay_on outer 3;
          Engine.delay_on inner 1;
          note "inner" inner);
      Engine.run inner;
      Engine.delay_on inner 5;
      note "outer" outer;
      Engine.spawn ~name:"boom" inner (fun () ->
          Engine.delay_on inner 1;
          failwith "bang");
      (match Engine.run inner with
      | () -> note "no failure" inner
      | exception Engine.Process_failure ("boom", _) -> ());
      Engine.delay_on inner 2;
      note "outer after failure" outer);
  Engine.spawn outer (fun () ->
      Engine.delay_on outer 12;
      note "outer peer" outer);
  Engine.run outer;
  Alcotest.(check (list (pair string int)))
    "each delay on the running engine"
    [ ("inner", 4); ("outer peer", 12); ("outer", 15); ("outer after failure", 17) ]
    (List.rev !log);
  check "inner clock" 5 (Engine.now inner);
  check "outer clock" 17 (Engine.now outer);
  expect_unhandled "delay_on outside a run" (fun () -> Engine.delay_on outer 0)

(* The fast path allocates nothing: no effect, no continuation, no heap
   entry. The bound leaves room for the two boxed floats of the
   measurement itself. *)
let test_fast_delay_allocation_free () =
  let t = Engine.create () in
  let words = ref nan in
  Engine.spawn t (fun () ->
      Engine.delay 1;
      let before = Gc.minor_words () in
      for _ = 1 to 10_000 do
        Engine.delay 1
      done;
      words := Gc.minor_words () -. before);
  Engine.run t;
  check "every delay counted" 10_001 (Engine.now t);
  check_bool
    (Printf.sprintf "10k fast delays allocated %.0f words" !words)
    true (!words < 10.)

(* Two processes that each delay by one in lockstep are never next on
   their own: every delay hands the turn to the other. A handoff
   allocates the parked continuation, 2 words, and nothing else: no
   effect payload, no closure, no heap entry. The bound leaves room for
   the boxed floats of the measurement itself. *)
let test_handoff_delay_allocation () =
  let t = Engine.create () in
  let words = ref nan and switches = ref 0 in
  let lockstep () =
    for _ = 1 to 10_000 do
      Engine.delay 1
    done
  in
  Engine.spawn t (fun () ->
      Engine.delay 1;
      let before = Gc.minor_words () and steps = Engine.steps t in
      lockstep ();
      words := Gc.minor_words () -. before;
      switches := Engine.steps t - steps);
  Engine.spawn t (fun () ->
      Engine.delay 1;
      lockstep ());
  Engine.run t;
  check "every delay a switch" 20_000 !switches;
  check_bool
    (Printf.sprintf "%d handed-off delays allocated %.0f words" !switches
       !words)
    true
    (!words < (2. *. float_of_int !switches) +. 10.)

(* A handoff continues the next process from inside the parker's effect
   handler, so it must be a tail call: a million switches in a 16k-word
   stack. *)
let test_handoff_constant_stack () =
  let t = Engine.create () in
  let lockstep () =
    for _ = 1 to 500_000 do
      Engine.delay 1
    done
  in
  Engine.spawn t lockstep;
  Engine.spawn t lockstep;
  let saved = Gc.get () in
  Gc.set { saved with stack_limit = 16_384 };
  Fun.protect ~finally:(fun () -> Gc.set saved) (fun () -> Engine.run t);
  check "steps" 1_000_002 (Engine.steps t);
  check "now" 500_000 (Engine.now t)

(* --- Engine against a reference scheduler --- *)

(* The engine's earlier design, kept as the reference: a queue of thunks
   keyed by (time, sequence), every delay and wake-up a queue entry. *)
module Reference = struct
  open Effect.Deep

  type _ Effect.t +=
    | R_delay : int -> unit Effect.t
    | R_suspend : ((unit -> unit) -> unit) -> unit Effect.t

  module Q = Map.Make (struct
    type t = int * int

    let compare = compare
  end)

  type t = {
    mutable now : int;
    mutable seq : int;
    mutable queue : (unit -> unit) Q.t;
    mutable steps : int;
  }

  let create () = { now = 0; seq = 0; queue = Q.empty; steps = 0 }
  let now t = t.now
  let steps t = t.steps

  let schedule t time thunk =
    t.seq <- t.seq + 1;
    t.queue <- Q.add (time, t.seq) thunk t.queue

  let handler t name =
    {
      retc = Fun.id;
      exnc = (fun e -> raise (Engine.Process_failure (name, e)));
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | R_delay d ->
              Some
                (fun (k : (b, unit) continuation) ->
                  schedule t (t.now + d) (fun () -> continue k ()))
          | R_suspend register ->
              Some
                (fun (k : (b, unit) continuation) ->
                  let resumed = ref false in
                  register (fun () ->
                      if not !resumed then begin
                        resumed := true;
                        schedule t t.now (fun () -> continue k ())
                      end))
          | _ -> None);
    }

  let spawn_at ?(name = "process") t time f =
    schedule t time (fun () -> match_with f () (handler t name))

  let spawn ?name t f = spawn_at ?name t t.now f

  let rec run ?(until = max_int) t =
    match Q.min_binding_opt t.queue with
    | None -> ()
    | Some ((time, _), _) when time > until -> t.now <- until
    | Some (((time, _) as key), thunk) ->
        t.queue <- Q.remove key t.queue;
        t.now <- time;
        t.steps <- t.steps + 1;
        thunk ();
        run ~until t

  let delay d = Effect.perform (R_delay d)
  let suspend register = Effect.perform (R_suspend register)

  module Condvar = struct
    type t = (unit -> unit) Queue.t

    let create () = Queue.create ()
    let wait cv = suspend (fun resume -> Queue.push resume cv)
    let signal cv = Option.iter (fun resume -> resume ()) (Queue.take_opt cv)
  end
end

module type SIM = sig
  type t

  val create : unit -> t
  val now : t -> int
  val steps : t -> int
  val spawn : ?name:string -> t -> (unit -> unit) -> unit
  val spawn_at : ?name:string -> t -> int -> (unit -> unit) -> unit
  val run : ?until:int -> t -> unit
  val delay : int -> unit

  module Condvar : sig
    type t

    val create : unit -> t
    val wait : t -> unit
    val signal : t -> unit
  end
end

module Under_test : SIM = struct
  include Engine
  module Condvar = Sync.Condvar
end

type action =
  | Delay of int
  | Log
  | Raise
  | Spawn of action list
  | Spawn_at of int * action list
  | Wait of int
  | Signal of int

type script = { procs : (int * action list) list; splits : int list }

let rec pp_action = function
  | Delay d -> Printf.sprintf "delay %d" d
  | Log -> "log"
  | Raise -> "raise"
  | Spawn body -> Printf.sprintf "spawn [%s]" (pp_actions body)
  | Spawn_at (d, body) -> Printf.sprintf "spawn_at +%d [%s]" d (pp_actions body)
  | Wait c -> Printf.sprintf "wait %d" c
  | Signal c -> Printf.sprintf "signal %d" c

and pp_actions l = String.concat "; " (List.map pp_action l)

let pp_script s =
  String.concat "\n"
    (List.map (fun (at, body) -> Printf.sprintf "@%d: %s" at (pp_actions body)) s.procs
    @ [ "splits " ^ String.concat "," (List.map string_of_int s.splits) ])

(* Mostly zero and tiny delays, so ties and "caller is next" both occur
   all the time. *)
let gen_script =
  let open QCheck.Gen in
  let gen_delay = frequency [ (4, return 0); (3, int_range 1 3); (1, int_range 4 40) ] in
  let gen_body =
    fix
      (fun self depth ->
        let leaf =
          frequency
            [
              (6, map (fun d -> Delay d) gen_delay);
              (2, return Log);
              (1, return Raise);
              (1, map (fun c -> Wait c) (int_bound 1));
              (2, map (fun c -> Signal c) (int_bound 1));
            ]
        in
        let action =
          if depth = 0 then leaf
          else
            frequency
              [
                (10, leaf);
                (1, map (fun b -> Spawn b) (self (depth - 1)));
                (1, map2 (fun d b -> Spawn_at (d, b)) gen_delay (self (depth - 1)));
              ]
        in
        list_size (int_range 0 8) action)
      2
  in
  let gen_proc = pair (frequency [ (2, return 0); (1, int_range 1 20) ]) gen_body in
  map2
    (fun procs splits -> { procs; splits = List.sort_uniq Int.compare splits })
    (list_size (int_range 1 5) gen_proc)
    (list_size (int_range 0 3) (int_range 0 120))

(* At least four processes doing little but delay by 0 to 3: nearly
   every delay hands the turn to another process, in long chains. *)
let gen_dense_script =
  let open QCheck.Gen in
  let action =
    frequency
      [
        (16, map (fun d -> Delay d) (int_range 0 3));
        (1, return Raise);
        (1, map (fun c -> Wait c) (int_bound 1));
        (2, map (fun c -> Signal c) (int_bound 1));
      ]
  in
  map2
    (fun procs splits -> { procs; splits = List.sort_uniq Int.compare splits })
    (list_size (int_range 4 8)
       (pair (int_range 0 3) (list_size (int_range 10 40) action)))
    (list_size (int_range 0 3) (int_range 0 60))

(* Run [script] and return its (time, process, label) log, with one entry
   per split point carrying [steps] and one per process failure carrying
   the failure and [steps], then the final [now] and [steps]. A run that
   raises is run again, up to the same limit. *)
let interpret (module S : SIM) script =
  let t = S.create () in
  let log = ref [] in
  let cvs = Array.init 2 (fun _ -> S.Condvar.create ()) in
  let rec exec pid body =
    List.iteri
      (fun i action ->
        (match action with
        | Delay d -> S.delay d
        | Log -> ()
        | Raise -> failwith "boom"
        | Spawn b ->
            let name = Printf.sprintf "%s.%d" pid i in
            S.spawn ~name t (fun () -> exec name b)
        | Spawn_at (d, b) ->
            let name = Printf.sprintf "%s.%d" pid i in
            S.spawn_at ~name t (S.now t + d) (fun () -> exec name b)
        | Wait c -> S.Condvar.wait cvs.(c)
        | Signal c -> S.Condvar.signal cvs.(c));
        log := (S.now t, pid, i) :: !log)
      body
  in
  List.iteri
    (fun p (at, body) ->
      let name = string_of_int p in
      let f () = exec name body in
      if at = 0 then S.spawn ~name t f else S.spawn_at ~name t at f)
    script.procs;
  let rec run until =
    match S.run ?until t with
    | () -> ()
    | exception Engine.Process_failure (name, e) ->
        let what = Printf.sprintf "%s failed: %s" name (Printexc.to_string e) in
        log := (S.now t, what, S.steps t) :: !log;
        run until
  in
  List.iter
    (fun until ->
      run (Some until);
      log := (S.now t, "run", S.steps t) :: !log)
    script.splits;
  run None;
  (List.rev !log, S.now t, S.steps t)

let matches_reference script =
  interpret (module Under_test) script
  = interpret (module Reference : SIM) script

let engine_matches_reference_prop =
  QCheck.Test.make ~name:"engine matches the reference scheduler" ~count:500
    (QCheck.make ~print:pp_script gen_script)
    matches_reference

let engine_matches_reference_dense_prop =
  QCheck.Test.make ~name:"engine matches the reference scheduler, dense mix"
    ~count:300
    (QCheck.make ~print:pp_script gen_dense_script)
    matches_reference

(* --- Sync --- *)

let test_condvar_fifo () =
  let t = Engine.create () in
  let cv = Sync.Condvar.create () in
  let log = ref [] in
  for i = 1 to 3 do
    Engine.spawn t (fun () ->
        Sync.Condvar.wait cv;
        log := i :: !log)
  done;
  Engine.spawn t (fun () ->
      Engine.delay 5;
      Sync.Condvar.signal cv;
      Engine.delay 5;
      Sync.Condvar.broadcast cv);
  Engine.run t;
  Alcotest.(check (list int)) "fifo wakeup" [ 1; 2; 3 ] (List.rev !log)

let test_semaphore_counting () =
  let t = Engine.create () in
  let sem = Sync.Semaphore.create 2 in
  let active = ref 0 and peak = ref 0 in
  for _ = 1 to 5 do
    Engine.spawn t (fun () ->
        Sync.Semaphore.acquire sem;
        incr active;
        if !active > !peak then peak := !active;
        Engine.delay 10;
        decr active;
        Sync.Semaphore.release sem)
  done;
  Engine.run t;
  check "peak limited by semaphore" 2 !peak;
  check "value restored" 2 (Sync.Semaphore.value sem)

let test_semaphore_try () =
  let sem = Sync.Semaphore.create 1 in
  check_bool "first try" true (Sync.Semaphore.try_acquire sem);
  check_bool "second try" false (Sync.Semaphore.try_acquire sem)

let test_mailbox () =
  let t = Engine.create () in
  let mb = Sync.Mailbox.create () in
  let got = ref [] in
  Engine.spawn t (fun () ->
      for _ = 1 to 3 do
        got := Sync.Mailbox.take mb :: !got
      done);
  Engine.spawn t (fun () ->
      Engine.delay 5;
      Sync.Mailbox.put mb 1;
      Sync.Mailbox.put mb 2;
      Engine.delay 5;
      Sync.Mailbox.put mb 3);
  Engine.run t;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got);
  check_bool "empty try_take" true (Sync.Mailbox.try_take mb = None)

(* --- Prng --- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  check_bool "different streams" true (Prng.next_int64 a <> Prng.next_int64 b)

let test_prng_int_range () =
  let p = Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Prng.int p 10 in
    check_bool "in range" true (v >= 0 && v < 10)
  done;
  Alcotest.check_raises "bad bound"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int p 0))

let test_prng_exponential_mean () =
  let p = Prng.create ~seed:11 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    let x = Prng.exponential p ~mean:5.0 in
    check_bool "nonneg" true (x >= 0.);
    sum := !sum +. x
  done;
  let mean = !sum /. float_of_int n in
  check_bool "mean near 5" true (Float.abs (mean -. 5.0) < 0.25)

let test_prng_split_independent () =
  let a = Prng.create ~seed:3 in
  let b = Prng.split a in
  check_bool "split differs from parent" true
    (Prng.next_int64 a <> Prng.next_int64 b)

let () =
  Alcotest.run "sim"
    [
      ( "vtime",
        [
          Alcotest.test_case "units" `Quick test_vtime_units;
          Alcotest.test_case "arith" `Quick test_vtime_arith;
          Alcotest.test_case "pp" `Quick test_vtime_pp;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "peek" `Quick test_heap_peek;
          Alcotest.test_case "grow" `Quick test_heap_grow;
          QCheck_alcotest.to_alcotest heap_stable_prop;
        ] );
      ( "engine",
        [
          Alcotest.test_case "delay order" `Quick test_engine_delay_order;
          Alcotest.test_case "fifo same time" `Quick test_engine_fifo_same_time;
          Alcotest.test_case "nested delay" `Quick test_engine_nested_delay;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "suspend/resume" `Quick test_engine_suspend_resume;
          Alcotest.test_case "double resume" `Quick
            test_engine_double_resume_harmless;
          Alcotest.test_case "spawn_at" `Quick test_engine_spawn_at;
          Alcotest.test_case "failure propagates" `Quick
            test_engine_failure_propagates;
          Alcotest.test_case "live processes" `Quick test_engine_live_processes;
          Alcotest.test_case "yield interleave" `Quick
            test_engine_yield_interleave;
          Alcotest.test_case "until then resume" `Quick
            test_engine_until_then_resume;
          Alcotest.test_case "delay outside run" `Quick test_delay_outside_run;
          Alcotest.test_case "delay after failure" `Quick
            test_delay_after_failure;
          Alcotest.test_case "delay after nested run" `Quick
            test_delay_after_nested_run;
          Alcotest.test_case "fast delay allocation-free" `Quick
            test_fast_delay_allocation_free;
          QCheck_alcotest.to_alcotest engine_matches_reference_prop;
          Alcotest.test_case "handed-off delay allocates its continuation only"
            `Quick test_handoff_delay_allocation;
          Alcotest.test_case "handoff chain in constant stack" `Quick
            test_handoff_constant_stack;
          QCheck_alcotest.to_alcotest engine_matches_reference_dense_prop;
          Alcotest.test_case "delay_on in nested runs" `Quick
            test_delay_on_nested;
        ] );
      ( "sync",
        [
          Alcotest.test_case "condvar fifo" `Quick test_condvar_fifo;
          Alcotest.test_case "semaphore counting" `Quick test_semaphore_counting;
          Alcotest.test_case "semaphore try" `Quick test_semaphore_try;
          Alcotest.test_case "mailbox" `Quick test_mailbox;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "exponential mean" `Quick
            test_prng_exponential_mean;
          Alcotest.test_case "split independent" `Quick
            test_prng_split_independent;
        ] );
    ]
