(* The functorized transport conformance suite.

   One set of behavioural tests written once against {!Transport.S} and
   instantiated for every stack: the in-memory loopback, the bare
   channel transport on a machine, Window-over-Channel,
   Retrans-over-Channel, Retrans-over-Window — and Retrans-over-lossy-
   Loopback, which exercises the reliability layer with no machine
   underneath at all. A stack passes by construction of the functor
   application; the suite never names a concrete layer.

   Each STACK provides [run_pair], which builds its fabric, creates two
   connected ends and runs the two closures as concurrent simulation
   processes. Shared refs between the closures are the test's side
   channel (processes are cooperatively scheduled, so no races). *)

module Engine = Flipc_sim.Engine
module Vtime = Flipc_sim.Vtime
module Mailbox = Flipc_sim.Sync.Mailbox
module Machine = Flipc.Machine
module Api = Flipc.Api
module Config = Flipc.Config
module Faulty = Flipc_net.Faulty
module Transport = Flipc_flow.Transport
module Loopback = Flipc_flow.Loopback
module CT = Flipc_flow.Channel_transport
module WL = Flipc_flow.Window_layer.Make (CT)
module RC = Flipc_flow.Retrans_layer.Make (CT)
module RW = Flipc_flow.Retrans_layer.Make (WL)
module RLoop = Flipc_flow.Retrans_layer.Make (Loopback)

let check_bool = Alcotest.(check bool)

let terr = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Transport.error_to_string e)

module type STACK = sig
  val name : string

  module T : Transport.S

  (** Exactly-once delivery guaranteed even with [faulty:true]. *)
  val reliable : bool

  (** The top layer's [flush], if it has one. *)
  val flush :
    (T.t -> deadline:Vtime.t -> (unit, Transport.error) result) option

  val run_pair :
    ?faulty:bool -> a:(T.t -> unit) -> b:(T.t -> unit) -> unit -> unit
end

(* Retrans config tuned for the 2-node mesh round trip. *)
let rcfg =
  {
    Flipc_flow.Retrans_layer.default_config with
    Flipc_flow.Retrans_layer.rto_ns = 200_000;
    max_rto_ns = 1_600_000;
  }

(* Loopback-based pairs: a bare engine, two queues, virtual time. *)
let loopback_run_pair ~wrap ?(faulty = false) ~a ~b () =
  let eng = Engine.create () in
  let drop, dup = if faulty then (0.12, 0.04) else (0., 0.) in
  let ca, cb = Loopback.create_pair ~drop ~dup ~seed:42 eng () in
  Engine.spawn ~name:"pair-a" eng (fun () -> a (wrap ca));
  Engine.spawn ~name:"pair-b" eng (fun () -> b (wrap cb));
  Engine.run eng

(* Machine-based pairs: two nodes of a mesh, channel transports at the
   base; [wrap] also gets the end's trace site. *)
let machine_run_pair ~wrap ?(faulty = false) ~a ~b () =
  let config =
    {
      (Flipc_flow.Provision.config_for ~base:Config.default ~buffers:16) with
      Config.frame_checksum = true;
    }
  in
  let fault =
    if faulty then
      Some
        (Faulty.config ~drop:0.08 ~duplicate:0.03 ~reorder:0.1
           ~reorder_hold_ns:100_000 ~seed:7 ())
    else None
  in
  let machine =
    Machine.create ~config ?fault (Machine.Mesh { cols = 2; rows = 1 }) ()
  in
  Pair.spawn machine ~wrap ~a ~b ();
  Pair.drain machine

module Loopback_stack = struct
  let name = "loopback"

  module T = Loopback

  let reliable = false
  let flush = None
  let run_pair ?faulty ~a ~b () = loopback_run_pair ~wrap:Fun.id ?faulty ~a ~b ()
end

module Retrans_loopback_stack = struct
  let name = "retrans-loopback"

  module T = RLoop

  let reliable = true
  let flush = Some RLoop.flush

  let run_pair ?faulty ~a ~b () =
    loopback_run_pair
      ~wrap:(fun c -> RLoop.create c ~config:rcfg ())
      ?faulty ~a ~b ()
end

module Channel_stack = struct
  let name = "channel"

  module T = CT

  let reliable = false
  let flush = None

  let run_pair ?faulty ~a ~b () =
    machine_run_pair ~wrap:(fun c _ -> c) ?faulty ~a ~b ()
end

module Window_channel_stack = struct
  let name = "window-channel"

  module T = WL

  let reliable = false
  let flush = None

  let run_pair ?faulty ~a ~b () =
    machine_run_pair
      ~wrap:(fun c site -> WL.create c ~window:6 ~site ())
      ?faulty ~a ~b ()
end

module Retrans_channel_stack = struct
  let name = "retrans-channel"

  module T = RC

  let reliable = true
  let flush = Some RC.flush

  let run_pair ?faulty ~a ~b () =
    machine_run_pair
      ~wrap:(fun c site -> RC.create c ~config:rcfg ~site ())
      ?faulty ~a ~b ()
end

module Retrans_window_stack = struct
  let name = "retrans-window-channel"

  module T = RW

  (* Reliable on a clean fabric only: a wire-dropped data frame
     permanently consumes a window credit (the window receiver never
     sees it, so never grants it back), and every retransmission burns
     another — the window starves before the retry budget is spent.
     The stacking rule this encodes: on a lossy base, reliability goes
     {e below} flow control (see Window_retrans_stack). *)
  let reliable = false
  let flush = Some RW.flush

  let run_pair ?faulty ~a ~b () =
    machine_run_pair
      ~wrap:(fun c site ->
        RW.create (WL.create c ~window:6 ~site ()) ~config:rcfg ())
      ?faulty ~a ~b ()
end

module WR = Flipc_flow.Window_layer.Make (RC)

module Window_retrans_stack = struct
  let name = "window-retrans-channel"

  module T = WR

  (* Flow control over exactly-once delivery: the window layer's data
     and credit frames ride the reliable channel, so no credit is ever
     lost and the composition stays exactly-once under any fault mix. *)
  let reliable = true
  let flush = None

  let run_pair ?faulty ~a ~b () =
    machine_run_pair
      ~wrap:(fun c site ->
        WR.create (RC.create c ~config:rcfg ~site ()) ~window:6 ())
      ?faulty ~a ~b ()
end

(* --- the conformance suite proper --- *)

module Conformance (S : STACK) = struct
  module T = S.T

  let sec = Vtime.s 2

  let oke what = function
    | Ok v -> v
    | Error e ->
        Alcotest.fail
          (Printf.sprintf "%s: %s: %s" S.name what
             (Transport.error_to_string e))

  (* Deterministic variable-length payloads, checkable from (index)
     alone. *)
  let payload i =
    Bytes.init
      (1 + (i * 7 mod 29))
      (fun j -> Char.chr (((i * 31) + j) land 0xff))

  let expect what i got =
    if not (Bytes.equal got (payload i)) then
      Alcotest.fail (Printf.sprintf "%s: %s: payload %d mismatch" S.name what i)

  (* Closed-loop echo: content, order, and both directions of the
     duplex connection. *)
  let pingpong () =
    let n = 25 in
    S.run_pair
      ~a:(fun c ->
        for i = 1 to n do
          oke "send" (T.send c ~deadline:(T.now c + sec) (payload i));
          let echo = oke "recv" (T.recv_deadline c ~deadline:(T.now c + sec)) in
          expect "echo" i echo
        done)
      ~b:(fun c ->
        for _ = 1 to n do
          let m = oke "recv" (T.recv_deadline c ~deadline:(T.now c + sec)) in
          oke "reply" (T.send c ~deadline:(T.now c + sec) m)
        done)
      ()

  (* A bounded burst queues ahead of the receiver and drains in order.
     Six messages fit every stack's tightest bound (window = 6). *)
  let burst () =
    let n = 6 in
    S.run_pair
      ~a:(fun c ->
        for i = 1 to n do
          oke "send" (T.send c ~deadline:(T.now c + sec) (payload i))
        done;
        let done_mark =
          oke "recv" (T.recv_deadline c ~deadline:(T.now c + sec))
        in
        check_bool
          (S.name ^ ": drain confirmed")
          true
          (Bytes.equal done_mark (Bytes.of_string "ok")))
      ~b:(fun c ->
        for i = 1 to n do
          let m = oke "recv" (T.recv_deadline c ~deadline:(T.now c + sec)) in
          expect "burst" i m
        done;
        oke "confirm" (T.send c ~deadline:(T.now c + sec) (Bytes.of_string "ok")))
      ()

  (* A deadline against a silent peer expires with [`Timeout] — and the
     virtual clock has actually advanced past it. *)
  let recv_timeout () =
    S.run_pair
      ~a:(fun c ->
        let deadline = T.now c + 200_000 in
        match T.recv_deadline c ~deadline with
        | Error `Timeout ->
            check_bool
              (S.name ^ ": clock reached deadline")
              true
              (T.now c >= deadline)
        | Ok _ -> Alcotest.fail (S.name ^ ": message from a silent peer")
        | Error e ->
            Alcotest.fail (S.name ^ ": " ^ Transport.error_to_string e))
      ~b:(fun _ -> ())
      ()

  (* Every bounded wait returns by its deadline. Against a peer that
     never reads, [send] (once it blocks), [recv_deadline] and [flush]
     report within one retry step (an idle plus the operation's own
     poll) of a future deadline, and a deadline already reached returns
     at once, without idling. The waits stay short of the retransmission
     timeout, so no retransmission round lands inside a step. *)
  let deadline_rule () =
    S.run_pair
      ~a:(fun c ->
        let wait = 20_000 in
        let timed f =
          let t0 = T.now c in
          f ();
          T.now c - t0
        in
        let check_op what ~step op =
          List.iter
            (fun (label, after, within) ->
              let deadline = T.now c + after in
              match op deadline with
              | `Done -> ()
              | `Expired ->
                  let late = T.now c - deadline in
                  let step = step () in
                  if not (within late step) then
                    Alcotest.fail
                      (Printf.sprintf
                         "%s: %s with %s returned %d ns past it (retry step %d \
                          ns)"
                         S.name what label late step)
              | `Error e -> Alcotest.fail (S.name ^ ": " ^ what ^ ": " ^ e))
            [
              ("a future deadline", wait, ( <= ));
              ("a reached deadline", 0, ( < ));
            ]
        in
        let expired = function
          | Ok _ -> `Done
          | Error (`Timeout | `Peer_dead) -> `Expired
          | Error e -> `Error (Transport.error_to_string e)
        in
        let poll () = ignore (T.pump c : (unit, Transport.error) result) in
        (* Fill the stack until a send blocks (a stack without a bound
           accepts everything and never times out). *)
        let rec fill i =
          if i <= 64 then
            match T.send c ~deadline:(T.now c + wait) (payload i) with
            | Ok () -> fill (i + 1)
            | r -> (
                match expired r with
                | `Error e -> Alcotest.fail (S.name ^ ": send: " ^ e)
                | _ -> ())
        in
        fill 1;
        check_op "send"
          ~step:(fun () ->
            timed (fun () ->
                T.idle c;
                poll ();
                ignore
                  (T.try_send c (payload 0) : (unit, Transport.error) result)))
          (fun deadline -> expired (T.send c ~deadline (payload 0)));
        check_op "recv_deadline"
          ~step:(fun () ->
            timed (fun () ->
                T.idle c;
                ignore (T.recv c : (Bytes.t option, Transport.error) result)))
          (fun deadline -> expired (T.recv_deadline c ~deadline));
        Option.iter
          (fun flush ->
            check_op "flush"
              ~step:(fun () ->
                timed (fun () ->
                    T.idle c;
                    poll ()))
              (fun deadline ->
                match flush c ~deadline with
                | Ok () -> `Error "flushed to a peer that never reads"
                | r -> expired r))
          S.flush)
      ~b:(fun _ -> ())
      ()

  (* Full-capacity payload roundtrips intact; oversized raises. *)
  let capacity () =
    S.run_pair
      ~a:(fun c ->
        let cap = T.capacity c in
        check_bool (S.name ^ ": positive capacity") true (cap > 0);
        let big = Bytes.init cap (fun j -> Char.chr (j land 0xff)) in
        oke "send" (T.send c ~deadline:(T.now c + sec) big);
        let echo = oke "recv" (T.recv_deadline c ~deadline:(T.now c + sec)) in
        check_bool (S.name ^ ": capacity payload intact") true
          (Bytes.equal echo big);
        match T.try_send c (Bytes.create (cap + 1)) with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail (S.name ^ ": oversized payload accepted"))
      ~b:(fun c ->
        let m = oke "recv" (T.recv_deadline c ~deadline:(T.now c + sec)) in
        oke "reply" (T.send c ~deadline:(T.now c + sec) m))
      ()

  (* After close, everything reports [`Closed]. *)
  let closed () =
    S.run_pair
      ~a:(fun c ->
        T.close c;
        (match T.try_send c (Bytes.of_string "x") with
        | Error `Closed -> ()
        | Ok () -> Alcotest.fail (S.name ^ ": send on closed accepted")
        | Error e ->
            Alcotest.fail (S.name ^ ": " ^ Transport.error_to_string e));
        match T.recv c with
        | Error `Closed -> ()
        | Ok _ -> Alcotest.fail (S.name ^ ": recv on closed accepted")
        | Error e ->
            Alcotest.fail (S.name ^ ": " ^ Transport.error_to_string e))
      ~b:(fun _ -> ())
      ()

  (* Reliable stacks only: a faulted wire (drop/duplicate/reorder) must
     not break exactly-once in-order delivery. The receiver lingers
     re-acknowledging until the sender stands down, so a dropped final
     ack cannot strand the pair. *)
  let faulty_exactly_once () =
    let n = 40 in
    let rx_done = ref false and tx_done = ref false in
    S.run_pair ~faulty:true
      ~a:(fun c ->
        for i = 1 to n do
          oke "send" (T.send c ~deadline:(T.now c + sec) (payload i))
        done;
        let limit = T.now c + Vtime.s 4 in
        while (not !rx_done) && T.now c < limit do
          oke "pump" (T.pump c);
          T.idle c
        done;
        tx_done := true;
        check_bool (S.name ^ ": receiver completed under faults") true !rx_done)
      ~b:(fun c ->
        for i = 1 to n do
          let m = oke "recv" (T.recv_deadline c ~deadline:(T.now c + sec)) in
          expect "exactly-once" i m
        done;
        rx_done := true;
        let limit = T.now c + Vtime.s 4 in
        while (not !tx_done) && T.now c < limit do
          ignore (T.recv c : (Bytes.t option, Transport.error) result);
          T.idle c
        done)
      ()

  let tests =
    [
      Alcotest.test_case (S.name ^ ": pingpong") `Quick pingpong;
      Alcotest.test_case (S.name ^ ": burst") `Quick burst;
      Alcotest.test_case (S.name ^ ": recv timeout") `Quick recv_timeout;
      Alcotest.test_case (S.name ^ ": deadline rule") `Quick deadline_rule;
      Alcotest.test_case (S.name ^ ": capacity") `Quick capacity;
      Alcotest.test_case (S.name ^ ": closed") `Quick closed;
    ]
    @
    if S.reliable then
      [
        Alcotest.test_case
          (S.name ^ ": exactly-once under faults")
          `Quick faulty_exactly_once;
      ]
    else []
end

module C_loopback = Conformance (Loopback_stack)
module C_retrans_loopback = Conformance (Retrans_loopback_stack)
module C_channel = Conformance (Channel_stack)
module C_window = Conformance (Window_channel_stack)
module C_retrans = Conformance (Retrans_channel_stack)
module C_retrans_window = Conformance (Retrans_window_stack)
module C_window_retrans = Conformance (Window_retrans_stack)

(* --- receive-any groups over stacks --- *)

module GLoop = Transport.Group (Loopback)
module GRel = Transport.Group (RLoop)

(* Three senders into one group: everything arrives, and the scan is
   round-robin fair (consecutive hits rotate across members). *)
let test_group_receive_any () =
  let eng = Engine.create () in
  let pairs = List.init 3 (fun _ -> Loopback.create_pair eng ()) in
  let g = GLoop.create () in
  List.iter (fun (_, r) -> GLoop.add g r) pairs;
  List.iteri
    (fun k (l, _) ->
      Engine.spawn ~name:(Printf.sprintf "sender-%d" k) eng (fun () ->
          for i = 1 to 5 do
            terr (Loopback.try_send l (Bytes.make 4 (Char.chr (48 + k))));
            ignore i
          done))
    pairs;
  let got = Array.make 3 0 in
  let first_three = ref [] in
  Engine.spawn ~name:"group-rx" eng (fun () ->
      (* Let every sender enqueue first so the fairness of the scan is
         observable. *)
      Engine.delay 1_000;
      for n = 1 to 15 do
        let conn, payload =
          terr
            (GLoop.recv_any_deadline g
               ~deadline:(Engine.now eng + Vtime.s 1))
        in
        ignore conn;
        let k = Char.code (Bytes.get payload 0) - 48 in
        got.(k) <- got.(k) + 1;
        if n <= 3 then first_three := k :: !first_three
      done);
  Engine.run eng;
  Array.iteri
    (fun k n -> Alcotest.(check int) (Printf.sprintf "member %d count" k) 5 n)
    got;
  (* Round-robin: the first full scan visits three distinct members. *)
  Alcotest.(check int)
    "first scan touches all members" 3
    (List.length (List.sort_uniq compare !first_three))

(* Removing the member just scanned keeps the cursor on the member that
   would have been next — the same rule Endpoint_group.remove follows. *)
let test_group_remove_cursor () =
  let eng = Engine.create () in
  let pairs = List.init 3 (fun _ -> Loopback.create_pair eng ()) in
  let rights = List.map snd pairs in
  let g = GLoop.create () in
  List.iter (GLoop.add g) rights;
  Engine.spawn ~name:"cursor" eng (fun () ->
      List.iteri
        (fun k (l, _) ->
          terr (Loopback.try_send l (Bytes.make 1 (Char.chr (48 + k)))))
        pairs;
      Engine.yield ();
      (* First scan hits member 0; cursor now points at member 1. *)
      (match terr (GLoop.recv_any g) with
      | Some (_, p) -> Alcotest.(check char) "first hit" '0' (Bytes.get p 0)
      | None -> Alcotest.fail "no message");
      GLoop.remove g (List.nth rights 0);
      Alcotest.(check int) "member removed" 2 (GLoop.length g);
      (* The cursor must still scan member 1 next, not skip to 2. *)
      (match terr (GLoop.recv_any g) with
      | Some (_, p) ->
          Alcotest.(check char) "cursor preserved after remove" '1'
            (Bytes.get p 0)
      | None -> Alcotest.fail "no message after remove");
      (* Empty group: recv_any is None, deadline wait is `Closed. *)
      GLoop.remove g (List.nth rights 1);
      GLoop.remove g (List.nth rights 2);
      (match terr (GLoop.recv_any g) with
      | None -> ()
      | Some _ -> Alcotest.fail "message from empty group");
      match GLoop.recv_any_deadline g ~deadline:(Engine.now eng + 1_000) with
      | Error `Closed -> ()
      | Ok _ | Error _ -> Alcotest.fail "empty group should report `Closed");
  Engine.run eng

(* Receive-any over reliable stacks: two lossy loopback connections,
   each wrapped in the retransmission layer, fanned into one group —
   every message arrives exactly once despite the drops. *)
let test_group_over_reliable () =
  let eng = Engine.create () in
  let mk () =
    let l, r = Loopback.create_pair ~drop:0.15 ~seed:9 eng () in
    (RLoop.create l ~config:rcfg (), RLoop.create r ~config:rcfg ())
  in
  let l0, r0 = mk () and l1, r1 = mk () in
  let g = GRel.create () in
  GRel.add g r0;
  GRel.add g r1;
  let per_sender = 12 in
  let done_rx = ref false in
  let spawn_tx name conn tag =
    Engine.spawn ~name eng (fun () ->
        for i = 1 to per_sender do
          terr
            (RLoop.send conn
               ~deadline:(Engine.now eng + Vtime.s 2)
               (Bytes.make 3 (Char.chr (48 + (10 * tag) + (i mod 10)))));
          ignore i
        done;
        (* Keep retransmitting until the group has drained everything. *)
        let limit = Engine.now eng + Vtime.s 4 in
        while (not !done_rx) && Engine.now eng < limit do
          terr (RLoop.pump conn);
          RLoop.idle conn
        done)
  in
  spawn_tx "rel-tx-0" l0 0;
  spawn_tx "rel-tx-1" l1 1;
  let got = ref 0 in
  Engine.spawn ~name:"rel-group-rx" eng (fun () ->
      for _ = 1 to 2 * per_sender do
        ignore
          (terr
             (GRel.recv_any_deadline g ~deadline:(Engine.now eng + Vtime.s 2))
            : RLoop.t * Bytes.t);
        incr got
      done;
      done_rx := true);
  Engine.run eng;
  Alcotest.(check int)
    "group over reliable stacks drained" (2 * per_sender) !got;
  Alcotest.(check int)
    "exactly-once per member" per_sender (RLoop.delivered r0);
  Alcotest.(check int)
    "exactly-once per member (1)" per_sender (RLoop.delivered r1)

(* Blocking receive-any on a machine: a scheduler thread sleeps on the
   group semaphore (no polling), two channel transports wired to the
   same semaphore fan into it. The second member joins only after its
   traffic has already been deposited — the add's spurious post must
   wake the sleeping waiter (the lost-wakeup window recv_any_wait
   inherits from Endpoint_group). *)
module Rt_semaphore = Flipc_rt.Rt_semaphore
module GCT = Transport.Group (CT)

let test_group_recv_any_wait () =
  let config =
    Flipc_flow.Provision.config_for ~base:Config.default ~buffers:16
  in
  let machine =
    Machine.create ~config (Machine.Mesh { cols = 2; rows = 1 }) ()
  in
  let addr0 = Mailbox.create () and addr1 = Mailbox.create () in
  let per_sender = 6 in
  let hits0 = ref 0 and hits1 = ref 0 in
  Machine.spawn_app ~name:"fan-in" machine ~node:1 (fun api ->
      let sem = Rt_semaphore.create (Machine.sched (Machine.node machine 1)) in
      let c0 = terr (CT.create api ~pool:4 ~depth:8 ~semaphore:sem ()) in
      let c1 = terr (CT.create api ~pool:4 ~depth:8 ~semaphore:sem ()) in
      Mailbox.put addr0 (CT.address c0);
      Mailbox.put addr1 (CT.address c1);
      let g = GCT.create ~semaphore:sem () in
      GCT.add g c0;
      ignore
        (Machine.spawn_thread machine ~node:1 ~priority:5 (fun thr _api ->
             (match GCT.recv_any_wait (GCT.create ()) thr with
             | exception Invalid_argument _ -> ()
             | _ -> Alcotest.fail "recv_any_wait without a semaphore");
             for _ = 1 to 2 * per_sender do
               let conn, payload = terr (GCT.recv_any_wait g thr) in
               check_bool "payload intact" true (Bytes.length payload = 4);
               if conn == c0 then incr hits0
               else if conn == c1 then incr hits1
               else Alcotest.fail "delivery from an unknown member"
             done)
          : Flipc_rt.Sched.thread);
      (* By now both senders have long finished: c1's messages sit in
         its queue with the semaphore posts already consumed. *)
      Engine.delay (Vtime.ms 2);
      GCT.add g c1);
  let spawn_tx node mbox =
    Machine.spawn_app ~name:(Printf.sprintf "tx-%d" node) machine ~node:0
      (fun api ->
        let c = terr (CT.create api ~pool:4 ~depth:8 ()) in
        terr (CT.connect c (Mailbox.take mbox));
        for i = 1 to per_sender do
          terr
            (CT.send c
               ~deadline:(Engine.now (Machine.sim machine) + Vtime.s 1)
               (Bytes.make 4 (Char.chr (64 + node + i))))
        done)
  in
  spawn_tx 0 addr0;
  spawn_tx 1 addr1;
  Machine.run ~until:(Vtime.ms 50) machine;
  Machine.stop_engines machine;
  Machine.run machine;
  Alcotest.(check int) "member 0 drained" per_sender !hits0;
  Alcotest.(check int) "late member drained despite early traffic"
    per_sender !hits1

let () =
  Alcotest.run "transport"
    [
      ("conformance: loopback", C_loopback.tests);
      ("conformance: retrans-loopback", C_retrans_loopback.tests);
      ("conformance: channel", C_channel.tests);
      ("conformance: window-channel", C_window.tests);
      ("conformance: retrans-channel", C_retrans.tests);
      ("conformance: retrans-window-channel", C_retrans_window.tests);
      ("conformance: window-retrans-channel", C_window_retrans.tests);
      ( "groups",
        [
          Alcotest.test_case "receive-any fairness" `Quick
            test_group_receive_any;
          Alcotest.test_case "remove keeps cursor" `Quick
            test_group_remove_cursor;
          Alcotest.test_case "receive-any over reliable stacks" `Quick
            test_group_over_reliable;
          Alcotest.test_case "blocking receive-any on the rt semaphore" `Quick
            test_group_recv_any_wait;
        ] );
    ]
