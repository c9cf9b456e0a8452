(* Soak tests: many concurrent traffic sources on one machine, with
   machine-wide accounting invariants checked at the end.

   The key invariant: with only valid destinations, every message an
   engine transmits is either deposited or discarded at its destination —
   sum(sends) = sum(recvs) + sum(drops) across the whole machine.

   The random flows run over {!Flipc_flow.Window_layer} credit flow
   control rather than the raw optimistic {!Flipc.Channel}: the raw transport
   gives no delivery guarantee, and under unlucky seeds (QCHECK_SEED=12
   derived seed 9888) a victim receiver sharing its CPU port with a busy
   sender drained its posted window, dropped a message, and the
   "receive until count" loop spun forever. The window bounds in-flight
   messages so nothing is dropped, and every poll loop carries a
   virtual-time watchdog that dumps a flight-recorder report instead of
   hanging when progress stops. An online invariant monitor
   ({!Flipc.Machine.attach_monitor}) rides along and must stay clean. *)

module Sim = Flipc_sim.Engine
module Mem_port = Flipc_memsim.Mem_port
module Machine = Flipc.Machine
module Api = Flipc.Api
module Config = Flipc.Config
module Vtime = Flipc_sim.Vtime
module CT = Flipc_flow.Channel_transport
module WL = Flipc_flow.Window_layer.Make (CT)
module Nameservice = Flipc.Nameservice
module Msg_engine = Flipc.Msg_engine
module Endpoint_kind = Flipc.Endpoint_kind
module Monitor = Flipc_obs.Monitor
module Prng = Flipc_sim.Prng

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let terr = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Flipc_flow.Transport.error_to_string e)

let machine_totals machine =
  let sends = ref 0 and recvs = ref 0 and drops = ref 0 in
  for i = 0 to Machine.node_count machine - 1 do
    let s = Msg_engine.stats (Machine.msg_engine (Machine.node machine i)) in
    sends := !sends + s.Msg_engine.sends;
    recvs := !recvs + s.Msg_engine.recvs;
    drops := !drops + s.Msg_engine.drops
  done;
  (!sends, !recvs, !drops)

(* On watchdog expiry, fail loudly with the flight recorder instead of
   spinning: queue depths, engine counters, event-ring tails and (when
   known) the stalled message's causal trace. *)
let stall machine wd ?mid () =
  Alcotest.fail (Monitor.Watchdog.report ?mid wd [ Machine.obs machine ])

(* Flow payloads are length-framed (4-byte little-endian prefix) so the
   receiver can check integrity without a per-flow side channel. *)
let frame payload =
  let b = Bytes.create (4 + Bytes.length payload) in
  Bytes.set_int32_le b 0 (Int32.of_int (Bytes.length payload));
  Bytes.blit payload 0 b 4 (Bytes.length payload);
  b

(* One soak scenario: [pairs] credit-windowed flows between pseudo-random
   node pairs of a 3x3 mesh, each with its own message count and payload
   size; plus one deliberately under-buffered endpoint taking a flood of
   raw optimistic sends (to force discards into the accounting). *)
let run_soak ~seed ~pairs =
  let config =
    { Config.default with Config.endpoints = 32; total_buffers = 192 }
  in
  let machine = Machine.create ~config (Machine.Mesh { cols = 3; rows = 3 }) () in
  let mon = Machine.attach_monitor machine in
  let sim = Machine.sim machine in
  let ns = Machine.names machine in
  let prng = Prng.create ~seed in
  let nodes = Machine.node_count machine in
  let window = 6 in
  let expected = ref 0 in
  let delivered = ref 0 in
  for flow = 0 to pairs - 1 do
    let src = Prng.int prng nodes in
    let dst = (src + 1 + Prng.int prng (nodes - 1)) mod nodes in
    let count = 10 + Prng.int prng 30 in
    let payload = 1 + Prng.int prng 100 in
    let name = Printf.sprintf "flow-%d" flow in
    expected := !expected + count;
    (* Each end registers its channel's receive address and connects
       to the other's. *)
    let connect api ~mine ~theirs =
      let base = terr (CT.create api ~depth:(window + 2) ()) in
      Nameservice.register ns (name ^ mine) (CT.address base);
      terr (CT.connect base (Nameservice.lookup ns (name ^ theirs)));
      WL.create base ~window ~site:(CT.site base) ()
    in
    Machine.spawn_app ~name:(name ^ "-rx") machine ~node:dst (fun api ->
        let rx = connect api ~mine:"-rx" ~theirs:"-tx" in
        let wd = Monitor.Watchdog.create ~sim ~name:(name ^ "-rx") () in
        let got = ref 0 in
        while !got < count do
          match terr (WL.recv rx) with
          | Some p ->
              check ("frame length " ^ name) payload
                (Int32.to_int (Bytes.get_int32_le p 0));
              Monitor.Watchdog.progress wd;
              incr got;
              incr delivered
          | None ->
              if Monitor.Watchdog.expired wd then
                stall machine wd ~mid:(Api.last_recv_msg_id api) ();
              WL.idle rx
        done);
    Machine.spawn_app ~name:(name ^ "-tx") machine ~node:src (fun api ->
        let tx = connect api ~mine:"-tx" ~theirs:"-rx" in
        let wd = Monitor.Watchdog.create ~sim ~name:(name ^ "-tx") () in
        let image = frame (Bytes.make payload 'x') in
        for _ = 1 to count do
          let rec push () =
            match WL.send tx ~deadline:(WL.now tx + Vtime.ms 1) image with
            | Ok () -> Monitor.Watchdog.progress wd
            | Error `Timeout ->
                if Monitor.Watchdog.expired wd then
                  stall machine wd ~mid:(Api.last_msg_id api) ();
                push ()
            | Error e -> Alcotest.fail (Flipc_flow.Transport.error_to_string e)
          in
          push ()
        done)
  done;
  (* The flood victim: two buffers, slow consumer, bounded run. *)
  let flood_count = 150 in
  let flood_drops = ref 0 and flood_got = ref 0 in
  Machine.spawn_app ~name:"victim" machine ~node:4 (fun api ->
      let ep =
        Result.get_ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ())
      in
      for _ = 1 to 2 do
        ignore
          (Api.post_receive api ep (Result.get_ok (Api.allocate_buffer api))
            : (unit, Api.error) result)
      done;
      Nameservice.register ns "victim" (Api.address api ep);
      let wd = Monitor.Watchdog.create ~sim ~name:"victim" () in
      while !flood_got + !flood_drops < flood_count do
        (match Api.receive api ep with
        | Some buf ->
            incr flood_got;
            Monitor.Watchdog.progress wd;
            Mem_port.instr (Api.port api) 3_000;
            ignore (Api.post_receive api ep buf : (unit, Api.error) result)
        | None ->
            if Monitor.Watchdog.expired wd then
              stall machine wd ~mid:(Api.last_recv_msg_id api) ();
            Mem_port.instr (Api.port api) 10);
        let d = Api.drops_read_and_reset api ep in
        if d > 0 then Monitor.Watchdog.progress wd;
        flood_drops := !flood_drops + d
      done);
  Machine.spawn_app ~name:"flooder" machine ~node:8 (fun api ->
      let ep =
        Result.get_ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ())
      in
      Api.connect api ep (Nameservice.lookup ns "victim");
      let buf = Result.get_ok (Api.allocate_buffer api) in
      let wd = Monitor.Watchdog.create ~sim ~name:"flooder" () in
      for _ = 1 to flood_count do
        (match Api.send api ep buf with Ok () -> () | Error _ -> ());
        let rec reclaim () =
          match Api.reclaim api ep with
          | Some _ -> Monitor.Watchdog.progress wd
          | None ->
              if Monitor.Watchdog.expired wd then
                stall machine wd ~mid:(Api.last_msg_id api) ();
              Mem_port.instr (Api.port api) 5;
              reclaim ()
        in
        reclaim ()
      done);
  Machine.run machine;
  Machine.stop_engines machine;
  Machine.run machine;
  let sends, recvs, drops = machine_totals machine in
  check "all windowed flows complete" !expected !delivered;
  check "flood accounted" flood_count (!flood_got + !flood_drops);
  check_bool "flood actually dropped" true (!flood_drops > 0);
  check "machine-wide conservation" sends (recvs + drops);
  if not (Monitor.clean mon) then
    Alcotest.fail (Format.asprintf "@[<v>%a@]" Monitor.pp_report mon)

let test_soak_small () = run_soak ~seed:101 ~pairs:4
let test_soak_large () = run_soak ~seed:202 ~pairs:10

(* ------------------------------------------------------------------ *)
(* Layered-stack soak matrix: the composed {!Flipc_flow.Transport}
   stacks (Retrans_layer over Channel_transport, and the deeper
   retrans-over-window tower) driven all-to-all through faulted
   fabrics by {!Flipc_workload.Stackflow}, with the invariant monitor
   and per-flow watchdogs attached. Exactly-once is the bar: delivered
   must equal expected, nothing may leak a corrupt payload past the
   frame checksum, no watchdog may expire, and on lossy cells the
   retransmission layer must have visibly worked for the cell to count
   as exercised. *)

module Stackflow = Flipc_workload.Stackflow
module Faulty = Flipc_net.Faulty

let stack_fault ~scenario ~seed =
  let hold = 100_000 in
  match scenario with
  | "uniform" ->
      Faulty.config ~drop:0.05 ~duplicate:0.02 ~reorder:0.15
        ~reorder_hold_ns:hold ~seed ()
  | "burst" ->
      Faulty.config
        ~burst:(Faulty.burst ~p_good_bad:0.05 ~p_bad_good:0.3 ~drop_bad:0.5 ())
        ~seed ()
  | "corrupt" -> Faulty.config ~corrupt:0.08 ~seed ()
  | "combined" ->
      Faulty.config ~drop:0.03 ~duplicate:0.02 ~reorder:0.1
        ~reorder_hold_ns:hold ~corrupt:0.03
        ~burst:(Faulty.burst ~p_good_bad:0.03 ~p_bad_good:0.3 ~drop_bad:0.4 ())
        ~seed ()
  | _ -> assert false

let run_stack_cell ?(stack = Stackflow.Retrans_over_channel) ~scenario
    ~messages () =
  let fault = stack_fault ~scenario ~seed:(4242 + String.length scenario) in
  let r =
    Stackflow.run ~stack ~fault
      ~kind:(Machine.Mesh { cols = 2; rows = 2 })
      ~messages ()
  in
  let label fmt =
    Printf.ksprintf
      (fun s -> Printf.sprintf "%s/%s %s" (Stackflow.stack_name stack) scenario s)
      fmt
  in
  check (label "exactly-once delivery") r.Stackflow.expected
    r.Stackflow.delivered;
  check (label "no corrupt payload leaks") 0 r.Stackflow.corrupt_leaks;
  check (label "no stalled flows") 0 r.Stackflow.watchdogs_expired;
  check (label "monitor violations") 0 r.Stackflow.monitor_violations;
  check_bool (label "cell verdict clean") true r.Stackflow.clean;
  check_bool (label "faults actually exercised recovery") true
    (r.Stackflow.counters.Stackflow.retransmits > 0)

(* The clean-fabric control: the deepest tower (retrans over window over
   channel) completes without a single retransmission — flow control
   alone paces it. Under wire loss this composition is excluded by the
   stacking rule (a dropped data frame permanently eats a window
   credit), which the transport conformance suite pins separately. *)
let test_stack_tower_clean () =
  let r =
    Stackflow.run ~stack:Stackflow.Retrans_over_window
      ~kind:(Machine.Mesh { cols = 2; rows = 2 })
      ~messages:20 ()
  in
  check "tower exactly-once" r.Stackflow.expected r.Stackflow.delivered;
  check_bool "tower clean" true r.Stackflow.clean;
  check "tower needs no retransmissions on a clean fabric" 0
    r.Stackflow.counters.Stackflow.retransmits

let soak_prop =
  QCheck.Test.make ~name:"soak conservation over random seeds" ~count:5
    QCheck.(int_bound 10_000)
    (fun seed ->
      run_soak ~seed:(seed + 1) ~pairs:5;
      true)

let () =
  Alcotest.run "soak"
    [
      ( "scenarios",
        [
          Alcotest.test_case "small" `Quick test_soak_small;
          Alcotest.test_case "large" `Slow test_soak_large;
          QCheck_alcotest.to_alcotest soak_prop;
        ] );
      ( "stacks",
        [
          Alcotest.test_case "retrans/channel, uniform faults" `Quick
            (run_stack_cell ~scenario:"uniform" ~messages:12);
          Alcotest.test_case "retrans/channel, burst loss" `Quick
            (run_stack_cell ~scenario:"burst" ~messages:12);
          Alcotest.test_case "retrans/channel, corruption" `Quick
            (run_stack_cell ~scenario:"corrupt" ~messages:12);
          Alcotest.test_case "retrans/channel, combined faults" `Slow
            (run_stack_cell ~scenario:"combined" ~messages:30);
          Alcotest.test_case "retrans/window tower, clean fabric" `Quick
            test_stack_tower_clean;
        ] );
    ]
