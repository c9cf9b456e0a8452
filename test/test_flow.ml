(* Tests for flow control: static provisioning math and the credit-window
   layer over the channel transport. *)

module Sim = Flipc_sim.Engine
module Mailbox = Flipc_sim.Sync.Mailbox
module Mem_port = Flipc_memsim.Mem_port
module Config = Flipc.Config
module Api = Flipc.Api
module Machine = Flipc.Machine
module Endpoint_kind = Flipc.Endpoint_kind
module Vtime = Flipc_sim.Vtime
module Provision = Flipc_flow.Provision
module CT = Flipc_flow.Channel_transport
module WL = Flipc_flow.Window_layer.Make (CT)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Api.error_to_string e)

let encode i =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int i);
  b

(* --- Provision --- *)

let test_rpc_rule () =
  check "clients x outstanding" 12
    (Provision.rpc_buffers ~clients:4 ~outstanding_per_client:3);
  check "zero clients" 0 (Provision.rpc_buffers ~clients:0 ~outstanding_per_client:5)

let test_periodic_rule () =
  check "double buffering" 20
    (Provision.periodic_buffers ~senders:2 ~messages_per_period:5)

let test_queue_capacity_rule () =
  check "one-slot-empty ring" 9 (Provision.queue_capacity_for ~buffers:8);
  Alcotest.check_raises "zero rejected"
    (Invalid_argument "Provision.queue_capacity_for: < 1") (fun () ->
      ignore (Provision.queue_capacity_for ~buffers:0))

let test_config_for () =
  let c = Provision.config_for ~base:Config.default ~buffers:20 in
  check_bool "queue grows" true (c.Config.queue_capacity >= 21);
  check_bool "pool grows" true (c.Config.total_buffers >= 40);
  (* A small requirement leaves the base config untouched. *)
  let c2 = Provision.config_for ~base:Config.default ~buffers:2 in
  check "unchanged queue" Config.default.Config.queue_capacity
    c2.Config.queue_capacity

(* --- Window_layer over Channel_transport --- *)

(* Full producer/consumer scenario. Without flow control the producer's
   burst would overrun the consumer's posted buffers and drop; with the
   window it must deliver everything. [delays] paces the consumer after
   each message (default: [consumer_delay_ns] every time). *)
let run_windowed ?delays ~window ~messages ~consumer_delay_ns () =
  let config = Provision.config_for ~base:Config.default ~buffers:(window + 4) in
  let machine = Machine.create ~config (Machine.Mesh { cols = 2; rows = 1 }) () in
  let delivered = ref 0 and drops = ref 0 in
  let sender_credits_exhausted = ref false in
  let remaining = ref (Option.value delays ~default:[]) in
  let consume () =
    match !remaining with
    | d :: rest ->
        remaining := rest;
        d
    | [] -> consumer_delay_ns
  in
  Pair.spawn machine
    ~wrap:(fun base site -> (base, WL.create base ~window ~site ()))
    ~a:(fun (_, c) ->
      for i = 1 to messages do
        if WL.credits_available c = 0 then sender_credits_exhausted := true;
        Pair.terr (WL.send c ~deadline:(WL.now c + Vtime.ms 500) (encode i))
      done)
    ~b:(fun (base, c) ->
      while !delivered < messages do
        match Pair.terr (WL.recv c) with
        | Some p ->
            incr delivered;
            check "in order" !delivered (Int32.to_int (Bytes.get_int32_le p 0));
            (* Slow consumer. *)
            Sim.delay (consume ())
        | None -> WL.idle c
      done;
      drops := CT.drops base)
    ();
  Pair.drain machine;
  (!delivered, !drops, !sender_credits_exhausted)

let test_window_no_drops_under_overload () =
  let delivered, drops, exhausted =
    run_windowed ~window:4 ~messages:60 ~consumer_delay_ns:60_000 ()
  in
  check "all delivered" 60 delivered;
  check "zero drops" 0 drops;
  check_bool "window actually throttled" true exhausted

let test_window_fast_consumer () =
  let delivered, drops, _ =
    run_windowed ~window:4 ~messages:40 ~consumer_delay_ns:0 ()
  in
  check "all delivered" 40 delivered;
  check "zero drops" 0 drops

(* Contrast: the same overload without flow control does drop. *)
let test_unwindowed_overload_drops () =
  let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
  let data_addr = Mailbox.create () in
  let drops = ref 0 and delivered = ref 0 in
  let total = 60 in
  Machine.spawn_app machine ~node:1 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      for _ = 1 to 2 do
        ok (Api.post_receive api ep (ok (Api.allocate_buffer api)))
      done;
      Mailbox.put data_addr (Api.address api ep);
      let deadline = Sim.now (Machine.sim machine) + Flipc_sim.Vtime.ms 20 in
      while Sim.now (Machine.sim machine) < deadline do
        (match Api.receive api ep with
        | Some buf ->
            incr delivered;
            Mem_port.instr (Api.port api) 3_000;
            ok (Api.post_receive api ep buf)
        | None -> Mem_port.instr (Api.port api) 10);
        drops := !drops + Api.drops_read_and_reset api ep
      done);
  Machine.spawn_app machine ~node:0 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
      Api.connect api ep (Mailbox.take data_addr);
      let buf = ok (Api.allocate_buffer api) in
      for _ = 1 to total do
        ok (Api.send api ep buf);
        let rec reclaim () =
          match Api.reclaim api ep with
          | Some _ -> ()
          | None ->
              Mem_port.instr (Api.port api) 5;
              reclaim ()
        in
        reclaim ()
      done);
  Machine.run machine;
  Machine.stop_engines machine;
  Machine.run machine;
  check_bool "burst overruns without flow control" true (!drops > 0);
  check "accounting adds up" total (!delivered + !drops)

(* With the window exhausted and a receiver that never consumes,
   [try_send] refuses with [`No_buffer] instead of sending. *)
let test_try_send_respects_window () =
  let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
  let refused = ref false in
  Pair.spawn machine
    ~wrap:(fun base site -> WL.create base ~window:2 ~site ())
    ~a:(fun c ->
      check "initial credits" 2 (WL.credits_available c);
      check_bool "1st" true (WL.try_send c (encode 1) = Ok ());
      check_bool "2nd" true (WL.try_send c (encode 2) = Ok ());
      refused := WL.try_send c (encode 3) = Error `No_buffer;
      check "sent" 2 (WL.messages_sent c))
    ~b:(fun _ -> () (* never consumes: credits never return *))
    ();
  Pair.drain machine;
  check_bool "3rd refused" true !refused

(* Property: whatever the consumer's pacing, the window never lets the
   transport discard. *)
let window_never_drops_prop =
  QCheck.Test.make ~name:"window never drops under random pacing" ~count:12
    QCheck.(pair (int_range 1 6) (list_of_size Gen.(int_range 5 25) (int_bound 80)))
    (fun (window, delays) ->
      let messages = List.length delays in
      let delivered, drops, _ =
        run_windowed
          ~delays:(List.map (fun d -> 20 * (1 + (d * 50))) delays)
          ~window ~messages ~consumer_delay_ns:0 ()
      in
      delivered = messages && drops = 0)

let () =
  Alcotest.run "flow"
    [
      ( "provision",
        [
          Alcotest.test_case "rpc rule" `Quick test_rpc_rule;
          Alcotest.test_case "periodic rule" `Quick test_periodic_rule;
          Alcotest.test_case "queue capacity" `Quick test_queue_capacity_rule;
          Alcotest.test_case "config_for" `Quick test_config_for;
        ] );
      ( "window",
        [
          Alcotest.test_case "no drops under overload" `Quick
            test_window_no_drops_under_overload;
          Alcotest.test_case "fast consumer" `Quick test_window_fast_consumer;
          Alcotest.test_case "unwindowed drops" `Quick
            test_unwindowed_overload_drops;
          Alcotest.test_case "try_send window" `Quick
            test_try_send_respects_window;
          QCheck_alcotest.to_alcotest window_never_drops_prop;
        ] );
    ]
