(* The correlation-and-diagnosis layer: online invariant monitors catch
   seeded violations with the offending message id, causal spans
   reconstruct a message's cross-machine path in stage order, clean runs
   over a lossy fabric produce zero false positives, and the progress
   watchdog renders a flight-recorder report naming the stalled stage. *)

module Sim = Flipc_sim.Engine
module Vtime = Flipc_sim.Vtime
module Mailbox = Flipc_sim.Sync.Mailbox
module Mem_port = Flipc_memsim.Mem_port
module Config = Flipc.Config
module Machine = Flipc.Machine
module Api = Flipc.Api
module Layout = Flipc.Layout
module Comm_buffer = Flipc.Comm_buffer
module Endpoint_kind = Flipc.Endpoint_kind
module Nameservice = Flipc.Nameservice
module Faulty = Flipc_net.Faulty
module Stackflow = Flipc_workload.Stackflow
module Provision = Flipc_flow.Provision
module Obs = Flipc_obs.Obs
module Event = Flipc_obs.Event
module Causal = Flipc_obs.Causal
module Monitor = Flipc_obs.Monitor

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Api.error_to_string e)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec at i = i + nl <= hl && (String.sub haystack i nl = needle || at (i + 1)) in
  at 0

(* --- seeded violations, synthetic event streams --- *)

let test_monitor_double_delivery () =
  let sim = Sim.create () in
  let obs = Obs.create ~sim () in
  let mon = Monitor.attach obs in
  Obs.event obs (Event.Frame_deliver { node = 1; ep = 0; seq = 1; mid = 11 });
  Obs.event obs (Event.Frame_deliver { node = 1; ep = 0; seq = 2; mid = 12 });
  check_bool "clean so far" true (Monitor.clean mon);
  (* The reliability layer must release each frame exactly once: replay
     seq 2 under a fresh mid (a retransmitted copy leaking through). *)
  Obs.event obs (Event.Frame_deliver { node = 1; ep = 0; seq = 2; mid = 13 });
  (match Monitor.violations mon with
  | [ v ] ->
      check_str "rule" "retrans.duplicate_delivery" v.Monitor.rule;
      check "offending mid" 13 v.Monitor.mid;
      check "node" 1 v.Monitor.node;
      check_bool "causal history attached" true (v.Monitor.history <> "")
  | vs -> Alcotest.fail (Printf.sprintf "expected 1 violation, got %d" (List.length vs)));
  (* One report per site: replaying again stays at one violation. *)
  Obs.event obs (Event.Frame_deliver { node = 1; ep = 0; seq = 2; mid = 14 });
  check "deduplicated per site" 1 (List.length (Monitor.violations mon))

let test_monitor_credit_leak () =
  let sim = Sim.create () in
  let obs = Obs.create ~sim () in
  let mon = Monitor.attach obs in
  Obs.event obs
    (Event.Window_send
       { node = 0; ep = 1; mid = 21; sent = 1; granted = 0; window = 4 });
  check_bool "in-window send is clean" true (Monitor.clean mon);
  (* A sender that leaked credits: 6 outstanding against a window of 4. *)
  Obs.event obs
    (Event.Window_send
       { node = 0; ep = 1; mid = 22; sent = 6; granted = 0; window = 4 });
  match Monitor.violations mon with
  | [ v ] ->
      check_str "rule" "window.credit_conservation" v.Monitor.rule;
      check "offending mid" 22 v.Monitor.mid
  | vs -> Alcotest.fail (Printf.sprintf "expected 1 violation, got %d" (List.length vs))

let test_monitor_sack_window () =
  let sim = Sim.create () in
  let obs = Obs.create ~sim () in
  let mon = Monitor.attach obs in
  Obs.event obs (Event.Frame_deliver { node = 1; ep = 0; seq = 1; mid = 31 });
  (* Acknowledging frame 3 when only frame 1 was ever delivered. *)
  Obs.event obs (Event.Ack_tx { node = 1; ep = 0; cum = 3; sacked = 0 });
  match Monitor.violations mon with
  | [ v ] -> check_str "rule" "retrans.sack_window" v.Monitor.rule
  | vs -> Alcotest.fail (Printf.sprintf "expected 1 violation, got %d" (List.length vs))

(* --- seeded violation, end to end: corrupt a queue cursor word --- *)

let test_monitor_corrupt_queue_pointer () =
  let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
  let mon = Machine.attach_monitor machine in
  let ns = Machine.names machine in
  let count = 4 in
  Machine.spawn_app ~name:"rx" machine ~node:1 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      (* A second, idle endpoint whose cursor we corrupt mid-run; nothing
         uses it, so only the monitor can notice. *)
      let victim = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      for _ = 1 to count do
        ok (Api.post_receive api ep (ok (Api.allocate_buffer api)))
      done;
      Nameservice.register ns "rx" (Api.address api ep);
      let got = ref 0 in
      while !got < count do
        match Api.receive api ep with
        | Some _ ->
            incr got;
            if !got = 1 then begin
              let layout =
                Comm_buffer.layout (Machine.comm (Machine.node machine 1))
              in
              Mem_port.poke (Api.port api)
                (Layout.ep_field layout ~ep:(Api.endpoint_index victim)
                   Layout.Acquire)
                7777
            end
        | None -> Mem_port.instr (Api.port api) 5
      done);
  Machine.spawn_app ~name:"tx" machine ~node:0 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
      Api.connect api ep (Nameservice.lookup ns "rx");
      let buf = ok (Api.allocate_buffer api) in
      for _ = 1 to count do
        ok (Api.send api ep buf);
        let rec reclaim () =
          match Api.reclaim api ep with
          | Some _ -> ()
          | None ->
              Mem_port.instr (Api.port api) 5;
              reclaim ()
        in
        reclaim ();
        Sim.delay (Vtime.us 20)
      done);
  Machine.run machine;
  Machine.stop_engines machine;
  Machine.run machine;
  match
    List.find_opt
      (fun v -> v.Monitor.rule = "queue.pointer_order")
      (Monitor.violations mon)
  with
  | Some v ->
      check "node" 1 v.Monitor.node;
      check_bool "names the endpoint" true (contains ~needle:"endpoint" v.Monitor.detail);
      check_bool "cursor value reported" true (contains ~needle:"7777" v.Monitor.detail)
  | None -> Alcotest.fail "queue.pointer_order violation not caught"

(* --- clean lossy soak: zero false positives --- *)

let test_monitor_clean_on_lossy_mesh () =
  let fault =
    Faulty.config ~drop:0.04 ~duplicate:0.02 ~reorder:0.2
      ~reorder_hold_ns:100_000 ~seed:5 ()
  in
  let r =
    Stackflow.run ~fault ~flows:2 ~messages:12
      ~kind:(Machine.Mesh { cols = 4; rows = 4 })
      ()
  in
  let mon = r.Stackflow.monitor in
  check "all delivered" r.Stackflow.expected r.Stackflow.delivered;
  check_bool "monitor saw traffic" true (Monitor.events_seen mon > 0);
  if not (Monitor.clean mon) then
    Alcotest.fail (Format.asprintf "false positives:@.%a" Monitor.pp_report mon);
  check_bool "spans reconstructed" true
    (Causal.spans [ Machine.obs r.Stackflow.machine ] <> [])

(* --- layer events over the channel transport --- *)

module CT = Flipc_flow.Channel_transport
module RC = Flipc_flow.Retrans_layer.Make (CT)
module WL = Flipc_flow.Window_layer.Make (CT)

(* One flow of [messages] over a layer on the channel transport between
   the two nodes of a monitored mesh: the receiver lingers until the
   sender stands down, so a lost final ack cannot strand it. *)
module Layer_flow (T : Flipc_flow.Transport.S) = struct
  let run machine ~wrap ~messages =
    let rx_done = ref false and tx_done = ref false in
    Pair.spawn machine ~wrap
      ~a:(fun c ->
        for i = 1 to messages do
          Pair.terr
            (T.send c
               ~deadline:(T.now c + Vtime.ms 50)
               (Bytes.make 16 (Char.chr i)))
        done;
        while not !rx_done do
          Pair.terr (T.pump c);
          T.idle c
        done;
        tx_done := true)
      ~b:(fun c ->
        let got = ref 0 in
        while !got < messages do
          match Pair.terr (T.recv c) with Some _ -> incr got | None -> T.idle c
        done;
        rx_done := true;
        while not !tx_done do
          ignore (Pair.terr (T.recv c) : Bytes.t option);
          T.idle c
        done)
      ()
end

module Retrans_flow = Layer_flow (RC)
module Window_flow = Layer_flow (WL)

(* Both layer flows, each on its own monitored machine — the retrans one
   over a lossy wire — with every recorded event captured in order. The
   layers get their trace site only when [site]. *)
let layer_runs ~site =
  let rcfg =
    {
      Flipc_flow.Retrans_layer.default_config with
      Flipc_flow.Retrans_layer.rto_ns = 200_000;
      max_rto_ns = 1_600_000;
    }
  in
  let site s = if site then Some s else None in
  let run ?fault flow =
    let config = Provision.config_for ~base:Config.default ~buffers:16 in
    let machine =
      Machine.create ~config ?fault (Machine.Mesh { cols = 2; rows = 1 }) ()
    in
    let mon = Machine.attach_monitor machine in
    let events = ref [] in
    Obs.add_watcher (Machine.obs machine) (fun now ev ->
        events := (now, ev) :: !events);
    flow machine;
    Pair.drain machine;
    (machine, mon, List.rev !events)
  in
  [
    run ~fault:(Faulty.config ~drop:0.1 ~seed:3 ()) (fun m ->
        Retrans_flow.run m ~messages:60 ~wrap:(fun base s ->
            RC.create base ~config:rcfg ?site:(site s) ()));
    run (fun m ->
        Window_flow.run m ~messages:60 ~wrap:(fun base s ->
            WL.create base ~window:4 ?site:(site s) ()));
  ]

let layer_kinds =
  [ "frame_tx"; "frame_deliver"; "ack_tx"; "window_send"; "credit_grant" ]

let kinds_seen runs =
  List.concat_map
    (fun (_, _, evs) -> List.map (fun (_, ev) -> Event.name ev) evs)
    runs
  |> List.filter (fun k -> List.mem k layer_kinds)
  |> List.sort_uniq compare

(* With a site, the layers feed the monitor all five flow-event kinds,
   the invariants hold on a lossy run, causal tracing links the
   retransmitted frames, and a Frame_deliver replayed twice from the
   captured stream is caught as a duplicate delivery. *)
let test_layer_events_monitored () =
  let runs = layer_runs ~site:true in
  Alcotest.(check (list string))
    "every layer event kind observed" (List.sort compare layer_kinds)
    (kinds_seen runs);
  List.iter
    (fun (_, mon, _) ->
      if not (Monitor.clean mon) then
        Alcotest.fail (Format.asprintf "@[<v>%a@]" Monitor.pp_report mon))
    runs;
  let machine, _, events = List.hd runs in
  check_bool "retransmitted frames linked by seq" true
    (Causal.retransmissions (Causal.spans [ Machine.obs machine ]) <> []);
  let replay = Monitor.create () in
  let doubled = ref false in
  List.iter
    (fun (now, ev) ->
      Monitor.feed replay ~now ev;
      match ev with
      | Event.Frame_deliver _ when not !doubled ->
          doubled := true;
          Monitor.feed replay ~now ev
      | _ -> ())
    events;
  check_bool "replayed stream had a delivery" true !doubled;
  check_bool "double delivery caught" true
    (List.exists
       (fun v -> v.Monitor.rule = "retrans.duplicate_delivery")
       (Monitor.violations replay))

(* The same runs without a site: the layers emit nothing. *)
let test_layer_events_need_site () =
  Alcotest.(check (list string))
    "no layer events" []
    (kinds_seen (layer_runs ~site:false))

(* --- causal span stage order --- *)

let test_causal_span_stages () =
  let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
  let obs = Machine.obs machine in
  Flipc_obs.Tracer.enable (Obs.tracer obs);
  let ns = Machine.names machine in
  let sent_mid = ref 0 in
  Machine.spawn_app machine ~node:1 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      ok (Api.post_receive api ep (ok (Api.allocate_buffer api)));
      Nameservice.register ns "rx" (Api.address api ep);
      let rec poll () =
        match Api.receive api ep with
        | Some _ -> ()
        | None ->
            Mem_port.instr (Api.port api) 5;
            poll ()
      in
      poll ());
  Machine.spawn_app machine ~node:0 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
      Api.connect api ep (Nameservice.lookup ns "rx");
      ok (Api.send api ep (ok (Api.allocate_buffer api)));
      sent_mid := Api.last_msg_id api);
  Machine.run machine;
  Machine.stop_engines machine;
  Machine.run machine;
  check_bool "mid stamped" true (!sent_mid > 0);
  let spans = Causal.spans [ obs ] in
  match Causal.find spans !sent_mid with
  | None -> Alcotest.fail "span not reconstructed"
  | Some span ->
      check_str "delivered" "delivered" (Causal.stalled_stage span);
      let stages = List.map (fun s -> Causal.stage_of s.Causal.ev) span.Causal.steps in
      (* The lifecycle stages must appear in path order. *)
      let rec subseq needles hay =
        match (needles, hay) with
        | [], _ -> true
        | _, [] -> false
        | n :: ns, h :: hs -> if n = h then subseq ns hs else subseq needles hs
      in
      check_bool
        (Printf.sprintf "stage order (got: %s)" (String.concat "," stages))
        true
        (subseq [ "send"; "engine_tx"; "wire_rx"; "queue"; "recv" ] stages)

(* --- watchdog flight recorder --- *)

let test_watchdog_flight_recorder () =
  let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
  ignore (Machine.attach_monitor machine : Monitor.t);
  let obs = Machine.obs machine in
  let sim = Machine.sim machine in
  let ns = Machine.names machine in
  let report = ref "" in
  let sent_mid = ref 0 in
  Machine.spawn_app ~name:"starved-rx" machine ~node:1 (fun api ->
      (* No posted buffers: the message is discarded at the destination
         and the receive loop can never progress. *)
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      Nameservice.register ns "rx" (Api.address api ep);
      let wd =
        Monitor.Watchdog.create ~budget:(Vtime.us 300) ~sim ~name:"starved-rx" ()
      in
      let rec poll () =
        match Api.receive api ep with
        | Some _ -> Alcotest.fail "delivered without a posted buffer"
        | None ->
            if Monitor.Watchdog.expired wd then
              report := Monitor.Watchdog.report ~mid:!sent_mid wd [ obs ]
            else begin
              Mem_port.instr (Api.port api) 20;
              poll ()
            end
      in
      poll ());
  Machine.spawn_app ~name:"tx" machine ~node:0 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
      Api.connect api ep (Nameservice.lookup ns "rx");
      ok (Api.send api ep (ok (Api.allocate_buffer api)));
      sent_mid := Api.last_msg_id api);
  Machine.run machine;
  Machine.stop_engines machine;
  Machine.run machine;
  check_bool "watchdog fired" true (!report <> "");
  check_bool "names itself" true (contains ~needle:"starved-rx" !report);
  check_bool "flight recorder header" true
    (contains ~needle:"FLIGHT RECORDER" !report);
  check_bool "stalled stage named" true
    (contains ~needle:"dropped at destination (no_posted_buffer)" !report);
  check_bool "causal trace of the stalled message" true
    (contains ~needle:(Printf.sprintf "msg %d" !sent_mid) !report);
  check_bool "engine state dumped" true (contains ~needle:"engine iters=" !report)

let () =
  Alcotest.run "doctor"
    [
      ( "monitor",
        [
          Alcotest.test_case "double delivery" `Quick test_monitor_double_delivery;
          Alcotest.test_case "credit leak" `Quick test_monitor_credit_leak;
          Alcotest.test_case "sack window" `Quick test_monitor_sack_window;
          Alcotest.test_case "corrupt queue pointer" `Quick
            test_monitor_corrupt_queue_pointer;
          Alcotest.test_case "clean on lossy mesh" `Quick
            test_monitor_clean_on_lossy_mesh;
          Alcotest.test_case "layer events monitored" `Quick
            test_layer_events_monitored;
          Alcotest.test_case "layer events need a site" `Quick
            test_layer_events_need_site;
        ] );
      ( "causal",
        [ Alcotest.test_case "span stage order" `Quick test_causal_span_stages ] );
      ( "watchdog",
        [
          Alcotest.test_case "flight recorder" `Quick
            test_watchdog_flight_recorder;
        ] );
    ]
