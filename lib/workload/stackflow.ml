module Sim = Flipc_sim.Engine
module Vtime = Flipc_sim.Vtime
module Mailbox = Flipc_sim.Sync.Mailbox
module Machine = Flipc.Machine
module Api = Flipc.Api
module Config = Flipc.Config
module Monitor = Flipc_obs.Monitor
module Transport = Flipc_flow.Transport
module Retrans_layer = Flipc_flow.Retrans_layer
module CT = Flipc_flow.Channel_transport
module WL = Flipc_flow.Window_layer.Make (CT)
module RC = Retrans_layer.Make (CT)
module RW = Retrans_layer.Make (WL)

type stack =
  | Bare_channel
  | Window_over_channel
  | Retrans_over_channel
  | Retrans_over_window

let stack_name = function
  | Bare_channel -> "channel"
  | Window_over_channel -> "window/channel"
  | Retrans_over_channel -> "retrans/channel"
  | Retrans_over_window -> "retrans/window/channel"

type counters = {
  retransmits : int;
  backpressure : int;
  duplicates : int;
  reordered : int;
  ooo_buffered : int;
  acks_sent : int;
  reacks_suppressed : int;
  srtt_ns : int;
  rto_current_ns : int;
}

let zero =
  {
    retransmits = 0;
    backpressure = 0;
    duplicates = 0;
    reordered = 0;
    ooo_buffered = 0;
    acks_sent = 0;
    reacks_suppressed = 0;
    srtt_ns = 0;
    rto_current_ns = 0;
  }

let add a b =
  {
    retransmits = a.retransmits + b.retransmits;
    backpressure = a.backpressure + b.backpressure;
    duplicates = a.duplicates + b.duplicates;
    reordered = a.reordered + b.reordered;
    ooo_buffered = a.ooo_buffered + b.ooo_buffered;
    acks_sent = a.acks_sent + b.acks_sent;
    reacks_suppressed = a.reacks_suppressed + b.reacks_suppressed;
    srtt_ns = a.srtt_ns + b.srtt_ns;
    rto_current_ns = a.rto_current_ns + b.rto_current_ns;
  }

type result = {
  expected : int;
  delivered : int;
  latencies_us : float list;
  counters : counters;
  corrupt_leaks : int;
  transport_drops : int;
  watchdogs_expired : int;
  stall_report : string option;
  monitor : Monitor.t;
  monitor_violations : int;
  corrupt_frames_dropped : int;
  machine : Machine.t;
  clean : bool;
}

(* Verified payloads: deterministic per (flow, index) so the receiver
   needs no side channel to detect corruption or misordering. *)
let payload_of ~flow ~idx ~bytes =
  Bytes.init bytes (fun j -> Char.chr (((flow * 131) + (idx * 31) + j) land 0xff))

let terr = function
  | Ok v -> v
  | Error e -> failwith ("Stackflow: " ^ Transport.error_to_string e)

(* The generic flow driver: everything below is written once against
   {!Transport.S} and reused by every composition. The [rx_done] /
   [tx_done] flags are simulation-harness knowledge, not protocol: the
   sender keeps the protocol machine turning (retransmissions, acks)
   until the receiver attests it has everything, and the receiver
   lingers re-acknowledging duplicates until the sender has stood
   down — a dropped final ack must not strand either side. [sent_at]
   holds each message's send-call time, for the receiver's latency
   sample. *)
type shared = {
  mutable rx_done : bool;
  mutable tx_done : bool;
  sent_at : int array;
}

module Drive (T : Transport.S) = struct
  let tx conn ~wd ~stall ~messages ~flow ~bytes ~pace_ns ~attempt_ns ~shared =
    for i = 1 to messages do
      shared.sent_at.(i) <- T.now conn;
      let rec push () =
        match
          T.send conn ~deadline:(T.now conn + attempt_ns)
            (payload_of ~flow ~idx:i ~bytes)
        with
        | Ok () -> Monitor.Watchdog.progress wd
        | Error `Timeout ->
            if Monitor.Watchdog.expired wd then stall wd;
            push ()
        | Error e -> failwith ("Stackflow: " ^ Transport.error_to_string e)
      in
      push ();
      Sim.delay pace_ns
    done;
    while not shared.rx_done do
      terr (T.pump conn);
      if Monitor.Watchdog.expired wd then stall wd;
      T.idle conn
    done;
    shared.tx_done <- true

  let rx conn ~wd ~stall ~messages ~flow ~bytes ~on_delivered ~on_leak ~shared
      =
    let got = ref 0 in
    while !got < messages do
      match T.recv conn with
      | Ok (Some p) ->
          Monitor.Watchdog.progress wd;
          incr got;
          if not (Bytes.equal p (payload_of ~flow ~idx:!got ~bytes)) then
            on_leak ();
          on_delivered (T.now conn - shared.sent_at.(!got))
      | Ok None ->
          if Monitor.Watchdog.expired wd then stall wd;
          T.idle conn
      | Error e -> failwith ("Stackflow: " ^ Transport.error_to_string e)
    done;
    shared.rx_done <- true;
    Monitor.Watchdog.progress wd;
    while (not shared.tx_done) && not (Monitor.Watchdog.expired wd) do
      (match T.recv conn with Ok _ -> () | Error _ -> shared.tx_done <- true);
      T.idle conn
    done
end

(* The counter readers every [Retrans_layer.Make] instance provides. *)
module type RETRANS = sig
  type t

  val retransmits : t -> int
  val backpressure : t -> int
  val duplicates : t -> int
  val reordered : t -> int
  val ooo_buffered : t -> int
  val acks_sent : t -> int
  val reacks_suppressed : t -> int
  val srtt_ns : t -> int
  val rto_current_ns : t -> int
end

(* One connection end's retransmission counters. *)
let counters_of (type a) (module R : RETRANS with type t = a) (c : a) =
  {
    retransmits = R.retransmits c;
    backpressure = R.backpressure c;
    duplicates = R.duplicates c;
    reordered = R.reordered c;
    ooo_buffered = R.ooo_buffered c;
    acks_sent = R.acks_sent c;
    reacks_suppressed = R.reacks_suppressed c;
    srtt_ns = R.srtt_ns c;
    rto_current_ns = R.rto_current_ns c;
  }

let retrans_config ?(mode = Retrans_layer.Selective_repeat) rto_ns =
  {
    Retrans_layer.default_config with
    Retrans_layer.rto_ns;
    max_rto_ns = 8 * rto_ns;
    mode;
  }

let default_retrans = retrans_config 200_000

let run ?(stack = Retrans_over_channel) ?fault ?fault_links
    ?(cost = Flipc_memsim.Cost_model.paragon) ?(retrans = default_retrans)
    ?(pace_ns = 25_000) ?(budget = Vtime.ms 50) ?(window = 6)
    ?(payload_bytes = 32) ?flows ~kind ~messages () =
  if messages < 1 then invalid_arg "Stackflow: messages < 1";
  let config =
    {
      (Flipc_flow.Provision.config_for ~base:Config.default ~buffers:16) with
      Config.frame_checksum = true;
    }
  in
  let machine = Machine.create ~config ~cost ?fault ?fault_links kind () in
  let nodes = Machine.node_count machine in
  if nodes < 2 then invalid_arg "Stackflow: fewer than 2 nodes";
  let flows = Option.value flows ~default:nodes in
  if flows < 1 || flows > nodes then
    invalid_arg "Stackflow: flows out of range";
  let mon = Machine.attach_monitor machine in
  let sim = Machine.sim machine in
  let half = nodes / 2 in
  let delivered = ref 0
  and latencies = ref []
  and counters = ref zero
  and corrupt_leaks = ref 0
  and transport_drops = ref 0
  and stalled = ref 0
  and stall_report = ref None in
  (* The first expiry keeps the flight recorder; every expiry aborts its
     process (counted once, in the Process_failure handler below). *)
  let stall ~mid wd =
    if !stall_report = None then
      stall_report :=
        Some (Monitor.Watchdog.report ~mid wd [ Machine.obs machine ]);
    failwith
      (Printf.sprintf "watchdog '%s' expired" (Monitor.Watchdog.name wd))
  in
  let attempt_ns = 4 * retrans.Retrans_layer.rto_ns in
  (* One driver per composition; the existential packs the wrapped
     connection type with its driver and counter reader so the per-flow
     wiring below stays stack-agnostic. The trace site goes to the layer
     directly on the channel, where a frame is one FLIPC message. *)
  let drive : type a.
      (module Transport.S with type t = a) ->
      wrap:(CT.t -> a) ->
      counters_of:(a -> counters) ->
      unit =
   fun (module T) ~wrap ~counters_of ->
    let module D = Drive (T) in
    for flow = 0 to flows - 1 do
      let src = flow and dst = (flow + half) mod nodes in
      let src_addr = Mailbox.create () and dst_addr = Mailbox.create () in
      let wname dir = Printf.sprintf "stack-%d-%s" flow dir in
      let shared =
        {
          rx_done = false;
          tx_done = false;
          sent_at = Array.make (messages + 1) 0;
        }
      in
      let connect api ~mine ~theirs =
        let base = terr (CT.create api ~pool:4 ~depth:8 ()) in
        Mailbox.put mine (CT.address base);
        terr (CT.connect base (Mailbox.take theirs));
        base
      in
      let finish conn base ~sender =
        let c = counters_of conn in
        (* Only the sending end holds a round-trip estimate. *)
        let c =
          if sender then c else { c with srtt_ns = 0; rto_current_ns = 0 }
        in
        counters := add !counters c;
        transport_drops := !transport_drops + CT.drops base
      in
      Machine.spawn_app ~name:(wname "rx") ~cpu:1 machine ~node:dst
        (fun api ->
          let base = connect api ~mine:dst_addr ~theirs:src_addr in
          let conn = wrap base in
          let wd = Monitor.Watchdog.create ~budget ~sim ~name:(wname "rx") () in
          let bytes = min payload_bytes (T.capacity conn) in
          Fun.protect
            ~finally:(fun () -> finish conn base ~sender:false)
            (fun () ->
              D.rx conn ~wd
                ~stall:(fun wd -> stall ~mid:(Api.last_recv_msg_id api) wd)
                ~messages ~flow ~bytes
                ~on_delivered:(fun ns ->
                  incr delivered;
                  latencies := (float_of_int ns /. 1_000.) :: !latencies)
                ~on_leak:(fun () -> incr corrupt_leaks)
                ~shared));
      Machine.spawn_app ~name:(wname "tx") ~cpu:0 machine ~node:src
        (fun api ->
          let base = connect api ~mine:src_addr ~theirs:dst_addr in
          let conn = wrap base in
          let wd = Monitor.Watchdog.create ~budget ~sim ~name:(wname "tx") () in
          let bytes = min payload_bytes (T.capacity conn) in
          Fun.protect
            ~finally:(fun () -> finish conn base ~sender:true)
            (fun () ->
              D.tx conn ~wd
                ~stall:(fun wd -> stall ~mid:(Api.last_msg_id api) wd)
                ~messages ~flow ~bytes ~pace_ns ~attempt_ns ~shared))
    done
  in
  (match stack with
  | Bare_channel ->
      drive (module CT) ~wrap:(fun c -> c) ~counters_of:(fun _ -> zero)
  | Window_over_channel ->
      drive
        (module WL)
        ~wrap:(fun c -> WL.create c ~window ~site:(CT.site c) ())
        ~counters_of:(fun _ -> zero)
  | Retrans_over_channel ->
      drive
        (module RC)
        ~wrap:(fun c -> RC.create c ~config:retrans ~site:(CT.site c) ())
        ~counters_of:(counters_of (module RC))
  | Retrans_over_window ->
      drive
        (module RW)
        ~wrap:(fun c ->
          RW.create
            (WL.create c ~window ~site:(CT.site c) ())
            ~config:retrans ())
        ~counters_of:(counters_of (module RW)));
  (* A Process_failure kills exactly one flow process; keep running so
     the other flows finish and the run reports how far it got. *)
  let rec run_all stopping =
    match
      if stopping then Machine.stop_engines machine;
      Machine.run machine
    with
    | () -> if not stopping then run_all true
    | exception Sim.Process_failure (_, _) ->
        incr stalled;
        run_all stopping
  in
  run_all false;
  let expected = flows * messages in
  let c = !counters in
  let monitor_violations = List.length (Monitor.violations mon) in
  {
    expected;
    delivered = !delivered;
    latencies_us = List.rev !latencies;
    (* The estimator state is per sender: report the flows' mean. *)
    counters =
      {
        c with
        srtt_ns = c.srtt_ns / flows;
        rto_current_ns = c.rto_current_ns / flows;
      };
    corrupt_leaks = !corrupt_leaks;
    transport_drops = !transport_drops;
    watchdogs_expired = !stalled;
    stall_report = !stall_report;
    monitor = mon;
    monitor_violations;
    corrupt_frames_dropped =
      List.init (Machine.node_count machine) (fun i ->
          (Flipc.Msg_engine.stats (Machine.msg_engine (Machine.node machine i)))
            .Flipc.Msg_engine.corrupt_frames)
      |> List.fold_left ( + ) 0;
    machine;
    clean =
      Monitor.clean mon && !stalled = 0 && !delivered = expected
      && !corrupt_leaks = 0;
  }

let result_fields r =
  let module Json = Flipc_obs.Json in
  let c = r.counters in
  List.map
    (fun (k, v) -> (k, Json.Int v))
    [
      ("expected", r.expected);
      ("delivered", r.delivered);
      ("retransmits", c.retransmits);
      ("backpressure", c.backpressure);
      ("duplicates", c.duplicates);
      ("reordered", c.reordered);
      ("ooo_buffered", c.ooo_buffered);
      ("acks_sent", c.acks_sent);
      ("reacks_suppressed", c.reacks_suppressed);
      ("srtt_ns", c.srtt_ns);
      ("rto_current_ns", c.rto_current_ns);
      ("corrupt_leaks", r.corrupt_leaks);
      ("corrupt_frames_dropped", r.corrupt_frames_dropped);
      ("transport_drops", r.transport_drops);
      ("monitor_violations", r.monitor_violations);
      ("watchdogs_expired", r.watchdogs_expired);
    ]
  @ [
      ( "faults",
        match Machine.fault_stats r.machine with
        | Some f -> Flipc_net.Faulty.stats_json f
        | None -> Json.Null );
      ("clean", Json.Bool r.clean);
    ]
  @
  match r.latencies_us with
  | [] -> []
  | l ->
      Flipc_obs.Metrics.summary_fields ~suffix:"_us"
        (Flipc_stats.Summary.of_samples l)

type fabric = {
  kind : Machine.fabric_kind;
  cost : Flipc_memsim.Cost_model.t;
  rto_ns : int;
  reorder_hold_ns : int;
}

let two_node_fabrics =
  let pc = Flipc_memsim.Cost_model.pc_cluster in
  [
    ( "mesh",
      {
        kind = Machine.Mesh { cols = 2; rows = 1 };
        cost = Flipc_memsim.Cost_model.paragon;
        rto_ns = 200_000;
        reorder_hold_ns = 100_000;
      } );
    ( "ethernet",
      {
        kind = Machine.Ethernet { nodes = 2 };
        cost = pc;
        rto_ns = 1_000_000;
        reorder_hold_ns = 500_000;
      } );
    ( "scsi",
      {
        kind = Machine.Scsi { nodes = 2 };
        cost = pc;
        rto_ns = 1_000_000;
        reorder_hold_ns = 500_000;
      } );
  ]

let two_node_flow ?mode ~fabric ~fault ~pace_ns ~payload_bytes ~messages () =
  run ~fault ~cost:fabric.cost
    ~retrans:(retrans_config ?mode fabric.rto_ns)
    ~pace_ns ~budget:(Vtime.s 2) ~payload_bytes ~flows:1 ~kind:fabric.kind
    ~messages ()
