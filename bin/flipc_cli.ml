(* flipc: command-line driver for the FLIPC reproduction.

   Subcommands run individual experiments with adjustable parameters —
   useful for exploring the design space beyond the fixed settings the
   benchmark harness (bench/main.exe) uses to mirror the paper. *)

open Cmdliner
module Config = Flipc.Config
module Machine = Flipc.Machine
module Pingpong = Flipc_workload.Pingpong
module Streams = Flipc_workload.Streams
module Rpc = Flipc_workload.Rpc
module Summary = Flipc_stats.Summary
module Regression = Flipc_stats.Regression

(* --- shared options --- *)

let payload =
  let doc = "Application payload size in bytes." in
  Arg.(value & opt int 120 & info [ "payload" ] ~docv:"BYTES" ~doc)

let exchanges =
  let doc = "Number of measured two-way exchanges." in
  Arg.(value & opt int 300 & info [ "exchanges"; "n" ] ~docv:"N" ~doc)

let cols = Arg.(value & opt int 4 & info [ "cols" ] ~docv:"N" ~doc:"Mesh columns.")
let rows = Arg.(value & opt int 4 & info [ "rows" ] ~docv:"N" ~doc:"Mesh rows.")

let locked =
  let doc = "Use the test-and-set (locked) interface variant." in
  Arg.(value & flag & info [ "locked" ] ~doc)

let packed =
  let doc = "Use the pre-tuning packed (false-sharing) buffer layout." in
  Arg.(value & flag & info [ "packed" ] ~doc)

let checks =
  let doc = "Enable the engine's validity checks." in
  Arg.(value & flag & info [ "checks" ] ~doc)

let touch =
  let doc = "Read/write the payload on every exchange." in
  Arg.(value & flag & info [ "touch-payload" ] ~doc)

let config_of locked packed checks =
  {
    Config.default with
    Config.lock_mode = (if locked then Config.Test_and_set else Config.Lock_free);
    layout_mode = (if packed then Config.Packed else Config.Padded);
    validity_checks = checks;
  }

(* Every subcommand accepts --trace FILE and --capture FILE. Both reach
   every machine the command builds (however deep inside a workload
   helper) through an [Obs.on_create] hook: --trace turns on each
   machine's typed event tracer and merges their timelines into one
   Chrome trace_event document; --capture streams each machine's events
   into a persistent binary flight-data capture, replayable offline with
   [flipc doctor --replay] and printable with [flipc trace --replay]. *)

let trace_out =
  let doc =
    "Write a Chrome trace_event JSON timeline of the run to $(docv) (open \
     in chrome://tracing or ui.perfetto.dev)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let capture_out =
  let doc =
    "Write a persistent flight-data capture of the run to $(docv): the \
     versioned binary frame format, one frame per typed event with \
     virtual timestamps preserved. Replay it offline with $(b,flipc \
     doctor --replay); print it as JSON lines with $(b,flipc trace \
     --replay)."
  in
  Arg.(value & opt (some string) None & info [ "capture" ] ~docv:"FILE" ~doc)

let obs_out =
  Term.(const (fun trace capture -> (trace, capture)) $ trace_out $ capture_out)

(* The sink the current command is streaming to, if any: doctor stamps
   its run summary into the trailer so a replay can echo the live
   context fields byte-for-byte. *)
let active_sink : Flipc_obs.Sink.t option ref = ref None

let with_trace (trace_file, capture_file) f =
  let sink =
    Option.map
      (fun path ->
        let s = Flipc_obs.Sink.create ~path () in
        active_sink := Some s;
        (* Attach to every machine the workload builds, however deep. *)
        let unhook = Flipc_obs.Obs.on_create (Flipc_obs.Sink.attach s) in
        (path, s, unhook))
      capture_file
  in
  let traced =
    Option.map
      (fun path ->
        let machines = ref [] in
        let unhook =
          Flipc_obs.Obs.on_create (fun o ->
              Flipc_obs.Tracer.enable (Flipc_obs.Obs.tracer o);
              machines := o :: !machines)
        in
        (path, machines, unhook))
      trace_file
  in
  Fun.protect
    ~finally:(fun () ->
      (match traced with
      | None -> ()
      | Some (path, machines, unhook) ->
          unhook ();
          (* Merged multi-machine document: named process/thread rows per
             machine plus cross-machine causal flow arrows (Causal). *)
          let json = Flipc_obs.Causal.chrome_json_of (List.rev !machines) in
          let oc = open_out path in
          Flipc_obs.Json.to_channel oc json;
          output_char oc '\n';
          close_out oc;
          Fmt.epr "trace written to %s@." path);
      match sink with
      | None -> ()
      | Some (path, s, unhook) ->
          unhook ();
          active_sink := None;
          Flipc_obs.Sink.close s;
          Fmt.epr "capture written to %s (%d events)@." path
            (Flipc_obs.Sink.events_written s))
    f

(* --- latency --- *)

let latency_cmd =
  let run trace payload exchanges cols rows locked packed checks touch =
    with_trace trace @@ fun () ->
    let config = config_of locked packed checks in
    let r =
      Pingpong.measure ~config ~cols ~rows ~touch_payload:touch
        ~payload_bytes:payload ~exchanges ()
    in
    Fmt.pr "payload %dB in %dB messages, %d exchanges, %dx%d mesh@." payload
      r.Pingpong.message_bytes exchanges cols rows;
    Fmt.pr "one-way latency: %a us@." Summary.pp r.Pingpong.one_way;
    Fmt.pr "aggregate (total / 2N): %.2f us@." r.Pingpong.aggregate_one_way_us;
    Fmt.pr "drops: %d@." r.Pingpong.drops
  in
  let doc = "Measure one-way message latency with a ping-pong exchange." in
  Cmd.v
    (Cmd.info "latency" ~doc)
    Term.(
      const run $ obs_out $ payload $ exchanges $ cols $ rows $ locked
      $ packed $ checks $ touch)

(* --- sweep (FIG4) --- *)

let sweep_cmd =
  let run trace exchanges locked packed checks =
    with_trace trace @@ fun () ->
    let sizes = [ 64; 96; 128; 160; 192; 224; 256 ] in
    let config = config_of locked packed checks in
    let points =
      List.map
        (fun msg ->
          let r =
            Pingpong.measure ~config
              ~payload_bytes:(msg - Config.header_bytes)
              ~exchanges ()
          in
          Fmt.pr "%4dB  %.2f us  (sd %.2f)@." msg
            r.Pingpong.aggregate_one_way_us r.Pingpong.one_way.Summary.stddev;
          (float_of_int msg, r.Pingpong.aggregate_one_way_us))
        sizes
    in
    let fit = Regression.linear points in
    Fmt.pr "fit: %.2fus + %.3fns/B (r2=%.4f)@." fit.Regression.intercept
      (fit.Regression.slope *. 1000.)
      fit.Regression.r2
  in
  let doc = "Latency vs message size sweep (the paper's Figure 4)." in
  Cmd.v
    (Cmd.info "sweep" ~doc)
    Term.(const run $ obs_out $ exchanges $ locked $ packed $ checks)

(* --- compare --- *)

let compare_cmd =
  let run trace payload exchanges =
    with_trace trace @@ fun () ->
    let flipc =
      (Pingpong.measure ~payload_bytes:payload ~exchanges ()).Pingpong
      .aggregate_one_way_us
    in
    Fmt.pr "FLIPC : %6.2f us@." flipc;
    Fmt.pr "PAM   : %6.2f us@."
      (Flipc_baselines.Pam.one_way_latency_us ~payload_bytes:payload ~exchanges ());
    Fmt.pr "SUNMOS: %6.2f us@."
      (Flipc_baselines.Sunmos.one_way_latency_us ~payload_bytes:payload
         ~exchanges ());
    if payload <= 4096 then
      Fmt.pr "NX    : %6.2f us@."
        (Flipc_baselines.Nx.one_way_latency_us ~payload_bytes:payload ~exchanges ())
  in
  let doc = "Compare FLIPC with the NX, PAM and SUNMOS models." in
  Cmd.v
    (Cmd.info "compare" ~doc)
    Term.(const run $ obs_out $ payload $ exchanges)

(* --- streams --- *)

let streams_cmd =
  let high_period =
    Arg.(
      value & opt int 100
      & info [ "high-period" ] ~docv:"US"
          ~doc:"High-priority inter-message gap (us).")
  in
  let low_period =
    Arg.(
      value & opt int 10
      & info [ "low-period" ] ~docv:"US"
          ~doc:"Low-priority inter-message gap (us).")
  in
  let low_buffers =
    Arg.(
      value & opt int 2
      & info [ "low-buffers" ] ~docv:"N"
          ~doc:"Receive buffers for the low-priority endpoint.")
  in
  let ms =
    Arg.(
      value & opt int 50
      & info [ "ms" ] ~docv:"MS" ~doc:"Virtual milliseconds to simulate.")
  in
  let run trace high_period low_period low_buffers ms =
    with_trace trace @@ fun () ->
    let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
    let horizon_ns = ms * 1_000_000 in
    let count_for period_us = horizon_ns / (max 1 period_us * 1000) + 1 in
    let results =
      Streams.run ~machine ~node_src:0 ~node_dst:1
        ~until:(Flipc_sim.Vtime.ms ms)
        [
          Streams.make ~name:"high" ~priority:10
            ~period_ns:(high_period * 1000)
            ~count:(count_for high_period) ~recv_buffers:8 ~consume_ns:8_000 ();
          Streams.make ~name:"low" ~priority:1 ~period_ns:(low_period * 1000)
            ~count:(count_for low_period) ~recv_buffers:low_buffers
            ~consume_ns:80_000 ();
        ]
    in
    List.iter
      (fun (r : Streams.stream_result) ->
        Fmt.pr "%-5s sent=%6d delivered=%6d dropped=%6d %a@." r.Streams.name
          r.Streams.sent r.Streams.delivered r.Streams.dropped
          (Fmt.option Summary.pp) r.Streams.latency)
      results
  in
  let doc = "Two priority streams with per-endpoint resource isolation." in
  Cmd.v
    (Cmd.info "streams" ~doc)
    Term.(const run $ obs_out $ high_period $ low_period $ low_buffers $ ms)

(* --- rpc --- *)

let rpc_cmd =
  let clients =
    Arg.(value & opt int 4 & info [ "clients" ] ~docv:"N" ~doc:"Client count.")
  in
  let requests =
    Arg.(
      value & opt int 50
      & info [ "requests" ] ~docv:"N" ~doc:"Requests per client.")
  in
  let run trace clients requests =
    with_trace trace @@ fun () ->
    let side = 4 in
    let machine = Machine.create (Machine.Mesh { cols = side; rows = side }) () in
    let nodes = side * side in
    let client_nodes = List.init clients (fun i -> ((i + 1) mod (nodes - 1)) + 1) in
    let r =
      Rpc.run ~machine ~server_node:0 ~client_nodes ~requests_per_client:requests
        ~server_work_ns:2_000 ()
    in
    Fmt.pr "requests=%d replies=%d drops=%d@." r.Rpc.requests r.Rpc.replies
      r.Rpc.server_drops;
    Fmt.pr "round trip: %a us@." Summary.pp r.Rpc.latency
  in
  let doc = "Closed-loop RPC with statically provisioned server buffers." in
  Cmd.v
    (Cmd.info "rpc" ~doc)
    Term.(const run $ obs_out $ clients $ requests)

(* --- kkt --- *)

let kkt_cmd =
  let fabric =
    let fabric_conv =
      Arg.enum [ ("mesh", `Mesh); ("ethernet", `Ethernet); ("scsi", `Scsi) ]
    in
    Arg.(
      value & opt fabric_conv `Mesh
      & info [ "fabric" ] ~docv:"FABRIC"
          ~doc:"Underlying fabric: mesh, ethernet or scsi.")
  in
  let run trace fabric payload exchanges =
    with_trace trace @@ fun () ->
    let kind, cost =
      match fabric with
      | `Mesh ->
          (Machine.Mesh { cols = 2; rows = 1 }, Flipc_memsim.Cost_model.paragon)
      | `Ethernet ->
          (Machine.Ethernet { nodes = 2 }, Flipc_memsim.Cost_model.pc_cluster)
      | `Scsi -> (Machine.Scsi { nodes = 2 }, Flipc_memsim.Cost_model.pc_cluster)
    in
    let machine = Flipc_kkt.Kkt_flipc.machine ~cost kind () in
    let r =
      Pingpong.run ~machine ~node_a:0 ~node_b:1 ~payload_bytes:payload
        ~exchanges ()
    in
    Fmt.pr "FLIPC over KKT: one-way %.2f us (payload %dB)@."
      r.Pingpong.aggregate_one_way_us payload
  in
  let doc = "FLIPC with the portable KKT (RPC-per-message) engine." in
  Cmd.v
    (Cmd.info "kkt" ~doc)
    Term.(const run $ obs_out $ fabric $ payload $ exchanges)

(* --- throughput --- *)

let throughput_cmd =
  let msgs =
    Arg.(value & opt int 500 & info [ "messages" ] ~docv:"N"
           ~doc:"Messages to stream.")
  in
  let run trace payload msgs =
    with_trace trace @@ fun () ->
    let r =
      Flipc_workload.Throughput.measure ~payload_bytes:payload ~messages:msgs ()
    in
    Fmt.pr "%d x %dB messages in %.1fus@." r.Flipc_workload.Throughput.messages
      payload r.Flipc_workload.Throughput.elapsed_us;
    Fmt.pr "rate: %.0f kmsg/s, %.1f MB/s payload, drops=%d@."
      (r.Flipc_workload.Throughput.msgs_per_sec /. 1000.)
      r.Flipc_workload.Throughput.mb_per_sec r.Flipc_workload.Throughput.drops
  in
  let doc = "Streaming message-throughput measurement." in
  Cmd.v
    (Cmd.info "throughput" ~doc)
    Term.(const run $ obs_out $ payload $ msgs)

(* --- bulk --- *)

let bulk_cmd =
  let bytes =
    Arg.(value & opt int 65536 & info [ "bytes" ] ~docv:"N"
           ~doc:"Transfer size in bytes.")
  in
  let run trace bytes =
    with_trace trace @@ fun () ->
    let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
    let bulk = Flipc_bulk.Bulk.create machine in
    let region = Flipc_bulk.Bulk.export bulk ~node:1 ~len:bytes in
    let sim = Machine.sim machine in
    let put_us = ref 0. and get_us = ref 0. in
    Machine.spawn_app machine ~node:0 (fun _api ->
        let t0 = Flipc_sim.Engine.now sim in
        Flipc_bulk.Bulk.put bulk ~from:0 region (Bytes.create bytes);
        let t1 = Flipc_sim.Engine.now sim in
        ignore (Flipc_bulk.Bulk.get bulk ~into:0 region ~len:bytes : Bytes.t);
        let t2 = Flipc_sim.Engine.now sim in
        put_us := float_of_int (t1 - t0) /. 1000.;
        get_us := float_of_int (t2 - t1) /. 1000.);
    Machine.run machine;
    Machine.stop_engines machine;
    Machine.run machine;
    Fmt.pr "put %dB: %.1fus (%.0f MB/s)@." bytes !put_us
      (float_of_int bytes /. !put_us);
    Fmt.pr "get %dB: %.1fus (%.0f MB/s)@." bytes !get_us
      (float_of_int bytes /. !get_us)
  in
  let doc = "One-sided bulk put/get of a remote-memory region." in
  Cmd.v (Cmd.info "bulk" ~doc) Term.(const run $ obs_out $ bytes)

(* --- reliable flows: faults, retrans --- *)

module Stackflow = Flipc_workload.Stackflow
module Retrans_layer = Flipc_flow.Retrans_layer

let fault_seed default =
  Arg.(
    value & opt int default
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:"PRNG seed for fault injection (runs replay bit-identically).")

let json_flag =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit one machine-readable JSON object instead of text.")

let check_prob cmd name p =
  if p < 0. || p > 1. then begin
    Fmt.epr "flipc %s: %s must be in [0,1] (got %g)@." cmd name p;
    exit 2
  end

(* Retransmission config for a fabric whose round trip [rto_ns]
   covers: backoff up to 8x. *)
let retrans_config ?(mode = Retrans_layer.Selective_repeat) rto_ns =
  {
    Retrans_layer.default_config with
    Retrans_layer.rto_ns;
    max_rto_ns = 8 * rto_ns;
    mode;
  }

let two_node_fabric =
  Arg.(
    value
    & opt (enum [ ("mesh", `Mesh); ("ethernet", `Ethernet); ("scsi", `Scsi) ])
        `Mesh
    & info [ "fabric" ] ~docv:"FABRIC"
        ~doc:"Underlying fabric: mesh, ethernet or scsi.")

(* One reliable flow between the two nodes of a small fabric, with the
   fabric's cost model and an initial RTO above its round trip; the
   sender paces one message per RTO/8. *)
let two_node_flow ?mode ~fabric ~fault ~msgs ~payload () =
  let kind, cost, rto_ns =
    match fabric with
    | `Mesh ->
        (Machine.Mesh { cols = 2; rows = 1 }, Flipc_memsim.Cost_model.paragon,
         200_000)
    | `Ethernet ->
        (Machine.Ethernet { nodes = 2 }, Flipc_memsim.Cost_model.pc_cluster,
         1_000_000)
    | `Scsi ->
        (Machine.Scsi { nodes = 2 }, Flipc_memsim.Cost_model.pc_cluster,
         1_000_000)
  in
  Stackflow.run ~fault ~cost ~retrans:(retrans_config ?mode rto_ns)
    ~pace_ns:(rto_ns / 8) ~budget:(Flipc_sim.Vtime.s 2) ~payload_bytes:payload
    ~flows:1 ~kind ~messages:msgs ()

let pp_wire_faults machine =
  match Machine.fault_stats machine with
  | Some f ->
      let module Faulty = Flipc_net.Faulty in
      Fmt.pr "wire faults: dropped=%d duplicated=%d reordered=%d delayed=%d@."
        f.Faulty.dropped f.Faulty.duplicated f.Faulty.reordered f.Faulty.delayed
  | None -> ()

(* A flow that aborted (watchdog or unreachable peer) is a failed run. *)
let exit_if_stalled cmd r =
  if r.Stackflow.watchdogs_expired > 0 then begin
    Fmt.epr
      "flipc %s: flow stalled after %d/%d deliveries (peer unreachable?)@."
      cmd r.Stackflow.delivered r.Stackflow.expected;
    exit 1
  end

let flow_messages =
  Arg.(
    value & opt int 400
    & info [ "messages" ] ~docv:"N" ~doc:"Messages to deliver reliably.")

let faults_cmd =
  let module Faulty = Flipc_net.Faulty in
  let loss =
    Arg.(
      value & opt float 0.05
      & info [ "loss" ] ~docv:"P" ~doc:"Packet drop probability (0..1).")
  in
  let dup =
    Arg.(
      value & opt float 0.
      & info [ "dup" ] ~docv:"P" ~doc:"Packet duplication probability (0..1).")
  in
  let reorder =
    Arg.(
      value & opt float 0.
      & info [ "reorder" ] ~docv:"P" ~doc:"Packet reordering probability (0..1).")
  in
  let run trace fabric loss dup reorder seed msgs payload =
    with_trace trace @@ fun () ->
    check_prob "faults" "--loss" loss;
    check_prob "faults" "--dup" dup;
    check_prob "faults" "--reorder" reorder;
    let fault = Faulty.config ~drop:loss ~duplicate:dup ~reorder ~seed () in
    let r = two_node_flow ~fabric ~fault ~msgs ~payload () in
    exit_if_stalled "faults" r;
    let c = r.Stackflow.counters in
    pp_wire_faults r.Stackflow.machine;
    Fmt.pr
      "receiver: delivered=%d dup-discards=%d gap-discards=%d \
       transport-drops=%d@."
      r.Stackflow.delivered c.Stackflow.duplicates c.Stackflow.reordered
      r.Stackflow.transport_drops;
    Fmt.pr "sender: retransmits=%d backpressure=%d@." c.Stackflow.retransmits
      c.Stackflow.backpressure;
    if r.Stackflow.latencies_us <> [] then
      Fmt.pr "delivery latency: %a us@." Summary.pp
        (Summary.of_samples r.Stackflow.latencies_us)
  in
  let doc =
    "Reliable (exactly-once, in-order) delivery over a fault-injected \
     fabric: drops, duplicates and reordering repaired by the \
     retransmission layer."
  in
  Cmd.v
    (Cmd.info "faults" ~doc)
    Term.(
      const run $ obs_out $ two_node_fabric $ loss $ dup $ reorder
      $ fault_seed 1 $ flow_messages $ payload)

let retrans_cmd =
  let module Faulty = Flipc_net.Faulty in
  let module Json = Flipc_obs.Json in
  let mode =
    let mode_conv =
      Arg.enum
        [
          ("sr", Retrans_layer.Selective_repeat);
          ("gbn", Retrans_layer.Go_back_n);
        ]
    in
    Arg.(
      value
      & opt mode_conv Retrans_layer.Selective_repeat
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "Retransmission mode: sr (selective repeat, default) or gbn \
             (go-back-N ablation).")
  in
  let reorder =
    Arg.(
      value & opt float 0.3
      & info [ "reorder" ] ~docv:"P"
          ~doc:"Packet reordering probability (0..1).")
  in
  let drop =
    Arg.(
      value & opt float 0.
      & info [ "drop" ] ~docv:"P" ~doc:"Packet drop probability (0..1).")
  in
  let dup =
    Arg.(
      value & opt float 0.
      & info [ "dup" ] ~docv:"P" ~doc:"Packet duplication probability (0..1).")
  in
  let max_ratio =
    let doc =
      "Fail (exit 1) when retransmits/messages exceeds $(docv). Selective \
       repeat on a reorder-only wire should barely retransmit, so a small \
       bound makes a sharp CI smoke check."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "max-retransmit-ratio" ] ~docv:"R" ~doc)
  in
  let run trace fabric mode reorder drop dup seed msgs payload json_out
      max_ratio =
    with_trace trace @@ fun () ->
    check_prob "retrans" "--reorder" reorder;
    check_prob "retrans" "--drop" drop;
    check_prob "retrans" "--dup" dup;
    let reorder_hold_ns = if fabric = `Mesh then 100_000 else 500_000 in
    let fault =
      Faulty.config ~drop ~duplicate:dup ~reorder ~reorder_hold_ns ~seed ()
    in
    let r = two_node_flow ~mode ~fabric ~fault ~msgs ~payload () in
    exit_if_stalled "retrans" r;
    let mode_name =
      match mode with
      | Retrans_layer.Selective_repeat -> "sr"
      | Retrans_layer.Go_back_n -> "gbn"
    in
    let c = r.Stackflow.counters in
    let delivered = r.Stackflow.delivered in
    let summary = Summary.of_samples r.Stackflow.latencies_us in
    let ratio = float_of_int c.Stackflow.retransmits /. float_of_int msgs in
    if json_out then
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("mode", Json.String mode_name);
                ("messages", Json.Int msgs);
                ("delivered", Json.Int delivered);
                ("retransmits", Json.Int c.Stackflow.retransmits);
                ("retransmit_ratio", Json.Float ratio);
                ("backpressure", Json.Int c.Stackflow.backpressure);
                ("srtt_ns", Json.Int c.Stackflow.srtt_ns);
                ("rto_current_ns", Json.Int c.Stackflow.rto_current_ns);
                ("duplicates", Json.Int c.Stackflow.duplicates);
                ("reordered", Json.Int c.Stackflow.reordered);
                ("ooo_buffered", Json.Int c.Stackflow.ooo_buffered);
                ("acks_sent", Json.Int c.Stackflow.acks_sent);
                ("reacks_suppressed", Json.Int c.Stackflow.reacks_suppressed);
                ("p50_us", Json.Float summary.Summary.p50);
                ("p99_us", Json.Float summary.Summary.p99);
              ]))
    else begin
      pp_wire_faults r.Stackflow.machine;
      Fmt.pr
        "receiver (%s): delivered=%d dup-discards=%d reordered=%d \
         ooo-buffered=%d acks=%d reacks-suppressed=%d@."
        mode_name delivered c.Stackflow.duplicates c.Stackflow.reordered
        c.Stackflow.ooo_buffered c.Stackflow.acks_sent
        c.Stackflow.reacks_suppressed;
      Fmt.pr
        "sender: retransmits=%d (ratio %.3f) backpressure=%d srtt=%dns \
         rto=%dns@."
        c.Stackflow.retransmits ratio c.Stackflow.backpressure
        c.Stackflow.srtt_ns c.Stackflow.rto_current_ns;
      if delivered > 0 then
        Fmt.pr "delivery latency: %a us@." Summary.pp summary
    end;
    match max_ratio with
    | Some bound when ratio > bound ->
        Fmt.epr
          "flipc retrans: retransmit ratio %.3f exceeds --max-retransmit-ratio \
           %.3f@."
          ratio bound;
        exit 1
    | _ -> ()
  in
  let doc =
    "Reliable delivery over a reordering/lossy fabric with the selective \
     repeat vs go-back-N ablation and the adaptive-RTO probes exposed; \
     $(b,--max-retransmit-ratio) turns it into a CI smoke check."
  in
  Cmd.v
    (Cmd.info "retrans" ~doc)
    Term.(
      const run $ obs_out $ two_node_fabric $ mode $ reorder $ drop $ dup
      $ fault_seed 1 $ flow_messages $ payload $ json_flag $ max_ratio)

(* --- firehose --- *)

let firehose_cmd =
  let module Firehose = Flipc_workload.Firehose in
  let module Sketch = Flipc_obs.Sketch in
  let module Json = Flipc_obs.Json in
  let senders =
    Arg.(value & opt int 2
         & info [ "senders" ] ~docv:"M" ~doc:"Sender nodes.")
  in
  let receivers =
    Arg.(value & opt int 2
         & info [ "receivers" ] ~docv:"N" ~doc:"Receiver nodes.")
  in
  let duration =
    Arg.(value & opt int 2000
         & info [ "duration-us" ] ~docv:"US"
             ~doc:"Open-loop generation window per sender (virtual us).")
  in
  let mean_gap =
    Arg.(value & opt int 2000
         & info [ "mean-gap-ns" ] ~docv:"NS"
             ~doc:"Mean inter-arrival gap per sender (offered load).")
  in
  let arrival =
    let arrival_conv =
      Arg.enum
        [ ("poisson", `P); ("periodic", `D); ("jittered", `J); ("bursty", `B) ]
    in
    Arg.(value & opt arrival_conv `P
         & info [ "arrival" ] ~docv:"KIND"
             ~doc:"Arrival process: poisson, periodic, jittered or bursty.")
  in
  let jitter =
    Arg.(value & opt float 0.3
         & info [ "jitter" ] ~docv:"F"
             ~doc:"Jitter fraction for --arrival jittered.")
  in
  let arrival_burst =
    Arg.(value & opt int 8
         & info [ "arrival-burst" ] ~docv:"K"
             ~doc:"Arrivals per burst for --arrival bursty.")
  in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Arrival PRNG seed (runs replay bit-identically).")
  in
  let payload =
    Arg.(value & opt int 32
         & info [ "payload" ] ~docv:"BYTES"
             ~doc:"Payload bytes per message (>= 8 for the sojourn stamp).")
  in
  let shards =
    Arg.(value & opt int 1
         & info [ "shards" ] ~docv:"K" ~doc:"Engine shards per node.")
  in
  let streams =
    Arg.(value & opt int 1
         & info [ "streams" ] ~docv:"S"
             ~doc:
               "Endpoint pairs per node; streams spread across engine \
                shards (endpoint g is owned by shard g mod K).")
  in
  let tx_batch =
    Arg.(value & opt int 1
         & info [ "tx-batch" ] ~docv:"K"
             ~doc:"Engine-side DMA descriptor-chain batch.")
  in
  let queue_capacity =
    Arg.(value & opt int Config.default.Config.queue_capacity
         & info [ "queue-capacity" ] ~docv:"SLOTS"
             ~doc:
               "Ring slots per endpoint (holds SLOTS-1 buffers); bursts \
                and batches are capped by the ring depth.")
  in
  let total_buffers =
    Arg.(value & opt int Config.default.Config.total_buffers
         & info [ "total-buffers" ] ~docv:"N"
             ~doc:"Message buffers per communication buffer.")
  in
  let send_burst =
    Arg.(value & opt int 1
         & info [ "send-burst" ] ~docv:"K"
             ~doc:"Application send burst (messages per doorbell).")
  in
  let recv_burst =
    Arg.(value & opt int 1
         & info [ "recv-burst" ] ~docv:"K"
             ~doc:"Application receive burst (messages per drain).")
  in
  let wallclock =
    Arg.(value & opt int 0
         & info [ "wallclock" ] ~docv:"DOMAINS"
             ~doc:
               "Opt-in wall-clock mode: run DOMAINS independent machines on \
                real OCaml domains (0 = deterministic virtual time, the \
                default).")
  in
  let assert_clean =
    Arg.(value & flag
         & info [ "assert-clean" ]
             ~doc:
               "Attach the online invariant monitor and fail (exit 1) on any \
                violation.")
  in
  let min_ratio =
    Arg.(value & opt (some float) None
         & info [ "min-delivered-ratio" ] ~docv:"R"
             ~doc:
               "Fail (exit 1) when delivered/offered falls below $(docv) — \
                turns the command into a CI smoke gate.")
  in
  let json_flag =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit one machine-readable JSON object instead of text.")
  in
  let run trace senders receivers duration mean_gap arrival jitter
      arrival_burst seed streams payload shards tx_batch queue_capacity
      total_buffers send_burst recv_burst wallclock assert_clean min_ratio
      json_out =
    with_trace trace @@ fun () ->
    let arrival =
      match arrival with
      | `P -> `Poisson
      | `D -> `Periodic
      | `J -> `Jittered jitter
      | `B -> `Bursty arrival_burst
    in
    let config =
      {
        Config.default with
        Config.engine_shards = shards;
        engine_tx_batch = tx_batch;
        app_send_burst = send_burst;
        app_recv_burst = recv_burst;
        queue_capacity;
        total_buffers;
      }
    in
    let q sk p =
      match Sketch.quantile sk p with Some v -> v | None -> 0.
    in
    let engines_json engines =
      Json.List
        (List.map
           (fun (node, shard, s) ->
             Json.Obj
               [
                 ("node", Json.Int node);
                 ("shard", Json.Int shard);
                 ("iterations", Json.Int s.Flipc.Msg_engine.iterations);
                 ("sends", Json.Int s.Flipc.Msg_engine.sends);
                 ("recvs", Json.Int s.Flipc.Msg_engine.recvs);
                 ("drops", Json.Int s.Flipc.Msg_engine.drops);
                 ("parks", Json.Int s.Flipc.Msg_engine.parks);
                 ("doorbell_hits", Json.Int s.Flipc.Msg_engine.doorbell_hits);
               ])
           engines)
    in
    let report (r : Firehose.result) =
      let sk = r.Firehose.sojourn_us in
      if json_out then
        print_endline
          (Json.to_string
             (Json.Obj
                [
                  ("senders", Json.Int r.Firehose.senders);
                  ("receivers", Json.Int r.Firehose.receivers);
                  ("duration_us", Json.Int r.Firehose.duration_us);
                  ("offered", Json.Int r.Firehose.offered);
                  ("sent", Json.Int r.Firehose.sent);
                  ("shed", Json.Int r.Firehose.shed);
                  ("delivered", Json.Int r.Firehose.delivered);
                  ("rx_drops", Json.Int r.Firehose.rx_drops);
                  ("elapsed_us", Json.Float r.Firehose.elapsed_us);
                  ("offered_per_sec", Json.Float r.Firehose.offered_per_sec);
                  ( "delivered_per_sec",
                    Json.Float r.Firehose.delivered_per_sec );
                  ("delivered_ratio", Json.Float r.Firehose.delivered_ratio);
                  ("sojourn_p50_us", Json.Float (q sk 0.50));
                  ("sojourn_p99_us", Json.Float (q sk 0.99));
                  ("sojourn_p999_us", Json.Float (q sk 0.999));
                  ("violations", Json.Int r.Firehose.violations);
                  ("engines", engines_json r.Firehose.engines);
                ]))
      else begin
        Fmt.pr
          "firehose: %d senders -> %d receivers, %dus window, mean gap %dns@."
          r.Firehose.senders r.Firehose.receivers r.Firehose.duration_us
          mean_gap;
        Fmt.pr
          "offered %d (%.0f kmsg/s) | delivered %d (%.0f kmsg/s) | shed %d | \
           rx-drops %d | ratio %.3f@."
          r.Firehose.offered
          (r.Firehose.offered_per_sec /. 1000.)
          r.Firehose.delivered
          (r.Firehose.delivered_per_sec /. 1000.)
          r.Firehose.shed r.Firehose.rx_drops r.Firehose.delivered_ratio;
        Fmt.pr "sojourn: p50 %.1fus p99 %.1fus p999 %.1fus (n=%d)@."
          (q sk 0.50) (q sk 0.99) (q sk 0.999) (Sketch.count sk);
        List.iter
          (fun (node, shard, s) ->
            if
              s.Flipc.Msg_engine.sends > 0
              || s.Flipc.Msg_engine.recvs > 0
              || shards > 1
            then
              Fmt.pr
                "  node %d shard %d: iters=%d sends=%d recvs=%d drops=%d \
                 parks=%d doorbells=%d@."
                node shard s.Flipc.Msg_engine.iterations
                s.Flipc.Msg_engine.sends s.Flipc.Msg_engine.recvs
                s.Flipc.Msg_engine.drops s.Flipc.Msg_engine.parks
                s.Flipc.Msg_engine.doorbell_hits)
          r.Firehose.engines;
        if assert_clean then
          Fmt.pr "monitor: %d violation(s)@." r.Firehose.violations
      end;
      r
    in
    let gate (ratio, violations) =
      if assert_clean && violations > 0 then begin
        Fmt.epr "flipc firehose: %d monitor violation(s)@." violations;
        exit 1
      end;
      match min_ratio with
      | Some bound when ratio < bound ->
          Fmt.epr
            "flipc firehose: delivered ratio %.3f below \
             --min-delivered-ratio %.3f@."
            ratio bound;
          exit 1
      | _ -> ()
    in
    if wallclock > 0 then begin
      let w =
        Firehose.measure_wallclock ~config ~monitor:assert_clean
          ~domains:wallclock ~senders ~receivers ~duration_us:duration
          ~mean_gap_ns:mean_gap ~arrival ~seed ~streams ~payload_bytes:payload
          ()
      in
      let rs = List.map report w.Firehose.per_domain in
      let sk = w.Firehose.merged_sojourn_us in
      Fmt.pr
        "wallclock: %d domains, %.2fs host time, %.0f kmsg/s aggregate; \
         merged sojourn p50 %.1fus p99 %.1fus@."
        wallclock w.Firehose.wall_s
        (w.Firehose.wall_delivered_per_sec /. 1000.)
        (q sk 0.50) (q sk 0.99);
      let offered = List.fold_left (fun a r -> a + r.Firehose.offered) 0 rs in
      let delivered =
        List.fold_left (fun a r -> a + r.Firehose.delivered) 0 rs
      in
      let violations =
        List.fold_left (fun a r -> a + r.Firehose.violations) 0 rs
      in
      gate
        ( (if offered = 0 then 1.
           else float_of_int delivered /. float_of_int offered),
          violations )
    end
    else
      let r =
        report
          (Firehose.measure ~config ~monitor:assert_clean ~senders ~receivers
             ~duration_us:duration ~mean_gap_ns:mean_gap ~arrival ~seed ~streams
             ~payload_bytes:payload ())
      in
      gate (r.Firehose.delivered_ratio, r.Firehose.violations)
  in
  let doc =
    "Open-loop sustained-load throughput: M senders firehose N receivers at \
     an external arrival rate, reporting offered vs delivered rate, shed \
     load and sojourn quantiles; $(b,--min-delivered-ratio) and \
     $(b,--assert-clean) turn it into a CI smoke gate, $(b,--wallclock) runs \
     independent machines on real OCaml domains."
  in
  Cmd.v
    (Cmd.info "firehose" ~doc)
    Term.(
      const run $ obs_out $ senders $ receivers $ duration $ mean_gap
      $ arrival $ jitter $ arrival_burst $ seed $ streams $ payload $ shards
      $ tx_batch $ queue_capacity $ total_buffers
      $ send_burst $ recv_burst $ wallclock $ assert_clean $ min_ratio
      $ json_flag)

(* --- doctor --- *)

let doctor_cmd =
  let module Faulty = Flipc_net.Faulty in
  let module Monitor = Flipc_obs.Monitor in
  let module Causal = Flipc_obs.Causal in
  let module Json = Flipc_obs.Json in
  let flows_arg =
    Arg.(
      value & opt int 6
      & info [ "flows" ] ~docv:"N"
          ~doc:"Concurrent reliable flows on the 4x4 mesh (1-8).")
  in
  let msgs =
    Arg.(
      value & opt int 40
      & info [ "messages" ] ~docv:"N" ~doc:"Messages per flow.")
  in
  let drop =
    Arg.(
      value & opt float 0.05
      & info [ "drop" ] ~docv:"P" ~doc:"Packet drop probability (0..1).")
  in
  let dup =
    Arg.(
      value & opt float 0.02
      & info [ "dup" ] ~docv:"P" ~doc:"Packet duplication probability (0..1).")
  in
  let reorder =
    Arg.(
      value & opt float 0.2
      & info [ "reorder" ] ~docv:"P"
          ~doc:"Packet reordering probability (0..1).")
  in
  let assert_clean =
    Arg.(
      value & flag
      & info [ "assert-clean" ]
          ~doc:
            "Exit 1 unless every flow completes, no watchdog fires and every \
             invariant monitor stays clean — the CI health gate.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Skip the live run: load a flight-data capture written by \
             $(b,--capture) and re-derive the whole diagnosis (spans, \
             monitor verdicts, stalled stages) offline. Produces the same \
             report — byte-for-byte in $(b,--json) mode — as the run that \
             wrote the capture.")
  in
  let against_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "against" ] ~docv:"FILE"
          ~doc:
            "With $(b,--replay) CANDIDATE: load a second capture as the \
             baseline and report the cross-run diff instead of a single \
             diagnosis — monitor-violation keys added/removed, per-stage \
             latency quantile deltas, per-site median latency shifts and \
             event-count deltas. Under $(b,--assert-clean), exit 1 when \
             the candidate adds any violation key the baseline did not \
             have.")
  in
  (* One report body for both modes: the live run passes its measured
     context, a replay echoes the context stored in the capture trailer;
     everything diagnostic (spans, verdicts, monitor state) is
     recomputed from the event stream in both. *)
  let report ~json_out ~assert_clean ~flows ~msgs ~expected ~delivered
      ~retransmits ~faults ~stalled ~stall_report ~spans ~mon =
    let branches = Causal.retransmissions spans in
    let clean = Monitor.clean mon && (not stalled) && delivered = expected in
    let verdicts =
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun s ->
          let v = Causal.stalled_stage s in
          Hashtbl.replace tbl v
            (1 + Option.value (Hashtbl.find_opt tbl v) ~default:0))
        spans;
      List.sort
        (fun (a, _) (b, _) -> String.compare a b)
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
    in
    if json_out then
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("flows", Json.Int flows);
                ("messages_per_flow", Json.Int msgs);
                ("expected", Json.Int expected);
                ("delivered", Json.Int delivered);
                ("retransmits", Json.Int retransmits);
                ("faults", faults);
                ("spans_traced", Json.Int (List.length spans));
                ("retransmitted_frames", Json.Int (List.length branches));
                ( "span_verdicts",
                  Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) verdicts)
                );
                ("monitor_events_seen", Json.Int (Monitor.events_seen mon));
                ( "monitor_violations",
                  Json.Int (List.length (Monitor.violations mon)) );
                ("stalled", Json.Bool stalled);
                ("clean", Json.Bool clean);
              ]))
    else begin
      Fmt.pr "flipc doctor: %d reliable flows x %d messages on a lossy 4x4 \
              mesh@." flows msgs;
      (match faults with
      | Json.Obj
          [
            ("dropped", Json.Int d);
            ("duplicated", Json.Int du);
            ("reordered", Json.Int re);
            ("delayed", Json.Int dl);
          ] ->
          Fmt.pr
            "wire faults: dropped=%d duplicated=%d reordered=%d delayed=%d@."
            d du re dl
      | _ -> ());
      Fmt.pr "delivered %d/%d messages, %d retransmissions@." delivered
        expected retransmits;
      Fmt.pr "causal tracing: %d message spans reconstructed@."
        (List.length spans);
      List.iter (fun (v, n) -> Fmt.pr "  %4d span(s): %s@." n v) verdicts;
      (match branches with
      | [] -> ()
      | _ ->
          Fmt.pr "frames transmitted more than once:@.";
          List.iter
            (fun (node, ep, seq, mids) ->
              Fmt.pr "  node %d ep %d seq %d: mids %s@." node ep seq
                (String.concat "," (List.map string_of_int mids)))
            branches);
      (* One sample span end to end, preferring a retransmitted frame's
         (the most interesting causal history on a lossy wire). *)
      (match
         match branches with
         | (_, _, _, mid :: _) :: _ -> Causal.find spans mid
         | _ -> ( match spans with s :: _ -> Some s | [] -> None)
       with
      | Some s ->
          Fmt.pr "sample span (msg %d, %s):@.@[<v 2>  %a@]@." s.Causal.mid
            (Causal.stalled_stage s) Causal.pp_span s
      | None -> ());
      Fmt.pr "@[<v>%a@]@." Monitor.pp_report mon;
      match stall_report with
      | Some report -> Fmt.pr "%s@." report
      | None -> ()
    end;
    if assert_clean && not clean then begin
      if not json_out then
        Fmt.epr
          "flipc doctor: NOT clean (delivered %d/%d, %d violations, \
           stalled=%b)@."
          delivered expected
          (List.length (Monitor.violations mon))
          stalled;
      exit 1
    end
  in
  let replay_run path ~json_out ~assert_clean =
    let module Replay = Flipc_obs.Replay in
    match Replay.load path with
    | Error e ->
        Fmt.epr "flipc doctor: cannot replay %s: %s@." path e;
        exit 2
    | Ok capture ->
        let summary =
          match Replay.summary capture with
          | Some s -> s
          | None ->
              Fmt.epr
                "flipc doctor: %s has no run summary in its trailer — was it \
                 written by flipc doctor --capture?@." path;
              exit 2
        in
        let want_int name =
          match Option.bind (Json.member name summary) Json.to_int with
          | Some v -> v
          | None ->
              Fmt.epr "flipc doctor: capture summary lacks %S@." name;
              exit 2
        in
        let spans = Replay.spans capture in
        let mon =
          Monitor.create
            ~history:(fun mid ->
              match Causal.find spans mid with
              | Some span -> Fmt.str "@[<v>%a@]" Causal.pp_span span
              | None -> "")
            ()
        in
        List.iter
          (fun r -> Monitor.feed mon ~now:r.Replay.r_ts r.Replay.r_ev)
          (Replay.records capture);
        report ~json_out ~assert_clean ~flows:(want_int "flows")
          ~msgs:(want_int "messages_per_flow")
          ~expected:(want_int "expected")
          ~delivered:(want_int "delivered")
          ~retransmits:(want_int "retransmits")
          ~faults:
            (Option.value (Json.member "faults" summary) ~default:Json.Null)
          ~stalled:(Json.member "stalled" summary = Some (Json.Bool true))
          ~stall_report:None ~spans ~mon
  in
  let diff_run ~cand_path ~base_path ~json_out ~assert_clean =
    let module Replay = Flipc_obs.Replay in
    let module Diff = Flipc_obs.Diff in
    let load side path =
      match Replay.load path with
      | Ok c -> c
      | Error e ->
          Fmt.epr "flipc doctor: cannot load %s capture %s: %s@." side path e;
          exit 2
    in
    let cand = load "candidate" cand_path in
    let base = load "baseline" base_path in
    let d = Diff.compare_runs ~base ~cand in
    if json_out then print_endline (Json.to_string (Diff.json d))
    else Fmt.pr "@[<v>%a@]@." Diff.pp d;
    if assert_clean && Diff.regressions d > 0 then begin
      if not json_out then
        Fmt.epr "flipc doctor: %d violation key(s) added vs baseline@."
          (Diff.regressions d);
      exit 1
    end
  in
  let run trace replay against flows msgs drop dup reorder seed assert_clean
      json_out =
    with_trace trace @@ fun () ->
    match (replay, against) with
    | Some cand, Some base ->
        diff_run ~cand_path:cand ~base_path:base ~json_out ~assert_clean
    | None, Some _ ->
        Fmt.epr "flipc doctor: --against requires --replay CANDIDATE@.";
        exit 2
    | Some path, None -> replay_run path ~json_out ~assert_clean
    | None, None ->
    if flows < 1 || flows > 8 then begin
      Fmt.epr "flipc doctor: --flows must be in [1,8]@.";
      exit 2
    end;
    check_prob "doctor" "--drop" drop;
    check_prob "doctor" "--dup" dup;
    check_prob "doctor" "--reorder" reorder;
    let fault =
      Faulty.config ~drop ~duplicate:dup ~reorder ~reorder_hold_ns:100_000
        ~seed ()
    in
    (* Flow i runs node i -> node i+8: disjoint pairs across the mesh. *)
    let r =
      Stackflow.run ~fault ~flows ~messages:msgs
        ~kind:(Machine.Mesh { cols = 4; rows = 4 })
        ()
    in
    let machine = r.Stackflow.machine in
    let spans = Causal.spans [ Machine.obs machine ] in
    let expected = r.Stackflow.expected and delivered = r.Stackflow.delivered in
    let retransmits = r.Stackflow.counters.Stackflow.retransmits in
    let stalled = r.Stackflow.watchdogs_expired > 0 in
    let faults_json =
      match Machine.fault_stats machine with
      | Some f ->
          Json.Obj
            [
              ("dropped", Json.Int f.Faulty.dropped);
              ("duplicated", Json.Int f.Faulty.duplicated);
              ("reordered", Json.Int f.Faulty.reordered);
              ("delayed", Json.Int f.Faulty.delayed);
            ]
      | None -> Json.Null
    in
    (* Stamp the run context into the capture trailer, so a replaying
       doctor can echo the fields it cannot recompute from events. *)
    (match !active_sink with
    | Some sink ->
        Flipc_obs.Sink.set_summary sink
          (Json.Obj
             [
               ("flows", Json.Int flows);
               ("messages_per_flow", Json.Int msgs);
               ("expected", Json.Int expected);
               ("delivered", Json.Int delivered);
               ("retransmits", Json.Int retransmits);
               ("faults", faults_json);
               ("stalled", Json.Bool stalled);
             ])
    | None -> ());
    report ~json_out ~assert_clean ~flows ~msgs ~expected ~delivered
      ~retransmits ~faults:faults_json ~stalled
      ~stall_report:r.Stackflow.stall_report ~spans ~mon:r.Stackflow.monitor
  in
  let doc =
    "Self-diagnosis on a lossy mesh: run reliable flows with causal tracing, \
     online invariant monitors and progress watchdogs attached, then report \
     spans, retransmission branches and the invariant verdict. \
     $(b,--assert-clean) turns it into a CI health gate; $(b,--capture) \
     writes a flight-data file that $(b,--replay) re-diagnoses offline, \
     and $(b,--against) diffs two captures."
  in
  Cmd.v
    (Cmd.info "doctor" ~doc)
    Term.(
      const run $ obs_out $ replay_arg $ against_arg $ flows_arg $ msgs $ drop
      $ dup $ reorder $ fault_seed 7 $ assert_clean $ json_flag)

(* --- fault scenarios: soakmatrix, stack --- *)

(* The named fault scenarios of the soak and stack matrices, as a
   fabric-wide fault and per-link overrides. [hold] is the fabric's
   reorder hold; the single bad link runs from node 0 to its partner
   [half], and drops, bursts and corrupts while every other link stays
   clean. *)
let scenario_fault name ~seed ~hold ~half =
  let module Faulty = Flipc_net.Faulty in
  let bad_link () =
    Faulty.config ~drop:0.15 ~corrupt:0.1
      ~burst:(Faulty.burst ~p_good_bad:0.05 ~p_bad_good:0.3 ~drop_bad:0.5 ())
      ~seed:(seed + 1) ()
  in
  let only_link_0 bad ~src ~dst =
    if src = 0 && dst = half then Some bad else None
  in
  match name with
  | "clean" -> (None, None)
  | "uniform" ->
      ( Some
          (Faulty.config ~drop:0.05 ~duplicate:0.02 ~reorder:0.15
             ~reorder_hold_ns:hold ~seed ()),
        None )
  | "burst" ->
      ( Some
          (Faulty.config
             ~burst:
               (Faulty.burst ~p_good_bad:0.05 ~p_bad_good:0.3 ~drop_bad:0.5 ())
             ~seed ()),
        None )
  | "corrupt" -> (Some (Faulty.config ~corrupt:0.08 ~seed ()), None)
  | "perlink" ->
      (Some (Faulty.config ~seed ()), Some (only_link_0 (bad_link ())))
  | "combined" ->
      ( Some
          (Faulty.config ~drop:0.03 ~duplicate:0.02 ~reorder:0.1
             ~reorder_hold_ns:hold ~corrupt:0.03
             ~burst:
               (Faulty.burst ~p_good_bad:0.03 ~p_bad_good:0.3 ~drop_bad:0.4 ())
             ~seed ()),
        Some (only_link_0 (bad_link ())) )
  | _ -> invalid_arg ("unknown fault scenario " ^ name)

(* The standing adversarial gate: all-to-all reliable flows on every
   fabric, swept across the whole fault matrix (uniform loss, Gilbert–
   Elliott bursts, payload corruption, a single faulted link, and all of
   it combined), with the frame checksum on, invariant monitors attached
   and a progress watchdog per flow. Receivers verify every delivered
   payload against the pattern the sender wrote, so a corrupt frame that
   leaks past the checksum into the application is counted — the number
   that must stay zero. *)
let soakmatrix_cmd =
  let module Faulty = Flipc_net.Faulty in
  let module Json = Flipc_obs.Json in
  let msgs_arg =
    Arg.(
      value & opt int 25
      & info [ "messages" ] ~docv:"N" ~doc:"Messages per flow.")
  in
  let fabric_filter =
    Arg.(
      value
      & opt (enum [ ("all", `All); ("mesh", `Mesh); ("ethernet", `Ethernet);
                    ("scsi", `Scsi) ]) `All
      & info [ "fabric" ] ~docv:"FABRIC" ~doc:"Run one fabric only.")
  in
  let scenario_filter =
    Arg.(
      value
      & opt string "all"
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:
            "Run one fault scenario only (uniform, burst, corrupt, perlink, \
             combined).")
  in
  let out_arg =
    Arg.(
      value
      & opt string "BENCH_soak_matrix.json"
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Where to write the JSON document ('-' = stdout only).")
  in
  let assert_clean =
    Arg.(
      value & flag
      & info [ "assert-clean" ]
          ~doc:
            "Exit 1 unless every cell is clean: all messages delivered, no \
             invariant violation, no watchdog expiry, zero corrupt frames \
             reaching the application.")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the JSON document on stdout instead of the text table.")
  in
  let scenario_names =
    [ "uniform"; "burst"; "corrupt"; "perlink"; "combined" ]
  in
  (* One soak cell: every node sends to node (i + n/2) mod n, so every
     node both sends and receives through the faulted fabric. *)
  let run_cell ~fabric_name ~kind ~cost ~nodes ~rto_ns ~pace_ns ~budget ~hold
      ~msgs ~seed ~scenario =
    let fault, links = scenario_fault scenario ~seed ~hold ~half:(nodes / 2) in
    let r =
      Stackflow.run ?fault ?fault_links:links ~cost
        ~retrans:(retrans_config rto_ns) ~pace_ns ~budget ~kind ~messages:msgs
        ()
    in
    let machine = r.Stackflow.machine in
    if r.Stackflow.watchdogs_expired > 0 then
      Fmt.epr "flipc soakmatrix: %s/%s: %d flow process(es) aborted@."
        fabric_name scenario r.Stackflow.watchdogs_expired;
    let corrupt_dropped = ref 0 in
    for i = 0 to Machine.node_count machine - 1 do
      let st = Flipc.Msg_engine.stats (Machine.msg_engine (Machine.node machine i)) in
      corrupt_dropped := !corrupt_dropped + st.Flipc.Msg_engine.corrupt_frames
    done;
    let faults_json =
      match Machine.fault_stats machine with
      | Some f ->
          Json.Obj
            [
              ("dropped", Json.Int f.Faulty.dropped);
              ("burst_dropped", Json.Int f.Faulty.burst_dropped);
              ("duplicated", Json.Int f.Faulty.duplicated);
              ("reordered", Json.Int f.Faulty.reordered);
              ("delayed", Json.Int f.Faulty.delayed);
              ("corrupted", Json.Int f.Faulty.corrupted);
              ("ge_bursts", Json.Int f.Faulty.ge_bursts);
              ("ge_bad_pkts", Json.Int f.Faulty.ge_bad_pkts);
              ("ge_good_pkts", Json.Int f.Faulty.ge_good_pkts);
            ]
      | None -> Json.Null
    in
    ( r.Stackflow.clean,
      Json.Obj
        [
          ("fabric", Json.String fabric_name);
          ("scenario", Json.String scenario);
          ("flows", Json.Int nodes);
          ("expected", Json.Int r.Stackflow.expected);
          ("delivered", Json.Int r.Stackflow.delivered);
          ("retransmits", Json.Int r.Stackflow.counters.Stackflow.retransmits);
          ("corrupt_leaks", Json.Int r.Stackflow.corrupt_leaks);
          ("corrupt_frames_dropped", Json.Int !corrupt_dropped);
          ("monitor_violations", Json.Int r.Stackflow.monitor_violations);
          ("watchdogs_expired", Json.Int r.Stackflow.watchdogs_expired);
          ("faults", faults_json);
          ("clean", Json.Bool r.Stackflow.clean);
        ] )
  in
  let run trace msgs seed fabric_sel scenario_sel out assert_flag json_out =
    with_trace trace @@ fun () ->
    if msgs < 1 then begin
      Fmt.epr "flipc soakmatrix: --messages must be >= 1@.";
      exit 2
    end;
    (if scenario_sel <> "all" && not (List.mem scenario_sel scenario_names)
     then begin
       Fmt.epr "flipc soakmatrix: unknown scenario %s@." scenario_sel;
       exit 2
     end);
    (* Per-fabric tuning: (tag, name, kind, cost model, nodes, rto_ns,
       pace_ns, watchdog budget, reorder_hold_ns). The 10 Mb/s shared
       Ethernet serializes every frame (~120 us each), so 8 all-to-all
       flows must pace well below medium capacity and start from an RTO
       above the contended round trip, or the cell measures a congestion
       collapse instead of fault recovery. *)
    let fabrics =
      [
        ( `Mesh,
          "mesh",
          Machine.Mesh { cols = 4; rows = 4 },
          Flipc_memsim.Cost_model.paragon,
          16, 200_000, 25_000, Flipc_sim.Vtime.ms 50, 100_000 );
        ( `Ethernet,
          "ethernet",
          Machine.Ethernet { nodes = 8 },
          Flipc_memsim.Cost_model.pc_cluster,
          8, 8_000_000, 2_000_000, Flipc_sim.Vtime.ms 500, 500_000 );
        ( `Scsi,
          "scsi",
          Machine.Scsi { nodes = 4 },
          Flipc_memsim.Cost_model.pc_cluster,
          4, 1_000_000, 125_000, Flipc_sim.Vtime.ms 50, 500_000 );
      ]
      |> List.filter (fun (tag, _, _, _, _, _, _, _, _) ->
             fabric_sel = `All || fabric_sel = tag)
    in
    let scenarios =
      List.filter
        (fun s -> scenario_sel = "all" || scenario_sel = s)
        scenario_names
    in
    let cells =
      List.concat_map
        (fun (_, fabric_name, kind, cost, nodes, rto_ns, pace_ns, budget, hold)
           ->
          List.map
            (fun scenario ->
              run_cell ~fabric_name ~kind ~cost ~nodes ~rto_ns ~pace_ns ~budget
                ~hold ~msgs ~seed ~scenario)
            scenarios)
        fabrics
    in
    let clean = List.for_all fst cells in
    let doc =
      Json.Obj
        [
          ("experiment", Json.String "soak_matrix");
          ("messages_per_flow", Json.Int msgs);
          ("seed", Json.Int seed);
          ("cells", Json.List (List.map snd cells));
          ("clean", Json.Bool clean);
        ]
    in
    (if out <> "-" then begin
       let oc = open_out out in
       output_string oc (Json.to_string doc);
       output_char oc '\n';
       close_out oc
     end);
    if json_out then print_endline (Json.to_string doc)
    else begin
      Fmt.pr "flipc soakmatrix: %d cells x %d messages/flow (seed %d)@."
        (List.length cells) msgs seed;
      List.iter
        (fun (cell_clean, j) ->
          match j with
          | Json.Obj fields ->
              let str k =
                match List.assoc k fields with
                | Json.String s -> s
                | _ -> "?"
              in
              let int k =
                match List.assoc k fields with Json.Int i -> i | _ -> -1
              in
              Fmt.pr
                "  %-8s %-8s delivered %d/%d retrans=%d corrupt-dropped=%d \
                 leaks=%d violations=%d stalls=%d %s@."
                (str "fabric") (str "scenario") (int "delivered")
                (int "expected") (int "retransmits")
                (int "corrupt_frames_dropped") (int "corrupt_leaks")
                (int "monitor_violations") (int "watchdogs_expired")
                (if cell_clean then "ok" else "NOT CLEAN")
          | _ -> ())
        cells;
      if out <> "-" then Fmt.pr "wrote %s@." out
    end;
    if assert_flag && not clean then begin
      if not json_out then Fmt.epr "flipc soakmatrix: NOT clean@.";
      exit 1
    end
  in
  let doc =
    "Adversarial soak matrix: all-to-all reliable flows on \
     mesh/Ethernet/SCSI swept across the fault matrix (uniform, burst, \
     corrupt, per-link, combined) with frame checksums, invariant monitors \
     and per-flow watchdogs. $(b,--assert-clean) turns it into the standing \
     CI gate; the JSON lands in $(b,BENCH_soak_matrix.json) for \
     $(b,bench_diff.sh)."
  in
  Cmd.v
    (Cmd.info "soakmatrix" ~doc)
    Term.(
      const run $ obs_out $ msgs_arg $ fault_seed 21 $ fabric_filter
      $ scenario_filter $ out_arg $ assert_clean $ json_flag)

(* --- stack --- *)

(* The layered-transport gate: every {!Flipc_flow.Transport} composition
   Stackflow can build, swept across fault scenarios — but only where
   the stack makes a delivery promise. The optimistic stacks (bare
   channel, window-over-channel) and the retrans-over-window tower run
   on the clean fabric only: the first two guarantee nothing under
   loss, and the tower is excluded by the stacking rule (a dropped data
   frame permanently consumes a window credit, so reliability must sit
   below flow control on a lossy base). Retrans-over-channel is the
   reliable composition and must deliver exactly-once through the whole
   fault sweep. *)
let stack_cmd =
  let module Json = Flipc_obs.Json in
  let msgs_arg =
    Arg.(
      value & opt int 25
      & info [ "messages" ] ~docv:"N" ~doc:"Messages per flow.")
  in
  let stack_names =
    [
      ("channel", Stackflow.Bare_channel);
      ("window", Stackflow.Window_over_channel);
      ("retrans", Stackflow.Retrans_over_channel);
      ("tower", Stackflow.Retrans_over_window);
    ]
  in
  let stack_filter =
    Arg.(
      value & opt string "all"
      & info [ "stack" ] ~docv:"NAME"
          ~doc:
            "Run one composition only (channel, window, retrans, tower).")
  in
  let scenario_names =
    [ "clean"; "uniform"; "burst"; "corrupt"; "perlink"; "combined" ]
  in
  let scenario_filter =
    Arg.(
      value & opt string "all"
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:
            "Run one fault scenario only (clean, uniform, burst, corrupt, \
             perlink, combined).")
  in
  let out_arg =
    Arg.(
      value
      & opt string "BENCH_stack.json"
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Where to write the JSON document ('-' = stdout only).")
  in
  let assert_clean =
    Arg.(
      value & flag
      & info [ "assert-clean" ]
          ~doc:
            "Exit 1 unless every cell is clean: all messages delivered \
             exactly once, no invariant violation, no watchdog expiry, zero \
             corrupt payloads reaching the application.")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the JSON document on stdout instead of the text table.")
  in
  let nodes = 4 in
  (* Which scenarios a composition promises to survive. *)
  let scenarios_for stack =
    match stack with
    | Stackflow.Retrans_over_channel -> scenario_names
    | Stackflow.Bare_channel | Stackflow.Window_over_channel
    | Stackflow.Retrans_over_window ->
        [ "clean" ]
  in
  let run_cell ~stack ~scenario ~msgs ~seed =
    let fault, links =
      scenario_fault scenario ~seed ~hold:100_000 ~half:(nodes / 2)
    in
    let r =
      Stackflow.run ~stack ?fault ?fault_links:links
        ~kind:(Machine.Mesh { cols = 2; rows = 2 })
        ~messages:msgs ()
    in
    ( r.Stackflow.clean,
      Json.Obj
        [
          ("stack", Json.String (Stackflow.stack_name stack));
          ("scenario", Json.String scenario);
          ("flows", Json.Int nodes);
          ("expected", Json.Int r.Stackflow.expected);
          ("delivered", Json.Int r.Stackflow.delivered);
          ("retransmits", Json.Int r.Stackflow.counters.Stackflow.retransmits);
          ("corrupt_leaks", Json.Int r.Stackflow.corrupt_leaks);
          ("transport_drops", Json.Int r.Stackflow.transport_drops);
          ("monitor_violations", Json.Int r.Stackflow.monitor_violations);
          ("watchdogs_expired", Json.Int r.Stackflow.watchdogs_expired);
          ("clean", Json.Bool r.Stackflow.clean);
        ] )
  in
  let run trace msgs seed stack_sel scenario_sel out assert_flag json_out =
    with_trace trace @@ fun () ->
    if msgs < 1 then begin
      Fmt.epr "flipc stack: --messages must be >= 1@.";
      exit 2
    end;
    (if stack_sel <> "all" && not (List.mem_assoc stack_sel stack_names) then begin
       Fmt.epr "flipc stack: unknown stack %s@." stack_sel;
       exit 2
     end);
    (if scenario_sel <> "all" && not (List.mem scenario_sel scenario_names)
     then begin
       Fmt.epr "flipc stack: unknown scenario %s@." scenario_sel;
       exit 2
     end);
    let cells =
      List.concat_map
        (fun (sname, stack) ->
          if stack_sel <> "all" && stack_sel <> sname then []
          else
            scenarios_for stack
            |> List.filter (fun s ->
                   scenario_sel = "all" || scenario_sel = s)
            |> List.map (fun scenario -> run_cell ~stack ~scenario ~msgs ~seed))
        stack_names
    in
    if cells = [] then begin
      Fmt.epr
        "flipc stack: no cells selected (the %s stack only runs the clean \
         scenario)@."
        stack_sel;
      exit 2
    end;
    let clean = List.for_all fst cells in
    let doc =
      Json.Obj
        [
          ("experiment", Json.String "stack_matrix");
          ("messages_per_flow", Json.Int msgs);
          ("seed", Json.Int seed);
          ("cells", Json.List (List.map snd cells));
          ("clean", Json.Bool clean);
        ]
    in
    (if out <> "-" then begin
       let oc = open_out out in
       output_string oc (Json.to_string doc);
       output_char oc '\n';
       close_out oc
     end);
    if json_out then print_endline (Json.to_string doc)
    else begin
      Fmt.pr "flipc stack: %d cells x %d messages/flow (seed %d)@."
        (List.length cells) msgs seed;
      List.iter
        (fun (cell_clean, j) ->
          match j with
          | Json.Obj fields ->
              let str k =
                match List.assoc k fields with
                | Json.String s -> s
                | _ -> "?"
              in
              let int k =
                match List.assoc k fields with Json.Int i -> i | _ -> -1
              in
              Fmt.pr
                "  %-22s %-8s delivered %d/%d retrans=%d drops=%d leaks=%d \
                 violations=%d stalls=%d %s@."
                (str "stack") (str "scenario") (int "delivered")
                (int "expected") (int "retransmits") (int "transport_drops")
                (int "corrupt_leaks") (int "monitor_violations")
                (int "watchdogs_expired")
                (if cell_clean then "ok" else "NOT CLEAN")
          | _ -> ())
        cells;
      if out <> "-" then Fmt.pr "wrote %s@." out
    end;
    if assert_flag && not clean then begin
      if not json_out then Fmt.epr "flipc stack: NOT clean@.";
      exit 1
    end
  in
  let doc =
    "Layered-transport matrix: every Stackflow composition (bare channel, \
     window flow control, retransmission, the full tower) on a mesh, each \
     swept across the fault scenarios it promises to survive. \
     $(b,--assert-clean) turns it into a CI gate; the JSON lands in \
     $(b,BENCH_stack.json)."
  in
  Cmd.v (Cmd.info "stack" ~doc)
    Term.(
      const run $ obs_out $ msgs_arg $ fault_seed 31 $ stack_filter
      $ scenario_filter $ out_arg $ assert_clean $ json_flag)

(* --- trace --- *)

let trace_cmd =
  let module Replay = Flipc_obs.Replay in
  let msgs =
    Arg.(value & opt int 3 & info [ "messages" ] ~docv:"N"
           ~doc:"Messages to trace.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Skip the demo: print the capture in $(docv) (written by \
             $(b,--capture)) as JSON lines — a header, one record per \
             event, and a trailer.")
  in
  let print capture = List.iter print_endline (Replay.jsonl capture) in
  let demo msgs =
    let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
    let obs = Machine.obs machine in
    Flipc_obs.Tracer.enable (Flipc_obs.Obs.tracer obs);
    let ns = Machine.names machine in
    let ok = Result.get_ok in
    Machine.spawn_app machine ~node:1 (fun api ->
        let ep = ok (Flipc.Api.allocate_endpoint api ~kind:Flipc.Endpoint_kind.Recv ()) in
        for _ = 1 to 4 do
          ok (Flipc.Api.post_receive api ep (ok (Flipc.Api.allocate_buffer api)))
        done;
        Flipc.Nameservice.register ns "rx" (Flipc.Api.address api ep);
        for _ = 1 to msgs do
          let rec poll () =
            match Flipc.Api.receive api ep with
            | Some b -> b
            | None ->
                Flipc_memsim.Mem_port.instr (Flipc.Api.port api) 5;
                poll ()
          in
          let b = poll () in
          ok (Flipc.Api.post_receive api ep b)
        done);
    Machine.spawn_app machine ~node:0 (fun api ->
        let ep = ok (Flipc.Api.allocate_endpoint api ~kind:Flipc.Endpoint_kind.Send ()) in
        Flipc.Api.connect api ep (Flipc.Nameservice.lookup ns "rx");
        let buf = ok (Flipc.Api.allocate_buffer api) in
        for _ = 1 to msgs do
          ok (Flipc.Api.send api ep buf);
          let rec reclaim () =
            match Flipc.Api.reclaim api ep with
            | Some _ -> ()
            | None ->
                Flipc_memsim.Mem_port.instr (Flipc.Api.port api) 5;
                reclaim ()
          in
          reclaim ();
          Flipc_sim.Engine.delay (Flipc_sim.Vtime.us 50)
        done);
    Machine.run machine;
    Machine.stop_engines machine;
    Machine.run machine;
    print (Replay.of_obs obs)
  in
  let run trace replay msgs =
    with_trace trace @@ fun () ->
    match replay with
    | None -> demo msgs
    | Some path -> (
        match Replay.load path with
        | Ok capture -> print capture
        | Error e ->
            Fmt.epr "flipc trace: cannot read %s: %s@." path e;
            exit 2)
  in
  let doc =
    "Print a two-node demo's typed event timeline for a few messages as \
     JSON lines, or print a capture file the same way ($(b,--replay))."
  in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const run $ obs_out $ replay_arg $ msgs)

(* --- metrics --- *)

let metrics_cmd =
  let module Obs = Flipc_obs.Obs in
  let module Metrics = Flipc_obs.Metrics in
  let module Latency = Flipc_obs.Latency in
  let module Series = Flipc_obs.Series in
  let module Json = Flipc_obs.Json in
  let module Vtime = Flipc_sim.Vtime in
  let json_flag =
    let doc = "Emit one machine-readable JSON object instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let prom_flag =
    let doc =
      "Emit the metrics snapshot as a Prometheus-style text exposition \
       (counters, gauges, histogram summaries with quantile labels)."
    in
    Arg.(value & flag & info [ "prom" ] ~doc)
  in
  let series_us =
    let doc =
      "Attach a virtual-time series sampler with $(docv)-microsecond windows \
       and include the per-window counter rates, gauges and quantiles in the \
       output."
    in
    Arg.(value & opt (some int) None & info [ "series" ] ~docv:"US" ~doc)
  in
  let alerts_arg =
    let doc =
      "Evaluate the alert rules in $(docv) (JSON; same grammar as \
       $(b,flipc alert)) over the series windows and report the firings. \
       Each firing is also emitted into the event stream as a typed \
       alert_fired event, so it lands in any $(b,--capture) file. Implies \
       a series tap (window size from $(b,--series), default 100 us)."
    in
    Arg.(value & opt (some string) None & info [ "alerts" ] ~docv:"RULES" ~doc)
  in
  let run trace json_out prom payload exchanges series_us alerts_path =
    with_trace trace @@ fun () ->
    let module Alert = Flipc_obs.Alert in
    let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
    let obs = Machine.obs machine in
    let alert =
      Option.map
        (fun path ->
          match Alert.load_rules path with
          | Error e ->
              Fmt.epr "flipc metrics: %s@." e;
              exit 2
          | Ok rules ->
              let interval = Vtime.us (Option.value series_us ~default:100) in
              Alert.attach ~rules ~interval obs)
        alerts_path
    in
    let series =
      Option.map
        (fun us -> Series.attach ~interval:(Vtime.us us) obs)
        series_us
    in
    let lat = Latency.attach obs in
    let r =
      Pingpong.run ~machine ~node_a:0 ~node_b:1 ~payload_bytes:payload
        ~exchanges ()
    in
    Option.iter Series.sample series;
    Option.iter Alert.sample alert;
    let snap = Metrics.snapshot (Obs.metrics obs) in
    if prom then print_string (Series.prom_of_snapshot snap)
    else if json_out then
      print_endline
        (Json.to_string
           (Json.Obj
              ([
                 ("workload", Json.String "pingpong");
                 ("fabric", Json.String "mesh 2x1");
                 ("message_bytes", Json.Int r.Pingpong.message_bytes);
                 ("exchanges", Json.Int r.Pingpong.exchanges);
                 ( "aggregate_one_way_us",
                   Json.Float r.Pingpong.aggregate_one_way_us );
                 ("metrics", Metrics.snapshot_json snap);
                 ("latency", Latency.json lat);
               ]
              @ (match series with
                | Some s -> [ ("series", Series.json s) ]
                | None -> [])
              @
              match alert with
              | Some a -> [ ("alerts", Alert.json a) ]
              | None -> [])))
    else begin
      Fmt.pr "pingpong on a 2x1 mesh: %d exchanges of %dB messages@."
        r.Pingpong.exchanges r.Pingpong.message_bytes;
      Fmt.pr "aggregate one-way: %.2f us@.@." r.Pingpong.aggregate_one_way_us;
      Fmt.pr "metrics registry snapshot:@.%a@." Metrics.pp_snapshot snap;
      Fmt.pr "per-message latency breakdown:@.%a" Latency.pp lat;
      (match series with
      | Some s ->
          Fmt.pr "@.series: %d window(s) sampled (use --json for contents)@."
            (Series.window_count s)
      | None -> ());
      match alert with
      | Some a -> Fmt.pr "@.@[<v>%a@]@." Alert.pp_report a
      | None -> ()
    end
  in
  let doc =
    "Run a short ping-pong workload and dump the machine's metrics-registry \
     snapshot and per-message latency breakdown (deterministic for a fixed \
     configuration). $(b,--prom) switches to Prometheus text exposition; \
     $(b,--series) adds windowed time-series output; $(b,--alerts) \
     evaluates a declarative rule set over the windows."
  in
  Cmd.v
    (Cmd.info "metrics" ~doc)
    Term.(
      const run $ obs_out $ json_flag $ prom_flag $ payload $ exchanges
      $ series_us $ alerts_arg)

(* --- alert --- *)

let alert_cmd =
  let module Alert = Flipc_obs.Alert in
  let module Series = Flipc_obs.Series in
  let module Json = Flipc_obs.Json in
  let module Vtime = Flipc_sim.Vtime in
  let rules_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "rules" ] ~docv:"FILE"
          ~doc:
            "Alert rule set: a JSON document {\"rules\": [...]} where each \
             rule has a \"name\", a \"kind\" (rate_band, counter_zero or \
             quantile_ceiling) and kind-specific fields (see DESIGN.md, \
             section 18).")
  in
  let interval_us =
    Arg.(
      value & opt int 100
      & info [ "interval" ] ~docv:"US"
          ~doc:"Series window size in virtual microseconds.")
  in
  let json_flag =
    let doc = "Emit one machine-readable JSON object instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let expect_fire =
    Arg.(
      value
      & opt (some string) None
      & info [ "expect-fire" ] ~docv:"RULE"
          ~doc:
            "Invert the gate: exit 0 only when rule $(docv) fired at least \
             once — a self-test that the tripwire actually trips.")
  in
  let run trace rules_path interval_us json_out expect payload exchanges =
    with_trace trace @@ fun () ->
    let rules =
      match Alert.load_rules rules_path with
      | Ok r -> r
      | Error e ->
          Fmt.epr "flipc alert: %s@." e;
          exit 2
    in
    let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
    let obs = Machine.obs machine in
    let a = Alert.attach ~rules ~interval:(Vtime.us interval_us) obs in
    let r =
      Pingpong.run ~machine ~node_a:0 ~node_b:1 ~payload_bytes:payload
        ~exchanges ()
    in
    Alert.sample a;
    let fired = Alert.fired a in
    if json_out then
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("workload", Json.String "pingpong");
                ("exchanges", Json.Int r.Pingpong.exchanges);
                ("rules", Json.Int (List.length rules));
                ( "windows",
                  Json.Int (Series.window_count (Alert.series a)) );
                ("fired", Alert.json a);
                ("clean", Json.Bool (fired = []));
              ]))
    else begin
      Fmt.pr "flipc alert: %d rule(s) over %d window(s) of a pingpong run@."
        (List.length rules)
        (Series.window_count (Alert.series a));
      Fmt.pr "@[<v>%a@]@." Alert.pp_report a
    end;
    match expect with
    | Some rule ->
        if not (List.exists (fun f -> f.Alert.a_rule = rule) fired) then begin
          if not json_out then
            Fmt.epr "flipc alert: expected rule %S to fire; it did not@." rule;
          exit 1
        end
    | None -> if fired <> [] then exit 1
  in
  let doc =
    "Run the deterministic ping-pong workload with a declarative alert rule \
     set attached to windowed telemetry, report every firing, and exit 1 if \
     any rule fired — a CI tripwire over live metrics. Firings are also \
     emitted as typed events, so they land in $(b,--capture) files and \
     survive $(b,flipc doctor --replay)."
  in
  Cmd.v
    (Cmd.info "alert" ~doc)
    Term.(
      const run $ obs_out $ rules_arg $ interval_us $ json_flag $ expect_fire
      $ payload $ exchanges)

(* --- engine --- *)

let engine_cmd =
  let module Obs = Flipc_obs.Obs in
  let module Metrics = Flipc_obs.Metrics in
  let module Json = Flipc_obs.Json in
  let endpoints =
    Arg.(
      value & opt int 64
      & info [ "endpoints" ] ~docv:"N" ~doc:"Configured endpoints per node.")
  in
  let full_scan =
    let doc = "Use the pre-doorbell full-scan scheduler (ablation)." in
    Arg.(value & flag & info [ "full-scan" ] ~doc)
  in
  let json_flag =
    let doc = "Emit one machine-readable JSON object instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let max_rebuilds =
    let doc =
      "Fail (exit 1) when any node's schedule-rebuild count exceeds $(docv) \
       — the steady-state invariant is one rebuild per endpoint-set \
       change, not per message, so a workload with a fixed endpoint set \
       should stay below a small constant. Intended for CI smoke."
    in
    Arg.(
      value & opt (some int) None
      & info [ "max-rebuilds" ] ~docv:"N" ~doc)
  in
  let run trace json_out endpoints full_scan max_rebuilds payload exchanges =
    with_trace trace @@ fun () ->
    let config =
      {
        Config.default with
        Config.endpoints;
        sched_mode = (if full_scan then Config.Full_scan else Config.Doorbell);
      }
    in
    let machine =
      Machine.create ~config (Machine.Mesh { cols = 2; rows = 1 }) ()
    in
    let r =
      Pingpong.run ~machine ~node_a:0 ~node_b:1 ~payload_bytes:payload
        ~exchanges ()
    in
    let snap = Metrics.snapshot (Obs.metrics (Machine.obs machine)) in
    (* The engine exports its scheduler counters as pull-probes named
       node<i>.engine.<counter>; everything else in the registry
       (latency histograms, fabric stats) is out of scope here. *)
    let engine_snap =
      List.filter
        (fun (name, _) ->
          match String.split_on_char '.' name with
          | _node :: "engine" :: _ -> true
          | _ -> false)
        snap
    in
    if json_out then
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("workload", Json.String "pingpong");
                ("endpoints", Json.Int endpoints);
                ( "sched_mode",
                  Json.String (if full_scan then "full_scan" else "doorbell") );
                ("exchanges", Json.Int r.Pingpong.exchanges);
                ( "aggregate_one_way_us",
                  Json.Float r.Pingpong.aggregate_one_way_us );
                ("engine", Metrics.snapshot_json engine_snap);
              ]))
    else begin
      Fmt.pr "pingpong on a 2x1 mesh: %d exchanges, %d endpoints/node, %s@."
        r.Pingpong.exchanges endpoints
        (if full_scan then "full-scan scheduler" else "doorbell scheduler");
      Fmt.pr "aggregate one-way: %.2f us@.@." r.Pingpong.aggregate_one_way_us;
      Fmt.pr "engine scheduler counters:@.%a@." Metrics.pp_snapshot engine_snap
    end;
    match max_rebuilds with
    | None -> ()
    | Some budget ->
        let worst =
          List.fold_left
            (fun acc (n, v) ->
              match (String.split_on_char '.' n, v) with
              | _ :: "engine" :: [ "sched_rebuilds" ], Metrics.Snap_gauge g ->
                  max acc (int_of_float g)
              | _ -> acc)
            0 engine_snap
        in
        if worst > budget then begin
          Fmt.epr
            "flipc engine: sched_rebuilds=%d exceeds --max-rebuilds %d (the \
             schedule is being rebuilt on the steady-state path)@."
            worst budget;
          exit 1
        end
  in
  let doc =
    "Run a short ping-pong workload and dump the messaging engines' \
     scheduler counters (doorbell hits, schedule rebuilds, receive \
     truncations, avoided idle scans)."
  in
  Cmd.v
    (Cmd.info "engine" ~doc)
    Term.(
      const run $ obs_out $ json_flag $ endpoints $ full_scan $ max_rebuilds
      $ payload $ exchanges)

(* --- info --- *)

let field_name = function
  | Flipc.Layout.Ep_type -> "Ep_type"
  | Flipc.Layout.Queue_base -> "Queue_base"
  | Flipc.Layout.Queue_capacity -> "Queue_capacity"
  | Flipc.Layout.Sem_flag -> "Sem_flag"
  | Flipc.Layout.Priority -> "Priority"
  | Flipc.Layout.Burst -> "Burst"
  | Flipc.Layout.Allowed_node -> "Allowed_node"
  | Flipc.Layout.Dest_addr -> "Dest_addr"
  | Flipc.Layout.Release -> "Release"
  | Flipc.Layout.Acquire -> "Acquire"
  | Flipc.Layout.Drop_read -> "Drop_read"
  | Flipc.Layout.Send_pending -> "Send_pending"
  | Flipc.Layout.Lock -> "Lock"
  | Flipc.Layout.Process -> "Process"
  | Flipc.Layout.Drop_count -> "Drop_count"
  | Flipc.Layout.Scan_stamp -> "Scan_stamp"

let info_cmd =
  let run trace locked packed checks =
    with_trace trace @@ fun () ->
    let config = config_of locked packed checks in
    let layout = Flipc.Layout.compute config in
    Fmt.pr "configuration: %a@." Config.pp config;
    Fmt.pr "message: %dB total, %dB header, %dB payload@."
      config.Config.message_bytes Config.header_bytes
      (Config.payload_bytes config);
    Fmt.pr "communication buffer: %d bytes total@."
      (Flipc.Layout.total_bytes layout);
    let clo, chi = Flipc.Layout.control_region layout in
    let blo, bhi = Flipc.Layout.buffer_region layout in
    Fmt.pr "  control region: [%d, %d)@." clo chi;
    Fmt.pr "  buffer region:  [%d, %d)@." blo bhi;
    Fmt.pr "endpoint 0 field addresses (32B cache lines):@.";
    List.iter
      (fun f ->
        let writer =
          match Flipc.Layout.writer_of_field f with
          | Flipc.Layout.App -> "app"
          | Flipc.Layout.Engine -> "engine"
          | Flipc.Layout.Setup -> "setup"
        in
        let addr = Flipc.Layout.ep_field layout ~ep:0 f in
        Fmt.pr "  %-16s %5d  line %3d  (%s-written)@." (field_name f) addr
          (addr / 32) writer)
      Flipc.Layout.all_fields
  in
  let doc = "Print configuration and communication-buffer layout details." in
  Cmd.v
    (Cmd.info "info" ~doc)
    Term.(const run $ obs_out $ locked $ packed $ checks)

let () =
  let doc = "FLIPC low-latency messaging system reproduction" in
  let info = Cmd.info "flipc" ~version:"1.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            latency_cmd; sweep_cmd; compare_cmd; streams_cmd; rpc_cmd; kkt_cmd;
            throughput_cmd; firehose_cmd; bulk_cmd; faults_cmd; retrans_cmd;
            doctor_cmd; soakmatrix_cmd; stack_cmd;
            trace_cmd; metrics_cmd; alert_cmd;
            engine_cmd; info_cmd;
          ]))
