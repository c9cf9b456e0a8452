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
module Stackflow = Flipc_workload.Stackflow
module Faulty = Flipc_net.Faulty
module Json = Flipc_obs.Json
module Summary = Flipc_stats.Summary
module Regression = Flipc_stats.Regression

(* --- shared options --- *)

(* Bad input exits 2 with "flipc CMD: ..." instead of an uncaught
   exception. *)
let usage_error cmd fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "flipc %s: %s@." cmd msg;
      exit 2)
    fmt

(* An integer option of [cmd] that must lie in [min, max]; the first of
   [names] is the one error messages quote. *)
let int_opt ?(min = 1) ?max cmd names ~default ~docv ~doc =
  let flag = "--" ^ List.hd names in
  let check v =
    if v < min then usage_error cmd "%s must be >= %d (got %d)" flag min v;
    (match max with
    | Some m when v > m -> usage_error cmd "%s must be <= %d (got %d)" flag m v
    | _ -> ());
    v
  in
  let arg = Arg.(value & opt int default & info names ~docv ~doc) in
  Term.(const check $ arg)

(* A probability option of [cmd], checked to lie in [0,1]. *)
let prob cmd name ~default ~doc =
  let check p =
    if p < 0. || p > 1. then
      usage_error cmd "--%s must be in [0,1] (got %g)" name p;
    p
  in
  let arg = Arg.(value & opt float default & info [ name ] ~docv:"P" ~doc) in
  Term.(const check $ arg)

(* The wire-fault probabilities of [cmd] (--drop, --dup, --reorder),
   with its defaults. *)
let fault_probs cmd ~drop ~dup ~reorder =
  let p name default what =
    prob cmd name ~default ~doc:(Fmt.str "Packet %s probability (0..1)." what)
  in
  Term.(
    const (fun d u r -> (d, u, r))
    $ p "drop" drop "drop"
    $ p "dup" dup "duplication"
    $ p "reorder" reorder "reordering")

(* A configuration assembled from flags must pass [Config.validate]. *)
let valid_config cmd config =
  match Config.validate config with
  | Ok c -> c
  | Error msg -> usage_error cmd "%s" msg

let payload ?(min = 0) ?(default = 120)
    ?(doc = "Application payload size in bytes.") cmd =
  int_opt ~min cmd [ "payload" ] ~default ~docv:"BYTES" ~doc

let exchanges cmd =
  int_opt cmd [ "exchanges"; "n" ] ~default:300 ~docv:"N"
    ~doc:"Number of measured two-way exchanges."

let messages cmd ~default ~doc =
  int_opt cmd [ "messages" ] ~default ~docv:"N" ~doc

let json_flag =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit machine-readable JSON instead of text.")

let assert_clean ~doc = Arg.(value & flag & info [ "assert-clean" ] ~doc)

let out ~default =
  Arg.(
    value & opt string default
    & info [ "out" ] ~docv:"FILE"
        ~doc:"Where to write the JSON document ('-' = stdout only).")

let fault_seed default =
  Arg.(
    value & opt int default
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:"PRNG seed for fault injection (runs replay bit-identically).")

let replay ~doc =
  Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE" ~doc)

let two_node_fabric =
  Arg.(
    value
    & opt (enum Stackflow.two_node_fabrics)
        (List.assoc "mesh" Stackflow.two_node_fabrics)
    & info [ "fabric" ] ~docv:"FABRIC"
        ~doc:"Underlying fabric: mesh, ethernet or scsi.")

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
          Json.to_file path
            (Flipc_obs.Causal.chrome_json_of (List.rev !machines));
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
      const run $ obs_out $ payload "latency" $ exchanges "latency" $ cols $ rows
      $ locked $ packed $ checks $ touch)

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
    Term.(const run $ obs_out $ exchanges "sweep" $ locked $ packed $ checks)

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
    Term.(const run $ obs_out $ payload "compare" $ exchanges "compare")

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
  (* The server posts one request buffer per client on one endpoint, so
     the client count is bounded by what that endpoint's ring holds. *)
  let clients =
    int_opt "rpc" [ "clients" ]
      ~max:(Config.default.Config.queue_capacity - 1)
      ~default:4 ~docv:"N" ~doc:"Client count."
  in
  let requests =
    int_opt "rpc" [ "requests" ] ~default:50 ~docv:"N"
      ~doc:"Requests per client."
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
  let run trace fabric payload exchanges =
    with_trace trace @@ fun () ->
    let machine =
      Flipc_kkt.Kkt_flipc.machine ~cost:fabric.Stackflow.cost
        fabric.Stackflow.kind ()
    in
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
    Term.(const run $ obs_out $ two_node_fabric $ payload "kkt" $ exchanges "kkt")

(* --- throughput --- *)

let throughput_cmd =
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
    Term.(
      const run $ obs_out $ payload "throughput"
      $ messages "throughput" ~default:500 ~doc:"Messages to stream.")

(* --- bulk --- *)

let bulk_cmd =
  let bytes =
    int_opt "bulk" [ "bytes" ] ~default:65536 ~docv:"N"
      ~doc:"Transfer size in bytes."
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

(* --- retrans --- *)

(* The wire-faults line of the text reports, from the tallies by name. *)
let pp_wire_faults tallies =
  let n k = Option.value (List.assoc_opt k tallies) ~default:0 in
  Fmt.pr "wire faults: dropped=%d duplicated=%d reordered=%d delayed=%d@."
    (n "dropped") (n "duplicated") (n "reordered") (n "delayed")

let retrans_cmd =
  let module Retrans_layer = Flipc_flow.Retrans_layer in
  let mode =
    let modes =
      [ ("sr", Retrans_layer.Selective_repeat); ("gbn", Retrans_layer.Go_back_n) ]
    in
    Arg.(
      value
      & opt (enum (List.map (fun (n, m) -> (n, (n, m))) modes)) (List.hd modes)
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "Retransmission mode: sr (selective repeat, default) or gbn \
             (go-back-N ablation).")
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
  let run trace fabric (mode_name, mode) (drop, dup, reorder) seed msgs payload
      json_out max_ratio =
    with_trace trace @@ fun () ->
    let fault =
      Faulty.config ~drop ~duplicate:dup ~reorder
        ~reorder_hold_ns:fabric.Stackflow.reorder_hold_ns ~seed ()
    in
    (* The sender paces one message per RTO/8. *)
    let r =
      Stackflow.two_node_flow ~mode ~fabric ~fault
        ~pace_ns:(fabric.Stackflow.rto_ns / 8)
        ~payload_bytes:payload ~messages:msgs ()
    in
    (* A flow that aborted (watchdog or unreachable peer) is a failed run. *)
    if r.Stackflow.watchdogs_expired > 0 then begin
      Fmt.epr
        "flipc retrans: flow stalled after %d/%d deliveries (peer \
         unreachable?)@."
        r.Stackflow.delivered r.Stackflow.expected;
      exit 1
    end;
    let c = r.Stackflow.counters in
    let ratio = float_of_int c.Stackflow.retransmits /. float_of_int msgs in
    if json_out then
      print_endline
        (Json.to_string
           (Json.Obj
              (("mode", Json.String mode_name)
              :: ("messages", Json.Int msgs)
              :: ("retransmit_ratio", Json.Float ratio)
              :: Stackflow.result_fields r)))
    else begin
      Option.iter
        (fun f -> pp_wire_faults (Faulty.tallies f))
        (Machine.fault_stats r.Stackflow.machine);
      Fmt.pr
        "receiver (%s): delivered=%d dup-discards=%d reordered=%d \
         ooo-buffered=%d acks=%d reacks-suppressed=%d@."
        mode_name r.Stackflow.delivered c.Stackflow.duplicates
        c.Stackflow.reordered c.Stackflow.ooo_buffered c.Stackflow.acks_sent
        c.Stackflow.reacks_suppressed;
      Fmt.pr
        "sender: retransmits=%d (ratio %.3f) backpressure=%d srtt=%dns \
         rto=%dns@."
        c.Stackflow.retransmits ratio c.Stackflow.backpressure
        c.Stackflow.srtt_ns c.Stackflow.rto_current_ns;
      if r.Stackflow.delivered > 0 then
        Fmt.pr "delivery latency: %a us@." Summary.pp
          (Summary.of_samples r.Stackflow.latencies_us)
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
    "Reliable (exactly-once, in-order) delivery of one flow over a \
     fault-injected two-node fabric: drops, duplicates and reordering \
     repaired by the retransmission layer, with the selective repeat vs \
     go-back-N ablation and the adaptive-RTO probes exposed; \
     $(b,--max-retransmit-ratio) turns it into a CI smoke check."
  in
  Cmd.v
    (Cmd.info "retrans" ~doc)
    Term.(
      const run $ obs_out $ two_node_fabric $ mode
      $ fault_probs "retrans" ~drop:0. ~dup:0. ~reorder:0.3
      $ fault_seed 1
      $ messages "retrans" ~default:400 ~doc:"Messages to deliver reliably."
      $ payload "retrans" $ json_flag $ max_ratio)

(* --- firehose --- *)

let firehose_cmd =
  let module Firehose = Flipc_workload.Firehose in
  let module Sketch = Flipc_obs.Sketch in
  let count ?min name ~default ~docv ~doc =
    int_opt ?min "firehose" [ name ] ~default ~docv ~doc
  in
  let senders = count "senders" ~default:2 ~docv:"M" ~doc:"Sender nodes." in
  let receivers =
    count "receivers" ~default:2 ~docv:"N" ~doc:"Receiver nodes."
  in
  let duration =
    count ~min:0 "duration-us" ~default:2000 ~docv:"US"
      ~doc:"Open-loop generation window per sender (virtual us)."
  in
  let mean_gap =
    count "mean-gap-ns" ~default:2000 ~docv:"NS"
      ~doc:"Mean inter-arrival gap per sender (offered load)."
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
    prob "firehose" "jitter" ~default:0.3
      ~doc:"Jitter fraction for --arrival jittered."
  in
  let arrival_burst =
    count "arrival-burst" ~default:8 ~docv:"K"
      ~doc:"Arrivals per burst for --arrival bursty."
  in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Arrival PRNG seed (runs replay bit-identically).")
  in
  let shards = count "shards" ~default:1 ~docv:"K" ~doc:"Engine shards per node." in
  let streams =
    count "streams" ~default:1 ~docv:"S"
      ~doc:
        "Endpoint pairs per node; streams spread across engine shards \
         (endpoint g is owned by shard g mod K)."
  in
  let tx_batch =
    count "tx-batch" ~default:1 ~docv:"K"
      ~doc:"Engine-side DMA descriptor-chain batch."
  in
  let queue_capacity =
    count ~min:2 "queue-capacity" ~default:Config.default.Config.queue_capacity
      ~docv:"SLOTS"
      ~doc:
        "Ring slots per endpoint (holds SLOTS-1 buffers); bursts and batches \
         are capped by the ring depth."
  in
  let total_buffers =
    count "total-buffers" ~default:Config.default.Config.total_buffers
      ~docv:"N" ~doc:"Message buffers per communication buffer."
  in
  let send_burst =
    count "send-burst" ~default:1 ~docv:"K"
      ~doc:"Application send burst (messages per doorbell)."
  in
  let recv_burst =
    count "recv-burst" ~default:1 ~docv:"K"
      ~doc:"Application receive burst (messages per drain)."
  in
  let wallclock =
    count ~min:0 "wallclock" ~default:0 ~docv:"DOMAINS"
      ~doc:
        "Opt-in wall-clock mode: run DOMAINS independent machines on real \
         OCaml domains, at most one per sender (0 = deterministic virtual \
         time, the default)."
  in
  let min_ratio =
    Arg.(value & opt (some float) None
         & info [ "min-delivered-ratio" ] ~docv:"R"
             ~doc:
               "Fail (exit 1) when delivered/offered falls below $(docv) — \
                turns the command into a CI smoke gate.")
  in
  let run trace senders receivers duration mean_gap arrival jitter
      arrival_burst seed streams payload shards tx_batch queue_capacity
      total_buffers send_burst recv_burst wallclock assert_clean min_ratio
      json_out =
    with_trace trace @@ fun () ->
    if wallclock > senders then
      usage_error "firehose" "--wallclock must be <= --senders (got %d > %d)"
        wallclock senders;
    let arrival =
      match arrival with
      | `P -> `Poisson
      | `D -> `Periodic
      | `J -> `Jittered jitter
      | `B -> `Bursty arrival_burst
    in
    let config =
      valid_config "firehose"
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
    let q = Firehose.sojourn_quantile in
    let report (r : Firehose.result) =
      if json_out then print_endline (Json.to_string (Firehose.result_json r))
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
          (q r 0.50) (q r 0.99) (q r 0.999)
          (Sketch.count r.Firehose.sojourn_us);
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
      end
    in
    let results =
      if wallclock > 0 then begin
        let w =
          Firehose.measure_wallclock ~config ~monitor:assert_clean
            ~domains:wallclock ~senders ~receivers ~duration_us:duration
            ~mean_gap_ns:mean_gap ~arrival ~seed ~streams
            ~payload_bytes:payload ()
        in
        List.iter report w.Firehose.per_domain;
        let sk = w.Firehose.merged_sojourn_us in
        let q p = Option.value (Sketch.quantile sk p) ~default:0. in
        Fmt.pr
          "wallclock: %d domains, %.2fs host time, %.0f kmsg/s aggregate; \
           merged sojourn p50 %.1fus p99 %.1fus@."
          wallclock w.Firehose.wall_s
          (w.Firehose.wall_delivered_per_sec /. 1000.)
          (q 0.50) (q 0.99);
        w.Firehose.per_domain
      end
      else
        let r =
          Firehose.measure ~config ~monitor:assert_clean ~senders ~receivers
            ~duration_us:duration ~mean_gap_ns:mean_gap ~arrival ~seed
            ~streams ~payload_bytes:payload ()
        in
        report r;
        [ r ]
    in
    let sum f = List.fold_left (fun a r -> a + f r) 0 results in
    let violations = sum (fun r -> r.Firehose.violations) in
    if assert_clean && violations > 0 then begin
      Fmt.epr "flipc firehose: %d monitor violation(s)@." violations;
      exit 1
    end;
    let offered = sum (fun r -> r.Firehose.offered) in
    let ratio =
      if offered = 0 then 1.
      else float_of_int (sum (fun r -> r.Firehose.delivered)) /. float_of_int offered
    in
    match min_ratio with
    | Some bound when ratio < bound ->
        Fmt.epr
          "flipc firehose: delivered ratio %.3f below --min-delivered-ratio \
           %.3f@."
          ratio bound;
        exit 1
    | _ -> ()
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
      $ arrival $ jitter $ arrival_burst $ seed $ streams
      $ payload ~min:8 ~default:32
          ~doc:"Payload bytes per message (>= 8 for the sojourn stamp)."
          "firehose"
      $ shards $ tx_batch $ queue_capacity $ total_buffers $ send_burst
      $ recv_burst $ wallclock
      $ assert_clean
          ~doc:
            "Attach the online invariant monitor and fail (exit 1) on any \
             violation."
      $ min_ratio $ json_flag)

(* --- doctor --- *)

(* What a doctor report cannot recompute from the event stream: the live
   run takes it from its result, a replay from the summary the live run
   stamped into the capture trailer. [fields] are that summary, echoed
   into the JSON report; the rest feeds the text report. *)
type doctor_context = {
  flows : int;
  msgs : int;
  expected : int;
  delivered : int;
  retransmits : int;
  faults : (string * int) list option;
  stalled : bool;
  fields : (string * Json.t) list;
}

let doctor_cmd =
  let module Monitor = Flipc_obs.Monitor in
  let module Causal = Flipc_obs.Causal in
  let module Replay = Flipc_obs.Replay in
  let flows_arg =
    int_opt "doctor" [ "flows" ] ~max:8 ~default:6 ~docv:"N"
      ~doc:"Concurrent reliable flows on the 4x4 mesh (1-8)."
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
  (* One report body for both modes; everything diagnostic (spans,
     verdicts, monitor state) is recomputed from the event stream in
     both. *)
  let report ~json_out ~assert_clean ctx ~stall_report ~spans ~mon =
    let branches = Causal.retransmissions spans in
    let clean =
      Monitor.clean mon && (not ctx.stalled) && ctx.delivered = ctx.expected
    in
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
    if json_out then begin
      let diagnosis =
        [
          ("spans_traced", Json.Int (List.length spans));
          ("retransmitted_frames", Json.Int (List.length branches));
          ( "span_verdicts",
            Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) verdicts) );
          ("monitor_events_seen", Json.Int (Monitor.events_seen mon));
          ( "monitor_violations",
            Json.Int (List.length (Monitor.violations mon)) );
          ("clean", Json.Bool clean);
        ]
      in
      print_endline
        (Json.to_string
           (Json.Obj
              (List.filter
                 (fun (k, _) -> not (List.mem_assoc k diagnosis))
                 ctx.fields
              @ diagnosis)))
    end
    else begin
      Fmt.pr "flipc doctor: %d reliable flows x %d messages on a lossy 4x4 \
              mesh@." ctx.flows ctx.msgs;
      Option.iter pp_wire_faults ctx.faults;
      Fmt.pr "delivered %d/%d messages, %d retransmissions@." ctx.delivered
        ctx.expected ctx.retransmits;
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
          ctx.delivered ctx.expected
          (List.length (Monitor.violations mon))
          ctx.stalled;
      exit 1
    end
  in
  let load what path =
    match Replay.load path with
    | Ok c -> c
    | Error e -> usage_error "doctor" "cannot %s %s: %s" what path e
  in
  let replay_run path ~json_out ~assert_clean =
    let capture = load "replay" path in
    let summary =
      match Replay.summary capture with
      | Some s -> s
      | None ->
          usage_error "doctor"
            "%s has no run summary in its trailer — was it written by flipc \
             doctor --capture?"
            path
    in
    let want_int name =
      match Option.bind (Json.member name summary) Json.to_int with
      | Some v -> v
      | None -> usage_error "doctor" "capture summary lacks %S" name
    in
    let ctx =
      {
        flows = want_int "flows";
        msgs = want_int "messages_per_flow";
        expected = want_int "expected";
        delivered = want_int "delivered";
        retransmits = want_int "retransmits";
        faults =
          (match Json.member "faults" summary with
          | Some (Json.Obj tallies) ->
              Some
                (List.filter_map
                   (fun (k, v) -> Option.map (fun n -> (k, n)) (Json.to_int v))
                   tallies)
          | _ -> None);
        stalled = Json.member "stalled" summary = Some (Json.Bool true);
        fields = (match summary with Json.Obj f -> f | _ -> []);
      }
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
    report ~json_out ~assert_clean ctx ~stall_report:None ~spans ~mon
  in
  let diff_run ~cand_path ~base_path ~json_out ~assert_clean =
    let module Diff = Flipc_obs.Diff in
    let cand = load "load candidate capture" cand_path in
    let base = load "load baseline capture" base_path in
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
  let run trace replay against flows msgs (drop, dup, reorder) seed
      assert_clean json_out =
    with_trace trace @@ fun () ->
    match (replay, against) with
    | Some cand, Some base ->
        diff_run ~cand_path:cand ~base_path:base ~json_out ~assert_clean
    | None, Some _ -> usage_error "doctor" "--against requires --replay CANDIDATE"
    | Some path, None -> replay_run path ~json_out ~assert_clean
    | None, None ->
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
        let stalled = r.Stackflow.watchdogs_expired > 0 in
        let ctx =
          {
            flows;
            msgs;
            expected = r.Stackflow.expected;
            delivered = r.Stackflow.delivered;
            retransmits = r.Stackflow.counters.Stackflow.retransmits;
            faults = Option.map Faulty.tallies (Machine.fault_stats machine);
            stalled;
            fields =
              ("flows", Json.Int flows)
              :: ("messages_per_flow", Json.Int msgs)
              :: ("stalled", Json.Bool stalled)
              :: Stackflow.result_fields r;
          }
        in
        (* Stamp the run context into the capture trailer, so a replaying
           doctor can echo the fields it cannot recompute from events. *)
        Option.iter
          (fun sink -> Flipc_obs.Sink.set_summary sink (Json.Obj ctx.fields))
          !active_sink;
        report ~json_out ~assert_clean ctx
          ~stall_report:r.Stackflow.stall_report
          ~spans:(Causal.spans [ Machine.obs machine ])
          ~mon:r.Stackflow.monitor
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
      const run $ obs_out
      $ replay
          ~doc:
            "Skip the live run: load a flight-data capture written by \
             $(b,--capture) and re-derive the whole diagnosis (spans, \
             monitor verdicts, stalled stages) offline. Produces the same \
             report — byte-for-byte in $(b,--json) mode — as the run that \
             wrote the capture."
      $ against_arg $ flows_arg
      $ messages "doctor" ~default:40 ~doc:"Messages per flow."
      $ fault_probs "doctor" ~drop:0.05 ~dup:0.02 ~reorder:0.2
      $ fault_seed 7
      $ assert_clean
          ~doc:
            "Exit 1 unless every flow completes, no watchdog fires and every \
             invariant monitor stays clean — the CI health gate."
      $ json_flag)

(* --- fault matrices: soakmatrix, stack --- *)

(* The named fault scenarios of the soak and stack matrices, as a
   fabric-wide fault and per-link overrides. [hold] is the fabric's
   reorder hold; the single bad link runs from node 0 to its partner
   [half], and drops, bursts and corrupts while every other link stays
   clean. *)
let scenario_fault name ~seed ~hold ~half =
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

(* One cell of a fault matrix: its row label, its scenario, its flow
   count and its run. *)
type cell = {
  label : string;
  scenario : string;
  cell_flows : int;
  r : Stackflow.result;
}

(* The one driver of the fault matrices. It owns the flags every matrix
   shares, the cell loop, the JSON document (printed and written to
   --out), the --assert-clean gate and the text table. A matrix brings
   its [scenarios], the JSON key and text width of its row labels, the
   one text [column] that differs, and [select]: its own filter flags,
   yielding the cells chosen for a message count, seed and scenario
   filter. *)
let matrix_cmd name ~doc ~experiment ~out_default ~seed ~scenarios
    ~label_key ~label_width ~column:(column, column_of) ~clean_doc select =
  let scenario_filter =
    let check s =
      if s <> "all" && not (List.mem s scenarios) then
        usage_error name "unknown scenario %s" s;
      fun scenario -> s = "all" || s = scenario
    in
    let arg =
      Arg.(
        value & opt string "all"
        & info [ "scenario" ] ~docv:"NAME"
            ~doc:
              (Fmt.str "Run one fault scenario only (%s)."
                 (String.concat ", " scenarios)))
    in
    Term.(const check $ arg)
  in
  let run trace msgs seed keep select out assert_flag json_out =
    with_trace trace @@ fun () ->
    let cells = select ~msgs ~seed ~keep in
    let clean = List.for_all (fun c -> c.r.Stackflow.clean) cells in
    let doc =
      Json.Obj
        [
          ("experiment", Json.String experiment);
          ("messages_per_flow", Json.Int msgs);
          ("seed", Json.Int seed);
          ( "cells",
            Json.List
              (List.map
                 (fun c ->
                   Json.Obj
                     ((label_key, Json.String c.label)
                     :: ("scenario", Json.String c.scenario)
                     :: ("flows", Json.Int c.cell_flows)
                     :: Stackflow.result_fields c.r))
                 cells) );
          ("clean", Json.Bool clean);
        ]
    in
    if out <> "-" then Json.to_file out doc;
    if json_out then print_endline (Json.to_string doc)
    else begin
      Fmt.pr "flipc %s: %d cells x %d messages/flow (seed %d)@." name
        (List.length cells) msgs seed;
      List.iter
        (fun { label; scenario; r; _ } ->
          Fmt.pr
            "  %-*s %-8s delivered %d/%d retrans=%d %s=%d leaks=%d \
             violations=%d stalls=%d %s@."
            label_width label scenario r.Stackflow.delivered
            r.Stackflow.expected r.Stackflow.counters.Stackflow.retransmits
            column (column_of r) r.Stackflow.corrupt_leaks
            r.Stackflow.monitor_violations r.Stackflow.watchdogs_expired
            (if r.Stackflow.clean then "ok" else "NOT CLEAN"))
        cells;
      if out <> "-" then Fmt.pr "wrote %s@." out
    end;
    if assert_flag && not clean then begin
      if not json_out then Fmt.epr "flipc %s: NOT clean@." name;
      exit 1
    end
  in
  let msgs = messages name ~default:25 ~doc:"Messages per flow." in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run $ obs_out $ msgs $ fault_seed seed $ scenario_filter $ select
      $ out ~default:out_default $ assert_clean ~doc:clean_doc $ json_flag)

(* The standing adversarial gate: all-to-all reliable flows on every
   fabric, swept across the whole fault matrix (uniform loss, Gilbert–
   Elliott bursts, payload corruption, a single faulted link, and all of
   it combined), with the frame checksum on, invariant monitors attached
   and a progress watchdog per flow. Receivers verify every delivered
   payload against the pattern the sender wrote, so a corrupt frame that
   leaks past the checksum into the application is counted — the number
   that must stay zero. *)
let soakmatrix_cmd =
  (* Per-fabric tuning: (name, kind, cost model, nodes, rto_ns, pace_ns,
     watchdog budget, reorder_hold_ns). The 10 Mb/s shared Ethernet
     serializes every frame (~120 us each), so 8 all-to-all flows must
     pace well below medium capacity and start from an RTO above the
     contended round trip, or the cell measures a congestion collapse
     instead of fault recovery. *)
  let fabrics =
    [
      ( "mesh",
        Machine.Mesh { cols = 4; rows = 4 },
        Flipc_memsim.Cost_model.paragon,
        16, 200_000, 25_000, Flipc_sim.Vtime.ms 50, 100_000 );
      ( "ethernet",
        Machine.Ethernet { nodes = 8 },
        Flipc_memsim.Cost_model.pc_cluster,
        8, 8_000_000, 2_000_000, Flipc_sim.Vtime.ms 500, 500_000 );
      ( "scsi",
        Machine.Scsi { nodes = 4 },
        Flipc_memsim.Cost_model.pc_cluster,
        4, 1_000_000, 125_000, Flipc_sim.Vtime.ms 50, 500_000 );
    ]
  in
  let scenarios = [ "uniform"; "burst"; "corrupt"; "perlink"; "combined" ] in
  let fabric_filter =
    let names = List.map (fun (n, _, _, _, _, _, _, _) -> n) fabrics in
    Arg.(
      value
      & opt (enum (List.map (fun n -> (n, n)) ("all" :: names))) "all"
      & info [ "fabric" ] ~docv:"FABRIC" ~doc:"Run one fabric only.")
  in
  (* Every node sends to node (i + n/2) mod n, so every node both sends
     and receives through the faulted fabric. *)
  let select fabric_sel ~msgs ~seed ~keep =
    List.concat_map
      (fun (label, kind, cost, nodes, rto_ns, pace_ns, budget, hold) ->
        if fabric_sel <> "all" && fabric_sel <> label then []
        else
          List.filter keep scenarios
          |> List.map (fun scenario ->
                 let fault, links =
                   scenario_fault scenario ~seed ~hold ~half:(nodes / 2)
                 in
                 let r =
                   Stackflow.run ?fault ?fault_links:links ~cost
                     ~retrans:(Stackflow.retrans_config rto_ns)
                     ~pace_ns ~budget ~kind ~messages:msgs ()
                 in
                 if r.Stackflow.watchdogs_expired > 0 then
                   Fmt.epr
                     "flipc soakmatrix: %s/%s: %d flow process(es) aborted@."
                     label scenario r.Stackflow.watchdogs_expired;
                 { label; scenario; cell_flows = nodes; r }))
      fabrics
  in
  matrix_cmd "soakmatrix"
    ~doc:
      "Adversarial soak matrix: all-to-all reliable flows on \
       mesh/Ethernet/SCSI swept across the fault matrix (uniform, burst, \
       corrupt, per-link, combined) with frame checksums, invariant \
       monitors and per-flow watchdogs. $(b,--assert-clean) turns it into \
       the standing CI gate; the JSON lands in $(b,BENCH_soak_matrix.json) \
       for $(b,bench_diff.sh)."
    ~experiment:"soak_matrix" ~out_default:"BENCH_soak_matrix.json" ~seed:21
    ~scenarios ~label_key:"fabric" ~label_width:8
    ~column:("corrupt-dropped", fun r -> r.Stackflow.corrupt_frames_dropped)
    ~clean_doc:
      "Exit 1 unless every cell is clean: all messages delivered, no \
       invariant violation, no watchdog expiry, zero corrupt frames \
       reaching the application."
    Term.(const select $ fabric_filter)

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
  let stack_names =
    [
      ("channel", Stackflow.Bare_channel);
      ("window", Stackflow.Window_over_channel);
      ("retrans", Stackflow.Retrans_over_channel);
      ("tower", Stackflow.Retrans_over_window);
    ]
  in
  let scenarios =
    [ "clean"; "uniform"; "burst"; "corrupt"; "perlink"; "combined" ]
  in
  let stack_filter =
    let check s =
      if s <> "all" && not (List.mem_assoc s stack_names) then
        usage_error "stack" "unknown stack %s" s;
      s
    in
    Term.(
      const check
      $ Arg.(
          value & opt string "all"
          & info [ "stack" ] ~docv:"NAME"
              ~doc:"Run one composition only (channel, window, retrans, tower)."))
  in
  let nodes = 4 in
  (* Which scenarios a composition promises to survive. *)
  let scenarios_for = function
    | Stackflow.Retrans_over_channel -> scenarios
    | Stackflow.Bare_channel | Stackflow.Window_over_channel
    | Stackflow.Retrans_over_window ->
        [ "clean" ]
  in
  let select stack_sel ~msgs ~seed ~keep =
    let cells =
      List.concat_map
        (fun (sname, stack) ->
          if stack_sel <> "all" && stack_sel <> sname then []
          else
            List.filter keep (scenarios_for stack)
            |> List.map (fun scenario ->
                   let fault, links =
                     scenario_fault scenario ~seed ~hold:100_000
                       ~half:(nodes / 2)
                   in
                   let r =
                     Stackflow.run ~stack ?fault ?fault_links:links
                       ~kind:(Machine.Mesh { cols = 2; rows = 2 })
                       ~messages:msgs ()
                   in
                   {
                     label = Stackflow.stack_name stack;
                     scenario;
                     cell_flows = nodes;
                     r;
                   }))
        stack_names
    in
    if cells = [] then
      usage_error "stack"
        "no cells selected (the %s stack only runs the clean scenario)"
        stack_sel;
    cells
  in
  matrix_cmd "stack"
    ~doc:
      "Layered-transport matrix: every Stackflow composition (bare channel, \
       window flow control, retransmission, the full tower) on a mesh, each \
       swept across the fault scenarios it promises to survive. \
       $(b,--assert-clean) turns it into a CI gate; the JSON lands in \
       $(b,BENCH_stack.json)."
    ~experiment:"stack_matrix" ~out_default:"BENCH_stack.json" ~seed:31
    ~scenarios ~label_key:"stack" ~label_width:22
    ~column:("drops", fun r -> r.Stackflow.transport_drops)
    ~clean_doc:
      "Exit 1 unless every cell is clean: all messages delivered exactly \
       once, no invariant violation, no watchdog expiry, zero corrupt \
       payloads reaching the application."
    Term.(const select $ stack_filter)

(* --- trace --- *)

let trace_cmd =
  let module Replay = Flipc_obs.Replay in
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
        | Error e -> usage_error "trace" "cannot read %s: %s" path e)
  in
  let doc =
    "Print a two-node demo's typed event timeline for a few messages as \
     JSON lines, or print a capture file the same way ($(b,--replay))."
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const run $ obs_out
      $ replay
          ~doc:
            "Skip the demo: print the capture in $(docv) (written by \
             $(b,--capture)) as JSON lines — a header, one record per \
             event, and a trailer."
      $ messages "trace" ~default:3 ~doc:"Messages to trace.")

(* --- metrics, alert, engine --- *)

(* The short ping-pong run metrics, alert and engine observe: 2x1 mesh,
   [attach] hooked to the machine's Obs before the first exchange. *)
let pingpong_2x1 ?config ~payload ~exchanges attach =
  let machine =
    Machine.create ?config (Machine.Mesh { cols = 2; rows = 1 }) ()
  in
  let obs = Machine.obs machine in
  let attached = attach obs in
  let r =
    Pingpong.run ~machine ~node_a:0 ~node_b:1 ~payload_bytes:payload
      ~exchanges ()
  in
  (obs, attached, r)

let metrics_cmd =
  let module Obs = Flipc_obs.Obs in
  let module Metrics = Flipc_obs.Metrics in
  let module Latency = Flipc_obs.Latency in
  let module Series = Flipc_obs.Series in
  let module Alert = Flipc_obs.Alert in
  let module Vtime = Flipc_sim.Vtime in
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
    let obs, (alert, series, lat), r =
      pingpong_2x1 ~payload ~exchanges (fun obs ->
          let alert =
            Option.map
              (fun path ->
                match Alert.load_rules path with
                | Error e -> usage_error "metrics" "%s" e
                | Ok rules ->
                    let interval =
                      Vtime.us (Option.value series_us ~default:100)
                    in
                    Alert.attach ~rules ~interval obs)
              alerts_path
          in
          let series =
            Option.map
              (fun us -> Series.attach ~interval:(Vtime.us us) obs)
              series_us
          in
          (alert, series, Latency.attach obs))
    in
    Option.iter Series.sample series;
    Option.iter Alert.sample alert;
    let snap = Metrics.snapshot (Obs.metrics obs) in
    if prom then print_string (Series.prom_of_snapshot snap)
    else if json_out then
      print_endline
        (Json.to_string
           (Json.Obj
              ((("workload", Json.String "pingpong")
                :: ("fabric", Json.String "mesh 2x1")
                :: Pingpong.result_fields r)
              @ [
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
      const run $ obs_out $ json_flag $ prom_flag $ payload "metrics"
      $ exchanges "metrics" $ series_us $ alerts_arg)

let alert_cmd =
  let module Alert = Flipc_obs.Alert in
  let module Series = Flipc_obs.Series in
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
      | Error e -> usage_error "alert" "%s" e
    in
    let _, a, r =
      pingpong_2x1 ~payload ~exchanges
        (Alert.attach ~rules ~interval:(Vtime.us interval_us))
    in
    Alert.sample a;
    let fired = Alert.fired a in
    if json_out then
      print_endline
        (Json.to_string
           (Json.Obj
              ((("workload", Json.String "pingpong") :: Pingpong.result_fields r)
              @ [
                ("rules", Json.Int (List.length rules));
                ( "windows",
                  Json.Int (Series.window_count (Alert.series a)) );
                ("fired", Alert.json a);
                ("clean", Json.Bool (fired = []));
              ])))
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
      $ payload "alert" $ exchanges "alert")

let engine_cmd =
  let module Obs = Flipc_obs.Obs in
  let module Metrics = Flipc_obs.Metrics in
  (* The ping-pong allocates a send and a receive endpoint per node. *)
  let endpoints =
    int_opt ~min:2 "engine" [ "endpoints" ] ~default:64 ~docv:"N"
      ~doc:"Configured endpoints per node."
  in
  let full_scan =
    let doc = "Use the pre-doorbell full-scan scheduler (ablation)." in
    Arg.(value & flag & info [ "full-scan" ] ~doc)
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
      valid_config "engine"
        {
          Config.default with
          Config.endpoints;
          sched_mode = (if full_scan then Config.Full_scan else Config.Doorbell);
        }
    in
    let obs, (), r = pingpong_2x1 ~config ~payload ~exchanges ignore in
    (* The engine exports its scheduler counters as pull-probes named
       node<i>.engine.<counter>; everything else in the registry
       (latency histograms, fabric stats) is out of scope here. *)
    let engine_snap =
      List.filter
        (fun (name, _) ->
          match String.split_on_char '.' name with
          | _node :: "engine" :: _ -> true
          | _ -> false)
        (Metrics.snapshot (Obs.metrics obs))
    in
    if json_out then
      print_endline
        (Json.to_string
           (Json.Obj
              (("workload", Json.String "pingpong")
              :: ("endpoints", Json.Int endpoints)
              :: ( "sched_mode",
                   Json.String (if full_scan then "full_scan" else "doorbell") )
              :: Pingpong.result_fields r
              @ [ ("engine", Metrics.snapshot_json engine_snap) ])))
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
      $ payload "engine" $ exchanges "engine")

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
            throughput_cmd; firehose_cmd; bulk_cmd; retrans_cmd;
            doctor_cmd; soakmatrix_cmd; stack_cmd;
            trace_cmd; metrics_cmd; alert_cmd;
            engine_cmd; info_cmd;
          ]))
