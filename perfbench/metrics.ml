(* Every metric the benchmark reports, with where it belongs.

   [moves] and [on] record, before any measurement, which end-to-end
   metric a per-layer metric should move and on which workload; the
   table is printed by [--describe] and committed as metrics.json. *)

type spec = {
  name : string;
  unit : string;
  better : string;
  layer : string;
  moves : string;
  on : string;
  doc : string;
}

let e2e name unit better doc =
  { name; unit; better; layer = "end_to_end"; moves = ""; on = "all"; doc }

let end_to_end =
  [
    e2e "setup_s" "s" "lower"
      "median host CPU time per round to build machines, connect endpoints \
       and run in-round warm-up, before the timed region";
    e2e "host_msgs_per_s" "msg/s" "higher"
      "delivered simulated messages per host CPU second in the timed \
       region, at the fast decile (90th percentile) of the rounds";
    e2e "alloc_words_per_msg" "words" "lower"
      "Gc minor + major - promoted words in the timed region per delivered \
       message";
    e2e "peak_heap_mb" "MB" "lower" "Gc top heap at the end of the workload";
    e2e "vt_latency_p50_us" "us" "lower"
      "virtual latency median: RTT/2 on pingpong, sojourn from the scheduled \
       arrival at the mid rung on firehose_ladder, send call to in-order \
       delivery on stack_lossy";
    e2e "vt_latency_p99_us" "us" "lower"
      "virtual latency p99, same definitions; every workload has at least \
       1000 samples and a failed request counts as missing the limit";
    e2e "vt_delivered_per_s" "msg/s" "higher"
      "virtual delivered rate: messages per virtual second on pingpong, \
       in-window deliveries at the top (overloaded) rung on firehose_ladder, \
       goodput of unique in-order payloads on stack_lossy";
  ]

(* Printed on every run but not gated: zero by design on a clean run. *)
let failed_ratio =
  {
    name = "failed_ratio";
    unit = "ratio";
    better = "lower";
    layer = "end_to_end";
    moves = "";
    on = "all";
    doc =
      "failed / attempted, where shed, engine drops, backlog at window end, \
       mismatches, transport errors, stalls and violations all fail";
  }

let pl ?(better = "lower") name unit ~moves ~on doc =
  (* The two ladder figures belong to the benchmark's own generator. *)
  let layer =
    match String.index_opt name '.' with
    | Some i -> String.sub name 0 i
    | None -> "load"
  in
  { name; unit; better; layer; moves; on; doc }

let api_moves = "vt_latency_p50_us,vt_max_rate_at_p99"
let api_on = "firehose_ladder"

let api =
  List.concat_map
    (fun op ->
      [
        pl ("api." ^ op ^ ".calls_per_msg") "calls/msg" ~moves:api_moves
          ~on:api_on ("Api." ^ op ^ " calls per delivered message");
        pl ("api." ^ op ^ ".vt_ns_per_call") "ns" ~moves:api_moves ~on:api_on
          ("virtual time per Api." ^ op ^ " call");
      ])
    (Array.to_list Tr.api_ops)
  @ [
      pl "api.receive.empty_ratio" "ratio" ~moves:api_moves ~on:api_on
        "receive and receive_burst polls that returned nothing / polls";
      pl ~better:"higher" "api.send_burst.fill" "msgs/call" ~moves:api_moves
        ~on:api_on "messages accepted per send_burst call";
      pl "api.self_vt_ns_per_msg" "ns" ~moves:"vt_latency_p50_us"
        ~on:"pingpong" "virtual self time in Api spans per message";
      pl "api.self_host_ns_per_msg" "ns" ~moves:"host_msgs_per_s"
        ~on:"pingpong" "host self time in Api spans per message";
      pl "api.self_steps_per_msg" "steps/msg" ~moves:"host_msgs_per_s"
        ~on:"pingpong"
        "simulator steps, all processes, interleaved inside Api spans per \
         message";
    ]

let flow_moves = "vt_latency_p99_us,vt_delivered_per_s,host_msgs_per_s"
let flow_on = "stack_lossy"

let flow =
  List.concat_map
    (fun layer ->
      let p = "flow." ^ layer in
      List.concat_map
        (fun op ->
          let q = p ^ "." ^ op in
          [
            pl (q ^ ".calls_per_msg") "calls/msg" ~moves:flow_moves ~on:flow_on
              (q ^ " calls per delivered message");
            pl (q ^ ".vt_ns_per_call") "ns" ~moves:flow_moves ~on:flow_on
              ("virtual time per " ^ q ^ " call, children included");
            pl (q ^ ".host_ns_per_call") "ns" ~moves:"host_msgs_per_s"
              ~on:flow_on ("host time per " ^ q ^ " call, children included");
          ])
        (Array.to_list Tr.flow_ops)
      @ [
          pl (p ^ ".no_buffer_ratio") "ratio" ~moves:flow_moves ~on:flow_on
            "try_send refused with No_buffer / try_send attempts";
          pl (p ^ ".self_vt_ns_per_msg") "ns" ~moves:"vt_latency_p99_us"
            ~on:flow_on ("virtual self time in " ^ p ^ " spans per message");
          pl (p ^ ".self_host_ns_per_msg") "ns" ~moves:"host_msgs_per_s"
            ~on:flow_on ("host self time in " ^ p ^ " spans per message");
          pl (p ^ ".self_steps_per_msg") "steps/msg" ~moves:"host_msgs_per_s"
            ~on:flow_on
            ("simulator steps interleaved in " ^ p
           ^ " spans, children excluded, per message");
        ])
    (Array.to_list Tr.flow_layers)
  @ [
      pl "flow.retrans.retransmits_per_msg" "frames/msg" ~moves:flow_moves
        ~on:flow_on "data frames retransmitted per delivered message";
      pl "flow.retrans.duplicates_per_msg" "frames/msg" ~moves:flow_moves
        ~on:flow_on "frames discarded as duplicates per delivered message";
      pl "flow.channel.drops_per_kmsg" "drops/kmsg" ~moves:flow_moves
        ~on:flow_on "channel discards (no posted buffer) per 1000 messages";
      pl "flow.send_wait_us_p99" "us" ~moves:"vt_latency_p99_us" ~on:flow_on
        "p99 virtual time blocked in send ~deadline";
    ]

let per_layer =
  [
    pl "sim.steps_per_msg" "steps/msg" ~moves:"host_msgs_per_s" ~on:"pingpong"
      "Engine.steps in the timed region per message";
    pl "sim.host_ns_per_step" "ns/step" ~moves:"host_msgs_per_s" ~on:"pingpong"
      "untraced host time in the timed region (fast decile) / Engine.steps";
    pl "gc.minor_collections_per_kmsg" "count/kmsg"
      ~moves:"alloc_words_per_msg,host_msgs_per_s" ~on:"all"
      "minor collections in the untraced timed region per 1000 messages";
    pl "gc.major_collections" "count" ~moves:"alloc_words_per_msg,host_msgs_per_s"
      ~on:"all" "major collections in one untraced timed region";
    pl "memsim.app_loads_per_msg" "loads/msg" ~moves:"vt_latency_p50_us"
      ~on:"pingpong" "application CPU word loads per message";
    pl "memsim.app_stores_per_msg" "stores/msg" ~moves:"vt_latency_p50_us"
      ~on:"pingpong" "application CPU word stores per message";
    pl "memsim.coproc_loads_per_msg" "loads/msg" ~moves:"vt_latency_p50_us"
      ~on:"pingpong" "message coprocessor word loads per message";
    pl "memsim.coproc_stores_per_msg" "stores/msg" ~moves:"vt_latency_p50_us"
      ~on:"pingpong" "message coprocessor word stores per message";
    pl "memsim.cache_miss_ratio" "ratio" ~moves:"vt_latency_p50_us,vt_max_rate_at_p99"
      ~on:"pingpong,firehose_ladder" "cache misses / accesses over every cache";
    pl "memsim.invalidations_per_msg" "count/msg"
      ~moves:"vt_latency_p50_us,vt_max_rate_at_p99" ~on:"pingpong,firehose_ladder"
      "coherence invalidations received per message";
    pl "memsim.locked_rmws_per_msg" "count/msg"
      ~moves:"vt_latency_p50_us,vt_max_rate_at_p99" ~on:"pingpong,firehose_ladder"
      "bus-locked read-modify-writes per message";
    pl "engine.iterations_per_msg" "iters/msg"
      ~moves:"vt_latency_p50_us,host_msgs_per_s" ~on:"pingpong,firehose_ladder"
      "Msg_engine loop iterations per message, every shard";
    pl ~better:"higher" "engine.msgs_per_iter" "msgs/iter"
      ~moves:"vt_max_rate_at_p99,host_msgs_per_s" ~on:"firehose_ladder"
      "(sends + recvs) / iterations: the useful share of engine work";
    pl "engine.parks_per_kmsg" "parks/kmsg" ~moves:"vt_latency_p50_us"
      ~on:"pingpong,firehose_ladder" "engine parks per 1000 messages";
    pl "engine.doorbell_hits_per_msg" "hits/msg" ~moves:"vt_max_rate_at_p99"
      ~on:"firehose_ladder" "doorbell observations that raised work per message";
    pl "engine.rx_truncations" "count" ~moves:"vt_max_rate_at_p99"
      ~on:"firehose_ladder" "iterations whose incoming drain hit engine_rx_burst";
    pl "engine.drops" "count" ~moves:"vt_delivered_per_s" ~on:"firehose_ladder"
      "messages the engines discarded for want of a posted buffer";
  ]
  @ api
  @ [
      pl "net.dma_transfers_per_msg" "xfers/msg" ~moves:"vt_delivered_per_s"
        ~on:"firehose_ladder,stack_lossy" "DMA transfers per message";
      pl "net.dma_bytes_per_msg" "B/msg" ~moves:"vt_delivered_per_s"
        ~on:"firehose_ladder,stack_lossy" "DMA bytes per message";
      pl "net.packets_per_msg" "pkts/msg" ~moves:"vt_delivered_per_s"
        ~on:"firehose_ladder,stack_lossy"
        "fabric packets per message, control frames included";
      pl "net.link_busy_ratio" "ratio" ~moves:"vt_delivered_per_s"
        ~on:"firehose_ladder,stack_lossy"
        "Fabric total_wire_ns / virtual window, summed over links";
      pl "net.faults_injected_per_kmsg" "faults/kmsg" ~moves:"vt_delivered_per_s"
        ~on:"stack_lossy" "Faulty injections per 1000 messages";
    ]
  @ flow
  @ [
      pl ~better:"higher" "vt_max_rate_at_p99" "msg/s"
        ~moves:"vt_max_rate_at_p99" ~on:"firehose_ladder"
        "highest rung with p99 sojourn <= 1 ms virtual, nothing shed or \
         dropped, no backlog growth; 0 on other workloads";
      pl "gen_lag_p99_us" "us" ~moves:"vt_latency_p99_us" ~on:"firehose_ladder"
        "p99 of how late the generator issued arrivals at the mid rung; 0 on \
         other workloads";
      pl "trace.overhead_ratio" "ratio" ~moves:"" ~on:"all"
        "traced host time in the timed region / untraced fast decile - 1";
      pl "trace.spans_per_msg" "spans/msg" ~moves:"" ~on:"all"
        "spans recorded per message in the traced round";
    ]

let json_of_spec s =
  Printf.sprintf
    "{\"name\": %S, \"unit\": %S, \"better\": %S, \"layer\": %S, \"moves\": \
     %S, \"on\": %S, \"doc\": %S}"
    s.name s.unit s.better s.layer s.moves s.on s.doc
