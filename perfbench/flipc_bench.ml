(* The FLIPC benchmark: one workload per process.

     flipc_bench --workload W --seed N --seconds S --trace 0|1 [--spans FILE]
     flipc_bench --describe

   A run first does one discarded warm-up round, then repeats the
   workload's round (same seed, fresh machines) until S seconds have
   passed, at least three times. Interference from other work on the
   host only ever slows a round down, so host throughput is read at the
   fast decile of the rounds (set-up time at their median); virtual
   figures must be bit-identical in every round, or the run fails. With --trace 1 a last round runs with spans around every
   call the benchmark makes into a layer and with the invariant monitor
   attached; its virtual figures must match the untraced rounds too, and
   it reports the per-layer metrics. The last line of standard output is
   one JSON object: correct, attempted, failed, metrics. The exit code
   is 0 only when every check passed. *)

module Clock = Perfbench_core.Clock
module Pct = Perfbench_core.Pct
module Spans = Perfbench_core.Spans
module Tally = Perfbench_core.Tally

let workloads =
  [
    (W_pingpong.name, W_pingpong.run);
    (W_firehose.name, W_firehose.run);
    (W_stack.name, W_stack.run);
  ]

let min_rounds = 3
let span_cap = 200_000

(* At least this many samples, so p99 has ten beyond it. *)
let min_samples = 1000

let problems = ref []
let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt
let f = float_of_int
let pctl p xs = Flipc_stats.Summary.percentile xs p
let median = pctl 50.
let per a b = if b = 0 then 0. else f a /. f b

let latency_us r p =
  let v = Pct.interp r.Round.latency_ns p in
  if v = infinity then begin
    problem "p%g latency lands on a failed request" p;
    0.
  end
  else v /. 1000.

let end_to_end ~rounds ~first =
  let med g = median (List.map g rounds) in
  let m r = r.Round.meter in
  [
    ("setup_s", med (fun r -> f (m r).setup_ns /. 1e9));
    ( "host_msgs_per_s",
      pctl 90. (List.map (fun r -> f r.Round.msgs /. (f (m r).timed_ns /. 1e9)) rounds) );
    ("alloc_words_per_msg", med (fun r -> (m r).alloc_words /. f r.msgs));
    ( "peak_heap_mb",
      f (Gc.quick_stat ()).Gc.top_heap_words *. f (Sys.word_size / 8) /. 1e6 );
    ("vt_latency_p50_us", latency_us first 50.);
    ("vt_latency_p99_us", latency_us first 99.);
    ("vt_delivered_per_s", first.vt_delivered_per_s);
  ]

let extra r name = Option.value (List.assoc_opt name r.Round.extra) ~default:0.

let per_layer ~rounds ~traced ~tracer =
  let med g = median (List.map g rounds) in
  let c = traced.Round.counters in
  let msgs = traced.msgs in
  let k i = c.(i) in
  let module C = Counters in
  let agg i = Spans.agg tracer i in
  let calls i = (agg i).Spans.calls in
  let host_timed = pctl 10. (List.map (fun r -> f r.Round.meter.timed_ns) rounds) in
  let api =
    List.concat
      (List.mapi
         (fun i op ->
           [
             ("api." ^ op ^ ".calls_per_msg", per (calls i) msgs);
             ("api." ^ op ^ ".vt_ns_per_call", per (agg i).vt (calls i));
           ])
         (Array.to_list Tr.api_ops))
  in
  let sum_api g =
    let s = ref 0 in
    Array.iteri (fun i _ -> s := !s + g (agg i)) Tr.api_ops;
    !s
  in
  let flow =
    List.concat
      (List.mapi
         (fun li layer ->
           let p = "flow." ^ layer in
           let ops = List.init (Array.length Tr.flow_ops) (Tr.flow li) in
           let sum g = List.fold_left (fun a i -> a + g (agg i)) 0 ops in
           List.concat
             (List.mapi
                (fun oi op ->
                  let i = Tr.flow li oi in
                  let q = p ^ "." ^ op in
                  [
                    (q ^ ".calls_per_msg", per (calls i) msgs);
                    (q ^ ".vt_ns_per_call", per (agg i).vt (calls i));
                    (q ^ ".host_ns_per_call", per (agg i).host (calls i));
                  ])
                (Array.to_list Tr.flow_ops))
           @ [
               ( p ^ ".no_buffer_ratio",
                 per
                   (Spans.counter tracer (p ^ ".no_buffer"))
                   (calls (Tr.flow li Tr.try_send)) );
               (p ^ ".self_vt_ns_per_msg", per (sum (fun a -> a.self_vt)) msgs);
               ( p ^ ".self_host_ns_per_msg",
                 per (sum (fun a -> a.self_host)) msgs );
               ( p ^ ".self_steps_per_msg",
                 per (sum (fun a -> a.self_steps)) msgs );
             ])
         (Array.to_list Tr.flow_layers))
  in
  [
    ("sim.steps_per_msg", per (k C.steps) msgs);
    ("sim.host_ns_per_step", host_timed /. f (max 1 (k C.steps)));
    ( "gc.minor_collections_per_kmsg",
      1000. *. med (fun r -> f r.Round.meter.minor_gcs) /. f msgs );
    ("gc.major_collections", med (fun r -> f r.Round.meter.major_gcs));
    ("memsim.app_loads_per_msg", per (k C.app_loads) msgs);
    ("memsim.app_stores_per_msg", per (k C.app_stores) msgs);
    ("memsim.coproc_loads_per_msg", per (k C.coproc_loads) msgs);
    ("memsim.coproc_stores_per_msg", per (k C.coproc_stores) msgs);
    ( "memsim.cache_miss_ratio",
      per (k C.cache_misses) (k C.cache_hits + k C.cache_misses) );
    ("memsim.invalidations_per_msg", per (k C.invalidations) msgs);
    ("memsim.locked_rmws_per_msg", per (k C.locked_rmws) msgs);
    ("engine.iterations_per_msg", per (k C.iterations) msgs);
    ("engine.msgs_per_iter", per (k C.sends + k C.recvs) (k C.iterations));
    ("engine.parks_per_kmsg", 1000. *. per (k C.parks) msgs);
    ("engine.doorbell_hits_per_msg", per (k C.doorbell_hits) msgs);
    ("engine.rx_truncations", f (k C.rx_truncations));
    ("engine.drops", f (k C.drops));
  ]
  @ api
  @ [
      ( "api.receive.empty_ratio",
        per
          (Spans.counter tracer "api.receive.empty")
          (calls Tr.api_receive + calls Tr.api_receive_burst) );
      ( "api.send_burst.fill",
        per
          (Spans.counter tracer "api.send_burst.accepted")
          (calls Tr.api_send_burst) );
      ("api.self_vt_ns_per_msg", per (sum_api (fun a -> a.self_vt)) msgs);
      ("api.self_host_ns_per_msg", per (sum_api (fun a -> a.self_host)) msgs);
      ("api.self_steps_per_msg", per (sum_api (fun a -> a.self_steps)) msgs);
      ("net.dma_transfers_per_msg", per (k C.dma_transfers) msgs);
      ("net.dma_bytes_per_msg", per (k C.dma_bytes) msgs);
      ("net.packets_per_msg", per (k C.packets) msgs);
      ("net.link_busy_ratio", per (k C.wire_ns) traced.window_ns);
      ("net.faults_injected_per_kmsg", 1000. *. per (k C.faults) msgs);
    ]
  @ flow
  @ [
      ( "flow.retrans.retransmits_per_msg",
        extra traced "flow.retrans.retransmits" /. f msgs );
      ( "flow.retrans.duplicates_per_msg",
        extra traced "flow.retrans.duplicates" /. f msgs );
      ( "flow.channel.drops_per_kmsg",
        1000. *. extra traced "flow.channel.drops" /. f msgs );
      ("flow.send_wait_us_p99", extra traced "flow.send_wait_us_p99");
      ("vt_max_rate_at_p99", extra traced "vt_max_rate_at_p99");
      ("gen_lag_p99_us", extra traced "gen_lag_p99_us");
      ("trace.overhead_ratio", (f traced.meter.timed_ns /. host_timed) -. 1.);
      ("trace.spans_per_msg", per (Spans.count tracer) msgs);
    ]

let print_json ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (s, v) ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" s.Metrics.name
             v s.unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* Pair every spec with its computed value; a spec without one is a bug
   in the benchmark and fails the run. *)
let resolve specs values =
  List.map
    (fun s ->
      match List.assoc_opt s.Metrics.name values with
      | Some v when Float.is_finite v -> (s, v)
      | Some v ->
          problem "%s is not finite (%g)" s.name v;
          (s, 0.)
      | None ->
          problem "%s was not computed" s.name;
          (s, 0.))
    specs

let run ~workload ~seed ~seconds ~trace ~spans_path =
  let run_round =
    match List.assoc_opt workload workloads with
    | Some r -> r
    | None ->
        Printf.eprintf "unknown workload %s (one of: %s)\n" workload
          (String.concat ", " (List.map fst workloads));
        exit 2
  in
  let untraced () = run_round ~seed ~tracer:None ~monitor:false in
  let warm = untraced () in
  let reference = Round.fingerprint warm in
  let check label r =
    let fp = Round.fingerprint r in
    if fp <> reference then
      problem "virtual drift: %s round %s differs from warm-up %s" label fp
        reference
  in
  let deadline = Clock.mono_ns () + (seconds * 1_000_000_000) in
  let rec loop acc n =
    if n >= min_rounds && Clock.mono_ns () >= deadline then List.rev acc
    else begin
      let r = untraced () in
      check "untraced" r;
      loop (r :: acc) (n + 1)
    end
  in
  let rounds = loop [] 0 in
  let n = Array.length warm.latency_ns in
  if n < min_samples then problem "only %d latency samples" n;
  let tally = Tally.create () in
  List.iter (fun r -> Tally.add ~into:tally r.Round.tally) (warm :: rounds);
  Printf.printf "workload %s, seed %d, %d timed rounds after one warm-up\n"
    workload seed (List.length rounds);
  List.iter (Printf.printf "  %s\n") warm.notes;
  Printf.printf "  latency samples %d, tail level p%g\n" n
    (Option.value (Pct.tail_level n) ~default:0.);
  Printf.printf "  warm-up round host %.3f s\n"
    (f (warm.meter.setup_ns + warm.meter.timed_ns) /. 1e9);
  let rates =
    List.sort compare
      (List.map (fun r -> f r.Round.msgs /. (f r.meter.timed_ns /. 1e9)) rounds)
  in
  Printf.printf "  host msg/s over the rounds: min %.0f, median %.0f, max %.0f\n"
    (List.hd rates) (median rates) (List.nth rates (List.length rates - 1));
  let values, specs, broken =
    if trace = 0 then
      (end_to_end ~rounds ~first:warm, Metrics.end_to_end, Tally.broken tally)
    else begin
      let tracer = Tr.create ~cap:span_cap in
      let traced = run_round ~seed ~tracer:(Some tracer) ~monitor:true in
      check "traced" traced;
      Option.iter
        (fun path ->
          let oc = open_out path in
          Spans.write tracer oc;
          close_out oc;
          Printf.printf "  spans: %d recorded, %d written to %s\n"
            (Spans.count tracer)
            (min span_cap (Spans.count tracer))
            path)
        spans_path;
      if traced.tally.violations > 0 then
        problem "monitor reported %d violations" traced.tally.violations;
      ( per_layer ~rounds ~traced ~tracer,
        Metrics.per_layer,
        Tally.broken tally + Tally.broken traced.tally )
    end
  in
  let metrics = resolve specs values in
  List.iter
    (fun (s, v) -> Printf.printf "  %-40s %16.6g %s\n" s.Metrics.name v s.unit)
    metrics;
  Printf.printf "  %-40s %16.6g %s\n" Metrics.failed_ratio.name
    (Tally.failed_ratio tally) Metrics.failed_ratio.unit;
  Printf.printf "  tally: %s\n" (Format.asprintf "%a" Tally.pp tally);
  if broken > 0 then problem "%d broken requests" broken;
  List.iter (Printf.printf "  FAIL: %s\n") (List.rev !problems);
  let correct = !problems = [] in
  print_json ~correct ~attempted:tally.attempted ~failed:broken metrics;
  exit (if correct then 0 else 1)

let describe () =
  let specs l = String.concat ",\n    " (List.map Metrics.json_of_spec l) in
  Printf.printf
    "{\n  \"end_to_end\": [\n    %s\n  ],\n  \"per_layer\": [\n    %s\n  ]\n}\n"
    (specs (Metrics.end_to_end @ [ Metrics.failed_ratio ]))
    (specs Metrics.per_layer)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 in
  let trace = ref 0 and spans = ref "" and desc = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " pingpong | firehose_ladder | stack_lossy");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " how long to repeat timed rounds");
      ("--trace", Arg.Set_int trace, " 1: add the traced round, report per-layer metrics");
      ("--spans", Arg.Set_string spans, " where the traced round writes its spans");
      ("--describe", Arg.Set desc, " print the metric table as JSON");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "flipc_bench --workload W --seed N --seconds S --trace 0|1";
  if !desc then describe ()
  else
    run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace
      ~spans_path:(if !spans = "" then None else Some !spans)
