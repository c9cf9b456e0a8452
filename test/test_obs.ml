(* Tests for the observability layer: bounded rings, the metrics
   registry, the typed tracer, the JSON serializer, and the per-message
   latency breakdown — including the end-to-end invariant that the stage
   latencies of a lossless run sum to the end-to-end latency, and that
   under wire faults the breakdown's totals are exactly the completed
   causal spans. *)

module Ring = Flipc_obs.Ring
module Json = Flipc_obs.Json
module Event = Flipc_obs.Event
module Metrics = Flipc_obs.Metrics
module Tracer = Flipc_obs.Tracer
module Latency = Flipc_obs.Latency
module Obs = Flipc_obs.Obs
module Causal = Flipc_obs.Causal
module Sink = Flipc_obs.Sink
module Replay = Flipc_obs.Replay
module Machine = Flipc.Machine
module Faulty = Flipc_net.Faulty
module Pingpong = Flipc_workload.Pingpong
module Stackflow = Flipc_workload.Stackflow

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* --- Ring --- *)

let test_ring_basic () =
  let r = Ring.create ~capacity:4 in
  check_bool "empty" true (Ring.is_empty r);
  Ring.push r 1;
  Ring.push r 2;
  Ring.push r 3;
  check "length" 3 (Ring.length r);
  check "dropped" 0 (Ring.dropped r);
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (Ring.to_list r)

let test_ring_wrap_drops_oldest () =
  let r = Ring.create ~capacity:3 in
  for i = 1 to 7 do
    Ring.push r i
  done;
  check "length capped" 3 (Ring.length r);
  check "dropped counts evictions" 4 (Ring.dropped r);
  Alcotest.(check (list int)) "keeps newest, oldest first" [ 5; 6; 7 ]
    (Ring.to_list r);
  Ring.clear r;
  check "clear resets length" 0 (Ring.length r);
  check "clear resets dropped" 0 (Ring.dropped r)

let test_ring_fold_iter () =
  let r = Ring.create ~capacity:8 in
  for i = 1 to 5 do
    Ring.push r i
  done;
  check "fold sum" 15 (Ring.fold r ~init:0 (fun acc x -> acc + x));
  let seen = ref [] in
  Ring.iter r (fun x -> seen := x :: !seen);
  Alcotest.(check (list int)) "iter oldest first" [ 1; 2; 3; 4; 5 ]
    (List.rev !seen)

(* --- Metrics --- *)

let test_counters_and_gauges () =
  let m = Metrics.create () in
  let c = Metrics.counter m "a.sends" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  check "counter" 5 (Metrics.counter_value c);
  (* find-or-register returns the same counter *)
  Metrics.incr (Metrics.counter m "a.sends");
  check "shared" 6 (Metrics.counter_value c);
  let g = Metrics.gauge m "a.depth" in
  Metrics.set g 3.5;
  Alcotest.(check (float 0.)) "gauge" 3.5 (Metrics.gauge_value g);
  (* registering the same name as a different type is an error *)
  check_bool "type clash raises" true
    (try
       ignore (Metrics.gauge m "a.sends");
       false
     with Invalid_argument _ -> true);
  check_bool "bad name raises" true
    (try
       ignore (Metrics.counter m "spaces not allowed");
       false
     with Invalid_argument _ -> true)

let test_histogram_sketch () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  List.iter (Metrics.observe h) [ 1.; 2.; 3.; 4.; 5.; 6. ];
  check "all-time count" 6 (Metrics.histo_count h);
  Alcotest.(check (float 1e-9)) "exact sum" 21.0 (Metrics.histo_sum h);
  (match Metrics.histo_summary h with
  | None -> Alcotest.fail "summary expected"
  | Some s ->
      Alcotest.(check (float 1e-9)) "exact min" 1.0 s.Flipc_stats.Summary.min;
      Alcotest.(check (float 1e-9)) "exact max" 6.0 s.Flipc_stats.Summary.max;
      Alcotest.(check (float 1e-9)) "exact mean" 3.5 s.Flipc_stats.Summary.mean);
  match Metrics.histo_quantile h 0.5 with
  | None -> Alcotest.fail "quantile expected"
  | Some p50 ->
      (* within one sketch bucket (~9%) of the true median *)
      check_bool "p50 within bucket width" true (p50 >= 2.5 && p50 <= 3.7)

let test_snapshot_sorted_and_probed () =
  let m = Metrics.create () in
  let state = ref 7 in
  Metrics.probe m "z.probe" (fun () -> float_of_int !state);
  Metrics.incr (Metrics.counter m "b.count");
  Metrics.set (Metrics.gauge m "a.gauge") 1.0;
  state := 9;
  let snap = Metrics.snapshot m in
  Alcotest.(check (list string)) "sorted by name"
    [ "a.gauge"; "b.count"; "z.probe" ]
    (List.map fst snap);
  (match List.assoc "z.probe" snap with
  | Metrics.Snap_gauge v -> Alcotest.(check (float 0.)) "probe sampled" 9.0 v
  | _ -> Alcotest.fail "probe should snapshot as a gauge");
  (* JSON renders and parses as one object in the same order *)
  let s = Json.to_string (Metrics.snapshot_json snap) in
  check_bool "json object" true
    (String.length s > 2 && s.[0] = '{' && s.[String.length s - 1] = '}')

(* --- Json --- *)

let test_json_rendering () =
  check_str "escaping"
    {|{"s":"a\"b\\c\n","i":-3,"f":1.5,"t":true,"x":null,"l":[1,2]}|}
    (Json.to_string
       (Json.Obj
          [
            ("s", Json.String "a\"b\\c\n");
            ("i", Json.Int (-3));
            ("f", Json.Float 1.5);
            ("t", Json.Bool true);
            ("x", Json.Null);
            ("l", Json.List [ Json.Int 1; Json.Int 2 ]);
          ]));
  check_str "integral float keeps decimal point" "2.0"
    (Json.to_string (Json.Float 2.0));
  check_str "nan is null" "null" (Json.to_string (Json.Float Float.nan))

(* --- Tracer --- *)

let test_tracer_bounded_and_chrome () =
  let tr = Tracer.create ~capacity:8 ~enabled:false () in
  Tracer.emit tr ~now:5 (Event.Engine_wake { node = 0 });
  check "disabled emits nothing" 0 (Tracer.length tr);
  Tracer.enable tr;
  for i = 1 to 12 do
    Tracer.emit tr ~now:(i * 10)
      (Event.Wire_rx { node = 1; ep = i; mid = i })
  done;
  check "capped" 8 (Tracer.length tr);
  check "dropped" 4 (Tracer.dropped tr);
  (* one process row, one thread row (node 1), then the 8 instants *)
  let ev_doc = Tracer.chrome_events tr in
  check "metadata + events" 10 (List.length ev_doc);
  match List.rev ev_doc with
  | last :: _ ->
      (* timestamps are microseconds: vtime 120ns -> 0.12us *)
      check_bool "instant on the us axis" true
        (Json.member "ph" last = Some (Json.String "i")
        && Json.member "ts" last = Some (Json.Float 0.12))
  | [] -> Alcotest.fail "no chrome events"

(* --- Latency fold over events --- *)

let feed events =
  let l = Latency.create () in
  Latency.feed l
    (List.map
       (fun (ts, ev) -> { Replay.r_ts = ts; r_pid = 0; r_ev = ev })
       events);
  l

let send_enqueued ~mid =
  Event.Send_enqueued { node = 0; ep = 0; dst_node = 1; dst_ep = 2; mid }

let engine_tx ~mid =
  Event.Engine_tx { node = 0; ep = 0; dst_node = 1; dst_ep = 2; mid }

let wire_rx ~mid = Event.Wire_rx { node = 1; ep = 2; mid }
let deposit ~mid = Event.Deposit { node = 1; ep = 2; mid }
let recv_dequeued ~mid = Event.Recv_dequeued { node = 1; ep = 2; mid }

let test_latency_stage_pipeline () =
  (* one message: enqueue at 100, tx at 400, wire arrival at 600,
     deposited at 700, dequeued at 1000 (all ns) *)
  let l =
    feed
      [
        (100, send_enqueued ~mid:7);
        (400, engine_tx ~mid:7);
        (600, wire_rx ~mid:7);
        (700, deposit ~mid:7);
        (1000, recv_dequeued ~mid:7);
      ]
  in
  List.iter
    (fun st -> check (Latency.stage_name st ^ " count") 1 (Latency.stage_count l st))
    Latency.all_stages;
  let mean st =
    match Latency.stage_mean_us l st with
    | Some v -> v
    | None -> Alcotest.fail "missing stage"
  in
  Alcotest.(check (float 1e-9)) "send 0.3us" 0.3 (mean Latency.Send_stage);
  Alcotest.(check (float 1e-9)) "wire 0.2us" 0.2 (mean Latency.Wire_stage);
  Alcotest.(check (float 1e-9)) "queue 0.1us" 0.1 (mean Latency.Queue_stage);
  Alcotest.(check (float 1e-9)) "recv 0.3us" 0.3 (mean Latency.Recv_stage);
  Alcotest.(check (float 1e-9)) "total 0.9us" 0.9 (mean Latency.Total_stage);
  check "unmatched" 0 (Latency.unmatched l);
  check "dropped in flight" 0 (Latency.dropped_in_flight l)

let test_latency_discard_retires_record () =
  let l =
    feed
      [
        (0, send_enqueued ~mid:3);
        (10, engine_tx ~mid:3);
        (20, wire_rx ~mid:3);
        (30, Event.Drop { node = 1; ep = 2; mid = 3; reason = Event.No_posted_buffer });
      ]
  in
  check "no total sample" 0 (Latency.stage_count l Latency.Total_stage);
  check "dropped in flight" 1 (Latency.dropped_in_flight l);
  check "unmatched" 0 (Latency.unmatched l)

(* The fault injector marks a message inside transmit, before the
   engine's [Engine_tx]; a checksum discard carries mid 0; a duplicate's
   late copies add no sample; a slot reused 65,536 mids later evicts. *)
let test_latency_fault_order () =
  let fault kind mid = Event.Fault { node = 0; kind; mid } in
  let l =
    feed
      [
        (* wire drop: the send stage still completes *)
        (0, send_enqueued ~mid:1);
        (5, fault Event.Fault_drop 1);
        (10, engine_tx ~mid:1);
        (* corrupted first copy, discarded by checksum; the clean
           duplicate completes *)
        (20, send_enqueued ~mid:2);
        (25, fault Event.Fault_corrupt 2);
        (30, engine_tx ~mid:2);
        (40, wire_rx ~mid:2);
        (45, Event.Drop { node = 1; ep = -1; mid = 0; reason = Event.Corrupt_frame });
        (50, wire_rx ~mid:2);
        (60, deposit ~mid:2);
        (70, recv_dequeued ~mid:2);
        (* a late copy after completion has no open record *)
        (80, deposit ~mid:2);
        (* never completes; evicted by the mid sharing its slot *)
        (90, send_enqueued ~mid:3);
        (100, send_enqueued ~mid:(3 + 65_536));
      ]
  in
  check "send samples" 2 (Latency.stage_count l Latency.Send_stage);
  check "wire samples" 1 (Latency.stage_count l Latency.Wire_stage);
  check "one total" 1 (Latency.stage_count l Latency.Total_stage);
  Alcotest.(check (float 1e-9)) "total from the first enqueue" 0.05
    (Latency.stage_sum_us l Latency.Total_stage);
  check "dropped: the wire drop only" 1 (Latency.dropped_in_flight l);
  check "unmatched: late copy + eviction" 2 (Latency.unmatched l)

(* A lost message counts once however many markers it collects; its
   eviction is not also unmatched, though a late copy after it is; a
   send the engine refuses ends its path like a receive-side discard. *)
let test_latency_drop_counted_once () =
  let l =
    feed
      [
        (0, send_enqueued ~mid:1);
        (5, Event.Fault { node = 0; kind = Event.Fault_corrupt; mid = 1 });
        (10, engine_tx ~mid:1);
        (20, wire_rx ~mid:1);
        (25, Event.Drop { node = 1; ep = 2; mid = 1; reason = Event.No_posted_buffer });
        (30, send_enqueued ~mid:(1 + 65_536));
        (40, wire_rx ~mid:1);
        (50, send_enqueued ~mid:2);
        ( 55,
          Event.Drop
            { node = 0; ep = 0; mid = 2; reason = Event.Forbidden_destination } );
      ]
  in
  check "dropped: one per lost message" 2 (Latency.dropped_in_flight l);
  check "unmatched: the late copy only" 1 (Latency.unmatched l);
  check "the lost message's send sample" 1
    (Latency.stage_count l Latency.Send_stage);
  check "and its wire sample" 1 (Latency.stage_count l Latency.Wire_stage);
  check "no total" 0 (Latency.stage_count l Latency.Total_stage)

(* --- end to end on a real machine --- *)

let run_pingpong () =
  let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
  let lat = Latency.attach (Machine.obs machine) in
  let r =
    Pingpong.run ~machine ~node_a:0 ~node_b:1 ~payload_bytes:64 ~exchanges:50
      ()
  in
  (machine, lat, r)

(* The tentpole invariant: stage deltas are exact decompositions of each
   message's end-to-end latency. Per-message samples are no longer
   retained (constant-storage sketches), but sums survive exactly, so
   on a lossless in-order mesh the per-stage sums reconstruct the total
   sum to float precision. *)
let test_stages_sum_to_total () =
  let _, l, r = run_pingpong () in
  Alcotest.(check int) "no transport drops" 0 r.Pingpong.drops;
  check "nothing unmatched" 0 (Latency.unmatched l);
  check "nothing dropped in flight" 0 (Latency.dropped_in_flight l);
  let n = Latency.stage_count l Latency.Total_stage in
  check_bool "saw every exchange twice" true (n >= 2 * 50);
  List.iter
    (fun st ->
      check (Latency.stage_name st ^ " count") n (Latency.stage_count l st))
    Latency.all_stages;
  let sum st = Latency.stage_sum_us l st in
  let stage_total =
    sum Latency.Send_stage +. sum Latency.Wire_stage +. sum Latency.Queue_stage
    +. sum Latency.Recv_stage
  in
  let total = sum Latency.Total_stage in
  Alcotest.(check (float (Float.max 1e-6 (total *. 1e-9))))
    "stage sums reconstruct the end-to-end sum" total stage_total

(* Events are built only while someone listens: with no tracer and no
   watcher a run records no event, though the always-on metrics still
   count it. Attaching a breakdown is what turns tracing on. *)
let test_untraced_run_records_nothing () =
  let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
  let obs = Machine.obs machine in
  check_bool "not tracing" false (Obs.tracing obs);
  let r =
    Pingpong.run ~machine ~node_a:0 ~node_b:1 ~payload_bytes:64 ~exchanges:20
      ()
  in
  check "no transport drops" 0 r.Pingpong.drops;
  check "ring empty" 0 (Tracer.length (Obs.tracer obs));
  check "nothing evicted" 0 (Tracer.dropped (Obs.tracer obs));
  (match
     List.assoc_opt "node1.engine.recvs"
       (Metrics.snapshot (Obs.metrics obs))
   with
  | Some (Metrics.Snap_gauge v) ->
      check_bool "metrics saw every ping" true (v >= 20.)
  | _ -> Alcotest.fail "node1.engine.recvs missing from snapshot");
  let late = Latency.attach obs in
  check_bool "attach turns tracing on" true (Obs.tracing obs);
  check "late breakdown saw nothing" 0
    (Latency.stage_count late Latency.Total_stage)

let test_engine_probes_on_registry () =
  let machine, _, _ = run_pingpong () in
  let snap = Metrics.snapshot (Obs.metrics (Machine.obs machine)) in
  let get name =
    match List.assoc_opt name snap with
    | Some (Metrics.Snap_gauge v) -> int_of_float v
    | _ -> Alcotest.fail (name ^ " missing from snapshot")
  in
  check_bool "node0 sent messages" true (get "node0.engine.sends" > 0);
  check_bool "node1 received them" true (get "node1.engine.recvs" > 0);
  check "no drops on provisioned run" 0 (get "node1.engine.drops")

let snapshot_fingerprint () =
  let machine, lat, _ = run_pingpong () in
  let snap = Metrics.snapshot (Obs.metrics (Machine.obs machine)) in
  Json.to_string
    (Json.Obj
       [
         ("metrics", Metrics.snapshot_json snap); ("latency", Latency.json lat);
       ])

let test_snapshot_deterministic () =
  let a = snapshot_fingerprint () in
  let b = snapshot_fingerprint () in
  check_str "identical runs produce identical snapshots" a b

(* Tooling reaches machines built inside workload helpers through the
   creation hook: here it turns on each tracer, as the CLI's --trace
   does, and the one Chrome exporter merges them. *)
let test_machine_tracing_hook () =
  let traced = ref [] in
  let unhook =
    Obs.on_create (fun o ->
        Tracer.enable (Obs.tracer o);
        traced := o :: !traced)
  in
  let machine, _, _ = Fun.protect ~finally:unhook run_pingpong in
  let obs = Machine.obs machine in
  check_bool "machine reached" true
    (List.exists (fun o -> Obs.id o = Obs.id obs) !traced);
  check_bool "hook enables tracing" true (Tracer.enabled (Obs.tracer obs));
  check_bool "events recorded" true (Tracer.length (Obs.tracer obs) > 0);
  let doc = Json.to_string (Causal.chrome_json_of !traced) in
  check_bool "merged chrome doc" true
    (String.length doc > 15 && String.sub doc 0 15 = {|{"traceEvents":|});
  let before = List.length !traced in
  ignore (run_pingpong ());
  check "disposed hook reaches nothing" before (List.length !traced)

(* Under drops, duplicates and corruption the breakdown still joins
   events by message id: its [total] count and sum are exactly those of
   the completed causal spans (enqueue to the first dequeue of one mid)
   in a capture of the same run, and a duplicated frame adds no second
   sample. The replayed capture folds to the same breakdown. *)
let test_breakdown_exact_under_faults () =
  List.iter
    (fun (name, fault, injected) ->
      let path = Filename.temp_file "flipc_obs" ".ftrace" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      let sink = Sink.create ~path () in
      let live = ref [] in
      let unhook =
        Obs.on_create (fun o ->
            Sink.attach sink o;
            live := Latency.attach o :: !live)
      in
      let r =
        Fun.protect ~finally:unhook (fun () ->
            Stackflow.run ~fault ~messages:100
              ~kind:(Machine.Mesh { cols = 2; rows = 2 })
              ())
      in
      Sink.close sink;
      check_bool (name ^ ": run clean") true r.Stackflow.clean;
      (match Machine.fault_stats r.Stackflow.machine with
      | Some f -> check_bool (name ^ ": fault injected") true (injected f > 0)
      | None -> Alcotest.fail "fault stats missing");
      let lat = match !live with [ l ] -> l | _ -> Alcotest.fail "one machine" in
      let capture =
        match Replay.load path with Ok c -> c | Error e -> Alcotest.fail e
      in
      let first p (span : Causal.span) =
        List.find_map
          (fun (s : Causal.step) ->
            if p s.ev then Some (Flipc_sim.Vtime.to_ns s.ts) else None)
          span.steps
      in
      let completed =
        List.filter_map
          (fun span ->
            match
              ( first (function Event.Send_enqueued _ -> true | _ -> false) span,
                first (function Event.Recv_dequeued _ -> true | _ -> false) span
              )
            with
            | Some t0, Some t1 -> Some (float_of_int (t1 - t0) /. 1000.)
            | _ -> None)
          (Replay.spans capture)
      in
      let sum = List.fold_left ( +. ) 0. completed in
      let total_of l =
        (Latency.stage_count l Latency.Total_stage,
         Latency.stage_sum_us l Latency.Total_stage)
      in
      let n, s = total_of lat in
      check (name ^ ": total count = completed spans") (List.length completed) n;
      Alcotest.(check (float (sum *. 1e-12)))
        (name ^ ": total sum = completed spans") sum s;
      let replayed = Latency.create () in
      Latency.feed replayed (Replay.records capture);
      check_bool (name ^ ": replay folds to the live breakdown") true
        (Json.to_string (Latency.json replayed) = Json.to_string (Latency.json lat)))
    [
      ("drop", Faulty.config ~drop:0.05 ~seed:7 (), fun f -> f.Faulty.dropped);
      ( "duplicate",
        Faulty.config ~duplicate:0.05 ~seed:7 (),
        fun f -> f.Faulty.duplicated );
      ("corrupt", Faulty.config ~corrupt:0.02 ~seed:7 (), fun f -> f.Faulty.corrupted);
    ]

let () =
  Alcotest.run "obs"
    [
      ( "ring",
        [
          Alcotest.test_case "basics" `Quick test_ring_basic;
          Alcotest.test_case "wrap drops oldest" `Quick
            test_ring_wrap_drops_oldest;
          Alcotest.test_case "fold/iter" `Quick test_ring_fold_iter;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick
            test_counters_and_gauges;
          Alcotest.test_case "histogram sketch" `Quick test_histogram_sketch;
          Alcotest.test_case "snapshot sorted + probes" `Quick
            test_snapshot_sorted_and_probed;
          Alcotest.test_case "json rendering" `Quick test_json_rendering;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "bounded + chrome export" `Quick
            test_tracer_bounded_and_chrome;
        ] );
      ( "latency",
        [
          Alcotest.test_case "stage pipeline" `Quick
            test_latency_stage_pipeline;
          Alcotest.test_case "discard retires record" `Quick
            test_latency_discard_retires_record;
          Alcotest.test_case "fault event order" `Quick test_latency_fault_order;
          Alcotest.test_case "exact under faults" `Quick
            test_breakdown_exact_under_faults;
          Alcotest.test_case "drop counted once" `Quick
            test_latency_drop_counted_once;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "stages sum to total" `Quick
            test_stages_sum_to_total;
          Alcotest.test_case "engine probes on registry" `Quick
            test_engine_probes_on_registry;
          Alcotest.test_case "snapshot deterministic" `Quick
            test_snapshot_deterministic;
          Alcotest.test_case "creation hook" `Quick test_machine_tracing_hook;
          Alcotest.test_case "untraced run records nothing" `Quick
            test_untraced_run_records_nothing;
        ] );
    ]
