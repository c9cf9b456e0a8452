(* Tests for the measurement workloads: ping-pong, streams, RPC. *)

module Config = Flipc.Config
module Machine = Flipc.Machine
module Pingpong = Flipc_workload.Pingpong
module Streams = Flipc_workload.Streams
module Rpc = Flipc_workload.Rpc
module Summary = Flipc_stats.Summary

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_pingpong_sane () =
  let r = Pingpong.measure ~payload_bytes:120 ~exchanges:50 () in
  check "exchanges" 50 r.Pingpong.exchanges;
  check "samples" 50 (List.length r.Pingpong.round_trips_us);
  check "zero drops" 0 r.Pingpong.drops;
  check "message size" 128 r.Pingpong.message_bytes;
  let m = r.Pingpong.one_way.Summary.mean in
  check_bool "latency plausible" true (m > 5.0 && m < 40.0);
  (* The aggregate (paper's method) and per-sample mean agree closely. *)
  check_bool "aggregate agrees" true
    (Float.abs (m -. r.Pingpong.aggregate_one_way_us) < 0.5)

let test_pingpong_payload_too_big () =
  let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
  Alcotest.check_raises "payload check"
    (Invalid_argument "Pingpong.run: payload exceeds configured message size")
    (fun () ->
      ignore
        (Pingpong.run ~machine ~node_a:0 ~node_b:1 ~payload_bytes:4096
           ~exchanges:1 ()))

let test_pingpong_touch_payload_slower () =
  let plain = Pingpong.measure ~payload_bytes:248 ~exchanges:50 () in
  let touched =
    Pingpong.measure ~touch_payload:true ~payload_bytes:248 ~exchanges:50 ()
  in
  check_bool "payload access costs cache traffic" true
    (touched.Pingpong.one_way.Summary.mean
    > plain.Pingpong.one_way.Summary.mean)

let test_pingpong_larger_messages_slower () =
  let small = Pingpong.measure ~payload_bytes:56 ~exchanges:60 () in
  let large = Pingpong.measure ~payload_bytes:248 ~exchanges:60 () in
  check_bool "monotone in size" true
    (large.Pingpong.aggregate_one_way_us > small.Pingpong.aggregate_one_way_us)

let test_pingpong_distant_nodes_slower () =
  (* More hops => higher latency (hop cost is small but present). *)
  let near = Pingpong.measure ~cols:4 ~rows:4 ~node_a:0 ~node_b:1 ~payload_bytes:120 ~exchanges:60 () in
  let far = Pingpong.measure ~cols:4 ~rows:4 ~node_a:0 ~node_b:15 ~payload_bytes:120 ~exchanges:60 () in
  check_bool "hops add latency" true
    (far.Pingpong.aggregate_one_way_us > near.Pingpong.aggregate_one_way_us)

let test_streams_isolation () =
  let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
  let results =
    Streams.run ~machine ~node_src:0 ~node_dst:1
      ~until:(Flipc_sim.Vtime.ms 40)
      [
        Streams.make ~name:"high" ~priority:10 ~period_ns:100_000 ~count:150
          ~recv_buffers:8 ~consume_ns:5_000 ();
        Streams.make ~name:"low" ~priority:1 ~period_ns:10_000 ~count:1500
          ~recv_buffers:2 ~consume_ns:60_000 ();
      ]
  in
  match results with
  | [ high; low ] ->
      check "high fully delivered" high.Streams.sent high.Streams.delivered;
      check "high no drops" 0 high.Streams.dropped;
      check_bool "low overloaded drops" true (low.Streams.dropped > 0);
      (match high.Streams.latency with
      | Some l -> check_bool "high latency bounded" true (l.Summary.max < 100.)
      | None -> Alcotest.fail "no high latency");
      check_bool "low accounting" true
        (low.Streams.delivered + low.Streams.dropped <= low.Streams.sent)
  | _ -> Alcotest.fail "two streams expected"

let test_streams_adequate_buffers_no_drops () =
  let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
  let results =
    Streams.run ~machine ~node_src:0 ~node_dst:1
      ~until:(Flipc_sim.Vtime.ms 20)
      [
        Streams.make ~name:"paced" ~priority:5 ~period_ns:200_000 ~count:80
          ~recv_buffers:4 ~consume_ns:10_000 ();
      ]
  in
  match results with
  | [ r ] ->
      check "all sent" 80 r.Streams.sent;
      check "all delivered" 80 r.Streams.delivered;
      check "no drops" 0 r.Streams.dropped
  | _ -> Alcotest.fail "one stream expected"

let test_streams_deadline_misses () =
  (* A 1ns deadline is unmeetable: every delivered message must miss. *)
  let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
  let results =
    Streams.run ~machine ~node_src:0 ~node_dst:1
      ~until:(Flipc_sim.Vtime.ms 10)
      [
        Streams.make ~name:"doomed" ~priority:5 ~period_ns:200_000 ~count:30
          ~recv_buffers:4 ~consume_ns:1_000 ~deadline_ns:1 ();
      ]
  in
  match results with
  | [ r ] ->
      check_bool "delivered some" true (r.Streams.delivered > 0);
      check "every delivery misses" r.Streams.delivered r.Streams.deadline_misses
  | _ -> Alcotest.fail "one stream expected"

let test_streams_loose_deadline_no_misses () =
  let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
  let results =
    Streams.run ~machine ~node_src:0 ~node_dst:1
      ~until:(Flipc_sim.Vtime.ms 10)
      [
        Streams.make ~name:"easy" ~priority:5 ~period_ns:200_000 ~count:30
          ~recv_buffers:4 ~consume_ns:1_000 ~deadline_ns:1_000_000 ();
      ]
  in
  match results with
  | [ r ] -> check "no misses with 1ms budget" 0 r.Streams.deadline_misses
  | _ -> Alcotest.fail "one stream expected"

let test_throughput_sane () =
  let r = Flipc_workload.Throughput.measure ~payload_bytes:120 ~messages:200 () in
  check "all messages" 200 r.Flipc_workload.Throughput.messages;
  check "no drops" 0 r.Flipc_workload.Throughput.drops;
  check_bool "rate plausible" true
    (r.Flipc_workload.Throughput.msgs_per_sec > 50_000.
    && r.Flipc_workload.Throughput.msgs_per_sec < 2_000_000.);
  check_bool "mb/s consistent" true
    (Float.abs
       (r.Flipc_workload.Throughput.mb_per_sec
       -. (r.Flipc_workload.Throughput.msgs_per_sec *. 120. /. 1e6))
    < 0.5)

let test_throughput_window_clamped () =
  (* A tiny ring must not break the throughput harness. *)
  let config = { Config.default with Config.queue_capacity = 2 } in
  let r =
    Flipc_workload.Throughput.measure ~config ~payload_bytes:56 ~messages:50 ()
  in
  check "all delivered" 50 r.Flipc_workload.Throughput.messages;
  check "no drops" 0 r.Flipc_workload.Throughput.drops

let test_throughput_rejects_empty () =
  (* An empty stream has no first send to time from: it must be refused,
     not reported as a negative elapsed time. *)
  Alcotest.check_raises "zero messages"
    (Invalid_argument "Throughput.run: messages < 1") (fun () ->
      ignore
        (Flipc_workload.Throughput.measure ~payload_bytes:120 ~messages:0 ()
          : Flipc_workload.Throughput.result))

module Arrivals = Flipc_workload.Arrivals

let test_arrivals_periodic () =
  let a = Arrivals.periodic ~period_ns:500 in
  for _ = 1 to 5 do
    check "constant gap" 500 (Arrivals.next_gap_ns a)
  done;
  Alcotest.(check (float 1e-9)) "mean" 500. (Arrivals.mean_gap_ns a)

let test_arrivals_jittered () =
  let a = Arrivals.jittered ~period_ns:1000 ~jitter:0.2 ~seed:3 in
  let saw_variation = ref false in
  for _ = 1 to 50 do
    let g = Arrivals.next_gap_ns a in
    check_bool "within band" true (g >= 800 && g <= 1200);
    if g <> 1000 then saw_variation := true
  done;
  check_bool "actually varies" true !saw_variation

let test_arrivals_poisson_mean () =
  let a = Arrivals.poisson ~mean_ns:2000 ~seed:9 in
  let n = 20_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    let g = Arrivals.next_gap_ns a in
    check_bool "nonneg" true (g >= 0);
    sum := !sum + g
  done;
  let mean = float_of_int !sum /. float_of_int n in
  check_bool "mean near 2000" true (Float.abs (mean -. 2000.) < 100.)

let test_arrivals_bursty () =
  let a = Arrivals.bursty ~burst:3 ~gap_ns:10 ~idle_ns:1000 in
  (* Pattern: gap gap idle, repeating. *)
  Alcotest.(check (list int)) "burst pattern" [ 10; 10; 1000; 10; 10; 1000 ]
    (List.init 6 (fun _ -> Arrivals.next_gap_ns a));
  Alcotest.(check (float 1e-6)) "mean" (1020. /. 3.) (Arrivals.mean_gap_ns a)

let test_arrivals_deterministic () =
  let a = Arrivals.poisson ~mean_ns:777 ~seed:4 in
  let b = Arrivals.poisson ~mean_ns:777 ~seed:4 in
  for _ = 1 to 100 do
    check "same stream" (Arrivals.next_gap_ns a) (Arrivals.next_gap_ns b)
  done

let test_streams_poisson_arrivals () =
  let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
  let results =
    Streams.run ~machine ~node_src:0 ~node_dst:1
      ~until:(Flipc_sim.Vtime.ms 20)
      [
        Streams.make ~name:"poisson"
          ~arrival:(Arrivals.poisson ~mean_ns:150_000 ~seed:5)
          ~count:80 ~recv_buffers:6 ~consume_ns:2_000 ();
      ]
  in
  match results with
  | [ r ] ->
      check "all sent" 80 r.Streams.sent;
      check "all delivered" 80 r.Streams.delivered;
      check "no drops" 0 r.Streams.dropped
  | _ -> Alcotest.fail "one stream expected"

let test_rpc_provisioned () =
  let machine = Machine.create (Machine.Mesh { cols = 4; rows = 4 }) () in
  let r =
    Rpc.run ~machine ~server_node:5 ~client_nodes:[ 0; 3; 10; 15 ]
      ~requests_per_client:25 ~server_work_ns:2_000 ()
  in
  check "requests" 100 r.Rpc.requests;
  check "replies" 100 r.Rpc.replies;
  check "no drops with static provisioning" 0 r.Rpc.server_drops;
  check "latency samples" 100 r.Rpc.latency.Summary.n;
  check_bool "rtt plausible" true
    (r.Rpc.latency.Summary.mean > 20. && r.Rpc.latency.Summary.mean < 100.)

let test_rpc_multiple_clients_per_node () =
  let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
  let r =
    Rpc.run ~machine ~server_node:1 ~client_nodes:[ 0; 0 ]
      ~requests_per_client:10 ~server_work_ns:1_000 ()
  in
  check "both clients served" 20 r.Rpc.replies;
  check "no drops" 0 r.Rpc.server_drops

let () =
  Alcotest.run "workload"
    [
      ( "pingpong",
        [
          Alcotest.test_case "sane" `Quick test_pingpong_sane;
          Alcotest.test_case "payload bound" `Quick test_pingpong_payload_too_big;
          Alcotest.test_case "touch payload slower" `Quick
            test_pingpong_touch_payload_slower;
          Alcotest.test_case "size monotone" `Quick
            test_pingpong_larger_messages_slower;
          Alcotest.test_case "distance monotone" `Quick
            test_pingpong_distant_nodes_slower;
        ] );
      ( "streams",
        [
          Alcotest.test_case "priority isolation" `Quick test_streams_isolation;
          Alcotest.test_case "no drops when provisioned" `Quick
            test_streams_adequate_buffers_no_drops;
        ] );
      ( "arrivals",
        [
          Alcotest.test_case "periodic" `Quick test_arrivals_periodic;
          Alcotest.test_case "jittered" `Quick test_arrivals_jittered;
          Alcotest.test_case "poisson mean" `Quick test_arrivals_poisson_mean;
          Alcotest.test_case "bursty" `Quick test_arrivals_bursty;
          Alcotest.test_case "deterministic" `Quick
            test_arrivals_deterministic;
          Alcotest.test_case "poisson stream end-to-end" `Quick
            test_streams_poisson_arrivals;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "unmeetable deadline" `Quick
            test_streams_deadline_misses;
          Alcotest.test_case "loose deadline" `Quick
            test_streams_loose_deadline_no_misses;
        ] );
      ( "throughput",
        [
          Alcotest.test_case "sane" `Quick test_throughput_sane;
          Alcotest.test_case "tiny ring" `Quick test_throughput_window_clamped;
          Alcotest.test_case "rejects zero messages" `Quick
            test_throughput_rejects_empty;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "provisioned" `Quick test_rpc_provisioned;
          Alcotest.test_case "clients per node" `Quick
            test_rpc_multiple_clients_per_node;
        ] );
    ]
