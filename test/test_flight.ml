(* Flight-data pipeline tests: the JSON parser, the log-bucketed
   quantile sketch under a million observations, the JSON-lines
   rendering of a capture, capture -> replay fidelity (spans and monitor verdicts
   recomputed offline must match the live run, including truncated-ring
   and mid-run-attach captures), the corrupt-discard stalled-stage
   verdict, the KKT/bulk invariant rules, and the time-series tap with
   its Prometheus exposition. *)

module Sim = Flipc_sim.Engine
module Vtime = Flipc_sim.Vtime
module Mailbox = Flipc_sim.Sync.Mailbox
module Mem_port = Flipc_memsim.Mem_port
module Topology = Flipc_net.Topology
module Mesh = Flipc_net.Mesh
module Nic = Flipc_net.Nic
module Faulty = Flipc_net.Faulty
module Config = Flipc.Config
module Machine = Flipc.Machine
module Api = Flipc.Api
module Endpoint_kind = Flipc.Endpoint_kind
module Kkt = Flipc_kkt.Kkt
module Bulk = Flipc_bulk.Bulk
module Json = Flipc_obs.Json
module Sketch = Flipc_obs.Sketch
module Event = Flipc_obs.Event
module Obs = Flipc_obs.Obs
module Tracer = Flipc_obs.Tracer
module Metrics = Flipc_obs.Metrics
module Causal = Flipc_obs.Causal
module Monitor = Flipc_obs.Monitor
module Sink = Flipc_obs.Sink
module Replay = Flipc_obs.Replay
module Series = Flipc_obs.Series
module Codec = Flipc_obs.Codec
module Alert = Flipc_obs.Alert
module Diff = Flipc_obs.Diff
module Latency = Flipc_obs.Latency
module Summary = Flipc_stats.Summary
module Pingpong = Flipc_workload.Pingpong

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Api.error_to_string e)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec at i =
    i + nl <= hl && (String.sub haystack i nl = needle || at (i + 1))
  in
  at 0

let finish machine =
  Machine.run machine;
  Machine.stop_engines machine;
  Machine.run machine

let with_temp_trace f =
  let path = Filename.temp_file "flipc_flight" ".ftrace" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let file_size path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  close_in ic;
  n

let read_whole path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rewrite path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

(* --- JSON parser --- *)

let test_json_roundtrip () =
  let docs =
    [
      Json.Null;
      Json.Bool true;
      Json.Bool false;
      Json.Int 0;
      Json.Int (-42);
      Json.Int max_int;
      Json.Float 1.5;
      Json.Float (-0.25);
      Json.String "";
      Json.String "plain";
      Json.String "esc \" \\ \n \t quote";
      Json.List [];
      Json.List [ Json.Int 1; Json.String "two"; Json.Null ];
      Json.Obj [];
      Json.Obj
        [
          ("a", Json.Int 1);
          ("nested", Json.Obj [ ("l", Json.List [ Json.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun doc ->
      let s = Json.to_string doc in
      match Json.of_string s with
      | Ok parsed ->
          check_bool (Printf.sprintf "roundtrip %s" s) true (parsed = doc)
      | Error e -> Alcotest.fail (Printf.sprintf "parse %s: %s" s e))
    docs

let test_json_parse_forms () =
  (* Written-by-hand inputs the serializer would not produce. *)
  (match Json.of_string "  { \"a\" : [ 1 , 2.5 , \"\\u0041\" ] }  " with
  | Ok (Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Float 2.5; Json.String "A" ]) ])
    ->
      ()
  | Ok j -> Alcotest.fail ("unexpected parse: " ^ Json.to_string j)
  | Error e -> Alcotest.fail e);
  check_bool "number without point is Int" true
    (Json.of_string "123" = Ok (Json.Int 123));
  check_bool "exponent makes a Float" true
    (Json.of_string "1e3" = Ok (Json.Float 1000.));
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | Ok j ->
          Alcotest.fail
            (Printf.sprintf "accepted %S as %s" bad (Json.to_string j))
      | Error _ -> ())
    [ ""; "{"; "[1,"; "{\"a\":}"; "123abc"; "\"unterminated"; "nul" ]

let test_json_member_accessors () =
  let doc = Json.Obj [ ("x", Json.Int 7); ("s", Json.String "hi") ] in
  check_bool "member hit" true (Json.member "x" doc = Some (Json.Int 7));
  check_bool "member miss" true (Json.member "zz" doc = None);
  check_bool "to_int" true (Option.bind (Json.member "x" doc) Json.to_int = Some 7);
  check_bool "to_str" true
    (Option.bind (Json.member "s" doc) Json.to_str = Some "hi")

(* --- sketch: exact counts, bounded memory, quantile accuracy --- *)

(* Deterministic PRNG so the soak replays identically everywhere. *)
let lcg seed =
  let state = ref seed in
  fun () ->
    state := ((!state * 0x5DEECE66D) + 0xB) land max_int;
    float_of_int ((!state lsr 16) land 0xFFFFFF) /. float_of_int 0xFFFFFF

let test_sketch_soak_million () =
  let n = 1_000_000 in
  let next = lcg 42 in
  let s = Sketch.create () in
  let values = Array.init n (fun _ -> exp (next () *. 10.)) in
  Array.iter (Sketch.observe s) values;
  check "count exact" n (Sketch.count s);
  let exact_sum = Array.fold_left ( +. ) 0. values in
  check_bool "sum exact (same accumulation order)" true
    (Float.abs (Sketch.sum s -. exact_sum) /. exact_sum < 1e-12);
  let sorted = Array.copy values in
  Array.sort compare sorted;
  check_bool "min exact" true (Sketch.min_value s = sorted.(0));
  check_bool "max exact" true (Sketch.max_value s = sorted.(n - 1));
  List.iter
    (fun p ->
      let exact = sorted.(min (n - 1) (int_of_float (p *. float_of_int n))) in
      match Sketch.quantile s p with
      | None -> Alcotest.fail "quantile on populated sketch"
      | Some q ->
          let rel = Float.abs (q -. exact) /. exact in
          if rel > 0.05 then
            Alcotest.fail
              (Printf.sprintf "p%g: sketch %g vs exact %g (rel %.3f)" p q
                 exact rel))
    [ 0.5; 0.9; 0.95; 0.99 ];
  (* The whole point: memory stays a constant array of buckets no
     matter how many observations arrive. *)
  check_bool "bucket array is constant-size" true (Sketch.bucket_capacity < 1024)

let test_metrics_histogram_million () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "soak.us" in
  let next = lcg 7 in
  let n = 1_000_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    let v = 1. +. (next () *. 999.) in
    sum := !sum +. v;
    Metrics.observe h v
  done;
  check "histo count exact under soak" n (Metrics.histo_count h);
  check_bool "histo sum exact" true
    (Float.abs (Metrics.histo_sum h -. !sum) /. !sum < 1e-12);
  match Metrics.histo_summary h with
  | None -> Alcotest.fail "summary on populated histogram"
  | Some s ->
      check "summary n" n s.Summary.n;
      check_bool "p50 in range" true (s.Summary.p50 > 400. && s.Summary.p50 < 600.)

(* --- event wire round-trip, all constructors --- *)

let all_events =
  [
    Event.Send_enqueued { node = 1; ep = 2; dst_node = 3; dst_ep = 4; mid = 5 };
    Event.Doorbell { node = 1; ep = 2 };
    Event.Engine_tx { node = 1; ep = 2; dst_node = 3; dst_ep = 4; mid = 5 };
    Event.Wire_rx { node = 3; ep = 4; mid = 5 };
    Event.Deposit { node = 3; ep = 4; mid = 5 };
    Event.Recv_dequeued { node = 3; ep = 4; mid = 5 };
    Event.Drop { node = 3; ep = -1; mid = 0; reason = Event.Corrupt_frame };
    Event.Drop { node = 3; ep = 4; mid = 5; reason = Event.No_posted_buffer };
    Event.Frame_tx { node = 1; ep = 2; seq = 9; mid = 5; retransmit = true };
    Event.Frame_deliver { node = 3; ep = 4; seq = 9; mid = 5 };
    Event.Ack_tx { node = 3; ep = 4; cum = 9; sacked = 2 };
    Event.Credit_grant { node = 3; ep = 4; count = 8 };
    Event.Window_send { node = 1; ep = 2; mid = 5; sent = 3; granted = 7; window = 4 };
    Event.Drops_read { node = 3; ep = 4; count = 2 };
    Event.Engine_park { node = 1; idle = 17 };
    Event.Engine_wake { node = 1 };
    Event.Fault { node = 0; kind = Event.Fault_corrupt; mid = 5 };
    Event.Fault { node = 0; kind = Event.Fault_drop; mid = 5 };
    Event.Note { node = 1; tag = "tag"; detail = "free text, \"quoted\"" };
    Event.Kkt_call { node = 0; dst_node = 1; id = 3; mid = 5 };
    Event.Kkt_dispatch { node = 1; id = 3; valid = false; mid = 5 };
    Event.Kkt_reply { node = 1; dst_node = 0; id = 3; mid = 5 };
    Event.Kkt_complete { node = 0; id = 3; mid = 5 };
    Event.Bulk_start
      { node = 0; dst_node = 1; transfer = 2; op = Event.Bulk_put; total = 4096; mid = 5 };
    Event.Bulk_start
      { node = 1; dst_node = 0; transfer = 3; op = Event.Bulk_get; total = 64; mid = 6 };
    Event.Bulk_chunk { node = 1; transfer = 2; offset = 0; len = 1024; mid = 5 };
    Event.Bulk_complete { node = 1; transfer = 2; mid = 5 };
    Event.Bulk_cancel { node = 0; transfer = 2; mid = 5 };
    Event.Alert_fired
      { node = 0; rule = "p99-slo"; detail = "lat p99 9.1 exceeds 5" };
  ]

(* A capture renders as JSON lines (flipc trace --replay): a header, one
   {"t","pid",...Event.to_json} record per event of the live ring, and a
   trailer. The live ring renders to the same record lines. *)
let test_capture_rendering () =
  with_temp_trace @@ fun path ->
  let sim = Sim.create () in
  let obs = Obs.create ~tracing:true ~sim () in
  let sink = Sink.create ~meta:[ ("source", Json.String "test") ] ~path () in
  Sink.attach sink obs;
  Sim.spawn sim (fun () ->
      List.iter
        (fun ev ->
          Sim.delay (Vtime.ns 7);
          Obs.event obs ev)
        all_events);
  Sim.run sim;
  Sink.close sink;
  let capture =
    match Replay.load path with Ok c -> c | Error e -> Alcotest.fail e
  in
  let lines = Replay.jsonl capture in
  let parse line =
    match Json.of_string line with
    | Ok j -> j
    | Error e -> Alcotest.fail (Printf.sprintf "%s: %s" line e)
  in
  let n = List.length lines in
  check "header + one line per event + trailer" (List.length all_events + 2) n;
  check_str "header"
    (Printf.sprintf {|{"flipc_trace":%d,"meta":{"source":"test"}}|}
       Codec.format_version)
    (List.hd lines);
  check_str "trailer"
    (Printf.sprintf {|{"machines":[{"pid":%d,"label":"%s"}]}|} (Obs.id obs)
       (Obs.label obs))
    (List.nth lines (n - 1));
  let records = List.filteri (fun i _ -> i > 0 && i < n - 1) lines in
  List.iter2
    (fun line (e : Tracer.entry) ->
      match parse line with
      | Json.Obj (("t", Json.Int t) :: ("pid", Json.Int pid) :: fields) ->
          check (Event.kind e.ev ^ " t") (Vtime.to_ns e.ts) t;
          check (Event.kind e.ev ^ " pid") (Obs.id obs) pid;
          check_bool (Event.kind e.ev ^ " = Event.to_json") true
            (Json.Obj fields = Event.to_json e.ev)
      | _ -> Alcotest.fail ("not a trace record: " ^ line))
    records
    (Tracer.to_list (Obs.tracer obs));
  let live = Replay.jsonl (Replay.of_obs obs) in
  check_bool "the live ring renders the same records" true
    (List.filteri (fun i _ -> i > 0 && i < n - 1) live = records);
  (* Kinds are pairwise distinct except for payload variants of the
     same constructor. *)
  check_bool "kind is payload-independent" true
    (Event.kind (List.nth all_events 6) = Event.kind (List.nth all_events 7))

(* --- capture -> replay fidelity --- *)

let span_digest spans =
  List.map
    (fun s -> (s.Causal.mid, List.length s.Causal.steps, Causal.stalled_stage s))
    spans

let test_capture_replay_live_run () =
  with_temp_trace @@ fun path ->
  let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
  let obs = Machine.obs machine in
  let sink = Sink.create ~path () in
  Sink.attach sink obs;
  let mon = Machine.attach_monitor machine in
  ignore
    (Pingpong.run ~machine ~node_a:0 ~node_b:1 ~payload_bytes:64 ~exchanges:40
       ()
      : Pingpong.result);
  Sink.close sink;
  let live_spans = Causal.spans [ obs ] in
  check_bool "live run produced spans" true (live_spans <> []);
  match Replay.load path with
  | Error e -> Alcotest.fail e
  | Ok capture ->
      check_bool "replayed spans = live spans" true
        (span_digest (Replay.spans capture) = span_digest live_spans);
      let rmon = Monitor.create () in
      List.iter
        (fun r -> Monitor.feed rmon ~now:r.Replay.r_ts r.Replay.r_ev)
        (Replay.records capture);
      check "replayed events_seen" (Monitor.events_seen mon)
        (Monitor.events_seen rmon);
      check "replayed violations"
        (List.length (Monitor.violations mon))
        (List.length (Monitor.violations rmon))

(* Synthetic flow emitter shared by the truncation/attach tests: each
   mid either completes its lifecycle or is dropped on the wire. *)
let emit_flow obs ~mid ~dropped =
  Obs.event obs
    (Event.Send_enqueued { node = 0; ep = 0; dst_node = 1; dst_ep = 0; mid });
  Obs.event obs
    (Event.Engine_tx { node = 0; ep = 0; dst_node = 1; dst_ep = 0; mid });
  if dropped then Obs.event obs (Event.Fault { node = 0; kind = Event.Fault_drop; mid })
  else begin
    Obs.event obs (Event.Wire_rx { node = 1; ep = 0; mid });
    Obs.event obs (Event.Deposit { node = 1; ep = 0; mid });
    Obs.event obs (Event.Recv_dequeued { node = 1; ep = 0; mid })
  end

let test_capture_survives_ring_truncation () =
  with_temp_trace @@ fun path ->
  let sim = Sim.create () in
  (* Ring holds 8 events; the run emits 5x that. *)
  let obs = Obs.create ~tracing:true ~trace_capacity:8 ~sim () in
  let sink = Sink.create ~path () in
  Sink.attach sink obs;
  for mid = 1 to 8 do
    emit_flow obs ~mid ~dropped:(mid mod 3 = 0)
  done;
  Sink.close sink;
  check_bool "ring actually truncated" true (Tracer.dropped (Obs.tracer obs) > 0);
  match Replay.load path with
  | Error e -> Alcotest.fail e
  | Ok capture ->
      (* The capture streamed past the ring: every event survives. *)
      check "all events captured"
        (Tracer.length (Obs.tracer obs) + Tracer.dropped (Obs.tracer obs))
        (List.length (Replay.records capture));
      check "all 8 spans recovered offline" 8
        (List.length (Replay.spans capture));
      (* The live ring kept only a suffix; whatever it can still see
         must agree with the replay's view of those same messages. *)
      List.iter
        (fun live ->
          match Causal.find (Replay.spans capture) live.Causal.mid with
          | None -> Alcotest.fail "live span missing from replay"
          | Some r ->
              check_bool "replay at least as complete" true
                (List.length r.Causal.steps >= List.length live.Causal.steps))
        (Causal.spans [ obs ])

let test_capture_mid_run_attach () =
  with_temp_trace @@ fun path ->
  let sim = Sim.create () in
  let obs = Obs.create ~tracing:true ~trace_capacity:4096 ~sim () in
  emit_flow obs ~mid:1 ~dropped:false;
  emit_flow obs ~mid:2 ~dropped:true;
  (* Attach after the fact: the retained ring is spilled, then the
     future streams. *)
  let sink = Sink.create ~path () in
  Sink.attach sink obs;
  Sink.attach sink obs (* idempotent: no duplicate spill *);
  emit_flow obs ~mid:3 ~dropped:false;
  Sink.close sink;
  match Replay.load path with
  | Error e -> Alcotest.fail e
  | Ok capture ->
      check "ring spill + live tail" 13 (List.length (Replay.records capture));
      check_bool "pre-attach and post-attach spans agree with live" true
        (span_digest (Replay.spans capture) = span_digest (Causal.spans [ obs ]))

(* One capture format: the sink writes the same Codec frames whatever
   the file is called, so a ".jsonl" name yields a byte-identical
   capture that replays through Codec. *)
let test_sink_ignores_file_name () =
  with_temp_trace @@ fun path ->
  let named = Filename.temp_file "flipc_flight" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove named with Sys_error _ -> ())
  @@ fun () ->
  let sim = Sim.create () in
  let obs = Obs.create ~tracing:true ~sim () in
  let sinks = List.map (fun path -> Sink.create ~path ()) [ path; named ] in
  List.iter (fun sink -> Sink.attach sink obs) sinks;
  emit_flow obs ~mid:1 ~dropped:false;
  emit_flow obs ~mid:2 ~dropped:true;
  List.iter Sink.close sinks;
  let read p =
    let ic = open_in_bin p in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  let bytes = read named in
  check_bool "starts with the codec magic" true
    (String.length bytes >= String.length Codec.magic
    && String.sub bytes 0 (String.length Codec.magic) = Codec.magic);
  check_bool "same bytes as the .ftrace capture" true (bytes = read path);
  match Replay.load named with
  | Error e -> Alcotest.fail e
  | Ok capture -> check "every event decoded" 8 (List.length (Replay.records capture))

let capture_replay_prop =
  QCheck.Test.make ~name:"spans (replay (capture run)) = spans run" ~count:30
    QCheck.(
      pair (int_range 1 40) (list_of_size (Gen.int_range 1 40) bool))
    (fun (capacity_scale, flows) ->
      with_temp_trace @@ fun path ->
      let sim = Sim.create () in
      let obs =
        Obs.create ~tracing:true ~trace_capacity:(capacity_scale * 256) ~sim ()
      in
      let sink = Sink.create ~path () in
      Sink.attach sink obs;
      let mon = Monitor.attach obs in
      List.iteri (fun i dropped -> emit_flow obs ~mid:(i + 1) ~dropped) flows;
      Sink.close sink;
      match Replay.load path with
      | Error e -> QCheck.Test.fail_report e
      | Ok capture ->
          let rmon = Monitor.create () in
          List.iter
            (fun r -> Monitor.feed rmon ~now:r.Replay.r_ts r.Replay.r_ev)
            (Replay.records capture);
          span_digest (Replay.spans capture) = span_digest (Causal.spans [ obs ])
          && Monitor.events_seen rmon = Monitor.events_seen mon
          && List.length (Monitor.violations rmon)
             = List.length (Monitor.violations mon))

let test_replay_rejects_garbage () =
  with_temp_trace @@ fun path ->
  (* JSON lines are a rendering, never a capture. *)
  rewrite path
    "{\"flipc_trace\":1,\"meta\":{}}\n\
     {\"t\":1,\"pid\":0,\"k\":\"doorbell\",\"node\":0,\"ep\":0}\n";
  (match Replay.load path with
  | Error e -> check_bool "jsonl: missing magic reported" true (contains ~needle:"magic" e)
  | Ok _ -> Alcotest.fail "accepted a JSON-lines file");
  rewrite path "NOPE\001";
  (match Replay.load path with
  | Error e -> check_bool "bad magic reported" true (contains ~needle:"magic" e)
  | Ok _ -> Alcotest.fail "accepted a bad magic");
  rewrite path (Codec.magic ^ String.make 1 (Char.chr (Codec.format_version + 1)));
  match Replay.load path with
  | Error e -> check_bool "version mismatch reported" true (contains ~needle:"version" e)
  | Ok _ -> Alcotest.fail "accepted a future format version"

(* --- corrupt-discard stalled-stage verdict (seeded, live) --- *)

let test_corrupt_stalled_stage () =
  let fault = Faulty.config ~corrupt:0.4 ~seed:3 () in
  let config = { Config.default with Config.frame_checksum = true } in
  let machine =
    Machine.create ~config ~fault (Machine.Mesh { cols = 2; rows = 1 }) ()
  in
  let obs = Machine.obs machine in
  Tracer.enable (Obs.tracer obs);
  let sim = Machine.sim machine in
  let addr = Mailbox.create () in
  let msgs = 10 in
  Machine.spawn_app machine ~node:1 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      for _ = 1 to 2 do
        ok (Api.post_receive api ep (ok (Api.allocate_buffer api)))
      done;
      Mailbox.put addr (Api.address api ep);
      (* Corrupted frames never arrive, so poll for a fixed virtual
         window instead of a delivery count. *)
      let deadline = Vtime.ms 10 in
      let rec poll () =
        (match Api.receive api ep with
        | Some b -> ignore (Api.post_receive api ep b : (unit, _) result)
        | None -> Mem_port.instr (Api.port api) 100);
        if Sim.now sim < deadline then poll ()
      in
      poll ());
  Machine.spawn_app machine ~node:0 (fun api ->
      let tx = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
      Api.connect api tx (Mailbox.take addr);
      for _ = 1 to msgs do
        ok (Api.send api tx (ok (Api.allocate_buffer api)));
        let rec reclaim () =
          match Api.reclaim api tx with
          | Some _ -> ()
          | None ->
              Mem_port.instr (Api.port api) 50;
              reclaim ()
        in
        reclaim ();
        Sim.delay (Vtime.us 30)
      done);
  finish machine;
  (match Machine.fault_stats machine with
  | Some f -> check_bool "seed injected corruption" true (f.Faulty.corrupted > 0)
  | None -> Alcotest.fail "fault stats missing");
  let spans = Causal.spans [ obs ] in
  let corrupted =
    List.filter
      (fun s ->
        List.exists
          (fun st ->
            match st.Causal.ev with
            | Event.Fault { kind = Event.Fault_corrupt; _ } -> true
            | _ -> false)
          s.Causal.steps)
      spans
  in
  check_bool "some span carries the corrupt marker" true (corrupted <> []);
  List.iter
    (fun s ->
      let v = Causal.stalled_stage s in
      if not (contains ~needle:"corrupted on the wire" v) then
        Alcotest.fail
          (Format.asprintf "span %d verdict %S:@.%a" s.Causal.mid v
             Causal.pp_span s))
    corrupted

(* --- KKT and bulk invariant rules, synthetic streams --- *)

let synth () =
  let sim = Sim.create () in
  let obs = Obs.create ~sim () in
  let mon = Monitor.attach obs in
  (obs, mon)

let rule_fired mon rule =
  List.exists (fun v -> v.Monitor.rule = rule) (Monitor.violations mon)

let test_rule_kkt_slot_reuse () =
  let obs, mon = synth () in
  Obs.event obs (Event.Kkt_call { node = 0; dst_node = 1; id = 1; mid = 0 });
  Obs.event obs (Event.Kkt_call { node = 0; dst_node = 1; id = 2; mid = 0 });
  (* A different client node has its own id space. *)
  Obs.event obs (Event.Kkt_call { node = 3; dst_node = 1; id = 1; mid = 0 });
  check_bool "monotone ids are clean" true (Monitor.clean mon);
  Obs.event obs (Event.Kkt_call { node = 0; dst_node = 1; id = 2; mid = 0 });
  check_bool "reused id fires" true (rule_fired mon "kkt.slot_reuse")

let test_rule_kkt_key_validity () =
  let _, mon =
    let obs, mon = synth () in
    Obs.event obs (Event.Kkt_dispatch { node = 1; id = 1; valid = true; mid = 0 });
    check_bool "valid dispatch clean" true (Monitor.clean mon);
    Obs.event obs (Event.Kkt_dispatch { node = 2; id = 2; valid = false; mid = 0 });
    (obs, mon)
  in
  check_bool "invalid key fires" true (rule_fired mon "kkt.key_validity")

let test_rule_kkt_no_reply_without_request () =
  let obs, mon = synth () in
  Obs.event obs (Event.Kkt_call { node = 0; dst_node = 1; id = 1; mid = 0 });
  Obs.event obs (Event.Kkt_complete { node = 0; id = 1; mid = 0 });
  check_bool "matched call/complete clean" true (Monitor.clean mon);
  Obs.event obs (Event.Kkt_complete { node = 0; id = 7; mid = 0 });
  check_bool "orphan completion fires" true
    (rule_fired mon "kkt.no_reply_without_request")

let bulk_start obs ~transfer ~total =
  Obs.event obs
    (Event.Bulk_start
       { node = 0; dst_node = 1; transfer; op = Event.Bulk_put; total; mid = 0 })

let test_rule_bulk_contiguity () =
  let obs, mon = synth () in
  bulk_start obs ~transfer:1 ~total:30;
  Obs.event obs (Event.Bulk_chunk { node = 1; transfer = 1; offset = 0; len = 10; mid = 0 });
  Obs.event obs (Event.Bulk_chunk { node = 1; transfer = 1; offset = 10; len = 10; mid = 0 });
  check_bool "contiguous chunks clean" true (Monitor.clean mon);
  Obs.event obs (Event.Bulk_chunk { node = 1; transfer = 1; offset = 25; len = 5; mid = 0 });
  check_bool "hole fires" true (rule_fired mon "bulk.chunk_contiguity")

let test_rule_bulk_completion_requires_all_chunks () =
  let obs, mon = synth () in
  bulk_start obs ~transfer:1 ~total:20;
  Obs.event obs (Event.Bulk_chunk { node = 1; transfer = 1; offset = 0; len = 20; mid = 0 });
  Obs.event obs (Event.Bulk_complete { node = 1; transfer = 1; mid = 0 });
  check_bool "full transfer clean" true (Monitor.clean mon);
  bulk_start obs ~transfer:2 ~total:20;
  Obs.event obs (Event.Bulk_chunk { node = 1; transfer = 2; offset = 0; len = 10; mid = 0 });
  Obs.event obs (Event.Bulk_complete { node = 1; transfer = 2; mid = 0 });
  check_bool "short completion fires" true
    (rule_fired mon "bulk.completion_implies_all_chunks")

let test_rule_bulk_no_progress_after_cancel () =
  let obs, mon = synth () in
  bulk_start obs ~transfer:1 ~total:30;
  Obs.event obs (Event.Bulk_chunk { node = 1; transfer = 1; offset = 0; len = 10; mid = 0 });
  Obs.event obs (Event.Bulk_cancel { node = 0; transfer = 1; mid = 0 });
  check_bool "cancel itself is clean" true (Monitor.clean mon);
  Obs.event obs (Event.Bulk_chunk { node = 1; transfer = 1; offset = 10; len = 10; mid = 0 });
  check_bool "post-cancel chunk fires" true
    (rule_fired mon "bulk.no_progress_after_cancel")

(* --- KKT and bulk live instrumentation --- *)

let traced_kinds obs =
  List.map (fun e -> Event.kind e.Tracer.ev) (Tracer.to_list (Obs.tracer obs))

let test_kkt_events_live () =
  let sim = Sim.create () in
  let topology = Topology.create ~cols:2 ~rows:2 in
  let fabric = Mesh.create ~engine:sim ~topology ~config:Mesh.paragon_config in
  let nics = Array.init 4 (fun node -> Nic.create ~engine:sim ~fabric ~node) in
  let kkt = Kkt.create ~sim () in
  Array.iter (fun nic -> Kkt.attach kkt ~nic) nics;
  let obs = Obs.create ~tracing:true ~sim () in
  Kkt.set_obs kkt obs;
  let mon = Monitor.attach obs in
  Kkt.serve kkt ~node:1 (fun req -> req);
  Sim.spawn sim (fun () ->
      ignore (Kkt.call kkt ~src:0 ~dst:1 (Bytes.create 32) : Bytes.t);
      (* Second call to a node with NO registered handler: the kernel
         replies empty, and the key-validity rule must flag it. *)
      ignore (Kkt.call kkt ~src:0 ~dst:2 (Bytes.create 8) : Bytes.t));
  Sim.run sim;
  let kinds = traced_kinds obs in
  List.iter
    (fun k -> check_bool k true (List.mem k kinds))
    [ "kkt_call"; "kkt_dispatch"; "kkt_reply"; "kkt_complete" ];
  check_bool "invalid key caught live" true (rule_fired mon "kkt.key_validity");
  check_bool "only that rule fired" true
    (List.for_all
       (fun v -> v.Monitor.rule = "kkt.key_validity")
       (Monitor.violations mon))

let test_bulk_events_live () =
  let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
  let obs = Machine.obs machine in
  let mon = Machine.attach_monitor machine in
  let bulk = Bulk.create machine in
  let region = Bulk.export bulk ~node:1 ~len:16384 in
  Machine.spawn_app machine ~node:0 (fun _api ->
      Bulk.put bulk ~from:0 region (Bytes.create 10_000);
      ignore (Bulk.get bulk ~into:0 region ~len:8192 : Bytes.t));
  finish machine;
  let kinds = traced_kinds obs in
  List.iter
    (fun k -> check_bool k true (List.mem k kinds))
    [ "bulk_start"; "bulk_chunk"; "bulk_complete" ];
  check_bool "bulk protocol satisfies its own invariants" true
    (Monitor.clean mon);
  (* Both transfers carry distinct causal mids into their spans. *)
  let bulk_mids =
    List.sort_uniq compare
      (List.filter_map
         (fun e ->
           match e.Tracer.ev with
           | Event.Bulk_start { mid; _ } -> Some mid
           | _ -> None)
         (Tracer.to_list (Obs.tracer obs)))
  in
  check "one mid per transfer" 2 (List.length bulk_mids);
  check_bool "mids stamped" true (List.for_all (fun m -> m > 0) bulk_mids)

let test_bulk_cancel_live () =
  let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
  let obs = Machine.obs machine in
  let mon = Machine.attach_monitor machine in
  let bulk = Bulk.create machine in
  let region = Bulk.export bulk ~node:1 ~len:(256 * 1024) in
  let outcome = ref "no exception" in
  Machine.spawn_app machine ~node:0 (fun _api ->
      try Bulk.put bulk ~from:0 region (Bytes.create (200 * 1024))
      with Invalid_argument m -> outcome := m);
  Machine.spawn_app machine ~node:0 (fun _api ->
      Flipc_sim.Engine.delay (Vtime.us 200);
      Bulk.cancel bulk ~node:0 ~transfer:(Bulk.last_transfer bulk));
  finish machine;
  check_str "put raised the cancel" "Bulk.put: cancelled" !outcome;
  let kinds = traced_kinds obs in
  check_bool "cancel traced" true (List.mem "bulk_cancel" kinds);
  check_bool "streaming started before cancel" true (List.mem "bulk_chunk" kinds);
  check_bool "no chunk after cancel reached the monitor" true (Monitor.clean mon)

(* --- binary trace codec --- *)

let test_codec_event_roundtrip_all () =
  List.iteri
    (fun i ev ->
      let prev_ts = i * 1_000 in
      (* Deltas in both directions: a mid-run attach spills an older
         ring behind already-streamed events, so ts can go backwards. *)
      let ts = if i mod 2 = 0 then prev_ts + 123_456 else prev_ts - 7 in
      let buf = Buffer.create 64 in
      Codec.encode_event buf ~prev_ts ~ts ~pid:i ev;
      let s = Buffer.contents buf in
      match Codec.decode_event s ~pos:0 ~prev_ts with
      | Error e -> Alcotest.fail (Printf.sprintf "%s: %s" (Event.kind ev) e)
      | Ok (r, next) ->
          check_bool (Event.kind ev) true
            (r.Codec.c_ev = ev && r.Codec.c_ts = ts && r.Codec.c_pid = i);
          check "frame consumed exactly" (String.length s) next)
    all_events

(* Arbitrary events across every constructor, with ints spanning the
   full word (max_int/min_int survive the zigzag) and string payloads up
   to 64 KiB. *)
let codec_event_gen =
  let open QCheck.Gen in
  let gi =
    frequency
      [ (6, int_range 0 4096); (1, oneofl [ 0; 1; -1; max_int; min_int ]) ]
  in
  let gs =
    frequency
      [
        (6, small_string ~gen:printable);
        (1, string_size ~gen:printable (return 65_536));
      ]
  in
  let reason =
    oneofl
      [
        Event.No_posted_buffer; Event.Bad_destination; Event.Corrupt_slot;
        Event.Corrupt_frame; Event.Forbidden_destination;
      ]
  in
  let fk =
    oneofl
      [
        Event.Fault_drop; Event.Fault_duplicate; Event.Fault_reorder;
        Event.Fault_jitter; Event.Fault_corrupt;
      ]
  in
  let bop = oneofl [ Event.Bulk_put; Event.Bulk_get ] in
  int_range 0 25 >>= fun k ->
  array_size (return 6) gi >>= fun a ->
  pair gs gs >>= fun (s1, s2) ->
  bool >>= fun b ->
  reason >>= fun reason ->
  fk >>= fun fk ->
  bop >>= fun op ->
  return
    (match k with
    | 0 ->
        Event.Send_enqueued
          { node = a.(0); ep = a.(1); dst_node = a.(2); dst_ep = a.(3); mid = a.(4) }
    | 1 -> Event.Doorbell { node = a.(0); ep = a.(1) }
    | 2 ->
        Event.Engine_tx
          { node = a.(0); ep = a.(1); dst_node = a.(2); dst_ep = a.(3); mid = a.(4) }
    | 3 -> Event.Wire_rx { node = a.(0); ep = a.(1); mid = a.(2) }
    | 4 -> Event.Deposit { node = a.(0); ep = a.(1); mid = a.(2) }
    | 5 -> Event.Recv_dequeued { node = a.(0); ep = a.(1); mid = a.(2) }
    | 6 -> Event.Drop { node = a.(0); ep = a.(1); mid = a.(2); reason }
    | 7 ->
        Event.Frame_tx
          { node = a.(0); ep = a.(1); seq = a.(2); mid = a.(3); retransmit = b }
    | 8 -> Event.Frame_deliver { node = a.(0); ep = a.(1); seq = a.(2); mid = a.(3) }
    | 9 -> Event.Ack_tx { node = a.(0); ep = a.(1); cum = a.(2); sacked = a.(3) }
    | 10 -> Event.Credit_grant { node = a.(0); ep = a.(1); count = a.(2) }
    | 11 ->
        Event.Window_send
          {
            node = a.(0); ep = a.(1); mid = a.(2); sent = a.(3);
            granted = a.(4); window = a.(5);
          }
    | 12 -> Event.Drops_read { node = a.(0); ep = a.(1); count = a.(2) }
    | 13 -> Event.Engine_park { node = a.(0); idle = a.(1) }
    | 14 -> Event.Engine_wake { node = a.(0) }
    | 15 -> Event.Fault { node = a.(0); kind = fk; mid = a.(1) }
    | 16 -> Event.Note { node = a.(0); tag = s1; detail = s2 }
    | 17 ->
        Event.Kkt_call { node = a.(0); dst_node = a.(1); id = a.(2); mid = a.(3) }
    | 18 -> Event.Kkt_dispatch { node = a.(0); id = a.(1); valid = b; mid = a.(2) }
    | 19 ->
        Event.Kkt_reply { node = a.(0); dst_node = a.(1); id = a.(2); mid = a.(3) }
    | 20 -> Event.Kkt_complete { node = a.(0); id = a.(1); mid = a.(2) }
    | 21 ->
        Event.Bulk_start
          {
            node = a.(0); dst_node = a.(1); transfer = a.(2); op;
            total = a.(3); mid = a.(4);
          }
    | 22 ->
        Event.Bulk_chunk
          { node = a.(0); transfer = a.(1); offset = a.(2); len = a.(3); mid = a.(4) }
    | 23 -> Event.Bulk_complete { node = a.(0); transfer = a.(1); mid = a.(2) }
    | 24 -> Event.Bulk_cancel { node = a.(0); transfer = a.(1); mid = a.(2) }
    | _ -> Event.Alert_fired { node = a.(0); rule = s1; detail = s2 })

let codec_roundtrip_prop =
  QCheck.Test.make ~name:"codec: decode-of-encode identity" ~count:300
    (QCheck.make
       ~print:(fun (ev, prev_ts, delta, pid) ->
         Printf.sprintf "%s prev_ts=%d delta=%d pid=%d" (Event.kind ev)
           prev_ts delta pid)
       QCheck.Gen.(
         codec_event_gen >>= fun ev ->
         int_range 0 (1 lsl 40) >>= fun prev_ts ->
         int_range (-1_000_000) 1_000_000 >>= fun delta ->
         int_range 0 255 >>= fun pid -> return (ev, prev_ts, delta, pid)))
    (fun (ev, prev_ts, delta, pid) ->
      let ts = prev_ts + delta in
      let buf = Buffer.create 64 in
      Codec.encode_event buf ~prev_ts ~ts ~pid ev;
      match Codec.decode_event (Buffer.contents buf) ~pos:0 ~prev_ts with
      | Error _ -> false
      | Ok (r, next) ->
          r.Codec.c_ev = ev && r.Codec.c_ts = ts && r.Codec.c_pid = pid
          && next = Buffer.length buf)

let test_codec_rejects_corrupt () =
  (* Every strict prefix of a valid frame must fail, never mis-decode:
     the length prefix and the strict varint/string readers catch any
     cut point. *)
  let ev = Event.Note { node = 3; tag = "tag"; detail = "detail" } in
  let buf = Buffer.create 64 in
  Codec.encode_event buf ~prev_ts:0 ~ts:42 ~pid:1 ev;
  let s = Buffer.contents buf in
  for len = 0 to String.length s - 1 do
    match Codec.decode_event (String.sub s 0 len) ~pos:0 ~prev_ts:0 with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "decoded a %d-byte prefix" len)
  done;
  (* An unknown constructor tag. The frame layout is frozen (format
     version 1): len byte, opcode, pid, ts delta, tag at offset 4. *)
  let tagless = Bytes.of_string s in
  Bytes.set tagless 4 '\xff';
  (match Codec.decode_event (Bytes.to_string tagless) ~pos:0 ~prev_ts:0 with
  | Error e -> check_bool "unknown tag reported" true (contains ~needle:"tag" e)
  | Ok _ -> Alcotest.fail "accepted an unknown event tag")

let test_codec_file_roundtrip_and_errors () =
  let path = Filename.temp_file "flipc_flight" ".ftrace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let oc = open_out_bin path in
  let e = Codec.to_channel oc in
  Codec.write_meta e [ ("source", Json.String "test") ];
  List.iteri
    (fun i ev -> Codec.write_event e ~now:(Vtime.us i) ~pid:(i mod 3) ev)
    all_events;
  Codec.write_trailer e
    ~machines:[ (0, "m0"); (2, "m2") ]
    ~summary:(Some (Json.Obj [ ("ok", Json.Bool true) ]));
  close_out oc;
  (match Codec.read_file path with
  | Error e -> Alcotest.fail e
  | Ok d ->
      check_bool "meta" true (d.Codec.d_meta = [ ("source", Json.String "test") ]);
      check "records" (List.length all_events) (List.length d.Codec.d_records);
      check_bool "events identical, in order" true
        (List.map (fun r -> r.Codec.c_ev) d.Codec.d_records = all_events);
      check_bool "delta-coded timestamps recovered" true
        (List.mapi (fun i _ -> Vtime.us i) all_events
        = List.map (fun r -> r.Codec.c_ts) d.Codec.d_records);
      check_bool "pids recovered" true
        (List.mapi (fun i _ -> i mod 3) all_events
        = List.map (fun r -> r.Codec.c_pid) d.Codec.d_records);
      check_bool "machines" true (d.Codec.d_machines = [ (0, "m0"); (2, "m2") ]);
      check_bool "summary" true
        (d.Codec.d_summary = Some (Json.Obj [ ("ok", Json.Bool true) ])));
  let s = read_whole path in
  rewrite path (String.sub s 0 (String.length s - 1));
  (match Codec.read_file path with
  | Error e -> check_bool "truncation reported" true (contains ~needle:"truncated" e)
  | Ok _ -> Alcotest.fail "accepted a truncated capture");
  rewrite path (s ^ "\x07garbage");
  (match Codec.read_file path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted trailing garbage");
  rewrite path ("FTRC\x63" ^ String.sub s 5 (String.length s - 5));
  (match Codec.read_file path with
  | Error e -> check_bool "version mismatch reported" true (contains ~needle:"version" e)
  | Ok _ -> Alcotest.fail "accepted a future binary version");
  rewrite path ("NOPE" ^ String.sub s 4 (String.length s - 4));
  match Codec.read_file path with
  | Error e -> check_bool "magic reported" true (contains ~needle:"magic" e)
  | Ok _ -> Alcotest.fail "accepted a capture without magic"

(* A capture of a live run holds exactly the machine's ring — same
   records, spans and label — and is at least 4x smaller than its
   JSON-lines rendering. *)
let test_capture_matches_live_ring () =
  with_temp_trace @@ fun path ->
  let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
  let obs = Machine.obs machine in
  Tracer.enable (Obs.tracer obs);
  let sink = Sink.create ~path () in
  Sink.attach sink obs;
  ignore
    (Pingpong.run ~machine ~node_a:0 ~node_b:1 ~payload_bytes:64 ~exchanges:40
       ()
      : Pingpong.result);
  Sink.close sink;
  check "ring kept every event" 0 (Tracer.dropped (Obs.tracer obs));
  check "sink saw every event" (Tracer.length (Obs.tracer obs))
    (Sink.events_written sink);
  match Replay.load path with
  | Error e -> Alcotest.fail e
  | Ok capture ->
      let flat c =
        List.map
          (fun r -> (r.Replay.r_ts, r.Replay.r_pid, r.Replay.r_ev))
          (Replay.records c)
      in
      check_bool "identical record streams" true
        (flat capture = flat (Replay.of_obs obs));
      check_bool "identical span digests" true
        (span_digest (Replay.spans capture) = span_digest (Causal.spans [ obs ]));
      check_bool "machine label" true
        (Replay.machines capture = [ (Obs.id obs, Obs.label obs) ]);
      let rendered =
        List.fold_left
          (fun n line -> n + String.length line + 1)
          0 (Replay.jsonl capture)
      in
      check_bool "binary at least 4x smaller than its rendering" true
        (4 * file_size path <= rendered)

(* --- alert rules over series windows --- *)

let rules_doc =
  Json.Obj
    [
      ( "rules",
        Json.List
          [
            Json.Obj
              [
                ("name", Json.String "tx-band");
                ("kind", Json.String "rate_band");
                ("counter", Json.String "tx.frames");
                ("min", Json.Float 100.);
                ("max", Json.Float 1000.);
              ];
            Json.Obj
              [
                ("name", Json.String "no-drops");
                ("kind", Json.String "counter_zero");
                ("counter", Json.String "rx.drops");
              ];
            Json.Obj
              [
                ("name", Json.String "p99-slo");
                ("kind", Json.String "quantile_ceiling");
                ("histo", Json.String "lat.us");
                ("q", Json.String "p99");
                ("ceiling", Json.Float 50.);
              ];
          ] );
    ]

let test_alert_rules_parse () =
  (match Alert.rules_of_json rules_doc with
  | Error e -> Alcotest.fail e
  | Ok rules ->
      check "three rules" 3 (List.length rules);
      check_bool "names kept in order" true
        (List.map (fun r -> r.Alert.r_name) rules
        = [ "tx-band"; "no-drops"; "p99-slo" ]));
  List.iter
    (fun (what, doc) ->
      match Alert.rules_of_json doc with
      | Ok _ -> Alcotest.fail ("accepted " ^ what)
      | Error e ->
          check_bool (what ^ " names the rule") true
            (contains ~needle:"rule" e || contains ~needle:"rules" e))
    [
      ("no rules list", Json.Obj [ ("rules", Json.Int 3) ]);
      ( "unknown kind",
        Json.Obj
          [
            ( "rules",
              Json.List
                [
                  Json.Obj
                    [ ("name", Json.String "x"); ("kind", Json.String "nope") ];
                ] );
          ] );
      ( "rate_band without bounds",
        Json.Obj
          [
            ( "rules",
              Json.List
                [
                  Json.Obj
                    [
                      ("name", Json.String "x");
                      ("kind", Json.String "rate_band");
                      ("counter", Json.String "c");
                    ];
                ] );
          ] );
    ]

let window ~counters ~gauges ~histos =
  Json.Obj
    [
      ("start_ns", Json.Int 0);
      ("end_ns", Json.Int 1_000_000);
      ("counters", Json.Obj counters);
      ("gauges", Json.Obj gauges);
      ("histos", Json.Obj histos);
    ]

let counter_entry ~delta ~rate =
  Json.Obj [ ("delta", Json.Int delta); ("rate_per_s", Json.Float rate) ]

let histo_entry ~count_delta ~p99 =
  Json.Obj [ ("count_delta", Json.Int count_delta); ("p99", Json.Float p99) ]

let test_alert_eval_window () =
  let rules =
    match Alert.rules_of_json rules_doc with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let names w = List.map (fun f -> f.Alert.a_rule) (Alert.eval_window ~rules w) in
  (* All quiet: rate inside the band, drops zero, p99 under the SLO. *)
  check_bool "clean window" true
    (names
       (window
          ~counters:
            [
              ("tx.frames", counter_entry ~delta:500 ~rate:500.);
              ("rx.drops", counter_entry ~delta:0 ~rate:0.);
            ]
          ~gauges:[]
          ~histos:[ ("lat.us", histo_entry ~count_delta:10 ~p99:20.) ])
    = []);
  (* Rate below the band and a nonzero drop delta. *)
  check_bool "low rate + drops fire" true
    (names
       (window
          ~counters:
            [
              ("tx.frames", counter_entry ~delta:3 ~rate:3.);
              ("rx.drops", counter_entry ~delta:2 ~rate:2.);
            ]
          ~gauges:[] ~histos:[])
    = [ "tx-band"; "no-drops" ]);
  (* Quantile over the ceiling fires; with count_delta = 0 the stale
     quantile is skipped. *)
  check_bool "p99 breach fires" true
    (names
       (window ~counters:[] ~gauges:[]
          ~histos:[ ("lat.us", histo_entry ~count_delta:5 ~p99:99.) ])
    = [ "p99-slo" ]);
  check_bool "stale quantile skipped" true
    (names
       (window ~counters:[] ~gauges:[]
          ~histos:[ ("lat.us", histo_entry ~count_delta:0 ~p99:99.) ])
    = []);
  (* Absent counter: rate_band skips, but a counter_zero rule falls back
     to the gauges (engine probes export that way). *)
  check_bool "gauge fallback fires counter_zero" true
    (names
       (window ~counters:[]
          ~gauges:[ ("rx.drops", Json.Float 4.) ]
          ~histos:[])
    = [ "no-drops" ]);
  check_bool "zero gauge stays quiet" true
    (names
       (window ~counters:[] ~gauges:[ ("rx.drops", Json.Int 0) ] ~histos:[])
    = [])

(* Live: an attached alert engine fires into the event stream, so the
   firing lands in the trace ring and in any capture. *)
let test_alert_attach_fires_into_trace () =
  let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
  let obs = Machine.obs machine in
  Tracer.enable (Obs.tracer obs);
  let rules =
    match
      Alert.rules_of_json
        (Json.Obj
           [
             ( "rules",
               Json.List
                 [
                   Json.Obj
                     [
                       ("name", Json.String "sends-happened");
                       ("kind", Json.String "counter_zero");
                       ("counter", Json.String "node0.engine.sends");
                     ];
                   Json.Obj
                     [
                       ("name", Json.String "no-corruption");
                       ("kind", Json.String "counter_zero");
                       ("counter", Json.String "node0.engine.corrupt_frames");
                     ];
                 ] );
           ])
    with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let a = Alert.attach ~rules ~interval:(Vtime.us 100) obs in
  ignore
    (Pingpong.run ~machine ~node_a:0 ~node_b:1 ~payload_bytes:64 ~exchanges:40
       ()
      : Pingpong.result);
  Alert.sample a;
  let fired = Alert.fired a in
  check_bool "the tripwire trips" true (fired <> []);
  check_bool "only the expected rule" true
    (List.for_all (fun f -> f.Alert.a_rule = "sends-happened") fired);
  check_bool "clean rule is clean" false (Alert.clean a);
  let alert_kinds =
    List.filter (fun k -> k = "alert_fired") (traced_kinds obs)
  in
  check "every firing entered the event stream" (List.length fired)
    (List.length alert_kinds)

(* --- cross-run capture diffing --- *)

(* Two synthetic captures: the candidate drops one extra flow and emits
   an orphan KKT completion (a monitor violation the baseline lacks). *)
let write_synthetic_capture path ~flows ~dropped ~orphan =
  let sim = Sim.create () in
  let obs = Obs.create ~tracing:true ~sim () in
  let sink = Sink.create ~path () in
  Sink.attach sink obs;
  for mid = 1 to flows do
    emit_flow obs ~mid ~dropped:(List.mem mid dropped)
  done;
  if orphan then
    Obs.event obs (Event.Kkt_complete { node = 0; id = 99; mid = 0 });
  Sink.close sink

let test_diff_finds_added_violation () =
  with_temp_trace @@ fun base_path ->
  with_temp_trace @@ fun cand_path ->
  write_synthetic_capture base_path ~flows:6 ~dropped:[ 2 ] ~orphan:false;
  write_synthetic_capture cand_path ~flows:6 ~dropped:[ 2; 5 ] ~orphan:true;
  match (Replay.load base_path, Replay.load cand_path) with
  | Error e, _ | _, Error e -> Alcotest.fail e
  | Ok base, Ok cand ->
      let d = Diff.compare_runs ~base ~cand in
      check "orphan completion is the one regression" 1 (Diff.regressions d);
      let text = Format.asprintf "%a" Diff.pp d in
      check_bool "report names the added violation" true
        (contains ~needle:"ADDED" text
        && contains ~needle:"kkt.no_reply_without_request" text);
      (* The reverse comparison sees it as removed, not added. *)
      let r = Diff.compare_runs ~base:cand ~cand:base in
      check "reverse direction is clean" 0 (Diff.regressions r);
      (match Diff.json d with
      | Json.Obj fields ->
          check_bool "json carries the gate counter" true
            (List.assoc_opt "violations_added" fields = Some (Json.Int 1))
      | j -> Alcotest.fail ("diff json not an object: " ^ Json.to_string j));
      (* Same capture against itself: fully clean, zero deltas. *)
      let s = Diff.compare_runs ~base ~cand:base in
      check "self-diff has no regressions" 0 (Diff.regressions s);
      let self_text = Format.asprintf "%a" Diff.pp s in
      check_bool "self-diff reports no violation change" true
        (contains ~needle:"no change" self_text)

(* The diff's stage rows are the Latency fold over each capture: one
   row per stage, each carrying the quantiles Latency.feed gives the
   same records. *)
let test_diff_stage_rows_are_the_fold () =
  with_temp_trace @@ fun path ->
  let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
  let sink = Sink.create ~path () in
  Sink.attach sink (Machine.obs machine);
  ignore
    (Pingpong.run ~machine ~node_a:0 ~node_b:1 ~payload_bytes:64 ~exchanges:20
       ()
      : Pingpong.result);
  Sink.close sink;
  match Replay.load path with
  | Error e -> Alcotest.fail e
  | Ok capture ->
      let lat = Latency.create () in
      Latency.feed lat (Replay.records capture);
      let rows =
        let d = Diff.compare_runs ~base:capture ~cand:capture in
        match Json.member "stages" (Diff.json d) with
        | Some (Json.List rows) -> rows
        | _ -> Alcotest.fail "diff json has no stage rows"
      in
      check "one row per stage" (List.length Latency.all_stages)
        (List.length rows);
      List.iter2
        (fun stage row ->
          let name = Latency.stage_name stage in
          match Latency.stage_summary lat stage with
          | None -> Alcotest.fail (name ^ ": no samples")
          | Some s ->
              check_bool (name ^ " row = fold") true
                (Json.member "stage" row = Some (Json.String name)
                && Json.member "base_p50_us" row = Some (Json.Float s.Summary.p50)
                && Json.member "cand_p50_us" row = Some (Json.Float s.Summary.p50)
                && Json.member "base_p99_us" row = Some (Json.Float s.Summary.p99)
                && Json.member "cand_p99_us" row = Some (Json.Float s.Summary.p99)))
        Latency.all_stages rows

(* --- time-series tap and Prometheus exposition --- *)

let test_series_windows () =
  let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
  let obs = Machine.obs machine in
  let series = Series.attach ~interval:(Vtime.us 50) obs in
  ignore
    (Pingpong.run ~machine ~node_a:0 ~node_b:1 ~payload_bytes:64 ~exchanges:40
       ()
      : Pingpong.result);
  Series.sample series;
  check_bool "windows sampled" true (Series.window_count series > 1);
  match Series.json series with
  | Json.List windows ->
      check "json matches count" (Series.window_count series)
        (List.length windows);
      let bound name w =
        match Option.bind (Json.member name w) Json.to_int with
        | Some v -> v
        | None -> Alcotest.fail (name ^ " missing from window")
      in
      let last = List.length windows - 1 in
      List.iteri
        (fun i w ->
          check_bool "window has positive width" true
            (bound "end_ns" w > bound "start_ns" w);
          (* Interior windows close on interval boundaries; only the
             final one is cut short where the run ended. *)
          if i < last then
            check_bool "window is interval-aligned" true
              ((bound "end_ns" w - bound "start_ns" w) mod 50_000 = 0);
          check_bool "window has sections" true
            (Json.member "counters" w <> None
            && Json.member "gauges" w <> None
            && Json.member "histos" w <> None))
        windows
  | j -> Alcotest.fail ("series json not a list: " ^ Json.to_string j)

let test_prom_exposition () =
  let m = Metrics.create () in
  Metrics.incr ~by:3 (Metrics.counter m "node0.engine.tx-frames");
  Metrics.set (Metrics.gauge m "queue.depth") 4.5;
  let h = Metrics.histogram m "lat.us" in
  List.iter (Metrics.observe h) [ 1.; 2.; 3. ];
  let text = Series.prom_of_snapshot (Metrics.snapshot m) in
  List.iter
    (fun needle -> check_bool needle true (contains ~needle text))
    [
      "# TYPE flipc_node0_engine_tx_frames counter";
      "flipc_node0_engine_tx_frames 3";
      "# TYPE flipc_queue_depth gauge";
      "flipc_queue_depth 4.5";
      "# TYPE flipc_lat_us summary";
      "flipc_lat_us{quantile=\"0.99\"}";
      "flipc_lat_us_count 3";
      "flipc_lat_us_sum 6";
    ]

let () =
  Alcotest.run "flight"
    [
      ( "json-parser",
        [
          Alcotest.test_case "print/parse roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "hand-written forms and errors" `Quick
            test_json_parse_forms;
          Alcotest.test_case "member accessors" `Quick test_json_member_accessors;
        ] );
      ( "sketch",
        [
          Alcotest.test_case "10^6-observation soak" `Slow
            test_sketch_soak_million;
          Alcotest.test_case "metrics histogram soak" `Slow
            test_metrics_histogram_million;
        ] );
      ( "events",
        [
          Alcotest.test_case "capture renders as JSON lines" `Quick
            test_capture_rendering;
        ] );
      ( "capture-replay",
        [
          Alcotest.test_case "live run replays identically" `Quick
            test_capture_replay_live_run;
          Alcotest.test_case "capture outlives ring truncation" `Quick
            test_capture_survives_ring_truncation;
          Alcotest.test_case "mid-run attach" `Quick test_capture_mid_run_attach;
          QCheck_alcotest.to_alcotest capture_replay_prop;
          Alcotest.test_case "rejects garbage" `Quick test_replay_rejects_garbage;
          Alcotest.test_case "sink ignores the file name" `Quick
            test_sink_ignores_file_name;
        ] );
      ( "verdicts",
        [
          Alcotest.test_case "corrupt discard names the wire stage" `Quick
            test_corrupt_stalled_stage;
        ] );
      ( "kkt-bulk-rules",
        [
          Alcotest.test_case "kkt slot reuse" `Quick test_rule_kkt_slot_reuse;
          Alcotest.test_case "kkt key validity" `Quick test_rule_kkt_key_validity;
          Alcotest.test_case "kkt orphan completion" `Quick
            test_rule_kkt_no_reply_without_request;
          Alcotest.test_case "bulk chunk contiguity" `Quick
            test_rule_bulk_contiguity;
          Alcotest.test_case "bulk completion needs all chunks" `Quick
            test_rule_bulk_completion_requires_all_chunks;
          Alcotest.test_case "bulk progress after cancel" `Quick
            test_rule_bulk_no_progress_after_cancel;
        ] );
      ( "live-instrumentation",
        [
          Alcotest.test_case "kkt rpc lifecycle traced" `Quick
            test_kkt_events_live;
          Alcotest.test_case "bulk transfers traced" `Quick test_bulk_events_live;
          Alcotest.test_case "bulk cancel" `Quick test_bulk_cancel_live;
        ] );
      ( "binary-codec",
        [
          Alcotest.test_case "event frame roundtrip, all constructors" `Quick
            test_codec_event_roundtrip_all;
          QCheck_alcotest.to_alcotest codec_roundtrip_prop;
          Alcotest.test_case "rejects truncation and unknown tags" `Quick
            test_codec_rejects_corrupt;
          Alcotest.test_case "file roundtrip, trailer, and errors" `Quick
            test_codec_file_roundtrip_and_errors;
          Alcotest.test_case "capture = live ring" `Quick
            test_capture_matches_live_ring;
        ] );
      ( "alerts",
        [
          Alcotest.test_case "rule grammar parses and rejects" `Quick
            test_alert_rules_parse;
          Alcotest.test_case "window evaluation" `Quick test_alert_eval_window;
          Alcotest.test_case "attached engine fires into the trace" `Quick
            test_alert_attach_fires_into_trace;
        ] );
      ( "diff",
        [
          Alcotest.test_case "added violation is a regression" `Quick
            test_diff_finds_added_violation;
          Alcotest.test_case "stage rows are the latency fold" `Quick
            test_diff_stage_rows_are_the_fold;
        ] );
      ( "series",
        [
          Alcotest.test_case "windowed sampling" `Quick test_series_windows;
          Alcotest.test_case "prometheus exposition" `Quick test_prom_exposition;
        ] );
    ]
