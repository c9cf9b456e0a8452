(* Benchmark harness: regenerates every table and figure of the FLIPC
   paper's evaluation (see DESIGN.md's experiment index), plus a Bechamel
   micro-benchmark suite over the hot data-structure operations.

   Usage:
     dune exec bench/main.exe              run everything
     dune exec bench/main.exe -- fig4 ...  run selected experiments
     dune exec bench/main.exe -- list      list experiment ids

   Absolute numbers come from the calibrated simulator (DESIGN.md); the
   load-bearing claim is the SHAPE: who wins, by what factor, where the
   crossovers fall. Each table prints the paper's value next to ours. *)

module Config = Flipc.Config
module Machine = Flipc.Machine
module Pingpong = Flipc_workload.Pingpong
module Streams = Flipc_workload.Streams
module Rpc = Flipc_workload.Rpc
module Stackflow = Flipc_workload.Stackflow
module Nx = Flipc_baselines.Nx
module Pam = Flipc_baselines.Pam
module Sunmos = Flipc_baselines.Sunmos
module Summary = Flipc_stats.Summary
module Regression = Flipc_stats.Regression
module Table = Flipc_stats.Table

let exchanges = 300

(* ------------------------------------------------------------------ *)
(* Machine-readable results: selected experiments write a               *)
(* BENCH_<name>.json next to the human tables so regressions can be     *)
(* diffed without screen-scraping.                                      *)

module Json = Flipc_obs.Json

let summary_fields = Flipc_obs.Metrics.summary_fields ~suffix:"_us"

let write_bench_json name fields =
  let file = Printf.sprintf "BENCH_%s.json" name in
  Json.to_file file (Json.Obj (("experiment", Json.String name) :: fields));
  Fmt.pr "wrote %s@.@." file

(* A positive integer from an environment override, or exit 2 naming the
   variable. *)
let positive_int ~var s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> n
  | _ ->
      Fmt.epr "bench: %s must hold positive integers (got %S)@." var s;
      exit 2

(* ------------------------------------------------------------------ *)
(* FIG4: message latency vs size for optimized FLIPC on the mesh.      *)

let paper_fig4_line bytes = 15.45 +. (0.00625 *. float_of_int bytes)

let fig4 () =
  let sizes = [ 64; 96; 128; 160; 192; 224; 256 ] in
  let t =
    Table.create ~title:"FIG4: FLIPC one-way latency vs message size"
      [ "msg bytes"; "latency us"; "stddev"; "paper line us" ]
  in
  let results =
    List.map
      (fun msg_bytes ->
        let r =
          Pingpong.measure ~payload_bytes:(msg_bytes - Config.header_bytes)
            ~exchanges ()
        in
        Table.add_row t
          [
            Table.cell_i msg_bytes;
            Table.cell_us r.Pingpong.aggregate_one_way_us;
            Table.cell_us r.Pingpong.one_way.Summary.stddev;
            Table.cell_us (paper_fig4_line msg_bytes);
          ];
        (msg_bytes, r))
      sizes
  in
  let points =
    List.map
      (fun (b, r) -> (float_of_int b, r.Pingpong.aggregate_one_way_us))
      results
  in
  Table.print t;
  let fit = Regression.linear points in
  let slope_ns = fit.Regression.slope *. 1000. in
  Fmt.pr "fit:   latency = %.2fus + %.3fns/byte   (r2=%.4f)@."
    fit.Regression.intercept slope_ns fit.Regression.r2;
  Fmt.pr "paper: latency = 15.45us + 6.250ns/byte  (sizes >= 96B)@.";
  Fmt.pr "implied interconnect use: %.0f MB/s (paper: >150 MB/s on 200 MB/s links)@.@."
    (1000. /. slope_ns);
  write_bench_json "fig4"
    [
      ("workload", Json.String "pingpong");
      ("fabric", Json.String "mesh 4x4");
      ("exchanges", Json.Int exchanges);
      ( "points",
        Json.List
          (List.map
             (fun (msg_bytes, r) ->
               Json.Obj
                 (("paper_line_us", Json.Float (paper_fig4_line msg_bytes))
                 :: Pingpong.result_fields r))
             results) );
      ("fit_intercept_us", Json.Float fit.Regression.intercept);
      ("fit_slope_ns_per_byte", Json.Float slope_ns);
      ("fit_r2", Json.Float fit.Regression.r2);
    ]

(* ------------------------------------------------------------------ *)
(* TAB-CMP: 120-byte latency, FLIPC vs NX, PAM, SUNMOS.                *)

let compare () =
  let flipc =
    (Pingpong.measure ~payload_bytes:120 ~exchanges ()).Pingpong
    .aggregate_one_way_us
  in
  let pam = Pam.one_way_latency_us ~payload_bytes:120 ~exchanges () in
  let sunmos = Sunmos.one_way_latency_us ~payload_bytes:120 ~exchanges () in
  let nx = Nx.one_way_latency_us ~payload_bytes:120 ~exchanges () in
  let t =
    Table.create ~title:"TAB-CMP: 120-byte message latency on the Paragon"
      [ "system"; "latency us"; "paper us"; "vs FLIPC" ]
  in
  let row name v paper =
    Table.add_row t
      [ name; Table.cell_us v; paper; Fmt.str "%.2fx" (v /. flipc) ]
  in
  row "FLIPC" flipc "16.2";
  row "PAM" pam "26";
  row "SUNMOS" sunmos "28";
  row "NX (R1.3.2)" nx "46";
  Table.print t;
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* ABL-CACHE: the 2x2 lock x layout ablation.                          *)

let cache_ablation () =
  let t =
    Table.create
      ~title:"ABL-CACHE: cache-optimization ablation (120-byte messages)"
      [ "variant"; "latency us"; "stddev"; "delta us" ]
  in
  let measure lock_mode layout_mode =
    let config = { Config.default with Config.lock_mode; layout_mode } in
    (Pingpong.measure ~config ~payload_bytes:120 ~exchanges ()).Pingpong
      .one_way
  in
  let optimized = measure Config.Lock_free Config.Padded in
  let row name (s : Summary.t) =
    Table.add_row t
      [
        name;
        Table.cell_us s.Summary.mean;
        Table.cell_us s.Summary.stddev;
        Fmt.str "+%.2f" (s.Summary.mean -. optimized.Summary.mean);
      ]
  in
  row "lock-free + padded   (tuned)" optimized;
  row "lock-free + packed" (measure Config.Lock_free Config.Packed);
  row "locked    + padded" (measure Config.Test_and_set Config.Padded);
  let worst = measure Config.Test_and_set Config.Packed in
  row "locked    + packed (original)" worst;
  Table.print t;
  Fmt.pr
    "combined improvement: %.1fus, factor %.2fx   (paper: ~15us, \"almost a \
     factor of two\")@.@."
    (worst.Summary.mean -. optimized.Summary.mean)
    (worst.Summary.mean /. optimized.Summary.mean)

(* ------------------------------------------------------------------ *)
(* ABL-CHECKS: engine validity checks.                                 *)

let validity () =
  let measure validity_checks =
    let config = { Config.default with Config.validity_checks } in
    (Pingpong.measure ~config ~payload_bytes:120 ~exchanges ()).Pingpong
      .aggregate_one_way_us
  in
  let off = measure false and on = measure true in
  let t =
    Table.create ~title:"ABL-CHECKS: engine validity checks (120-byte messages)"
      [ "configuration"; "latency us" ]
  in
  Table.add_row t [ "checks off"; Table.cell_us off ];
  Table.add_row t [ "checks on"; Table.cell_us on ];
  Table.print t;
  Fmt.pr "cost of checks: +%.2fus   (paper: +2us)@.@." (on -. off)

(* ------------------------------------------------------------------ *)
(* TRANSIENT: short runs vs steady state.                              *)

let transient () =
  let t =
    Table.create
      ~title:"TRANSIENT: cache start-up transient (120-byte messages)"
      [ "exchanges"; "latency us"; "vs steady us" ]
  in
  let steady =
    (Pingpong.measure ~payload_bytes:120 ~exchanges:512 ~warmup:0 ()).Pingpong
    .aggregate_one_way_us
  in
  List.iter
    (fun n ->
      let r = Pingpong.measure ~payload_bytes:120 ~exchanges:n ~warmup:0 () in
      Table.add_row t
        [
          Table.cell_i n;
          Table.cell_us r.Pingpong.aggregate_one_way_us;
          Fmt.str "%+.2f" (r.Pingpong.aggregate_one_way_us -. steady);
        ])
    [ 4; 16; 64; 256; 512 ];
  Table.print t;
  Fmt.pr
    "paper: small exchange counts are ~3us faster than steady state (cold@.\
     caches see plain misses where the steady state pays dirty-line@.\
     transfers); under the doorbell engine the reproduction measures@.\
     +0.55us at 4 exchanges, the opposite sign — see EXPERIMENTS.md.@.@."

(* ------------------------------------------------------------------ *)
(* PAM-SMALL: very small messages, where PAM wins.                     *)

let pam_small () =
  let t =
    Table.create ~title:"PAM-SMALL: 20-byte application messages"
      [ "system"; "latency us"; "paper" ]
  in
  let flipc20 =
    (Pingpong.measure ~payload_bytes:20 ~exchanges ()).Pingpong
    .aggregate_one_way_us
  in
  let pam20 = Pam.one_way_latency_us ~payload_bytes:20 ~exchanges () in
  Table.add_row t [ "PAM (28B packets)"; Table.cell_us pam20; "<10" ];
  Table.add_row t
    [ "FLIPC (64B min message)"; Table.cell_us flipc20; "~a third slower" ];
  Table.print t;
  Fmt.pr "PAM advantage at 20B: %.0f%%   (paper: \"about a third faster\")@.@."
    ((flipc20 -. pam20) /. flipc20 *. 100.)

(* ------------------------------------------------------------------ *)
(* KKT-PORT: the portable KKT engine on all three platforms.           *)

let kkt_port () =
  let t =
    Table.create
      ~title:"KKT-PORT: native vs KKT (RPC-per-message) engines, 120 bytes"
      [ "engine / platform"; "latency us"; "vs native mesh" ]
  in
  let native =
    (Pingpong.measure ~payload_bytes:120 ~exchanges ()).Pingpong
    .aggregate_one_way_us
  in
  (* One engine on one of the two-node fabrics, with its cost model. *)
  let on make fabric =
    let { Stackflow.kind; cost; _ } =
      List.assoc fabric Stackflow.two_node_fabrics
    in
    (Pingpong.run ~machine:(make ~cost kind ()) ~node_a:0 ~node_b:1
       ~payload_bytes:120 ~exchanges:100 ())
      .Pingpong
      .aggregate_one_way_us
  in
  let kkt_on = on (fun ~cost kind -> Flipc_kkt.Kkt_flipc.machine ~cost kind) in
  let native_on = on (fun ~cost kind -> Machine.create ~cost kind) in
  let row name v =
    Table.add_row t [ name; Table.cell_us v; Fmt.str "%.1fx" (v /. native) ]
  in
  row "native / Paragon mesh" native;
  row "KKT / Paragon mesh" (kkt_on "mesh");
  row "native / SCSI cluster" (native_on "scsi");
  row "KKT / SCSI cluster" (kkt_on "scsi");
  row "native / Ethernet cluster" (native_on "ethernet");
  row "KKT / Ethernet cluster" (kkt_on "ethernet");
  Table.print t;
  Fmt.pr
    "same library + communication buffer on all platforms (the paper's@.\
     development strategy); the RPC transport shows why it \"is not a good@.\
     match to the one way messages used by FLIPC\".@.@."

(* ------------------------------------------------------------------ *)
(* DROP-FLOW: discards, window flow control, static provisioning.      *)

let flow () =
  (* Overloaded producer vs slow consumer, without flow control. *)
  let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
  let unprotected =
    Streams.run ~machine ~node_src:0 ~node_dst:1
      ~until:(Flipc_sim.Vtime.ms 30)
      [
        Streams.make ~name:"burst" ~priority:1 ~period_ns:10_000 ~count:2_000
          ~recv_buffers:2 ~consume_ns:60_000 ();
      ]
  in
  let t =
    Table.create
      ~title:"DROP-FLOW: optimistic discards and the layers above FLIPC"
      [ "scenario"; "sent"; "delivered"; "discarded" ]
  in
  (match unprotected with
  | [ r ] ->
      Table.add_row t
        [
          "overload, no flow control";
          Table.cell_i r.Streams.sent;
          Table.cell_i r.Streams.delivered;
          Table.cell_i r.Streams.dropped;
        ]
  | _ -> ());
  (* The RPC workload uses the static client-count rule: zero discards. *)
  let machine2 = Machine.create (Machine.Mesh { cols = 4; rows = 4 }) () in
  let rpc =
    Rpc.run ~machine:machine2 ~server_node:5 ~client_nodes:[ 0; 3; 12; 15 ]
      ~requests_per_client:50 ~server_work_ns:2_000 ()
  in
  Table.add_row t
    [
      "RPC, static provisioning";
      Table.cell_i rpc.Rpc.requests;
      Table.cell_i rpc.Rpc.replies;
      Table.cell_i rpc.Rpc.server_drops;
    ];
  Table.print t;
  Fmt.pr
    "both rows run without runtime flow control; the credit-window layer@.\
     (Flipc_flow.Window_layer) is the runtime alternative, run by@.\
     `flipc stack --stack window`.@.@."

(* ------------------------------------------------------------------ *)
(* BW-SLOPE: bandwidth story.                                          *)

let bandwidth () =
  let sizes = [ 64; 128; 256 ] in
  let points =
    List.map
      (fun msg ->
        let r =
          Pingpong.measure ~payload_bytes:(msg - Config.header_bytes)
            ~exchanges:200 ()
        in
        (float_of_int msg, r.Pingpong.aggregate_one_way_us))
      sizes
  in
  let fit = Regression.linear points in
  let flipc_bw = 1000. /. (fit.Regression.slope *. 1000.) in
  let t =
    Table.create ~title:"BW-SLOPE: interconnect bandwidth use"
      [ "system"; "MB/s"; "paper MB/s"; "how" ]
  in
  Table.add_row t
    [
      "FLIPC (per-message slope)";
      Table.cell_f ~decimals:0 flipc_bw;
      ">150";
      "1 / latency slope";
    ];
  Table.add_row t
    [
      "SUNMOS (4MB stream)";
      Table.cell_f ~decimals:0 (Sunmos.bandwidth_mb_s ~bytes:4_000_000 ());
      "~160 (best software)";
      "single-packet stream";
    ];
  Table.add_row t
    [
      "NX (4MB stream)";
      Table.cell_f ~decimals:0 (Nx.bandwidth_mb_s ~bytes:4_000_000 ());
      ">140";
      "rendezvous + DMA";
    ];
  Table.add_row t
    [
      "PAM bulk (1MB put)";
      Table.cell_f ~decimals:0 (Pam.bulk_bandwidth_mb_s ~bytes:1_000_000 ());
      "n/a";
      "remote memory write";
    ];
  Table.add_row t [ "hardware peak"; "200"; "200"; "link rate" ];
  Table.print t;
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* RT-PRIO: priority/resource isolation.                               *)

let rt_isolation () =
  let run_with_interference interference =
    let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
    let specs =
      Streams.make ~name:"high" ~priority:10 ~period_ns:100_000 ~count:300
        ~recv_buffers:8 ~consume_ns:8_000 ~deadline_ns:100_000 ()
      ::
      (if interference then
         [
           Streams.make ~name:"low" ~priority:1 ~period_ns:10_000 ~count:3_000
             ~recv_buffers:2 ~consume_ns:80_000 ();
         ]
       else [])
    in
    Streams.run ~machine ~node_src:0 ~node_dst:1
      ~until:(Flipc_sim.Vtime.ms 40) specs
  in
  let alone = List.hd (run_with_interference false) in
  let loaded = run_with_interference true in
  let high = List.hd loaded in
  let low = List.nth loaded 1 in
  let t =
    Table.create
      ~title:"RT-PRIO: high-priority stream isolation under low-priority overload"
      [ "stream"; "delivered"; "discarded"; "misses"; "mean us"; "p95 us"; "max us" ]
  in
  let row name (r : Streams.stream_result) =
    match r.Streams.latency with
    | Some l ->
        Table.add_row t
          [
            name;
            Fmt.str "%d/%d" r.Streams.delivered r.Streams.sent;
            Table.cell_i r.Streams.dropped;
            Table.cell_i r.Streams.deadline_misses;
            Table.cell_us l.Summary.mean;
            Table.cell_us l.Summary.p95;
            Table.cell_us l.Summary.max;
          ]
    | None -> Table.add_row t [ name; "0"; "-"; "-"; "-"; "-"; "-" ]
  in
  row "high (alone)" alone;
  row "high (under overload)" high;
  row "low  (overloaded)" low;
  Table.print t;
  (match (alone.Streams.latency, high.Streams.latency) with
  | Some a, Some b ->
      Fmt.pr
        "high-priority latency shift under overload: %+.1fus mean; drops: %d@."
        (b.Summary.mean -. a.Summary.mean)
        high.Streams.dropped
  | _ -> ());
  Fmt.pr
    "per-endpoint resources + scheduler-mediated wakeup keep the important@.\
     traffic unaffected while the unimportant stream's excess is discarded@.\
     from its own buffers only.@.@."

(* ------------------------------------------------------------------ *)
(* LOGP: LogP-style transport parameters of FLIPC (era-standard way to  *)
(* characterize a messaging layer: L latency, o overheads, g gap).      *)

let logp () =
  (* Send/receive overheads: virtual CPU time inside the library calls,
     measured directly on a quiet two-node machine. *)
  let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
  let sim = Machine.sim machine in
  let ns = Machine.names machine in
  let o_send = ref [] in
  let rounds = 100 in
  Machine.spawn_app machine ~node:1 (fun api ->
      let ok = Result.get_ok in
      let ep = ok (Flipc.Api.allocate_endpoint api ~kind:Flipc.Endpoint_kind.Recv ()) in
      for _ = 1 to 8 do
        ok (Flipc.Api.post_receive api ep (ok (Flipc.Api.allocate_buffer api)))
      done;
      Flipc.Nameservice.register ns "logp" (Flipc.Api.address api ep);
      for _ = 1 to rounds do
        let rec wait () =
          match Flipc.Api.receive api ep with
          | Some buf -> buf
          | None ->
              Flipc_memsim.Mem_port.instr (Flipc.Api.port api) 5;
              wait ()
        in
        let buf = wait () in
        ok (Flipc.Api.post_receive api ep buf)
      done);
  Machine.spawn_app machine ~node:0 (fun api ->
      let ok = Result.get_ok in
      let dest = Flipc.Nameservice.lookup ns "logp" in
      let ep = ok (Flipc.Api.allocate_endpoint api ~kind:Flipc.Endpoint_kind.Send ()) in
      Flipc.Api.connect api ep dest;
      let buf = ok (Flipc.Api.allocate_buffer api) in
      for _ = 1 to rounds do
        let t0 = Flipc_sim.Engine.now sim in
        ok (Flipc.Api.send api ep buf);
        let t1 = Flipc_sim.Engine.now sim in
        o_send := (float_of_int (t1 - t0) /. 1000.) :: !o_send;
        let rec reclaim () =
          match Flipc.Api.reclaim api ep with
          | Some _ -> ()
          | None ->
              Flipc_memsim.Mem_port.instr (Flipc.Api.port api) 5;
              reclaim ()
        in
        reclaim ();
        Flipc_sim.Engine.delay (Flipc_sim.Vtime.us 40)
      done);
  Machine.run machine;
  Machine.stop_engines machine;
  Machine.run machine;
  let os = Summary.mean !o_send in
  (* Receive overhead: one acquire on a ready endpoint, measured under a
     dedicated micro machine for cleanliness. *)
  let l_oneway =
    (Pingpong.measure ~payload_bytes:120 ~exchanges:200 ()).Pingpong
    .aggregate_one_way_us
  in
  let tp =
    Flipc_workload.Throughput.measure ~payload_bytes:120 ~messages:500 ()
  in
  let g = 1.0e6 /. tp.Flipc_workload.Throughput.msgs_per_sec in
  let t =
    Table.create ~title:"LOGP: LogP-style parameters of FLIPC (120B messages)"
      [ "parameter"; "value"; "meaning" ]
  in
  Table.add_row t
    [ "o_s (send overhead)"; Fmt.str "%.2f us" os;
      "CPU time inside Api.send" ];
  Table.add_row t
    [ "L (one-way latency)"; Fmt.str "%.2f us" l_oneway;
      "send call to receive return" ];
  Table.add_row t
    [ "g (gap)"; Fmt.str "%.2f us" g; "1 / streaming message rate" ];
  Table.add_row t
    [ "rate"; Fmt.str "%.0f kmsg/s"
        (tp.Flipc_workload.Throughput.msgs_per_sec /. 1000.);
      "sustained streaming" ];
  Table.print t;
  Fmt.pr
    "the wait-free send is far cheaper than the end-to-end latency (the@.\
     engine + wire own most of L), and the gap is set by the engine's@.\
     per-message processing, not by the application.@.@."

(* ------------------------------------------------------------------ *)
(* CONGESTION: incast on the contended mesh.                           *)

let congestion () =
  let run senders =
    let machine = Machine.create (Machine.Mesh { cols = 4; rows = 4 }) () in
    let ns = Machine.names machine in
    let per_sender = 100 in
    let done_at = ref 0 in
    let start = ref max_int in
    Machine.spawn_app machine ~node:0 (fun api ->
        let ok = Result.get_ok in
        let ep = ok (Flipc.Api.allocate_endpoint api ~kind:Flipc.Endpoint_kind.Recv ()) in
        for _ = 1 to 8 do
          ok (Flipc.Api.post_receive api ep (ok (Flipc.Api.allocate_buffer api)))
        done;
        for _ = 1 to senders do
          Flipc.Nameservice.register ns
            (Fmt.str "sink-%d" (Flipc.Nameservice.size ns))
            (Flipc.Api.address api ep)
        done;
        let got = ref 0 in
        let drops = ref 0 in
        while !got + !drops < senders * per_sender do
          (match Flipc.Api.receive api ep with
          | Some buf ->
              incr got;
              ok (Flipc.Api.post_receive api ep buf)
          | None -> Flipc_memsim.Mem_port.instr (Flipc.Api.port api) 5);
          drops := !drops + Flipc.Api.drops_read_and_reset api ep
        done;
        done_at := Flipc_sim.Engine.now (Machine.sim machine));
    for i = 0 to senders - 1 do
      let node = 15 - i in
      Machine.spawn_app machine ~node (fun api ->
          let ok = Result.get_ok in
          let dest = Flipc.Nameservice.lookup ns (Fmt.str "sink-%d" i) in
          let ep = ok (Flipc.Api.allocate_endpoint api ~kind:Flipc.Endpoint_kind.Send ()) in
          Flipc.Api.connect api ep dest;
          let free = Queue.create () in
          for _ = 1 to 4 do
            Queue.push (ok (Flipc.Api.allocate_buffer api)) free
          done;
          start := min !start (Flipc_sim.Engine.now (Machine.sim machine));
          for _ = 1 to per_sender do
            let rec get () =
              (match Flipc.Api.reclaim api ep with
              | Some b -> Queue.push b free
              | None -> ());
              match Queue.take_opt free with
              | Some b -> b
              | None ->
                  Flipc_memsim.Mem_port.instr (Flipc.Api.port api) 5;
                  get ()
            in
            match Flipc.Api.send api ep (get ()) with
            | Ok () -> ()
            | Error _ -> ()
          done)
    done;
    Machine.run machine;
    Machine.stop_engines machine;
    Machine.run machine;
    let elapsed = float_of_int (!done_at - !start) /. 1000. in
    let total = senders * per_sender in
    let stall =
      Flipc_net.Mesh.contention_stall_ns (Machine.fabric machine)
    in
    (float_of_int total /. elapsed *. 1000., stall)
  in
  let t =
    Table.create ~title:"CONGESTION: incast onto one node (4x4 mesh, 128B)"
      [ "senders"; "kmsg/s into sink"; "mesh stall us" ]
  in
  List.iter
    (fun senders ->
      let rate, stall = run senders in
      Table.add_row t
        [
          Table.cell_i senders;
          Table.cell_f ~decimals:0 rate;
          Table.cell_f ~decimals:1 (float_of_int stall /. 1000.);
        ])
    [ 1; 2; 4; 8 ];
  Table.print t;
  Fmt.pr
    "the sink engine's per-message processing, not the mesh, is the incast@.\
     bottleneck -- consistent with the paper's focus on engine and cache@.\
     costs over raw wire bandwidth.@.@."

(* ------------------------------------------------------------------ *)
(* BREAKDOWN: where a one-way message's time goes (Figure 2's steps).  *)

let breakdown () =
  (* A Latency fold attached to the machine joins each message's
     lifecycle events by message id, so the decomposition falls out of a
     plain pingpong run — no bespoke transport wrapper, and the four
     path stages sum to the total per message by construction. *)
  let module Latency = Flipc_obs.Latency in
  let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
  let lat = Latency.attach (Machine.obs machine) in
  let r =
    Pingpong.run ~machine ~node_a:0 ~node_b:1 ~payload_bytes:120
      ~exchanges:200 ()
  in
  let stage_summary st = Latency.stage_summary lat st in
  let total =
    match stage_summary Latency.Total_stage with
    | Some s -> s
    | None -> failwith "breakdown: no latency samples recorded"
  in
  let t =
    Table.create
      ~title:"BREAKDOWN: where a 120B one-way message spends its time"
      [ "stage (Figure 2 steps)"; "mean us"; "p50 us"; "p99 us"; "share" ]
  in
  let stages =
    [
      ("sender: app enqueue -> engine transmit (2-3)", Latency.Send_stage);
      ("wire: injection + mesh flight (3)", Latency.Wire_stage);
      ("receiving engine: arrival -> deposit (3)", Latency.Queue_stage);
      ("receiving app: deposit -> dequeue (4)", Latency.Recv_stage);
      ("total one-way (2-4)", Latency.Total_stage);
    ]
  in
  let measured =
    List.filter_map
      (fun (label, st) ->
        Option.map (fun s -> (label, st, s)) (stage_summary st))
      stages
  in
  List.iter
    (fun (label, _, (s : Summary.t)) ->
      Table.add_row t
        [
          label;
          Table.cell_us s.Summary.mean;
          Table.cell_us s.Summary.p50;
          Table.cell_us s.Summary.p99;
          Fmt.str "%.0f%%" (s.Summary.mean /. total.Summary.mean *. 100.);
        ])
    measured;
  Table.print t;
  Fmt.pr "messages: %d paired, %d unmatched, %d dropped in flight@."
    total.Summary.n (Latency.unmatched lat)
    (Latency.dropped_in_flight lat);
  Fmt.pr
    "both engine passes plus discovery dominate; the wire itself is a@.\
     small slice -- the paper's premise that the messaging system, not@.\
     the interconnect, sets medium-message latency.@.@.";
  write_bench_json "breakdown"
    ((("workload", Json.String "pingpong")
     :: ("fabric", Json.String "mesh 2x1")
     :: Pingpong.result_fields r)
    @ [
        ("unmatched", Json.Int (Latency.unmatched lat));
        ("dropped_in_flight", Json.Int (Latency.dropped_in_flight lat));
        ( "stages",
          Json.Obj
            (List.map
               (fun (_, st, s) ->
                 (Latency.stage_name st, Json.Obj (summary_fields s)))
               measured) );
      ])

(* ------------------------------------------------------------------ *)
(* DESIGN: ablations of this implementation's own design choices (not  *)
(* paper figures): endpoint queue depth, engine poll interval, mesh    *)
(* distance. These back the parameter decisions recorded in DESIGN.md. *)

let design_ablations () =
  (* Queue depth: latency is insensitive, streaming throughput is not. *)
  let t =
    Table.create
      ~title:"DESIGN-1: endpoint queue depth (streaming 120B messages)"
      [ "ring slots"; "usable depth"; "kmsg/s"; "latency us" ]
  in
  List.iter
    (fun queue_capacity ->
      let config = { Config.default with Config.queue_capacity } in
      let tp =
        Flipc_workload.Throughput.measure ~config ~payload_bytes:120
          ~messages:400 ()
      in
      let lat =
        (Pingpong.measure ~config ~payload_bytes:120 ~exchanges:100 ()).Pingpong
        .aggregate_one_way_us
      in
      Table.add_row t
        [
          Table.cell_i queue_capacity;
          Table.cell_i (queue_capacity - 1);
          Table.cell_f ~decimals:0
            (tp.Flipc_workload.Throughput.msgs_per_sec /. 1000.);
          Table.cell_us lat;
        ])
    [ 2; 3; 5; 9; 17 ];
  Table.print t;
  Fmt.pr
    "latency needs only one slot; pipelining (throughput) is what deeper@.\
     rings buy -- the default of 9 slots leaves throughput within a few@.\
     percent of its asymptote.@.@.";
  (* Engine poll interval: the polling-cost component of latency. *)
  let t2 =
    Table.create ~title:"DESIGN-2: engine poll interval vs latency (120B)"
      [ "poll ns"; "latency us" ]
  in
  List.iter
    (fun engine_poll_ns ->
      let config = { Config.default with Config.engine_poll_ns } in
      let lat =
        (Pingpong.measure ~config ~payload_bytes:120 ~exchanges:100 ()).Pingpong
        .aggregate_one_way_us
      in
      Table.add_row t2 [ Table.cell_i engine_poll_ns; Table.cell_us lat ])
    [ 200; 450; 700; 1500; 3000 ];
  Table.print t2;
  Fmt.pr
    "each engine on the path contributes about half an iteration of@.\
     discovery delay, so latency moves with the poll interval.@.@.";
  (* Mesh distance: dimension-order hops are cheap. *)
  let t3 =
    Table.create ~title:"DESIGN-3: mesh distance (120B, 8x8 mesh)"
      [ "hops"; "latency us" ]
  in
  List.iter
    (fun (node_b, hops) ->
      let lat =
        (Pingpong.measure ~cols:8 ~rows:8 ~node_a:0 ~node_b ~payload_bytes:120
           ~exchanges:100 ())
          .Pingpong
          .aggregate_one_way_us
      in
      Table.add_row t3 [ Table.cell_i hops; Table.cell_us lat ])
    [ (1, 1); (7, 7); (63, 14) ];
  Table.print t3;
  Fmt.pr
    "at 40ns/hop the 2-D mesh makes placement nearly irrelevant for@.\
     latency -- the property that let the paper measure one node pair.@.@."

(* ------------------------------------------------------------------ *)
(* EXT-BULK: the bulk-transfer companion — message-size crossover.     *)
(* An extension experiment (the paper's future work, implemented), not *)
(* a paper figure: where does one-sided bulk beat per-message FLIPC?   *)

let bulk_crossover () =
  let t =
    Table.create
      ~title:
        "EXT-BULK: FLIPC messages vs bulk transfer across sizes (one-way)"
      [ "bytes"; "FLIPC us (msgs)"; "bulk us"; "winner" ]
  in
  let flipc_time bytes =
    (* Fixed 256-byte messages (248B payload): latency per message from a
       quick ping-pong, times the number of messages needed. *)
    let per_msg =
      (Pingpong.measure ~payload_bytes:248 ~exchanges:100 ()).Pingpong
      .aggregate_one_way_us
    in
    let msgs = (bytes + 247) / 248 in
    float_of_int msgs *. per_msg
  in
  let bulk_time bytes =
    let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
    let bulk = Flipc_bulk.Bulk.create machine in
    let region = Flipc_bulk.Bulk.export bulk ~node:1 ~len:(max bytes 64) in
    let sim = Machine.sim machine in
    let result = ref 0. in
    Machine.spawn_app machine ~node:0 (fun _api ->
        let t0 = Flipc_sim.Engine.now sim in
        Flipc_bulk.Bulk.put bulk ~from:0 region (Bytes.create bytes);
        result := float_of_int (Flipc_sim.Engine.now sim - t0) /. 1000.);
    Machine.run machine;
    Machine.stop_engines machine;
    Machine.run machine;
    !result
  in
  let per_msg_us = flipc_time 248 in
  List.iter
    (fun bytes ->
      let f = flipc_time bytes and b = bulk_time bytes in
      Table.add_row t
        [
          Table.cell_i bytes;
          Table.cell_us f;
          Table.cell_us b;
          (if f < b then "FLIPC" else "bulk");
        ])
    [ 128; 248; 1024; 4096; 16384; 65536 ];
  Table.print t;
  Fmt.pr
    "medium messages belong to FLIPC (%.1fus each); past a few KB the@.\
     rendezvous bulk path wins — the \"all message sizes\" integration the@.\
     paper calls for (future work, implemented; PAM had the same split).@.@."
    per_msg_us

(* ------------------------------------------------------------------ *)
(* EXT-PRIO: transport prioritization + capacity control (extension).  *)

let transport_prio () =
  let measure ~prioritized =
    let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
    let sim = Machine.sim machine in
    let ns = Machine.names machine in
    let samples = ref [] in
    let flood_sent = ref 0 in
    (* Receiver: two endpoints, drained constantly. *)
    Machine.spawn_app machine ~node:1 (fun api ->
        let ok = Result.get_ok in
        let rx_hi = ok (Flipc.Api.allocate_endpoint api ~kind:Flipc.Endpoint_kind.Recv ()) in
        let rx_lo = ok (Flipc.Api.allocate_endpoint api ~kind:Flipc.Endpoint_kind.Recv ()) in
        for _ = 1 to 8 do
          ok (Flipc.Api.post_receive api rx_hi (ok (Flipc.Api.allocate_buffer api)));
          ok (Flipc.Api.post_receive api rx_lo (ok (Flipc.Api.allocate_buffer api)))
        done;
        Flipc.Nameservice.register ns "hi" (Flipc.Api.address api rx_hi);
        Flipc.Nameservice.register ns "lo" (Flipc.Api.address api rx_lo);
        let deadline = Flipc_sim.Vtime.ms 10 in
        while Flipc_sim.Engine.now sim < deadline do
          (match Flipc.Api.receive api rx_hi with
          | Some buf ->
              let stamp =
                Int64.to_int
                  (Bytes.get_int64_le (Flipc.Api.read_payload api buf 8) 0)
              in
              samples :=
                (float_of_int (Flipc_sim.Engine.now sim - stamp) /. 1000.)
                :: !samples;
              ignore (Flipc.Api.post_receive api rx_hi buf)
          | None -> ());
          (match Flipc.Api.receive api rx_lo with
          | Some buf -> ignore (Flipc.Api.post_receive api rx_lo buf)
          | None -> ());
          Flipc_memsim.Mem_port.instr (Flipc.Api.port api) 10
        done);
    (* Flood sender: saturates its endpoint continuously. *)
    Machine.spawn_app machine ~node:0 (fun api ->
        let ok = Result.get_ok in
        let dest = Flipc.Nameservice.lookup ns "lo" in
        let ep =
          if prioritized then
            ok
              (Flipc.Api.allocate_endpoint api ~kind:Flipc.Endpoint_kind.Send
                 ~priority:1 ~burst:1 ())
          else
            ok (Flipc.Api.allocate_endpoint api ~kind:Flipc.Endpoint_kind.Send ())
        in
        Flipc.Api.connect api ep dest;
        let bufs = List.init 8 (fun _ -> ok (Flipc.Api.allocate_buffer api)) in
        let free = Queue.create () in
        List.iter (fun b -> Queue.push b free) bufs;
        let deadline = Flipc_sim.Vtime.ms 10 in
        while Flipc_sim.Engine.now sim < deadline do
          (match Flipc.Api.reclaim api ep with
          | Some b -> Queue.push b free
          | None -> ());
          (match Queue.take_opt free with
          | Some b -> (
              match Flipc.Api.send api ep b with
              | Ok () -> incr flood_sent
              | Error `Full -> Queue.push b free
              | Error _ -> ())
          | None -> ());
          Flipc_memsim.Mem_port.instr (Flipc.Api.port api) 20
        done);
    (* Sporadic high-priority sender on the same node. *)
    Machine.spawn_app machine ~node:0 (fun api ->
        let ok = Result.get_ok in
        let dest = Flipc.Nameservice.lookup ns "hi" in
        let ep =
          if prioritized then
            ok
              (Flipc.Api.allocate_endpoint api ~kind:Flipc.Endpoint_kind.Send
                 ~priority:9 ())
          else
            ok (Flipc.Api.allocate_endpoint api ~kind:Flipc.Endpoint_kind.Send ())
        in
        Flipc.Api.connect api ep dest;
        let buf = ok (Flipc.Api.allocate_buffer api) in
        for _ = 1 to 60 do
          Flipc_sim.Engine.delay (Flipc_sim.Vtime.us 150);
          let stamp = Bytes.create 8 in
          Bytes.set_int64_le stamp 0
            (Int64.of_int (Flipc_sim.Engine.now sim));
          Flipc.Api.write_payload api buf stamp;
          (match Flipc.Api.send api ep buf with Ok () | Error _ -> ());
          let rec reclaim () =
            match Flipc.Api.reclaim api ep with
            | Some _ -> ()
            | None ->
                Flipc_memsim.Mem_port.instr (Flipc.Api.port api) 10;
                reclaim ()
          in
          reclaim ()
        done);
    Machine.run machine;
    Machine.stop_engines machine;
    Machine.run machine;
    (Summary.of_samples !samples, !flood_sent)
  in
  let fifo, fifo_flood = measure ~prioritized:false in
  let prio, prio_flood = measure ~prioritized:true in
  let t =
    Table.create
      ~title:
        "EXT-PRIO: urgent-endpoint latency while a flood endpoint saturates \
         the same engine"
      [ "transport"; "urgent mean us"; "p95"; "max"; "flood msgs/10ms" ]
  in
  Table.add_row t
    [
      "FIFO scan (baseline)";
      Table.cell_us fifo.Summary.mean;
      Table.cell_us fifo.Summary.p95;
      Table.cell_us fifo.Summary.max;
      Table.cell_i fifo_flood;
    ];
  Table.add_row t
    [
      "prioritized + burst=1 flood";
      Table.cell_us prio.Summary.mean;
      Table.cell_us prio.Summary.p95;
      Table.cell_us prio.Summary.max;
      Table.cell_i prio_flood;
    ];
  Table.print t;
  Fmt.pr
    "the future-work extension (\"real time prioritization and \
     capacity/bandwidth@.control functionality to the basic inter-node \
     transport\"), implemented:@.priority picks the urgent endpoint first; \
     burst caps the flood's share.@.@."

(* ------------------------------------------------------------------ *)
(* EXT-CHAN: cost of the automatic buffer-management layer.            *)

let channel_overhead () =
  let raw =
    (Pingpong.measure ~payload_bytes:120 ~exchanges ()).Pingpong
    .aggregate_one_way_us
  in
  (* Channel ping-pong: same exchange pattern through Channel tx/rx. *)
  let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
  let sim = Machine.sim machine in
  let ns = Machine.names machine in
  let samples = ref [] in
  let n = 200 in
  Machine.spawn_app machine ~node:1 (fun api ->
      let rx = Result.get_ok (Flipc.Channel.create_rx api ()) in
      Flipc.Nameservice.register ns "echo-rx" (Flipc.Channel.address rx);
      let dest = Flipc.Nameservice.lookup ns "client-rx" in
      let tx = Result.get_ok (Flipc.Channel.create_tx api ~dest ()) in
      for _ = 1 to n do
        let rec poll () =
          match Flipc.Channel.recv rx with
          | Some p -> p
          | None ->
              Flipc_memsim.Mem_port.instr (Flipc.Api.port api) 5;
              poll ()
        in
        let payload = poll () in
        ignore (Flipc.Channel.send tx payload)
      done);
  Machine.spawn_app machine ~node:0 (fun api ->
      let rx = Result.get_ok (Flipc.Channel.create_rx api ()) in
      Flipc.Nameservice.register ns "client-rx" (Flipc.Channel.address rx);
      let dest = Flipc.Nameservice.lookup ns "echo-rx" in
      let tx = Result.get_ok (Flipc.Channel.create_tx api ~dest ()) in
      let payload = Bytes.make 116 'c' in
      for _ = 1 to n do
        let t0 = Flipc_sim.Engine.now sim in
        ignore (Flipc.Channel.send tx payload);
        let rec poll () =
          match Flipc.Channel.recv rx with
          | Some p -> p
          | None ->
              Flipc_memsim.Mem_port.instr (Flipc.Api.port api) 5;
              poll ()
        in
        ignore (poll () : Bytes.t);
        samples :=
          (float_of_int (Flipc_sim.Engine.now sim - t0) /. 2000.) :: !samples
      done);
  Machine.run machine;
  Machine.stop_engines machine;
  Machine.run machine;
  let chan = Summary.mean !samples in
  (* Both variants ride the same 128-byte wire message: the channel packs
     116 application bytes + its 4-byte length header. *)
  let t =
    Table.create
      ~title:"EXT-CHAN: raw API vs automatic buffer management (128B message)"
      [ "interface"; "latency us"; "API calls per message" ]
  in
  Table.add_row t [ "raw Api (paper's interface)"; Table.cell_us raw; "4 (send/reclaim/receive/post)" ];
  Table.add_row t [ "Channel (auto buffers)"; Table.cell_us chan; "2 (send/recv)" ];
  Table.print t;
  Fmt.pr
    "overhead of the convenience layer: +%.2fus (one payload copy per side)@.\
     — the buffer-management redesign the paper's future work asks for,@.\
     built above the transport as the paper prescribes.@.@."
    (chan -. raw)

(* ------------------------------------------------------------------ *)
(* DISTRIBUTION: the shape of the one-way latency distribution.         *)

let distribution () =
  let r = Pingpong.measure ~payload_bytes:120 ~exchanges:600 () in
  let one_way = List.map (fun rt -> rt /. 2.) r.Pingpong.round_trips_us in
  let h = Flipc_stats.Histogram.of_samples ~bins:14 one_way in
  Fmt.pr "== DISTRIBUTION: 120B one-way latency, 600 exchanges (us) ==@.";
  Fmt.pr "%a" Flipc_stats.Histogram.pp h;
  let s = r.Pingpong.one_way in
  Fmt.pr "mean %.2f  sd %.2f  p50 %.2f  p95 %.2f  p99 %.2f@." s.Summary.mean
    s.Summary.stddev s.Summary.p50 s.Summary.p95 s.Summary.p99;
  Fmt.pr
    "the spread comes from engine-discovery alignment (up to one poll@.\
     interval per engine on the path, +/-25%% jitter), matching the@.\
     paper's 0.5-0.65us standard deviations.@.@."

(* ------------------------------------------------------------------ *)
(* FAULTS: the reliable channel (extension) on a lossy wire — how the  *)
(* retransmission layer's recovery cost shows up in the latency tail.  *)

module Retrans_layer = Flipc_flow.Retrans_layer

(* A wire-fault tally of a flow's fabric, by name. *)
let fault_stat name r =
  match Machine.fault_stats r.Stackflow.machine with
  | Some s -> List.assoc name (Flipc_net.Faulty.tallies s)
  | None -> 0

let fault_sweep () =
  let module Faulty = Flipc_net.Faulty in
  let messages = 400 in
  let t =
    Table.create
      ~title:"FAULTS: reliable channel on a lossy mesh (400 x 8B, paced 25us)"
      [ "loss"; "delivered"; "retransmits"; "wire drops"; "p50 us"; "p99 us" ]
  in
  let rows =
    List.map
      (fun loss ->
        let r =
          Stackflow.two_node_flow
            ~fabric:(List.assoc "mesh" Stackflow.two_node_fabrics)
            ~fault:(Faulty.config ~drop:loss ~seed:7 ())
            ~pace_ns:25_000 ~payload_bytes:8 ~messages ()
        in
        let s = Summary.of_samples r.Stackflow.latencies_us in
        Table.add_row t
          [
            Fmt.str "%.0f%%" (loss *. 100.);
            Table.cell_i r.Stackflow.delivered;
            Table.cell_i r.Stackflow.counters.Stackflow.retransmits;
            Table.cell_i (fault_stat "dropped" r);
            Table.cell_us s.Summary.p50;
            Table.cell_us s.Summary.p99;
          ];
        (loss, r))
      [ 0.0; 0.02; 0.05; 0.10 ]
  in
  Table.print t;
  Fmt.pr
    "selective repeat over the channel transport: the median stays at@.\
     the fault-free floor while the p99 absorbs the retransmission@.\
     timeouts (initial RTO 200us, doubling to 1.6ms).@.@.";
  write_bench_json "faults"
    [
      ("workload", Json.String "retrans channel, 400 x 8B paced 25us");
      ("fabric", Json.String "mesh 2x1 + fault injection");
      ("message_bytes", Json.Int 8);
      ("messages", Json.Int messages);
      ( "points",
        Json.List
          (List.map
             (fun (loss, r) ->
               Json.Obj
                 (("loss", Json.Float loss)
                 :: ("wire_drops", Json.Int (fault_stat "dropped" r))
                 :: Stackflow.result_fields r))
             rows) );
    ]

(* ------------------------------------------------------------------ *)
(* RETRANS-MODES: selective repeat vs go-back-N on a reorder-heavy     *)
(* wire — the ablation behind the SACK rework. Reordering is the case  *)
(* that separates the two: SR buffers the overtakers and never touches *)
(* the wire again, while GBN discards them and replays the window.     *)

let retrans_modes () =
  let module Faulty = Flipc_net.Faulty in
  let messages =
    match Sys.getenv_opt "RETRANS_MODES_MESSAGES" with
    | Some s -> positive_int ~var:"RETRANS_MODES_MESSAGES" s
    | None -> 2_000
  in
  (* Each fabric with its pacing: the mesh one message per RTO/8, the
     Ethernet one per 100us. *)
  let fabrics = [ ("mesh", 25_000); ("ethernet", 100_000) ] in
  let t =
    Table.create
      ~title:
        (Fmt.str
           "RETRANS-MODES: SR vs go-back-N, 30%% reordered wire (%d x 8B)"
           messages)
      [
        "fabric"; "mode"; "delivered"; "retransmits"; "acks"; "srtt us";
        "p50 us"; "p99 us";
      ]
  in
  let points =
    List.concat_map
      (fun (fname, gap_ns) ->
        let fabric = List.assoc fname Stackflow.two_node_fabrics in
        let fault =
          Faulty.config ~reorder:0.3
            ~reorder_hold_ns:fabric.Stackflow.reorder_hold_ns ~seed:17 ()
        in
        List.map
          (fun (mname, mode) ->
            let r =
              Stackflow.two_node_flow ~mode ~fabric ~fault ~pace_ns:gap_ns
                ~payload_bytes:8 ~messages ()
            in
            let s = Summary.of_samples r.Stackflow.latencies_us in
            let c = r.Stackflow.counters in
            Table.add_row t
              [
                fname;
                mname;
                Table.cell_i r.Stackflow.delivered;
                Table.cell_i c.Stackflow.retransmits;
                Table.cell_i c.Stackflow.acks_sent;
                Table.cell_us (float_of_int c.Stackflow.srtt_ns /. 1_000.);
                Table.cell_us s.Summary.p50;
                Table.cell_us s.Summary.p99;
              ];
            Json.Obj
              (("fabric", Json.String fname)
              :: ("mode", Json.String mname)
              :: ("wire_reordered", Json.Int (fault_stat "reordered" r))
              :: Stackflow.result_fields r))
          [
            ("sr", Retrans_layer.Selective_repeat);
            ("gbn", Retrans_layer.Go_back_n);
          ])
      fabrics
  in
  Table.print t;
  Fmt.pr
    "selective repeat holds overtaken frames at the receiver, so a@.\
     reordered wire costs it (almost) no wire traffic; go-back-N@.\
     replays the window for every hole and its p99 absorbs the RTO@.\
     backoff. The adaptive estimator keeps srtt near the fabric RTT@.\
     in both modes.@.@.";
  write_bench_json "retrans_modes"
    [
      ("workload", Json.String "retrans channel, 8B msgs, reorder 30%");
      ("messages", Json.Int messages);
      ("message_bytes", Json.Int 8);
      ("points", Json.List points);
    ]

(* ------------------------------------------------------------------ *)
(* EXT-EM: the Express Messages ancestor, with FLIPC's enhancements     *)
(* applied as knobs (different machine — internal comparisons only).   *)

let express () =
  let em ~buffer_mgmt ~delivery =
    Flipc_baselines.Express.one_way_latency_us ~buffer_mgmt ~delivery
      ~payload_bytes:120 ~exchanges:30 ()
  in
  let t =
    Table.create
      ~title:
        "EXT-EM: Express Messages (iPSC/2) with FLIPC's enhancements as knobs          (120B)"
      [ "buffer mgmt"; "delivery"; "latency us"; "vs original" ]
  in
  let original = em ~buffer_mgmt:`Syscall ~delivery:`Interrupt in
  let row bm bms dl dls =
    let v = em ~buffer_mgmt:bm ~delivery:dl in
    Table.add_row t
      [ bms; dls; Table.cell_us v; Fmt.str "%.2fx" (v /. original) ]
  in
  row `Syscall "system calls (EM)" `Interrupt "interrupt (EM)";
  row `Syscall "system calls (EM)" `Polling "polling";
  row `Shared "shared structure (FLIPC)" `Interrupt "interrupt (EM)";
  row `Shared "shared structure (FLIPC)" `Polling "polling";
  Table.print t;
  Fmt.pr
    "the two changes the paper made to its ancestor's design — wait-free@.\
     shared-structure buffer management instead of system calls, and@.\
     scheduler-mediated delivery instead of interrupting upcalls — are@.\
     each worth a large constant on the iPSC/2-class model. Era-magnitude@.\
     calibration only; never compared against the Paragon numbers.@.@."

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the hot operations (real wall clock).  *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  let heap_test =
    Test.make ~name:"event-heap push+pop x64"
      (Staged.stage (fun () ->
           let h = Flipc_sim.Heap.create () in
           for i = 0 to 63 do
             Flipc_sim.Heap.push h ((i * 37) land 255) i
           done;
           while not (Flipc_sim.Heap.is_empty h) do
             ignore (Flipc_sim.Heap.pop h : int)
           done))
  in
  let prng = Flipc_sim.Prng.create ~seed:1 in
  let prng_test =
    Test.make ~name:"splitmix64 next"
      (Staged.stage (fun () -> ignore (Flipc_sim.Prng.next_int64 prng)))
  in
  let cost = Flipc_memsim.Cost_model.paragon in
  let bus = Flipc_memsim.Bus.create ~cost () in
  let c0 = Flipc_memsim.Cache.create ~name:"c0" () in
  let c1 = Flipc_memsim.Cache.create ~name:"c1" () in
  ignore (Flipc_memsim.Bus.attach bus c0);
  ignore (Flipc_memsim.Bus.attach bus c1);
  let bus_test =
    Test.make ~name:"MESI write ping-pong"
      (Staged.stage (fun () ->
           ignore (Flipc_memsim.Bus.write bus ~port:0 ~addr:0);
           ignore (Flipc_memsim.Bus.write bus ~port:1 ~addr:0)))
  in
  let layout_test =
    Test.make ~name:"layout compute"
      (Staged.stage (fun () -> ignore (Flipc.Layout.compute Config.default)))
  in
  let topo = Flipc_net.Topology.create ~cols:16 ~rows:16 in
  let route_test =
    Test.make ~name:"mesh route 16x16 corner-corner"
      (Staged.stage (fun () ->
           ignore (Flipc_net.Topology.route topo ~src:0 ~dst:255)))
  in
  let sim_exchange_test =
    Test.make ~name:"simulate 5 pingpong exchanges (2-node machine)"
      (Staged.stage (fun () ->
           ignore
             (Pingpong.measure ~cols:2 ~rows:1 ~payload_bytes:120 ~exchanges:5
                ~warmup:0 ())))
  in
  let tests =
    Test.make_grouped ~name:"micro"
      [
        heap_test; prng_test; bus_test; layout_test; route_test;
        sim_exchange_test;
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Fmt.pr "== MICRO: wall-clock cost of hot operations (Bechamel OLS) ==@.";
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (e :: _) -> e
        | _ -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  List.iter
    (fun (name, ns) ->
      if ns > 1_000_000. then Fmt.pr "%-50s %10.2f ms/run@." name (ns /. 1e6)
      else if ns > 1_000. then Fmt.pr "%-50s %10.2f us/run@." name (ns /. 1e3)
      else Fmt.pr "%-50s %10.1f ns/run@." name ns)
    (List.sort Stdlib.compare !rows);
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* ENGINE-SCAN: work-proportional engine scheduling. One hot sender     *)
(* pair while the number of CONFIGURED endpoints grows: the doorbell    *)
(* engine's idle memory traffic tracks active endpoints, the original   *)
(* scanning engine's tracks configured endpoints.                       *)

let engine_scan () =
  let module Latency = Flipc_obs.Latency in
  let module Mem_port = Flipc_memsim.Mem_port in
  (* ENGINE_SCAN_SIZES overrides the endpoint-count sweep (comma-
     separated); scripts/check.sh uses it to run one small size as a CI
     smoke without paying for the 256-endpoint full-scan ablation. *)
  let sizes =
    match Sys.getenv_opt "ENGINE_SCAN_SIZES" with
    | None | Some "" -> [ 8; 64; 256; 4096; 16384 ]
    | Some s ->
        List.map
          (positive_int ~var:"ENGINE_SCAN_SIZES")
          (String.split_on_char ',' s)
  in
  (* The full-scan ablation's idle iteration walks every configured
     endpoint, so at the large sizes that demonstrate flatness it would
     dominate the harness runtime for a number nobody doubts grows
     linearly; it is measured only up to 256 endpoints. *)
  let modes n =
    if n <= 256 then
      [ ("doorbell", Config.Doorbell); ("full_scan", Config.Full_scan) ]
    else [ ("doorbell", Config.Doorbell) ]
  in
  let t =
    Table.create
      ~title:
        "ENGINE-SCAN: idle engine traffic vs configured endpoints (1 hot \
         sender)"
      [
        "endpoints";
        "mode";
        "idle loads/iter";
        "idle iter ns";
        "send p50 us";
        "send p99 us";
        "one-way us";
      ]
  in
  let results = ref [] in
  List.iter
    (fun n ->
      List.iter
        (fun (mname, sched_mode) ->
          let config =
            { Config.default with Config.endpoints = n; sched_mode }
          in
          let machine =
            Machine.create ~config (Machine.Mesh { cols = 2; rows = 1 }) ()
          in
          let lat = Latency.attach (Machine.obs machine) in
          let r =
            Pingpong.run ~machine ~node_a:0 ~node_b:1 ~payload_bytes:120
              ~exchanges:200 ()
          in
          let send =
            match Latency.stage_summary lat Latency.Send_stage with
            | Some s -> s
            | None -> failwith "engine_scan: no send-stage samples"
          in
          let stats =
            Flipc.Msg_engine.stats (Machine.msg_engine (Machine.node machine 0))
          in
          (* Idle measurement on a fresh machine: the hot sender's
             endpoint footprint (one send + one receive endpoint
             allocated) but no traffic, engines never parking within the
             window. A warm-up window first lets the schedule rebuild
             settle and the eager-visit countdown (if any) decay; the
             measured window is steady-state idle polling, which is what
             the work-proportionality claim is about. *)
          let idle_config =
            { config with Config.engine_park_after = 1_000_000 }
          in
          let idle_machine =
            Machine.create ~config:idle_config
              (Machine.Mesh { cols = 2; rows = 1 })
              ()
          in
          Machine.spawn_app ~name:"idle-owner" idle_machine ~node:0 (fun api ->
              let check = function
                | Ok v -> v
                | Error e -> failwith (Flipc.Api.error_to_string e)
              in
              let _recv =
                check
                  (Flipc.Api.allocate_endpoint api
                     ~kind:Flipc.Endpoint_kind.Recv ())
              in
              let _send =
                check
                  (Flipc.Api.allocate_endpoint api
                     ~kind:Flipc.Endpoint_kind.Send ())
              in
              ());
          let sim = Machine.sim idle_machine in
          let node0 = Machine.node idle_machine 0 in
          let port = Machine.coproc_port node0 in
          let idle_stats =
            Flipc.Msg_engine.stats (Machine.msg_engine node0)
          in
          (* Warm-up must outlast the initial schedule rebuilds, whose
             full table scan costs O(endpoints) memory time — at 16384
             endpoints that is tens of virtual milliseconds, far past
             the old fixed 500us. *)
          Machine.run
            ~until:(Flipc_sim.Engine.now sim + 500_000 + (n * 4_000))
            idle_machine;
          Mem_port.reset_counts port;
          let it0 = idle_stats.Flipc.Msg_engine.iterations in
          let t0 = Flipc_sim.Engine.now sim in
          Machine.run ~until:(t0 + 2_000_000) idle_machine;
          let idle_iters = idle_stats.Flipc.Msg_engine.iterations - it0 in
          let idle_ns = Flipc_sim.Engine.now sim - t0 in
          let per it = float_of_int it /. float_of_int (max 1 idle_iters) in
          let loads_per_iter = per (Mem_port.load_count port) in
          let stores_per_iter = per (Mem_port.store_count port) in
          let iter_ns = per idle_ns in
          Table.add_row t
            [
              string_of_int n;
              mname;
              Fmt.str "%.1f" loads_per_iter;
              Fmt.str "%.0f" iter_ns;
              Table.cell_us send.Summary.p50;
              Table.cell_us send.Summary.p99;
              Table.cell_us r.Pingpong.aggregate_one_way_us;
            ];
          results :=
            (n, mname, loads_per_iter, stores_per_iter, iter_ns, send, r, stats)
            :: !results)
        (modes n))
    sizes;
  Table.print t;
  let find n m =
    List.find (fun (n', m', _, _, _, _, _, _) -> n' = n && m' = m) !results
  in
  List.iter
    (fun n ->
      match modes n with
      | _ :: _ :: _ ->
          let _, _, dl, _, _, _, _, _ = find n "doorbell" in
          let _, _, fl, _, _, _, _, _ = find n "full_scan" in
          Fmt.pr "idle load reduction at %3d endpoints: %.0fx@." n (fl /. dl)
      | _ -> ())
    sizes;
  Fmt.pr
    "the scanning engine's idle iteration walks every configured endpoint@.\
     table entry; the doorbell engine touches one epoch word plus one@.\
     doorbell per allocated send endpoint, so idle traffic no longer@.\
     grows with the configured endpoint count.@.@.";
  write_bench_json "engine_scan"
    [
      ("workload", Json.String "pingpong 2x1, 200 exchanges, 120B");
      ( "sizes",
        Json.List
          (List.map
             (fun n ->
               let row mname =
                 let _, _, loads, stores, iter_ns, send, r, stats =
                   find n mname
                 in
                 ( mname,
                   Json.Obj
                     (("idle_loads_per_iter", Json.Float loads)
                     :: ("idle_stores_per_iter", Json.Float stores)
                     :: ("idle_iter_ns", Json.Float iter_ns)
                     :: ("send_p50_us", Json.Float send.Summary.p50)
                     :: ("send_p99_us", Json.Float send.Summary.p99)
                     :: ( "one_way_us",
                          Json.Float r.Pingpong.aggregate_one_way_us )
                     :: Flipc.Msg_engine.stats_fields stats) )
               in
               match modes n with
               | _ :: _ :: _ ->
                   let _, _, dl, _, _, _, _, _ = find n "doorbell" in
                   let _, _, fl, _, _, _, _, _ = find n "full_scan" in
                   Json.Obj
                     (("endpoints", Json.Int n)
                     :: ("idle_load_reduction", Json.Float (fl /. dl))
                     :: List.map row [ "doorbell"; "full_scan" ])
               | _ ->
                   Json.Obj
                     (("endpoints", Json.Int n) :: List.map row [ "doorbell" ]))
             sizes) );
    ]

(* ------------------------------------------------------------------ *)
(* FIREHOSE: open-loop sustained-load throughput, batched vs           *)
(* unbatched. The pinned configuration (2x2 mesh, 300ns mean gap,      *)
(* 32-deep rings) saturates both arms, so delivered rate measures      *)
(* drain capacity; the batched arm chains DMA descriptors, coalesces   *)
(* doorbells and cursor traffic, and must stay >= 2x the singleton     *)
(* path (bench_diff.sh gates the "speedup" leaf). A sharded cell       *)
(* exercises the multi-engine path and snapshots per-shard counters.   *)

let firehose () =
  let module Firehose = Flipc_workload.Firehose in
  let senders = 2 and receivers = 2 in
  let duration_us = 1_000 and mean_gap_ns = 300 and seed = 7 in
  let base =
    {
      Config.default with
      Config.queue_capacity = 33;
      total_buffers = 128;
    }
  in
  let batched =
    {
      base with
      Config.engine_tx_batch = 32;
      app_send_burst = 32;
      app_recv_burst = 32;
    }
  in
  let sharded =
    (* 4 streams/node: each receiver stream posts a full 32-deep ring
       plus a staging buffer, so the node pool must cover 4 x 33. *)
    { batched with Config.engine_shards = 2; total_buffers = 256 }
  in
  let q = Firehose.sojourn_quantile in
  let run ?streams config =
    Firehose.measure ~config ~senders ~receivers ~duration_us ~mean_gap_ns
      ~seed ?streams ()
  in
  let t =
    Table.create
      ~title:
        "FIREHOSE: open-loop sustained load, 2 senders x 2 receivers, \
         300ns mean gap"
      [
        "arm";
        "offered";
        "delivered";
        "rate msg/s";
        "ratio";
        "p50 us";
        "p99 us";
      ]
  in
  let row name r =
    Table.add_row t
      [
        name;
        string_of_int r.Firehose.offered;
        string_of_int r.Firehose.delivered;
        Fmt.str "%.0f" r.Firehose.delivered_per_sec;
        Fmt.str "%.3f" r.Firehose.delivered_ratio;
        Fmt.str "%.1f" (q r 0.50);
        Fmt.str "%.1f" (q r 0.99);
      ]
  in
  let un = run base in
  let ba = run batched in
  let sh = run ~streams:4 sharded in
  row "unbatched" un;
  row "batched" ba;
  row "batched+2shards" sh;
  Table.print t;
  let speedup = ba.Firehose.delivered_per_sec /. un.Firehose.delivered_per_sec in
  Fmt.pr "batched/unbatched delivered-rate speedup: %.2fx@.@." speedup;
  write_bench_json "firehose"
    [
      ( "workload",
        Json.String
          "open-loop 2x2 mesh, poisson 300ns mean gap, 1000us window, \
           seed 7, 33-slot rings" );
      ("batched_speedup", Json.Float speedup);
      ("unbatched", Firehose.result_json un);
      ("batched", Firehose.result_json ba);
      ("batched_sharded", Firehose.result_json sh);
    ]

(* ------------------------------------------------------------------ *)
(* DOCTOR-OVERHEAD: cost of the correlation-and-diagnosis layer.       *)
(* The msg_id stamp rides the state store the send path already makes  *)
(* and every emit site is guarded behind Obs.tracing, so the virtual   *)
(* timeline must be bit-identical whether observability is off, the    *)
(* tracer records, or the invariant monitors watch every event —       *)
(* tracing and monitoring cost host time only.                         *)

let doctor_overhead () =
  let module Sim = Flipc_sim.Engine in
  let module Mem_port = Flipc_memsim.Mem_port in
  let module Api = Flipc.Api in
  let module Endpoint_kind = Flipc.Endpoint_kind in
  let module Nameservice = Flipc.Nameservice in
  let module Monitor = Flipc_obs.Monitor in
  let n_exchanges = 400 in
  let run mode =
    let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
    let obs = Machine.obs machine in
    let sink =
      match mode with
      | `Capture path ->
          let s = Flipc_obs.Sink.create ~path () in
          Flipc_obs.Sink.attach s obs;
          Some s
      | _ -> None
    in
    let series =
      match mode with `Series -> Some (Flipc_obs.Series.attach obs) | _ -> None
    in
    let mon =
      match mode with
      | `Off | `Capture _ | `Series -> None
      | `Trace ->
          Flipc_obs.Tracer.enable (Flipc_obs.Obs.tracer obs);
          None
      | `Monitor -> Some (Machine.attach_monitor machine)
    in
    let ns = Machine.names machine in
    let ok = Result.get_ok in
    Machine.spawn_app ~name:"echo" machine ~node:1 (fun api ->
        let rx = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
        let tx = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
        for _ = 1 to 2 do
          ok (Api.post_receive api rx (ok (Api.allocate_buffer api)))
        done;
        Nameservice.register ns "echo" (Api.address api rx);
        Api.connect api tx (Nameservice.lookup ns "reply");
        let reply = ok (Api.allocate_buffer api) in
        for _ = 1 to n_exchanges do
          let rec poll () =
            match Api.receive api rx with
            | Some b -> b
            | None ->
                Mem_port.instr (Api.port api) 5;
                poll ()
          in
          ok (Api.post_receive api rx (poll ()));
          ok (Api.send api tx reply);
          let rec reclaim () =
            match Api.reclaim api tx with
            | Some _ -> ()
            | None ->
                Mem_port.instr (Api.port api) 5;
                reclaim ()
          in
          reclaim ()
        done);
    Machine.spawn_app ~name:"driver" machine ~node:0 (fun api ->
        let rx = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
        let tx = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
        for _ = 1 to 2 do
          ok (Api.post_receive api rx (ok (Api.allocate_buffer api)))
        done;
        Nameservice.register ns "reply" (Api.address api rx);
        Api.connect api tx (Nameservice.lookup ns "echo");
        let ping = ok (Api.allocate_buffer api) in
        for _ = 1 to n_exchanges do
          ok (Api.send api tx ping);
          let rec reclaim () =
            match Api.reclaim api tx with
            | Some _ -> ()
            | None ->
                Mem_port.instr (Api.port api) 5;
                reclaim ()
          in
          reclaim ();
          let rec poll () =
            match Api.receive api rx with
            | Some b -> b
            | None ->
                Mem_port.instr (Api.port api) 5;
                poll ()
          in
          ok (Api.post_receive api rx (poll ()))
        done);
    let t0 = Sys.time () in
    Machine.run machine;
    Machine.stop_engines machine;
    Machine.run machine;
    let host_ms = (Sys.time () -. t0) *. 1000. in
    let virtual_ns = Sim.now (Machine.sim machine) in
    Option.iter Flipc_obs.Series.sample series;
    let tracer = Flipc_obs.Obs.tracer obs in
    let events =
      match (mon, sink) with
      | Some m, _ -> Monitor.events_seen m
      | None, Some s -> Flipc_obs.Sink.events_written s
      | None, None ->
          Flipc_obs.Tracer.length tracer + Flipc_obs.Tracer.dropped tracer
    in
    let violations =
      match mon with Some m -> List.length (Monitor.violations m) | None -> 0
    in
    Option.iter Flipc_obs.Sink.close sink;
    let windows =
      match series with
      | Some s -> Some (Flipc_obs.Series.window_count s, Flipc_obs.Series.json s)
      | None -> None
    in
    (virtual_ns, host_ms, events, violations, windows)
  in
  (* Host time is process CPU time (Sys.time). Each arm does one
     discarded warm-up run, then [timed_runs] timed ones, each from a
     fully collected heap so no run pays for an earlier one's garbage,
     reported as median and quartiles. Every run of an arm replays the
     same simulation, so the other figures come from its last run. *)
  let timed_runs = 5 in
  let arm mode =
    ignore (run mode);
    let runs =
      List.init timed_runs (fun _ ->
          Gc.full_major ();
          run mode)
    in
    let host = List.map (fun (_, h, _, _, _) -> h) runs in
    let v, _, e, viol, win = List.nth runs (timed_runs - 1) in
    let q = Summary.percentile host in
    (v, (q 25., q 50., q 75.), e, viol, win)
  in
  let v_off, h_off, _, _, _ = arm `Off in
  let v_tr, h_tr, e_tr, _, _ = arm `Trace in
  let v_mon, h_mon, e_mon, viol, _ = arm `Monitor in
  let file_size path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    close_in ic;
    n
  in
  let capture_path = Filename.temp_file "flipc_doctor_overhead" ".ftrace" in
  let v_cap, h_cap, e_cap, _, _ = arm (`Capture capture_path) in
  let binary_bytes = file_size capture_path in
  (* The same capture rendered as JSON lines (flipc trace --replay): the
     byte ratio is a pure codec figure. *)
  let jsonl_bytes =
    match Flipc_obs.Replay.load capture_path with
    | Ok c ->
        List.fold_left
          (fun n line -> n + String.length line + 1)
          0 (Flipc_obs.Replay.jsonl c)
    | Error e -> failwith ("doctor_overhead: " ^ e)
  in
  Sys.remove capture_path;
  let shrink = float_of_int jsonl_bytes /. float_of_int (max 1 binary_bytes) in
  let v_ser, h_ser, e_ser, _, win = arm `Series in
  let windows, series_json =
    match win with Some (n, j) -> (n, j) | None -> (0, Json.Null)
  in
  let identical =
    v_off = v_tr && v_off = v_mon && v_off = v_cap && v_off = v_ser
  in
  let t =
    Table.create
      ~title:
        "DOCTOR-OVERHEAD: diagnosis layer cost (400 exchanges, 2-node mesh)"
      [ "mode"; "virtual ms"; "host ms p50"; "host ms p25-p75"; "events" ]
  in
  let row name v (p25, p50, p75) e =
    Table.add_row t
      [
        name;
        Table.cell_us (float_of_int v /. 1.0e6);
        Table.cell_us p50;
        Fmt.str "%.2f-%.2f" p25 p75;
        Table.cell_i e;
      ]
  in
  row "off" v_off h_off 0;
  row "tracing" v_tr h_tr e_tr;
  row "tracing+monitors" v_mon h_mon e_mon;
  row "capture sink" v_cap h_cap e_cap;
  row "series tap" v_ser h_ser e_ser;
  Table.print t;
  Fmt.pr "disabled path zero virtual cost (timelines bit-identical): %b@."
    identical;
  Fmt.pr "capture bytes: binary=%d, rendered as jsonl=%d (%.1fx smaller)@.@."
    binary_bytes jsonl_bytes shrink;
  let mode name v (p25, p50, p75) e extra =
    ( name,
      Json.Obj
        ([
           ("virtual_ns", Json.Int v);
           ("host_ms", Json.Float p50);
           ("host_ms_p25", Json.Float p25);
           ("host_ms_p75", Json.Float p75);
           ("events", Json.Int e);
         ]
        @ extra) )
  in
  write_bench_json "doctor_overhead"
    [
      ("workload", Json.String "pingpong 2x1, 400 exchanges");
      ("host_timed_runs", Json.Int timed_runs);
      ( "modes",
        Json.Obj
          [
            mode "off" v_off h_off 0 [];
            mode "tracing" v_tr h_tr e_tr [];
            mode "monitors" v_mon h_mon e_mon
              [ ("monitor_violations", Json.Int viol) ];
            mode "capture" v_cap h_cap e_cap
              [
                ("capture_binary_bytes", Json.Int binary_bytes);
                ("capture_jsonl_bytes", Json.Int jsonl_bytes);
              ];
            mode "series" v_ser h_ser e_ser
              [
                ("series_window_count", Json.Int windows);
                ("series_windows", series_json);
              ];
          ] );
      (* An Int, not a Bool: bench_diff.sh gates numeric leaves only, and
         this one must never regress below 1. *)
      ("virtual_identical", Json.Int (if identical then 1 else 0));
      (* Rendered JSONL bytes / binary bytes of the one capture;
         bench_diff.sh holds every "shrink" leaf at >= 4.0. *)
      ("binary_capture_shrink", Json.Float shrink);
    ]

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig4", "FIG4  latency vs message size", fig4);
    ("compare", "TAB-CMP  120B latency vs NX/PAM/SUNMOS", compare);
    ("cache_ablation", "ABL-CACHE  locks x layout ablation", cache_ablation);
    ("validity", "ABL-CHECKS  validity-check cost", validity);
    ("transient", "TRANSIENT  startup transient", transient);
    ("pam_small", "PAM-SMALL  20-byte crossover", pam_small);
    ("kkt_port", "KKT-PORT  portable engine on 3 platforms", kkt_port);
    ("flow", "DROP-FLOW  discards and provisioning", flow);
    ("bandwidth", "BW-SLOPE  bandwidth story", bandwidth);
    ("rt_isolation", "RT-PRIO  priority isolation", rt_isolation);
    ("design", "DESIGN  implementation design-choice ablations", design_ablations);
    ("logp", "LOGP  LogP-style transport parameters", logp);
    ("congestion", "CONGESTION  incast on the contended mesh", congestion);
    ("breakdown", "BREAKDOWN  one-way latency decomposition", breakdown);
    ("engine_scan", "ENGINE-SCAN  work-proportional scheduling", engine_scan);
    ("firehose", "FIREHOSE  open-loop throughput, batched vs unbatched", firehose);
    ("bulk", "EXT-BULK  bulk-transfer crossover (extension)", bulk_crossover);
    ("transport_prio", "EXT-PRIO  transport priority/capacity (extension)",
     transport_prio);
    ("channel", "EXT-CHAN  channel-layer overhead (extension)", channel_overhead);
    ("express", "EXT-EM  Express Messages ancestor knobs", express);
    ("distribution", "DISTRIBUTION  one-way latency histogram", distribution);
    ("faults", "FAULTS  reliable channel vs injected loss (extension)",
     fault_sweep);
    ("retrans_modes",
     "RETRANS-MODES  selective repeat vs go-back-N ablation (extension)",
     retrans_modes);
    ("doctor_overhead", "DOCTOR-OVERHEAD  diagnosis layer cost (extension)",
     doctor_overhead);
    ("micro", "MICRO  Bechamel data-structure benches", micro);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "list" ] ->
      List.iter (fun (id, desc, _) -> Fmt.pr "%-16s %s@." id desc) experiments
  | [] ->
      Fmt.pr "FLIPC reproduction benchmark harness (all experiments)@.@.";
      List.iter (fun (_, _, f) -> f ()) experiments
  | ids ->
      List.iter
        (fun id ->
          match List.find_opt (fun (i, _, _) -> i = id) experiments with
          | Some (_, _, f) -> f ()
          | None ->
              Fmt.epr "unknown experiment %S (try 'list')@." id;
              exit 1)
        ids
