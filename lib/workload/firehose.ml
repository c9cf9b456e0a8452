(* Open-loop sustained-load generator (DESIGN.md §16).

   M sender nodes push at N receiver nodes on one mesh. Arrivals are an
   external clock (Poisson by default): each sender draws inter-arrival
   gaps from {!Arrivals} and offers a message at every tick whether or
   not the system kept up — when no free buffer is available (the engine
   hasn't drained the queue) the arrival is shed at the source and
   counted, never blocked on. Offered vs delivered rate is therefore a
   real throughput measurement, not a closed-loop echo of the system's
   own backpressure.

   The hot path follows the configured batching knobs: senders stage
   arrivals and flush with {!Api.send_burst} every [app_send_burst]
   messages (one doorbell ring + one engine poke per flush); receivers
   drain with {!Api.receive_burst} / repost with [post_receive_burst] in
   runs of [app_recv_burst]. All knobs at 1 degenerate to the singleton
   ablation path.

   Sojourn: each message carries its send-side arrival stamp (virtual ns,
   first 8 payload bytes); the receiver observes [now - stamp] into a
   {!Flipc_obs.Sketch} at drain time, so the quantiles include queueing,
   batching delay, wire time and drain latency — the full open-loop
   sojourn, which is the honest number under saturation. *)

module Sim = Flipc_sim.Engine
module Mem_port = Flipc_memsim.Mem_port
module Machine = Flipc.Machine
module Api = Flipc.Api
module Config = Flipc.Config
module Nameservice = Flipc.Nameservice
module Endpoint_kind = Flipc.Endpoint_kind
module Msg_engine = Flipc.Msg_engine
module Sketch = Flipc_obs.Sketch

type arrival =
  [ `Poisson | `Periodic | `Jittered of float | `Bursty of int ]

type result = {
  senders : int;
  receivers : int;
  duration_us : int;
  offered : int;  (** arrivals generated across all senders *)
  sent : int;  (** accepted into send queues *)
  shed : int;  (** offered - sent: shed at source (no buffer / queue full) *)
  delivered : int;  (** drained by receivers *)
  rx_drops : int;  (** engine discards: no posted receive buffer *)
  elapsed_us : float;  (** virtual time from first arrival to full drain *)
  offered_per_sec : float;
  delivered_per_sec : float;
  delivered_ratio : float;  (** delivered / offered; 1.0 when offered = 0 *)
  sojourn_us : Sketch.t;
  engines : (int * int * Msg_engine.stats) list;
      (** (node, shard, counters), node-major then shard order *)
  violations : int;  (** online monitor violations; 0 when not attached *)
}

let ok = function
  | Ok v -> v
  | Error e -> failwith ("Firehose: " ^ Api.error_to_string e)

let make_arrivals arrival ~mean_gap_ns ~seed i =
  let seed = seed + (7919 * i) in
  match arrival with
  | `Poisson -> Arrivals.poisson ~mean_ns:mean_gap_ns ~seed
  | `Periodic -> Arrivals.periodic ~period_ns:mean_gap_ns
  | `Jittered jitter -> Arrivals.jittered ~period_ns:mean_gap_ns ~jitter ~seed
  | `Bursty burst ->
      (* Same mean rate as the periodic process: [burst] back-to-back
         arrivals then an idle gap covering the rest of the period. *)
      Arrivals.bursty ~burst ~gap_ns:0 ~idle_ns:(burst * mean_gap_ns)

let stamp_bytes now =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int now);
  b

let run ~machine ~senders ~receivers ~duration_us ~arrivals ?(streams = 1)
    ?(payload_bytes = 32) ?(monitor = false) () =
  if senders < 1 then invalid_arg "Firehose.run: senders < 1";
  if receivers < 1 then invalid_arg "Firehose.run: receivers < 1";
  if streams < 1 then invalid_arg "Firehose.run: streams < 1";
  if payload_bytes < 8 then
    invalid_arg "Firehose.run: payload must hold an 8-byte stamp";
  if Machine.node_count machine < senders + receivers then
    invalid_arg "Firehose.run: machine too small for senders + receivers";
  let sim = Machine.sim machine in
  let config = Machine.config machine in
  if payload_bytes > Config.payload_bytes config then
    invalid_arg "Firehose.run: payload exceeds configured message size";
  if streams > config.Config.endpoints then
    invalid_arg "Firehose.run: more streams than endpoints per node";
  let mon = if monitor then Some (Machine.attach_monitor machine) else None in
  let ns = Machine.names machine in
  let qcap = config.Config.queue_capacity - 1 in
  let duration_ns = duration_us * 1_000 in
  let offered = ref 0
  and sent = ref 0
  and shed = ref 0
  and delivered = ref 0
  and rx_drops = ref 0 in
  let gen_done = ref 0 in
  let first_arrival = ref max_int in
  let stop = ref false in
  let stop_at = ref 0 in
  let sojourn = Sketch.create () in

  (* [streams] endpoint pairs per node: sender stream (i, s) targets
     receiver node [i mod receivers], stream [s]. With engine sharding
     on, a node's streams land on different shards ([g mod shard_count]),
     which is what gives every shard live work. *)
  for j = 0 to receivers - 1 do
    let node = senders + j in
    for s = 0 to streams - 1 do
      Machine.spawn_app ~name:(Printf.sprintf "fh-rx-%d.%d" j s) machine ~node
        (fun api ->
          let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
          for _ = 1 to qcap do
            ok (Api.post_receive api ep (ok (Api.allocate_buffer api)))
          done;
          Nameservice.register ns
            (Printf.sprintf "fh-%d.%d" j s)
            (Api.address api ep);
          let burst = min (max 1 config.Config.app_recv_burst) qcap in
          let out = Array.make burst (ok (Api.allocate_buffer api)) in
          Api.free_buffer api out.(0);
          while not !stop do
            let n = Api.receive_burst api ep ~out in
            if n = 0 then begin
              (* Bounded poll cadence so an idle stretch costs O(1)
                 events per poll, not a spin per instruction. *)
              Mem_port.instr (Api.port api) 5;
              Sim.delay 200
            end
            else begin
              let now = Sim.now sim in
              for i = 0 to n - 1 do
                let b = Api.read_payload api out.(i) 8 in
                let stamp = Int64.to_int (Bytes.get_int64_le b 0) in
                Sketch.observe sojourn (float_of_int (now - stamp) /. 1_000.)
              done;
              delivered := !delivered + n;
              ignore (ok (Api.post_receive_burst api ep (Array.sub out 0 n)))
            end;
            rx_drops := !rx_drops + Api.drops_read_and_reset api ep
          done)
    done
  done;

  for i = 0 to senders - 1 do
    for s = 0 to streams - 1 do
      Machine.spawn_app ~name:(Printf.sprintf "fh-tx-%d.%d" i s) machine
        ~node:i (fun api ->
          let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
          Api.connect api ep
            (Nameservice.lookup ns
               (Printf.sprintf "fh-%d.%d" (i mod receivers) s));
          let burst = min (max 1 config.Config.app_send_burst) qcap in
          let free = Queue.create () in
          (* Enough pool to cover a full ring plus the staging burst;
             shed beyond that is the open-loop signal, not an artifact. *)
          let pool = qcap + burst in
          (try
             for _ = 1 to pool do
               match Api.allocate_buffer api with
               | Ok b -> Queue.push b free
               | Error _ -> raise Exit
             done
           with Exit -> ());
          if Queue.is_empty free then
            failwith "Firehose: no buffers for sender";
          let out = Array.make pool (Queue.peek free) in
          let pending = Array.make burst (Queue.peek free) in
          let npending = ref 0 in
          let flush () =
            if !npending > 0 then begin
              let n =
                ok (Api.send_burst api ep (Array.sub pending 0 !npending))
              in
              sent := !sent + n;
              (* Overflow stays ours: recycle it and count the shed. *)
              for k = n to !npending - 1 do
                shed := !shed + 1;
                Queue.push pending.(k) free
              done;
              npending := 0
            end
          in
          let arr = arrivals ((i * streams) + s) in
          let t0 = Sim.now sim in
          if t0 < !first_arrival then first_arrival := t0;
          let t_end = t0 + duration_ns in
          (* Absolute arrival schedule: the next arrival instant advances
             by the drawn gap regardless of how long the previous
             arrival's processing took; when processing falls behind, the
             loop catches up without delaying — that is what keeps the
             load open-loop (offered rate set by the clock, not by the
             system's own service time). *)
          let next = ref t0 in
          let continue = ref true in
          while !continue do
            next := !next + Arrivals.next_gap_ns arr;
            if !next >= t_end then continue := false
            else begin
              let now = Sim.now sim in
              if !next > now then Sim.delay (!next - now);
              incr offered;
              let n = Api.reclaim_burst api ep ~out in
              for k = 0 to n - 1 do
                Queue.push out.(k) free
              done;
              match Queue.take_opt free with
              | None -> incr shed
              | Some buf ->
                  (* Stamped with the scheduled arrival instant, so the
                     sojourn includes generator backlog wait. *)
                  Api.write_payload api buf (stamp_bytes !next);
                  pending.(!npending) <- buf;
                  incr npending;
                  if !npending >= burst then flush ()
            end
          done;
          flush ();
          incr gen_done)
    done
  done;

  (* Coordinator: once every sender has stopped generating and every
     accepted message is accounted for (drained or counted as an engine
     drop), raise the stop flag — receivers exit, engines park, the run
     terminates. In-flight messages only delay the condition, never break
     it: the fabric is clean, so sent = delivered + rx_drops at drain. *)
  Sim.spawn ~name:"fh-coordinator" sim (fun () ->
      Sim.delay duration_ns;
      while not !stop do
        Sim.delay 2_000;
        if !gen_done = senders * streams && !delivered + !rx_drops >= !sent
        then begin
          stop := true;
          stop_at := Sim.now sim
        end
      done);

  Machine.run machine;
  Machine.stop_engines machine;
  Machine.run machine;
  let engines =
    List.concat_map
      (fun i ->
        List.map
          (fun e -> (i, Msg_engine.shard e, Msg_engine.stats e))
          (Machine.msg_engines (Machine.node machine i)))
      (List.init (Machine.node_count machine) Fun.id)
  in
  let start = if !first_arrival = max_int then 0 else !first_arrival in
  let elapsed_us = float_of_int (max 0 (!stop_at - start)) /. 1_000. in
  let secs = elapsed_us /. 1e6 in
  let dur_secs = float_of_int duration_us /. 1e6 in
  {
    senders;
    receivers;
    duration_us;
    offered = !offered;
    sent = !sent;
    shed = !shed;
    delivered = !delivered;
    rx_drops = !rx_drops;
    elapsed_us;
    offered_per_sec =
      (if dur_secs > 0. then float_of_int !offered /. dur_secs else 0.);
    delivered_per_sec =
      (if secs > 0. then float_of_int !delivered /. secs else 0.);
    delivered_ratio =
      (if !offered = 0 then 1.
       else float_of_int !delivered /. float_of_int !offered);
    sojourn_us = sojourn;
    engines;
    violations =
      (match mon with
      | Some m -> List.length (Flipc_obs.Monitor.violations m)
      | None -> 0);
  }

let measure ?(config = Config.default) ?(monitor = false) ~senders ~receivers
    ~duration_us ~mean_gap_ns ?(arrival = `Poisson) ?(seed = 42) ?(streams = 1)
    ?(payload_bytes = 32) () =
  let config = Config.validate_exn config in
  let machine =
    Machine.create ~config (Machine.Mesh { cols = senders + receivers; rows = 1 }) ()
  in
  run ~machine ~senders ~receivers ~duration_us
    ~arrivals:(make_arrivals arrival ~mean_gap_ns ~seed)
    ~streams ~payload_bytes ~monitor ()

let sojourn_quantile r p =
  Option.value (Sketch.quantile r.sojourn_us p) ~default:0.

let result_json r =
  let module Json = Flipc_obs.Json in
  Json.Obj
    [
      ("senders", Json.Int r.senders);
      ("receivers", Json.Int r.receivers);
      ("duration_us", Json.Int r.duration_us);
      ("offered", Json.Int r.offered);
      ("sent", Json.Int r.sent);
      ("shed", Json.Int r.shed);
      ("delivered", Json.Int r.delivered);
      ("rx_drops", Json.Int r.rx_drops);
      ("elapsed_us", Json.Float r.elapsed_us);
      ("offered_per_sec", Json.Float r.offered_per_sec);
      ("delivered_per_sec", Json.Float r.delivered_per_sec);
      ("delivered_ratio", Json.Float r.delivered_ratio);
      ("sojourn_p50_us", Json.Float (sojourn_quantile r 0.50));
      ("sojourn_p99_us", Json.Float (sojourn_quantile r 0.99));
      ("sojourn_p999_us", Json.Float (sojourn_quantile r 0.999));
      ("violations", Json.Int r.violations);
      ( "engines",
        Json.List
          (List.map
             (fun (node, shard, s) ->
               Json.Obj
                 (("node", Json.Int node)
                 :: ("shard", Json.Int shard)
                 :: Msg_engine.stats_fields s))
             r.engines) );
    ]

(* Wall-clock mode: real OCaml 5 domains, opt-in. Each domain runs its
   own complete, independent machine (own simulation heap, own simulated
   memory, own observability) over a slice of the senders — the
   cooperative single-writer simulation is never shared across domains,
   so determinism of each slice is preserved; only the wall-clock
   aggregate is timing-dependent, which is the point of the mode. *)

type wall_result = {
  per_domain : result list;
  wall_s : float;
  wall_delivered_per_sec : float;
  merged_sojourn_us : Sketch.t;
}

let measure_wallclock ?(config = Config.default) ?(monitor = false) ~domains
    ~senders ~receivers ~duration_us ~mean_gap_ns ?(arrival = `Poisson)
    ?(seed = 42) ?(streams = 1) ?(payload_bytes = 32) () =
  if domains < 1 then invalid_arg "Firehose.measure_wallclock: domains < 1";
  if domains > senders then
    invalid_arg "Firehose.measure_wallclock: more domains than senders";
  let slice d =
    (* Spread the senders as evenly as possible; every domain keeps the
       full receiver count so per-receiver load matches the virtual run
       scaled by its slice. *)
    let base = senders / domains and extra = senders mod domains in
    base + (if d < extra then 1 else 0)
  in
  let t0 = Unix.gettimeofday () in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            measure ~config ~monitor ~senders:(slice d) ~receivers
              ~duration_us ~mean_gap_ns ~arrival
              ~seed:(seed + (104_729 * d))
              ~streams ~payload_bytes ()))
  in
  let per_domain = List.map Domain.join workers in
  let wall_s = Unix.gettimeofday () -. t0 in
  let merged = Sketch.create () in
  List.iter (fun r -> Sketch.merge ~into:merged r.sojourn_us) per_domain;
  let delivered = List.fold_left (fun a r -> a + r.delivered) 0 per_domain in
  {
    per_domain;
    wall_s;
    wall_delivered_per_sec =
      (if wall_s > 0. then float_of_int delivered /. wall_s else 0.);
    merged_sojourn_us = merged;
  }
