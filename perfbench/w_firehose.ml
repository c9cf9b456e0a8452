(* firehose_ladder: an open loop, 2 senders -> 2 receivers on a 4-node
   mesh, at a fixed ladder of offered rates, one fresh machine per rung.

   The configuration is the stock batched one (engine_tx_batch =
   app_send_burst = app_recv_burst = 32 over 33-slot rings), so this is
   the throughput path: bursts, doorbells, DMA chaining, queue depth.

   The generator is the benchmark's own. Each sender draws seeded Poisson
   gaps and keeps an absolute schedule: an arrival is due at its
   scheduled instant whether or not the system kept up, is stamped with
   that instant, and is shed at the source when no buffer is free. How
   late the generator issues each arrival is its lag.

   Accounting over one window per rung. Offered is every arrival
   scheduled in the window; delivered counts the ones drained before the
   window closes. Shed, engine drops and whatever is still in the
   backlog when the window closes are failures, so failed + delivered =
   offered. After the window the run drains, and then every stamp must
   have been delivered at most once and delivered + drops + shed must
   equal offered: anything else is broken. *)

module Sim = Flipc_sim.Engine
module Machine = Flipc.Machine
module Api = Flipc.Api
module Config = Flipc.Config
module Nameservice = Flipc.Nameservice
module Endpoint_kind = Flipc.Endpoint_kind
module Mem_port = Flipc_memsim.Mem_port
module Monitor = Flipc_obs.Monitor
module Arrivals = Flipc_workload.Arrivals
module Tally = Perfbench_core.Tally
module Pct = Perfbench_core.Pct
module Ladder = Perfbench_core.Ladder

let name = "firehose_ladder"
let rates = [| 125_000; 250_000; 400_000; 550_000; 700_000 |]
let mid = 2
let top = Array.length rates - 1
let senders = 2
let receivers = 2
let window_ns = 5_000_000
let t0_ns = 200_000
let limit_us = 1000.
let drain_limit_ns = 100_000_000

let config =
  {
    Config.default with
    Config.queue_capacity = 33;
    total_buffers = 128;
    engine_tx_batch = 32;
    app_send_burst = 32;
    app_recv_burst = 32;
  }

let ok = function
  | Ok v -> v
  | Error e -> failwith ("firehose: " ^ Api.error_to_string e)

(* Per-sender arrival states, indexed by sequence number. *)
let st_shed = '\000'
let st_sent = '\001'
let st_delivered = '\002'

type sender = { mutable state : Bytes.t; mutable offered : int }

let set_state s seq c =
  if seq >= Bytes.length s.state then begin
    let bigger = Bytes.make (2 * Bytes.length s.state) st_shed in
    Bytes.blit s.state 0 bigger 0 (Bytes.length s.state);
    s.state <- bigger
  end;
  Bytes.set s.state seq c

type rung = {
  rate : int;
  tally : Tally.t;
  delivered_in_window : int;
  delivered : int;
  dropped : int;  (** engine drops, drain included *)
  sojourn_ns : int array;  (** ascending; [max_int] for shed and dropped *)
  lag_ns : int array;  (** ascending *)
  growth : int;
}

let run_rung ~meter ~tracer ~monitor ~seed ~counters rung_index =
  let rate = rates.(rung_index) in
  Round.start meter;
  let m = Machine.create ~config (Machine.Mesh { cols = 4; rows = 1 }) () in
  let mon = if monitor then Some (Machine.attach_monitor m) else None in
  let sim = Machine.sim m in
  Tr.set_sim sim;
  let ns = Machine.names m in
  let qcap = config.Config.queue_capacity - 1 in
  let burst = config.Config.app_send_burst in
  let window_end = t0_ns + window_ns in
  let tally = Tally.create () in
  let txs =
    Array.init senders (fun _ -> { state = Bytes.make 4096 st_shed; offered = 0 })
  in
  let sent = ref 0 and delivered = ref 0 and in_window = ref 0 in
  let drops = ref 0 and gen_done = ref 0 and stop = ref false in
  let sojourn = Round.vec () and lag = Round.vec () in
  let backlog () =
    Array.fold_left (fun a s -> a + s.offered) 0 txs
    - tally.shed - !delivered - !drops
  in
  let backlog_mid = ref 0 and before = ref (Counters.zero ()) in
  let drops_at_end = ref 0 and delivered_at_end = ref 0 in
  let backlog_end = ref 0 in
  for j = 0 to receivers - 1 do
    Machine.spawn_app ~name:(Printf.sprintf "fh-rx-%d" j) m ~node:(senders + j)
      (fun api ->
        let tr = Tr.actor tracer in
        let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
        for _ = 1 to qcap do
          ok (Api.post_receive api ep (ok (Api.allocate_buffer api)))
        done;
        Nameservice.register ns (Printf.sprintf "fh-%d" j) (Api.address api ep);
        let out = Array.make config.Config.app_recv_burst (ok (Api.allocate_buffer api)) in
        Api.free_buffer api out.(0);
        while not !stop do
          let n = Tapi.receive_burst tr api ep ~out in
          if n = 0 then begin
            Mem_port.instr (Api.port api) 5;
            Sim.delay 200
          end
          else begin
            let now = Sim.now sim in
            for i = 0 to n - 1 do
              let b = Api.read_payload api out.(i) 16 in
              let due = Int64.to_int (Bytes.get_int64_le b 0) in
              let src = Int32.to_int (Bytes.get_int32_le b 8) in
              let seq = Int32.to_int (Bytes.get_int32_le b 12) in
              if src < 0 || src >= senders || seq < 0
                 || seq >= txs.(src).offered
                 || Bytes.get txs.(src).state seq <> st_sent
              then tally.mismatches <- tally.mismatches + 1
              else begin
                Bytes.set txs.(src).state seq st_delivered;
                Round.push sojourn (now - due);
                incr delivered;
                if now <= window_end then incr in_window
              end
            done;
            ignore (ok (Tapi.post_receive_burst tr api ep (Array.sub out 0 n)))
          end;
          drops := !drops + Api.drops_read_and_reset api ep
        done)
  done;
  for i = 0 to senders - 1 do
    Machine.spawn_app ~name:(Printf.sprintf "fh-tx-%d" i) m ~node:i (fun api ->
        let tr = Tr.actor tracer in
        let s = txs.(i) in
        let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
        Api.connect api ep (Nameservice.lookup ns (Printf.sprintf "fh-%d" (i mod receivers)));
        let free = Queue.create () in
        for _ = 1 to qcap + burst do
          Queue.push (ok (Api.allocate_buffer api)) free
        done;
        let out = Array.make (qcap + burst) (Queue.peek free) in
        let pending = Array.make burst (Queue.peek free) in
        let seqs = Array.make burst 0 in
        let npending = ref 0 in
        let stamp = Bytes.create 16 in
        let flush () =
          if !npending > 0 then begin
            let n =
              ok (Tapi.send_burst tr api ep (Array.sub pending 0 !npending)
                    ~msg:((i lsl 24) lor seqs.(0)))
            in
            sent := !sent + n;
            for k = n to !npending - 1 do
              tally.shed <- tally.shed + 1;
              set_state s seqs.(k) st_shed;
              Queue.push pending.(k) free
            done;
            npending := 0
          end
        in
        let arr =
          Arrivals.poisson
            ~mean_ns:(senders * 1_000_000_000 / rate)
            ~seed:(seed + (7919 * i) + (104_729 * rung_index))
        in
        Round.wait_until sim t0_ns;
        let next = ref t0_ns in
        let continue = ref true in
        while !continue do
          next := !next + Arrivals.next_gap_ns arr;
          if !next >= window_end then continue := false
          else begin
            let now = Sim.now sim in
            if !next > now then Sim.delay (!next - now);
            Round.push lag (Sim.now sim - !next);
            let seq = s.offered in
            s.offered <- seq + 1;
            let n = Tapi.reclaim_burst tr api ep ~out in
            for k = 0 to n - 1 do
              Queue.push out.(k) free
            done;
            match Queue.take_opt free with
            | None ->
                tally.shed <- tally.shed + 1;
                set_state s seq st_shed
            | Some buf ->
                Bytes.set_int64_le stamp 0 (Int64.of_int !next);
                Bytes.set_int32_le stamp 8 (Int32.of_int i);
                Bytes.set_int32_le stamp 12 (Int32.of_int seq);
                Api.write_payload api buf stamp;
                set_state s seq st_sent;
                pending.(!npending) <- buf;
                seqs.(!npending) <- seq;
                incr npending;
                if !npending >= burst then flush ()
          end
        done;
        flush ();
        incr gen_done)
  done;
  Sim.spawn ~name:"fh-coordinator" sim (fun () ->
      Round.wait_until sim t0_ns;
      Round.open_timed meter;
      before := Counters.snapshot m;
      Sim.delay (window_ns / 2);
      backlog_mid := backlog ();
      Sim.delay (window_ns - (window_ns / 2));
      drops_at_end := !drops;
      delivered_at_end := !in_window;
      backlog_end := backlog ();
      while not !stop do
        Sim.delay 2_000;
        if (!gen_done = senders && !delivered + !drops >= !sent)
           || Sim.now sim > window_end + drain_limit_ns
        then stop := true
      done;
      Round.close_timed meter;
      Counters.add ~into:counters
        (Counters.diff ~before:!before (Counters.snapshot m)));
  Machine.run m;
  Machine.stop_engines m;
  Machine.run m;
  Option.iter
    (fun mon -> tally.violations <- List.length (Monitor.violations mon))
    mon;
  let offered = Array.fold_left (fun a s -> a + s.offered) 0 txs in
  tally.attempted <- offered;
  tally.drops <- !drops_at_end;
  (* The backlog at window end already holds what the engines dropped
     after it, so each failure is counted once. *)
  tally.backlog <- offered - tally.shed - !delivered_at_end - !drops_at_end;
  tally.lost <- abs (offered - tally.shed - !delivered - !drops);
  let samples =
    Array.append (Round.contents sojourn)
      (Array.make (tally.shed + !drops) max_int)
  in
  {
    rate;
    tally;
    delivered_in_window = !delivered_at_end;
    delivered = !delivered;
    dropped = !drops;
    sojourn_ns = Round.sorted samples;
    lag_ns = Round.sorted (Round.contents lag);
    growth = !backlog_end - !backlog_mid;
  }

let us a p = Pct.interp a p /. 1000.

let run ~seed ~tracer ~monitor =
  let meter = Round.meter () in
  let counters = Counters.zero () in
  let rungs =
    Array.init (Array.length rates)
      (run_rung ~meter ~tracer ~monitor ~seed ~counters)
  in
  let tally = Tally.create () in
  Array.iter (fun r -> Tally.add ~into:tally r.tally) rungs;
  let max_rate =
    Ladder.max_rate_at_p99 ~limit_us ~tolerance:(senders * config.Config.app_send_burst)
      (Array.to_list
         (Array.map
            (fun r ->
              {
                Ladder.rate = float_of_int r.rate;
                p99_us = us r.sojourn_ns 99.;
                shed = r.tally.shed;
                drops = r.dropped;
                backlog_growth = r.growth;
              })
            rungs))
  in
  let window_s = float_of_int window_ns /. 1e9 in
  {
    Round.tally;
    msgs = Array.fold_left (fun a r -> a + r.delivered) 0 rungs;
    latency_ns = rungs.(mid).sojourn_ns;
    vt_delivered_per_s = float_of_int rungs.(top).delivered_in_window /. window_s;
    window_ns = Array.length rates * window_ns;
    meter;
    counters;
    extra =
      [
        ("vt_max_rate_at_p99", Option.value max_rate ~default:0.);
        ("gen_lag_p99_us", us rungs.(mid).lag_ns 99.);
      ];
    notes =
      Array.to_list
        (Array.map
           (fun r ->
             let t = r.tally in
             Printf.sprintf
               "rung %7d msg/s: offered %d delivered %d (in window %d) shed %d \
                drops %d backlog %d growth %d p50 %.1f us p99 %.1f us \
                failed_ratio %.4f"
               r.rate t.Tally.attempted r.delivered r.delivered_in_window t.shed
               t.drops t.backlog r.growth
               (us r.sojourn_ns 50.) (us r.sojourn_ns 99.)
               (Tally.failed_ratio t))
           rungs);
  }
