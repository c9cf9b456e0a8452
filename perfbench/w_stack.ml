(* stack_lossy: a closed loop of 4 paced flows (node i -> i+2) on a 2x2
   mesh, through window/retrans/channel: Window_layer over Retrans_layer
   over Channel_transport, the order the stacking rule requires on a
   lossy base. The fabric drops 2% of packets uniformly, with the frame
   checksum on, so recovery runs and acknowledgements and credits share
   the channel with data.

   The fabric corrupts nothing. A bit flip in the top two bits of a
   frame's destination word makes Msg_engine.deliver raise (it decodes
   the destination before the checksum is checked), which kills the
   simulated NIC callback; at 1% corruption that happens in about half
   the runs of this size, so corruption waits for that fix.

   Each sender sends its flow's messages one blocking send at a time,
   pacing 25 us between them; a send blocks while the credit window is
   shut. Latency runs from the send call to in-order delivery at the top
   layer. Every payload carries its flow and index and a seeded pattern,
   and the receiver checks delivery is exactly once and in order against
   the sender's pattern. A transport error, a send that misses its
   deadline, or a watchdog that fires counts as broken — a watchdog
   counts even when every message was delivered. *)

module Sim = Flipc_sim.Engine
module Vtime = Flipc_sim.Vtime
module Mailbox = Flipc_sim.Sync.Mailbox
module Machine = Flipc.Machine
module Config = Flipc.Config
module Monitor = Flipc_obs.Monitor
module Watchdog = Monitor.Watchdog
module Faulty = Flipc_net.Faulty
module CT = Flipc_flow.Channel_transport
module Tally = Perfbench_core.Tally
module Spans = Perfbench_core.Spans
module Pct = Perfbench_core.Pct

module SC =
  Flow_span.Make
    (struct
      let layer = Tr.channel
    end)
    (CT)

module R = Flipc_flow.Retrans_layer.Make (SC)

module SR =
  Flow_span.Make
    (struct
      let layer = Tr.retrans
    end)
    (R)

module W = Flipc_flow.Window_layer.Make (SR)

module SW =
  Flow_span.Make
    (struct
      let layer = Tr.window
    end)
    (W)

let name = "stack_lossy"
let flows = 4
let messages = 1500
let pace_ns = 25_000
let rto_ns = 200_000
let window = 6
let payload_bytes = 32
let send_deadline_ns = 20_000_000
let budget = Vtime.ms 50
let t0_ns = 200_000

let config =
  {
    (Flipc_flow.Provision.config_for ~base:Config.default ~buffers:16) with
    Config.frame_checksum = true;
  }

let rcfg =
  {
    Flipc_flow.Retrans_layer.default_config with
    Flipc_flow.Retrans_layer.rto_ns;
    max_rto_ns = 8 * rto_ns;
  }

(* [flow:1][idx:4 LE][pattern], the pattern seeded per (flow, idx). *)
let payload ~seed ~flow ~idx =
  let b = Bytes.create payload_bytes in
  Bytes.set b 0 (Char.chr flow);
  Bytes.set_int32_le b 1 (Int32.of_int idx);
  let r = Hashtbl.hash (seed, flow, idx) in
  for j = 5 to payload_bytes - 1 do
    Bytes.unsafe_set b j (Char.unsafe_chr ((r + (j * 97) + (r lsr (j land 15))) land 0xff))
  done;
  b

exception Abort

type shared = { mutable rx_done : bool; mutable tx_done : bool }

(* Build the stack over a connected channel: each layer's wrapper shares
   the process's actor, so spans nest window > retrans > channel. *)
let stack tr base =
  let r = R.create (SC.wrap ?tr base) ~config:rcfg () in
  (r, SW.wrap ?tr (W.create (SR.wrap ?tr r) ~window ()))

let run ~seed ~tracer ~monitor =
  let meter = Round.meter () in
  Round.start meter;
  let fault = Faulty.config ~drop:0.02 ~seed:(seed + 1) () in
  let m = Machine.create ~config ~fault (Machine.Mesh { cols = 2; rows = 2 }) () in
  let mon = if monitor then Some (Machine.attach_monitor m) else None in
  let sim = Machine.sim m in
  Tr.set_sim sim;
  let tally = Tally.create () in
  tally.attempted <- flows * messages;
  let send_start = Array.make_matrix flows (messages + 1) 0 in
  let latency = Array.make (flows * messages) max_int in
  let send_wait = Array.make (flows * messages) 0 in
  let delivered = ref 0 in
  let retransmits = ref 0 and duplicates = ref 0 and channel_drops = ref 0 in
  let before = ref (Counters.zero ()) and after = ref (Counters.zero ()) in
  let vt_end = ref 0 in
  let finish () =
    vt_end := Sim.now sim;
    Round.close_timed meter;
    after := Counters.snapshot m
  in
  Sim.spawn_at sim t0_ns (fun () ->
      Round.open_timed meter;
      before := Counters.snapshot m);
  let fail f = f (); raise Abort in
  for flow = 0 to flows - 1 do
    let src = flow and dst = (flow + 2) mod flows in
    let src_addr = Mailbox.create () and dst_addr = Mailbox.create () in
    let shared = { rx_done = false; tx_done = false } in
    let wname dir = Printf.sprintf "stack-%d-%s" flow dir in
    Machine.spawn_app ~name:(wname "rx") ~cpu:1 m ~node:dst (fun api ->
        let tr = Tr.actor tracer in
        let base = Result.get_ok (CT.create api ~pool:4 ~depth:8 ()) in
        Mailbox.put dst_addr (CT.address base);
        Result.get_ok (CT.connect base (Mailbox.take src_addr));
        let r, conn = stack tr base in
        let wd = Watchdog.create ~budget ~sim ~name:(wname "rx") () in
        let got = ref 0 in
        (try
           while !got < messages do
             match SW.recv conn with
             | Ok (Some p) ->
                 Watchdog.progress wd;
                 incr got;
                 let i = !got in
                 if not (Bytes.equal p (payload ~seed ~flow ~idx:i)) then
                   tally.mismatches <- tally.mismatches + 1;
                 latency.((flow * messages) + i - 1) <-
                   Sim.now sim - send_start.(flow).(i);
                 incr delivered;
                 if !delivered = flows * messages then finish ()
             | Ok None ->
                 if Watchdog.expired wd then
                   fail (fun () -> tally.stalls <- tally.stalls + 1);
                 SW.idle conn
             | Error _ -> fail (fun () -> tally.errors <- tally.errors + 1)
           done;
           shared.rx_done <- true;
           Watchdog.progress wd;
           (* Linger, re-acknowledging, until the sender stands down: a
              dropped final ack must not strand it. A payload surfacing
              now is a duplicate. *)
           while not shared.tx_done do
             (match SW.recv conn with
             | Ok (Some _) -> tally.mismatches <- tally.mismatches + 1
             | Ok None -> ()
             | Error _ -> fail (fun () -> tally.errors <- tally.errors + 1));
             if Watchdog.expired wd then
               fail (fun () -> tally.stalls <- tally.stalls + 1);
             SW.idle conn
           done
         with Abort -> shared.rx_done <- true);
        tally.lost <- tally.lost + (messages - !got);
        duplicates := !duplicates + R.duplicates r;
        channel_drops := !channel_drops + CT.drops base);
    Machine.spawn_app ~name:(wname "tx") ~cpu:0 m ~node:src (fun api ->
        let tr = Tr.actor tracer in
        let base = Result.get_ok (CT.create api ~pool:4 ~depth:8 ()) in
        Mailbox.put src_addr (CT.address base);
        Result.get_ok (CT.connect base (Mailbox.take dst_addr));
        let r, conn = stack tr base in
        let wd = Watchdog.create ~budget ~sim ~name:(wname "tx") () in
        Round.wait_until sim t0_ns;
        Watchdog.progress wd;
        (try
           for i = 1 to messages do
             Option.iter (fun a -> Spans.set_current a ((flow lsl 20) lor i)) tr;
             let p = payload ~seed ~flow ~idx:i in
             let t = Sim.now sim in
             send_start.(flow).(i) <- t;
             let rec push () =
               match SW.send conn ~deadline:(Sim.now sim + send_deadline_ns) p with
               | Ok () -> Watchdog.progress wd
               | Error `Timeout ->
                   tally.errors <- tally.errors + 1;
                   if Watchdog.expired wd then
                     fail (fun () -> tally.stalls <- tally.stalls + 1);
                   push ()
               | Error _ -> fail (fun () -> tally.errors <- tally.errors + 1)
             in
             push ();
             send_wait.((flow * messages) + i - 1) <- Sim.now sim - t;
             Sim.delay pace_ns
           done;
           (* Keep acknowledgements and retransmissions turning until the
              receiver holds everything. *)
           let acked = ref (R.acked r) in
           while not shared.rx_done do
             (match SW.pump conn with
             | Ok () -> ()
             | Error _ -> fail (fun () -> tally.errors <- tally.errors + 1));
             if R.acked r > !acked then begin
               acked := R.acked r;
               Watchdog.progress wd
             end;
             if Watchdog.expired wd then
               fail (fun () -> tally.stalls <- tally.stalls + 1);
             SW.idle conn
           done
         with Abort -> ());
        shared.tx_done <- true;
        retransmits := !retransmits + R.retransmits r;
        duplicates := !duplicates + R.duplicates r;
        channel_drops := !channel_drops + CT.drops base)
  done;
  Machine.run m;
  Machine.stop_engines m;
  Machine.run m;
  Option.iter
    (fun mon -> tally.violations <- List.length (Monitor.violations mon))
    mon;
  if !vt_end = 0 then finish ();
  let window_ns = !vt_end - t0_ns in
  {
    Round.tally;
    msgs = !delivered;
    latency_ns = Round.sorted latency;
    vt_delivered_per_s = float_of_int !delivered /. (float_of_int window_ns /. 1e9);
    window_ns;
    meter;
    counters = Counters.diff ~before:!before !after;
    extra =
      [
        ("flow.retrans.retransmits", float_of_int !retransmits);
        ("flow.retrans.duplicates", float_of_int !duplicates);
        ("flow.channel.drops", float_of_int !channel_drops);
        ( "flow.send_wait_us_p99",
          Pct.interp (Round.sorted send_wait) 99. /. 1000. );
      ];
    notes =
      [
        Printf.sprintf
          "%d flows x %d messages, pace %d ns; retransmits %d, duplicates %d, \
           channel drops %d"
          flows messages pace_ns !retransmits !duplicates !channel_drops;
      ];
  }
