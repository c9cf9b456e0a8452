(* pingpong: a closed loop, one client, on a 2-node mesh.

   The client sends a 120-byte payload (the paper's TAB-CMP size) over
   the singleton Api path. The echo reposts a spare buffer and sends the
   very buffer it received back, so the payload crosses the wire twice
   untouched by either CPU, and the client checks every echo against
   what it sent. One-way latency is half the round trip, timed from the
   send call to the receive that returns the echo. A seeded think time of up to 2 us
   before each send moves the exchange against the engines' poll phase;
   it is short enough that neither engine parks. *)

module Sim = Flipc_sim.Engine
module Prng = Flipc_sim.Prng
module Mailbox = Flipc_sim.Sync.Mailbox
module Machine = Flipc.Machine
module Api = Flipc.Api
module Config = Flipc.Config
module Endpoint_kind = Flipc.Endpoint_kind
module Mem_port = Flipc_memsim.Mem_port
module Monitor = Flipc_obs.Monitor
module Tally = Perfbench_core.Tally

let name = "pingpong"
let payload_bytes = 120
let exchanges = 1200
let warmup = 50
let recv_depth = 4
let think_max_ns = 2_000

let ok = function
  | Ok v -> v
  | Error e -> failwith ("pingpong: " ^ Api.error_to_string e)

let poll_receive tr api ep ~msg =
  let port = Api.port api in
  let rec loop () =
    match Tapi.receive tr api ep ~msg with
    | Some b -> b
    | None ->
        Mem_port.instr port 5;
        loop ()
  in
  loop ()

let poll_reclaim tr api ep ~msg =
  let port = Api.port api in
  let rec loop () =
    match Tapi.reclaim tr api ep ~msg with
    | Some b -> b
    | None ->
        Mem_port.instr port 5;
        loop ()
  in
  loop ()

(* Seeded per exchange, cheap to regenerate: no allocation per byte. *)
let fill payload r =
  for j = 0 to Bytes.length payload - 1 do
    Bytes.unsafe_set payload j
      (Char.unsafe_chr ((r + (j * 131) + (r lsr (j land 15))) land 0xff))
  done

let run ~seed ~tracer ~monitor =
  let meter = Round.meter () in
  Round.start meter;
  let config = Config.for_payload Config.default payload_bytes in
  let m = Machine.create ~config (Machine.Mesh { cols = 2; rows = 1 }) () in
  let mon = if monitor then Some (Machine.attach_monitor m) else None in
  let sim = Machine.sim m in
  Tr.set_sim sim;
  let tally = Tally.create () in
  tally.attempted <- exchanges;
  let rtt = Array.make exchanges 0 in
  let before = ref (Counters.zero ()) and after = ref (Counters.zero ()) in
  let vt0 = ref 0 and vt1 = ref 0 in
  let addr_a = Mailbox.create () and addr_b = Mailbox.create () in
  let total = warmup + exchanges in
  Machine.spawn_app ~name:"pp-echo" m ~node:1 (fun api ->
      let tr = Tr.actor tracer in
      let recv_ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      let send_ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
      Mailbox.put addr_b (Api.address api recv_ep);
      Api.connect api send_ep (Mailbox.take addr_a);
      for _ = 1 to recv_depth do
        ok (Api.post_receive api recv_ep (ok (Api.allocate_buffer api)))
      done;
      let spare = ref (ok (Api.allocate_buffer api)) in
      for i = 1 to total do
        let got = poll_receive tr api recv_ep ~msg:i in
        ok (Tapi.post_receive tr api recv_ep !spare ~msg:i);
        ok (Tapi.send tr api send_ep got ~msg:i);
        spare := poll_reclaim tr api send_ep ~msg:i
      done;
      tally.drops <- tally.drops + Api.drops_read_and_reset api recv_ep);
  Machine.spawn_app ~name:"pp-client" m ~node:0 (fun api ->
      let tr = Tr.actor tracer in
      let prng = Prng.create ~seed in
      let recv_ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      let send_ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
      Mailbox.put addr_a (Api.address api recv_ep);
      Api.connect api send_ep (Mailbox.take addr_b);
      for _ = 1 to recv_depth do
        ok (Api.post_receive api recv_ep (ok (Api.allocate_buffer api)))
      done;
      let msg_buf = ok (Api.allocate_buffer api) in
      let payload = Bytes.create payload_bytes in
      for i = 1 to total do
        if i = warmup + 1 then begin
          Round.open_timed meter;
          before := Counters.snapshot m;
          vt0 := Sim.now sim
        end;
        fill payload (Prng.int prng 0x3FFFFFFF);
        Api.write_payload api msg_buf payload;
        Sim.delay (Prng.int prng think_max_ns);
        let t0 = Sim.now sim in
        ok (Tapi.send tr api send_ep msg_buf ~msg:i);
        let got = poll_receive tr api recv_ep ~msg:i in
        if i > warmup then rtt.(i - warmup - 1) <- Sim.now sim - t0;
        if not (Bytes.equal (Api.read_payload api got payload_bytes) payload)
        then tally.mismatches <- tally.mismatches + 1;
        ok (Tapi.post_receive tr api recv_ep got ~msg:i);
        ignore (poll_reclaim tr api send_ep ~msg:i : Api.buffer)
      done;
      vt1 := Sim.now sim;
      Round.close_timed meter;
      after := Counters.snapshot m;
      tally.drops <- tally.drops + Api.drops_read_and_reset api recv_ep);
  Machine.run m;
  Machine.stop_engines m;
  Machine.run m;
  Option.iter
    (fun mon -> tally.violations <- List.length (Monitor.violations mon))
    mon;
  let window_ns = !vt1 - !vt0 in
  let msgs = 2 * exchanges in
  {
    Round.tally;
    msgs;
    (* One-way latency is half the round trip. *)
    latency_ns = Round.sorted (Array.map (fun r -> r / 2) rtt);
    vt_delivered_per_s = float_of_int msgs /. (float_of_int window_ns /. 1e9);
    window_ns;
    meter;
    counters = Counters.diff ~before:!before !after;
    extra = [];
    notes =
      [
        Printf.sprintf "%d exchanges of %d B after %d warm-up exchanges"
          exchanges payload_bytes warmup;
      ];
  }
