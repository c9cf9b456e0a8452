module Sim = Flipc_sim.Engine
module Mailbox = Flipc_sim.Sync.Mailbox
module Mem_port = Flipc_memsim.Mem_port
module Machine = Flipc.Machine
module Api = Flipc.Api
module Config = Flipc.Config
module Address = Flipc.Address
module Endpoint_kind = Flipc.Endpoint_kind
module Summary = Flipc_stats.Summary

type result = {
  payload_bytes : int;
  message_bytes : int;
  exchanges : int;
  round_trips_us : float list;
  one_way : Summary.t;
  aggregate_one_way_us : float;
  drops : int;
}

(* Spin-poll a receive endpoint; each probe costs a few instructions, so the
   polling loop advances virtual time just as a real polling loop burns
   cycles. *)
let poll_receive api ep =
  let port = Api.port api in
  let rec loop () =
    match Api.receive api ep with
    | Some buf -> buf
    | None ->
        Mem_port.instr port 5;
        loop ()
  in
  loop ()

let poll_reclaim api ep =
  let port = Api.port api in
  let rec loop () =
    match Api.reclaim api ep with
    | Some buf -> buf
    | None ->
        Mem_port.instr port 5;
        loop ()
  in
  loop ()

let ok = function
  | Ok v -> v
  | Error e -> failwith ("pingpong: " ^ Api.error_to_string e)

let run ?(touch_payload = false) ?(warmup = 2) ?(recv_depth = 4)
    ~machine ~node_a ~node_b ~payload_bytes ~exchanges () =
  let sim = Machine.sim machine in
  let config = Machine.config machine in
  if payload_bytes > Config.payload_bytes config then
    invalid_arg "Pingpong.run: payload exceeds configured message size";
  (* A ring of capacity c holds c-1 buffers; clamp the posted depth. *)
  let recv_depth = min recv_depth (config.Config.queue_capacity - 1) in
  (* Out-of-band address exchange; FLIPC assumes an external name service. *)
  let addr_of_a = Mailbox.create () and addr_of_b = Mailbox.create () in
  let samples = ref [] in
  let total_ns = ref 0 in
  let drops = ref 0 in
  let rounds = warmup + exchanges in

  Machine.spawn_app ~name:"pingpong-echo" machine ~node:node_b (fun api ->
      let recv_ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      let send_ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
      Mailbox.put addr_of_b (Api.address api recv_ep);
      let reply_to = Mailbox.take addr_of_a in
      Api.connect api send_ep reply_to;
      let recv_bufs =
        List.init recv_depth (fun _ -> ok (Api.allocate_buffer api))
      in
      List.iter (fun b -> ok (Api.post_receive api recv_ep b)) recv_bufs;
      let reply_buf = ok (Api.allocate_buffer api) in
      for _ = 1 to rounds do
        let got = poll_receive api recv_ep in
        if touch_payload then
          ignore (Api.read_payload api got payload_bytes : Bytes.t);
        ok (Api.post_receive api recv_ep got);
        if touch_payload then
          Api.write_payload api reply_buf (Bytes.make payload_bytes 'r');
        ok (Api.send api send_ep reply_buf);
        ignore (poll_reclaim api send_ep : Api.buffer)
      done;
      drops := !drops + Api.drops_read_and_reset api recv_ep);

  Machine.spawn_app ~name:"pingpong-client" machine ~node:node_a (fun api ->
      let recv_ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      let send_ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
      Mailbox.put addr_of_a (Api.address api recv_ep);
      let dest = Mailbox.take addr_of_b in
      Api.connect api send_ep dest;
      let recv_bufs =
        List.init recv_depth (fun _ -> ok (Api.allocate_buffer api))
      in
      List.iter (fun b -> ok (Api.post_receive api recv_ep b)) recv_bufs;
      let msg_buf = ok (Api.allocate_buffer api) in
      Api.write_payload api msg_buf (Bytes.make payload_bytes 'm');
      let start_measured = ref 0 in
      for round = 1 to rounds do
        let t0 = Sim.now sim in
        if touch_payload then
          Api.write_payload api msg_buf (Bytes.make payload_bytes 'm');
        ok (Api.send api send_ep msg_buf);
        let got = poll_receive api recv_ep in
        if touch_payload then
          ignore (Api.read_payload api got payload_bytes : Bytes.t);
        ok (Api.post_receive api recv_ep got);
        ignore (poll_reclaim api send_ep : Api.buffer);
        let t1 = Sim.now sim in
        if round > warmup then begin
          if !start_measured = 0 then start_measured := t0;
          samples := float_of_int (t1 - t0) /. 1000. :: !samples;
          total_ns := !total_ns + (t1 - t0)
        end
      done;
      drops := !drops + Api.drops_read_and_reset api recv_ep);

  Machine.run machine;
  Machine.stop_engines machine;
  Machine.run machine;
  let round_trips_us = List.rev !samples in
  let one_way = Summary.of_samples (List.map (fun r -> r /. 2.) round_trips_us) in
  {
    payload_bytes;
    message_bytes = config.Config.message_bytes;
    exchanges;
    round_trips_us;
    one_way;
    aggregate_one_way_us =
      float_of_int !total_ns /. 1000. /. (2. *. float_of_int exchanges);
    drops = !drops;
  }

let measure ?(config = Config.default) ?cost ?(cols = 4) ?(rows = 4)
    ?(node_a = 0) ?(node_b = 1) ?touch_payload ?warmup ~payload_bytes
    ~exchanges () =
  let config = Config.for_payload config payload_bytes in
  let machine = Machine.create ~config ?cost (Machine.Mesh { cols; rows }) () in
  run ?touch_payload ?warmup ~machine ~node_a ~node_b ~payload_bytes ~exchanges
    ()

let result_fields r =
  let module Json = Flipc_obs.Json in
  [
    ("payload_bytes", Json.Int r.payload_bytes);
    ("message_bytes", Json.Int r.message_bytes);
    ("exchanges", Json.Int r.exchanges);
    ("aggregate_one_way_us", Json.Float r.aggregate_one_way_us);
    ("drops", Json.Int r.drops);
  ]
  @ Flipc_obs.Metrics.summary_fields ~suffix:"_us" r.one_way
