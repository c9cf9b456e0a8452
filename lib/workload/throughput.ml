module Sim = Flipc_sim.Engine
module Mem_port = Flipc_memsim.Mem_port
module Machine = Flipc.Machine
module Api = Flipc.Api
module Config = Flipc.Config
module Nameservice = Flipc.Nameservice
module Endpoint_kind = Flipc.Endpoint_kind

type result = {
  messages : int;
  payload_bytes : int;
  elapsed_us : float;
  msgs_per_sec : float;
  mb_per_sec : float;
  drops : int;
}

let ok = function
  | Ok v -> v
  | Error e -> failwith ("Throughput: " ^ Api.error_to_string e)

let run ~machine ~node_a ~node_b ~payload_bytes ~messages ?(send_window = 8)
    ?(recv_depth = 8) () =
  let sim = Machine.sim machine in
  let config = Machine.config machine in
  if messages < 1 then invalid_arg "Throughput.run: messages < 1";
  if payload_bytes > Config.payload_bytes config then
    invalid_arg "Throughput.run: payload exceeds configured message size";
  let ns = Machine.names machine in
  let name = Printf.sprintf "tp-%d-%d" node_a node_b in
  let start = ref 0 and stop = ref 0 and drops = ref 0 in

  Machine.spawn_app ~name:"tp-sink" machine ~node:node_b (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      let depth = min recv_depth (config.Config.queue_capacity - 1) in
      for _ = 1 to depth do
        ok (Api.post_receive api ep (ok (Api.allocate_buffer api)))
      done;
      Nameservice.register ns name (Api.address api ep);
      let got = ref 0 in
      while !got + !drops < messages do
        (match Api.receive api ep with
        | Some buf ->
            incr got;
            ok (Api.post_receive api ep buf)
        | None -> Mem_port.instr (Api.port api) 5);
        drops := !drops + Api.drops_read_and_reset api ep
      done;
      stop := Sim.now sim);

  Machine.spawn_app ~name:"tp-source" machine ~node:node_a (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
      Api.connect api ep (Nameservice.lookup ns name);
      let window = min send_window (config.Config.queue_capacity - 1) in
      let free = Queue.create () in
      for _ = 1 to window do
        Queue.push (ok (Api.allocate_buffer api)) free
      done;
      start := Sim.now sim;
      for _ = 1 to messages do
        let rec get () =
          (match Api.reclaim api ep with
          | Some b -> Queue.push b free
          | None -> ());
          match Queue.take_opt free with
          | Some b -> b
          | None ->
              Mem_port.instr (Api.port api) 5;
              get ()
        in
        let buf = get () in
        ok (Api.send api ep buf)
      done);

  Machine.run machine;
  Machine.stop_engines machine;
  Machine.run machine;
  let elapsed_us = float_of_int (!stop - !start) /. 1000. in
  let secs = elapsed_us /. 1e6 in
  {
    messages;
    payload_bytes;
    elapsed_us;
    msgs_per_sec = (if secs > 0. then float_of_int messages /. secs else 0.);
    mb_per_sec =
      (if secs > 0. then float_of_int (messages * payload_bytes) /. secs /. 1e6
       else 0.);
    drops = !drops;
  }

let measure ?(config = Config.default) ?(cols = 2) ?(rows = 1) ~payload_bytes
    ~messages ?send_window ?recv_depth () =
  let config = Config.for_payload config payload_bytes in
  let machine = Machine.create ~config (Machine.Mesh { cols; rows }) () in
  run ~machine ~node_a:0 ~node_b:1 ~payload_bytes ~messages ?send_window
    ?recv_depth ()
