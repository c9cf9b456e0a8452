(* Tests for the extension features implemented from the paper's
   future-work list: the name service, the buffer-managing channel layer,
   transport priority and capacity control, destination restrictions, and
   the bulk-transfer protocol. *)

module Sim = Flipc_sim.Engine
module Vtime = Flipc_sim.Vtime
module Mailbox = Flipc_sim.Sync.Mailbox
module Mem_port = Flipc_memsim.Mem_port
module Shared_mem = Flipc_memsim.Shared_mem
module Config = Flipc.Config
module Api = Flipc.Api
module Machine = Flipc.Machine
module Msg_engine = Flipc.Msg_engine
module Endpoint_kind = Flipc.Endpoint_kind
module Nameservice = Flipc.Nameservice
module Channel = Flipc.Channel
module Address = Flipc.Address
module Bulk = Flipc_bulk.Bulk

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail ("api error: " ^ Api.error_to_string e)

let ok_ch = function
  | Ok v -> v
  | Error e -> Alcotest.fail ("channel error: " ^ Channel.error_to_string e)

let mesh2 ?config () =
  Machine.create ?config (Machine.Mesh { cols = 2; rows = 1 }) ()

let finish machine =
  Machine.run machine;
  Machine.stop_engines machine;
  Machine.run machine

(* --- Nameservice --- *)

let test_nameservice_lookup_blocks () =
  let sim = Sim.create () in
  let ns = Nameservice.create () in
  let found_at = ref (-1) in
  Sim.spawn sim (fun () ->
      let addr = Nameservice.lookup ns "server" in
      found_at := Sim.now sim;
      check "addr node" 3 (Address.node addr));
  Sim.spawn sim (fun () ->
      Sim.delay 50;
      Nameservice.register ns "server" (Address.make ~node:3 ~endpoint:1));
  Sim.run sim;
  check "lookup completed at registration" 50 !found_at;
  check "size" 1 (Nameservice.size ns)

let test_nameservice_try_and_duplicates () =
  let ns = Nameservice.create () in
  check_bool "absent" true (Nameservice.try_lookup ns "x" = None);
  Nameservice.register ns "x" (Address.make ~node:0 ~endpoint:0);
  check_bool "present" true (Nameservice.try_lookup ns "x" <> None);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Nameservice.register: duplicate name x") (fun () ->
      Nameservice.register ns "x" (Address.make ~node:1 ~endpoint:0))

let test_machine_has_nameservice () =
  let machine = mesh2 () in
  check "fresh" 0 (Nameservice.size (Machine.names machine))

(* --- Channel --- *)

let test_channel_roundtrip () =
  let machine = mesh2 () in
  let ns = Machine.names machine in
  let got = ref [] in
  Machine.spawn_app machine ~node:1 (fun api ->
      let rx = ok_ch (Channel.create_rx api ()) in
      Nameservice.register ns "rx" (Channel.address rx);
      let rec loop n =
        if n < 3 then
          match Channel.recv rx with
          | Some payload ->
              got := Bytes.to_string payload :: !got;
              loop (n + 1)
          | None ->
              Mem_port.instr (Api.port api) 5;
              loop n
      in
      loop 0;
      check "received count" 3 (Channel.received rx));
  Machine.spawn_app machine ~node:0 (fun api ->
      let dest = Nameservice.lookup ns "rx" in
      let tx = ok_ch (Channel.create_tx api ~dest ()) in
      (* Variable-length payloads, no buffer management in sight. *)
      List.iter
        (fun s -> ok_ch (Channel.send tx (Bytes.of_string s)))
        [ "one"; "two2"; "three33" ];
      check "sent count" 3 (Channel.sent tx));
  finish machine;
  Alcotest.(check (list string))
    "payloads exact" [ "one"; "two2"; "three33" ] (List.rev !got)

let test_channel_pool_recycles () =
  (* Send far more messages than the pool size: reclaim must recycle. *)
  let machine = mesh2 () in
  let ns = Machine.names machine in
  let received = ref 0 in
  let total = 40 in
  Machine.spawn_app machine ~node:1 (fun api ->
      let rx = ok_ch (Channel.create_rx api ~depth:6 ()) in
      Nameservice.register ns "rx" (Channel.address rx);
      while !received < total do
        match Channel.recv rx with
        | Some _ -> incr received
        | None -> Mem_port.instr (Api.port api) 5
      done;
      check "no drops" 0 (Channel.drops rx));
  Machine.spawn_app machine ~node:0 (fun api ->
      let dest = Nameservice.lookup ns "rx" in
      let tx = ok_ch (Channel.create_tx api ~dest ~pool:3 ()) in
      for i = 1 to total do
        ok_ch (Channel.send tx (Bytes.make 32 (Char.chr (64 + (i mod 26)))))
      done);
  finish machine;
  check "all delivered with pool of 3" total !received

let test_channel_try_send_exhaustion () =
  let machine = mesh2 () in
  Machine.spawn_app machine ~node:0 (fun api ->
      (* Destination is irrelevant: we only exercise the pool. *)
      let dest = Address.make ~node:1 ~endpoint:0 in
      let tx = ok_ch (Channel.create_tx api ~dest ~pool:2 ()) in
      (match Channel.try_send tx (Bytes.of_string "a") with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Channel.error_to_string e));
      (match Channel.try_send tx (Bytes.of_string "b") with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Channel.error_to_string e));
      (* Pool exhausted and the engine may not have transmitted yet; a
         spin-free try_send reports `No_buffer rather than blocking. *)
      match Channel.try_send tx (Bytes.of_string "c") with
      | Error `No_buffer -> ()
      | Ok () -> () (* engine was quick: also fine *)
      | Error e -> Alcotest.fail (Channel.error_to_string e));
  finish machine

let test_channel_send_deadline () =
  let machine = mesh2 () in
  Machine.spawn_app machine ~node:0 (fun api ->
      let dest = Address.make ~node:1 ~endpoint:0 in
      let tx = ok_ch (Channel.create_tx api ~dest ~pool:1 ()) in
      let send ~within payload =
        Channel.send_deadline tx ~deadline:(Api.now api + within)
          (Bytes.of_string payload)
      in
      (match send ~within:(Vtime.ms 20) "a" with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "pool available: first send must succeed");
      (* The single buffer is in flight; a 30 ns bound cannot cover the
         engine's transmit latency, so the bounded wait gives up (where
         [send] would keep spinning). *)
      (match send ~within:30 "b" with
      | Error `Timeout -> ()
      | Ok () -> Alcotest.fail "expected timeout on a 30 ns bound"
      | Error _ -> Alcotest.fail "expected timeout");
      (* A generous bound outlives the transmit and reclaims. *)
      match send ~within:(Vtime.ms 20) "c" with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "engine running: reclaim must succeed");
  finish machine

let test_channel_capacity_checked () =
  let machine = mesh2 () in
  Machine.spawn_app machine ~node:0 (fun api ->
      let dest = Address.make ~node:1 ~endpoint:0 in
      let tx = ok_ch (Channel.create_tx api ~dest ()) in
      let too_big = Bytes.create (Channel.capacity api + 1) in
      Alcotest.check_raises "capacity"
        (Invalid_argument "Channel.send: payload exceeds channel capacity")
        (fun () -> ignore (Channel.send tx too_big)));
  finish machine

let test_channel_recv_wait () =
  let machine = mesh2 () in
  let ns = Machine.names machine in
  let got = ref "" in
  let n1 = Machine.node machine 1 in
  let sem = Flipc_rt.Rt_semaphore.create (Machine.sched n1) in
  Machine.spawn_app machine ~node:1 (fun api ->
      let rx = ok_ch (Channel.create_rx api ~semaphore:sem ()) in
      Nameservice.register ns "rx" (Channel.address rx);
      ignore
        (Machine.spawn_thread machine ~node:1 ~priority:5 (fun thr _api ->
             got := Bytes.to_string (Channel.recv_wait rx thr))
          : Flipc_rt.Sched.thread));
  Machine.spawn_app machine ~node:0 (fun api ->
      let dest = Nameservice.lookup ns "rx" in
      let tx = ok_ch (Channel.create_tx api ~dest ()) in
      Sim.delay (Vtime.us 50);
      ok_ch (Channel.send tx (Bytes.of_string "blocking works")));
  finish machine;
  Alcotest.(check string) "woken with payload" "blocking works" !got

(* A peer ignoring the channel framing cannot crash the receiver: the
   garbage frame is counted and skipped, later well-formed traffic still
   arrives. *)
let test_channel_corrupt_frame_skipped () =
  let machine = mesh2 () in
  let ns = Machine.names machine in
  let got = ref "" and corrupt = ref 0 in
  Machine.spawn_app machine ~node:1 (fun api ->
      let rx = ok_ch (Channel.create_rx api ()) in
      Nameservice.register ns "rx" (Channel.address rx);
      let rec poll () =
        match Channel.recv rx with
        | Some p -> p
        | None ->
            Mem_port.instr (Api.port api) 5;
            poll ()
      in
      got := Bytes.to_string (poll ());
      corrupt := Channel.corrupt_frames rx);
  Machine.spawn_app machine ~node:0 (fun api ->
      let dest = Nameservice.lookup ns "rx" in
      (* First a raw FLIPC message with a garbage length word... *)
      let raw_ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
      Api.connect api raw_ep dest;
      let raw = ok (Api.allocate_buffer api) in
      let garbage = Bytes.create 4 in
      Bytes.set_int32_le garbage 0 0x0FFFFFFFl;
      Api.write_payload api raw garbage;
      ok (Api.send api raw_ep raw);
      (* ... then a proper channel message. *)
      let tx = ok_ch (Channel.create_tx api ~dest ()) in
      Sim.delay (Flipc_sim.Vtime.us 100);
      ok_ch (Channel.send tx (Bytes.of_string "still alive")));
  finish machine;
  Alcotest.(check string) "well-formed frame arrives" "still alive" !got;
  check "garbage counted" 1 !corrupt

(* --- Transport priority & capacity control --- *)

(* Two send endpoints on node 0, same destination node: a low-priority
   flood and a sporadic high-priority endpoint. The engine must transmit
   the high-priority message before the queued flood backlog. *)
let test_transport_priority () =
  let machine = mesh2 () in
  let ns = Machine.names machine in
  let arrival_order = ref [] in
  Machine.spawn_app machine ~node:1 (fun api ->
      let rx = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      for _ = 1 to 8 do
        ok (Api.post_receive api rx (ok (Api.allocate_buffer api)))
      done;
      Nameservice.register ns "rx" (Api.address api rx);
      let rec loop n =
        if n < 6 then
          match Api.receive api rx with
          | Some buf ->
              let tagb = Api.read_payload api buf 1 in
              arrival_order := Bytes.get tagb 0 :: !arrival_order;
              ok (Api.post_receive api rx buf);
              loop (n + 1)
          | None ->
              Mem_port.instr (Api.port api) 5;
              loop n
      in
      loop 0);
  Machine.spawn_app machine ~node:0 (fun api ->
      let dest = Nameservice.lookup ns "rx" in
      (* The low-priority endpoint is also burst-limited so a backlog is
         guaranteed to exist when the high-priority message is queued. *)
      let low =
        ok
          (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ~priority:1
             ~burst:1 ())
      in
      let high =
        ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ~priority:9 ())
      in
      Api.connect api low dest;
      Api.connect api high dest;
      let bufs = List.init 5 (fun _ -> ok (Api.allocate_buffer api)) in
      List.iter
        (fun b ->
          Api.write_payload api b (Bytes.of_string "L");
          ok (Api.send api low b))
        bufs;
      let hb = ok (Api.allocate_buffer api) in
      Api.write_payload api hb (Bytes.of_string "H");
      ok (Api.send api high hb));
  finish machine;
  (* The high-priority message must overtake the queued low backlog: at
     least one L arrives after H. *)
  let order = List.rev !arrival_order in
  let order_s = String.init (List.length order) (List.nth order) in
  let h_pos = String.index order_s 'H' in
  check_bool
    (Fmt.str "H overtakes backlog in %S" order_s)
    true
    (h_pos < String.length order_s - 1)

(* Burst capacity: a flood endpoint with burst=1 cannot emit more than one
   message per engine iteration, so its messages interleave with iteration
   boundaries instead of leaving back-to-back. *)
let test_burst_capacity () =
  let machine = mesh2 () in
  let ns = Machine.names machine in
  let arrivals = ref [] in
  let sim = Machine.sim machine in
  Machine.spawn_app machine ~node:1 (fun api ->
      let rx = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      for _ = 1 to 8 do
        ok (Api.post_receive api rx (ok (Api.allocate_buffer api)))
      done;
      Nameservice.register ns "rx" (Api.address api rx);
      let rec loop n =
        if n < 4 then
          match Api.receive api rx with
          | Some buf ->
              arrivals := Sim.now sim :: !arrivals;
              ok (Api.post_receive api rx buf);
              loop (n + 1)
          | None ->
              Mem_port.instr (Api.port api) 5;
              loop n
      in
      loop 0);
  Machine.spawn_app machine ~node:0 (fun api ->
      let dest = Nameservice.lookup ns "rx" in
      let ep =
        ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ~burst:1 ())
      in
      Api.connect api ep dest;
      let bufs = List.init 4 (fun _ -> ok (Api.allocate_buffer api)) in
      List.iter (fun b -> ok (Api.send api ep b)) bufs);
  finish machine;
  (* With burst=1 each departure waits for the next engine iteration
     (>= ~0.5us apart even though the wire would allow ~0.36us). *)
  let sorted = List.rev !arrivals in
  let rec min_gap = function
    | a :: (b :: _ as rest) -> min (b - a) (min_gap rest)
    | _ -> max_int
  in
  check_bool "iteration-paced departures" true (min_gap sorted >= 450)

(* Destination restriction: a confined endpoint cannot reach other nodes. *)
let test_destination_restriction () =
  let machine = Machine.create (Machine.Mesh { cols = 3; rows = 1 }) () in
  let ns = Machine.names machine in
  let reached = ref 0 in
  Machine.spawn_app machine ~node:1 (fun api ->
      let rx = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      for _ = 1 to 4 do
        ok (Api.post_receive api rx (ok (Api.allocate_buffer api)))
      done;
      Nameservice.register ns "allowed" (Api.address api rx));
  Machine.spawn_app machine ~node:2 (fun api ->
      let rx = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      for _ = 1 to 4 do
        ok (Api.post_receive api rx (ok (Api.allocate_buffer api)))
      done;
      Nameservice.register ns "forbidden" (Api.address api rx);
      let rec watch () =
        match Api.receive api rx with
        | Some _ -> reached := !reached + 1
        | None ->
            if Sim.now (Machine.sim machine) < Vtime.ms 2 then begin
              Mem_port.instr (Api.port api) 50;
              watch ()
            end
      in
      watch ());
  Machine.spawn_app machine ~node:0 (fun api ->
      let allowed_dest = Nameservice.lookup ns "allowed" in
      let forbidden_dest = Nameservice.lookup ns "forbidden" in
      (* Endpoint confined to node 1. *)
      let ep =
        ok
          (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ~allowed_node:1 ())
      in
      let b1 = ok (Api.allocate_buffer api) in
      let b2 = ok (Api.allocate_buffer api) in
      ok (Api.send_to api ep b1 allowed_dest);
      ok (Api.send_to api ep b2 forbidden_dest));
  finish machine;
  check "forbidden destination never reached" 0 !reached;
  let s0 = Msg_engine.stats (Machine.msg_engine (Machine.node machine 0)) in
  check "engine counted the violation" 1 s0.Msg_engine.forbidden;
  check "allowed send went through" 1 s0.Msg_engine.sends

(* --- Multiple communication buffers per node (trust domains) --- *)

(* Two mutually untrusting applications on the same node, each in its own
   communication buffer, both communicating with remote peers through the
   one engine. *)
let test_multi_comm_independent_traffic () =
  let machine =
    Machine.create ~comm_buffers:2 (Machine.Mesh { cols = 2; rows = 1 }) ()
  in
  let ns = Machine.names machine in
  let got_a = ref "" and got_b = ref "" in
  let receiver comm name cell =
    Machine.spawn_app machine ~node:1 ~comm (fun api ->
        let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
        ok (Api.post_receive api ep (ok (Api.allocate_buffer api)));
        Nameservice.register ns name (Api.address api ep);
        let rec poll () =
          match Api.receive api ep with
          | Some b -> b
          | None ->
              Mem_port.instr (Api.port api) 5;
              poll ()
        in
        cell := Bytes.to_string (Api.read_payload api (poll ()) 5))
  in
  receiver 0 "app-a" got_a;
  receiver 1 "app-b" got_b;
  let sender comm name payload =
    Machine.spawn_app machine ~node:0 ~comm (fun api ->
        let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
        Api.connect api ep (Nameservice.lookup ns name);
        let buf = ok (Api.allocate_buffer api) in
        Api.write_payload api buf (Bytes.of_string payload);
        ok (Api.send api ep buf))
  in
  sender 0 "app-a" "alpha";
  sender 1 "app-b" "bravo";
  finish machine;
  Alcotest.(check string) "domain A delivered" "alpha" !got_a;
  Alcotest.(check string) "domain B delivered" "bravo" !got_b

(* Distinct buffer pools: exhausting one application's pool does not
   touch the other's. *)
let test_multi_comm_separate_pools () =
  let machine =
    Machine.create ~comm_buffers:2 (Machine.Mesh { cols = 2; rows = 1 }) ()
  in
  Machine.spawn_app machine ~node:0 ~comm:0 (fun api ->
      let total = (Api.config api).Config.total_buffers in
      for _ = 1 to total do
        ignore (ok (Api.allocate_buffer api) : Api.buffer)
      done;
      match Api.allocate_buffer api with
      | Error `No_resources -> ()
      | _ -> Alcotest.fail "domain 0 pool should be exhausted");
  Machine.spawn_app machine ~node:0 ~comm:1 (fun api ->
      (* Domain 1's pool is untouched. *)
      ignore (ok (Api.allocate_buffer api) : Api.buffer));
  finish machine

(* The engine refuses buffer pointers that reach outside the owning
   application's region: a malicious app cannot make the engine read
   another domain's memory. *)
let test_multi_comm_cross_region_pointer_rejected () =
  let machine =
    Machine.create ~comm_buffers:2 (Machine.Mesh { cols = 2; rows = 1 }) ()
  in
  let ns = Machine.names machine in
  let received = ref 0 in
  Machine.spawn_app machine ~node:1 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      ok (Api.post_receive api ep (ok (Api.allocate_buffer api)));
      Nameservice.register ns "victim" (Api.address api ep);
      let deadline = Flipc_sim.Vtime.ms 2 in
      let rec watch () =
        match Api.receive api ep with
        | Some _ -> incr received
        | None ->
            if Sim.now (Machine.sim machine) < deadline then begin
              Mem_port.instr (Api.port api) 50;
              watch ()
            end
      in
      watch ());
  Machine.spawn_app machine ~node:0 ~comm:0 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
      Api.connect api ep (Nameservice.lookup ns "victim");
      (* Forge a queue entry pointing into domain 1's region. *)
      let port = Api.port api in
      let layout = Api.layout api in
      let foreign =
        Flipc.Layout.buffer_addr
          (Flipc.Comm_buffer.layout
             (Machine.comm_at (Machine.node machine 0) 1))
          0
      in
      let epi = Api.endpoint_index ep in
      Mem_port.poke port (Flipc.Layout.slot_addr layout ~ep:epi ~slot:0) foreign;
      Mem_port.poke port
        (Flipc.Layout.ep_field layout ~ep:epi Flipc.Layout.Release)
        1;
      Flipc.Msg_engine.poke (Machine.msg_engine (Machine.node machine 0)));
  finish machine;
  check "forged pointer never transmitted" 0 !received;
  let s = Msg_engine.stats (Machine.msg_engine (Machine.node machine 0)) in
  check_bool "engine rejected the forgery" true (s.Msg_engine.rejects >= 1)

(* --- Bulk transfer --- *)

let test_bulk_put_roundtrip () =
  let machine = mesh2 () in
  let bulk = Bulk.create machine in
  let region = Bulk.export bulk ~node:1 ~len:65536 in
  check "region node" 1 (Bulk.region_node region);
  let data = Bytes.init 20_000 (fun i -> Char.chr (i land 0xFF)) in
  Machine.spawn_app machine ~node:0 (fun _api ->
      Bulk.put bulk ~from:0 region data);
  finish machine;
  (* Verify the bytes really landed in node 1's memory. *)
  let mem = Machine.mem (Machine.node machine 1) in
  let landed =
    Shared_mem.read_bytes mem ~pos:(Bulk.region_base region) ~len:20_000
  in
  check_bool "data intact" true (Bytes.equal landed data);
  check "one put" 1 (Bulk.stats bulk).Bulk.puts

let test_bulk_get_roundtrip () =
  let machine = mesh2 () in
  let bulk = Bulk.create machine in
  let region = Bulk.export bulk ~node:1 ~len:8192 in
  let mem = Machine.mem (Machine.node machine 1) in
  let data = Bytes.init 8192 (fun i -> Char.chr ((i * 7) land 0xFF)) in
  Shared_mem.write_bytes mem ~pos:(Bulk.region_base region) data;
  let fetched = ref Bytes.empty in
  Machine.spawn_app machine ~node:0 (fun _api ->
      fetched := Bulk.get bulk ~into:0 region ~len:8192);
  finish machine;
  check_bool "get returns region contents" true (Bytes.equal !fetched data)

let test_bulk_offsets () =
  let machine = mesh2 () in
  let bulk = Bulk.create machine in
  let region = Bulk.export bulk ~node:1 ~len:1024 in
  Machine.spawn_app machine ~node:0 (fun _api ->
      Bulk.put bulk ~from:0 ~at:100 region (Bytes.make 16 'x');
      let back = Bulk.get bulk ~into:0 ~at:100 region ~len:16 in
      check_bool "offset roundtrip" true (Bytes.equal back (Bytes.make 16 'x')));
  finish machine

let test_bulk_bounds_rejected () =
  let machine = mesh2 () in
  let bulk = Bulk.create machine in
  let region = Bulk.export bulk ~node:1 ~len:1024 in
  Machine.spawn_app machine ~node:0 (fun _api ->
      Alcotest.check_raises "local bounds"
        (Invalid_argument "Bulk.put: range outside region") (fun () ->
          Bulk.put bulk ~from:0 ~at:1000 region (Bytes.create 100)));
  finish machine

let test_bulk_bandwidth_plausible () =
  let machine = mesh2 () in
  let bulk = Bulk.create machine in
  let region = Bulk.export bulk ~node:1 ~len:(200 * 1024) in
  let sim = Machine.sim machine in
  let mbps = ref 0. in
  Machine.spawn_app machine ~node:0 (fun _api ->
      let bytes = 200 * 1024 in
      let t0 = Sim.now sim in
      Bulk.put bulk ~from:0 region (Bytes.create bytes);
      let dt = Sim.now sim - t0 in
      mbps := float_of_int bytes /. float_of_int dt *. 1000.);
  finish machine;
  (* Software bulk rates on this hardware were 140-175 MB/s. *)
  check_bool (Fmt.str "bandwidth %.0f MB/s in range" !mbps) true
    (!mbps > 140. && !mbps < 200.)

(* Several transfers in flight at once, different directions and regions:
   all complete with the right data. *)
let test_bulk_concurrent_transfers () =
  let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
  let bulk = Bulk.create machine in
  let r0 = Bulk.export bulk ~node:0 ~len:16384 in
  let r1a = Bulk.export bulk ~node:1 ~len:16384 in
  let r1b = Bulk.export bulk ~node:1 ~len:16384 in
  let mem0 = Machine.mem (Machine.node machine 0) in
  let fill = Bytes.init 16384 (fun i -> Char.chr ((i * 13) land 0xFF)) in
  Shared_mem.write_bytes mem0 ~pos:(Bulk.region_base r0) fill;
  let got = ref Bytes.empty in
  Machine.spawn_app machine ~node:0 (fun _api ->
      Bulk.put bulk ~from:0 r1a (Bytes.make 16384 'A'));
  Machine.spawn_app machine ~node:0 (fun _api ->
      Bulk.put bulk ~from:0 r1b (Bytes.make 16384 'B'));
  Machine.spawn_app machine ~node:1 (fun _api ->
      got := Bulk.get bulk ~into:1 r0 ~len:16384);
  finish machine;
  let mem1 = Machine.mem (Machine.node machine 1) in
  check_bool "region A" true
    (Bytes.equal
       (Shared_mem.read_bytes mem1 ~pos:(Bulk.region_base r1a) ~len:16384)
       (Bytes.make 16384 'A'));
  check_bool "region B" true
    (Bytes.equal
       (Shared_mem.read_bytes mem1 ~pos:(Bulk.region_base r1b) ~len:16384)
       (Bytes.make 16384 'B'));
  check_bool "get result" true (Bytes.equal !got fill)

let test_bulk_coexists_with_flipc () =
  (* A FLIPC message carries a region handle; the peer then bulk-reads the
     region — the integration pattern of PAM (active message + bulk). *)
  let machine = mesh2 () in
  let bulk = Bulk.create machine in
  let ns = Machine.names machine in
  let fetched = ref 0 in
  Machine.spawn_app machine ~node:1 (fun api ->
      let rx = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      ok (Api.post_receive api rx (ok (Api.allocate_buffer api)));
      Nameservice.register ns "ctl" (Api.address api rx);
      let rec poll () =
        match Api.receive api rx with
        | Some b -> b
        | None ->
            Mem_port.instr (Api.port api) 5;
            poll ()
      in
      let buf = poll () in
      let payload = Api.read_payload api buf 8 in
      let handle = Int32.to_int (Bytes.get_int32_le payload 0) in
      let len = Int32.to_int (Bytes.get_int32_le payload 4) in
      let region = Option.get (Bulk.region_of_handle bulk handle) in
      let data = Bulk.get bulk ~into:1 region ~len in
      fetched := Bytes.length data);
  Machine.spawn_app machine ~node:0 (fun api ->
      let region = Bulk.export bulk ~node:0 ~len:32768 in
      let dest = Nameservice.lookup ns "ctl" in
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
      Api.connect api ep dest;
      let buf = ok (Api.allocate_buffer api) in
      let payload = Bytes.create 8 in
      Bytes.set_int32_le payload 0 (Int32.of_int (Bulk.handle region));
      Bytes.set_int32_le payload 4 (Int32.of_int 32768);
      Api.write_payload api buf payload;
      ok (Api.send api ep buf));
  finish machine;
  check "peer pulled the whole region" 32768 !fetched

let () =
  Alcotest.run "ext"
    [
      ( "nameservice",
        [
          Alcotest.test_case "lookup blocks" `Quick test_nameservice_lookup_blocks;
          Alcotest.test_case "try/duplicates" `Quick
            test_nameservice_try_and_duplicates;
          Alcotest.test_case "machine-wide" `Quick test_machine_has_nameservice;
        ] );
      ( "channel",
        [
          Alcotest.test_case "roundtrip" `Quick test_channel_roundtrip;
          Alcotest.test_case "pool recycles" `Quick test_channel_pool_recycles;
          Alcotest.test_case "try_send exhaustion" `Quick
            test_channel_try_send_exhaustion;
          Alcotest.test_case "send_deadline" `Quick test_channel_send_deadline;
          Alcotest.test_case "capacity" `Quick test_channel_capacity_checked;
          Alcotest.test_case "recv_wait" `Quick test_channel_recv_wait;
          Alcotest.test_case "corrupt frame skipped" `Quick
            test_channel_corrupt_frame_skipped;
        ] );
      ( "transport-extensions",
        [
          Alcotest.test_case "priority" `Quick test_transport_priority;
          Alcotest.test_case "burst capacity" `Quick test_burst_capacity;
          Alcotest.test_case "destination restriction" `Quick
            test_destination_restriction;
        ] );
      ( "multi-comm",
        [
          Alcotest.test_case "independent traffic" `Quick
            test_multi_comm_independent_traffic;
          Alcotest.test_case "separate pools" `Quick
            test_multi_comm_separate_pools;
          Alcotest.test_case "cross-region pointer rejected" `Quick
            test_multi_comm_cross_region_pointer_rejected;
        ] );
      ( "bulk",
        [
          Alcotest.test_case "put roundtrip" `Quick test_bulk_put_roundtrip;
          Alcotest.test_case "get roundtrip" `Quick test_bulk_get_roundtrip;
          Alcotest.test_case "offsets" `Quick test_bulk_offsets;
          Alcotest.test_case "bounds rejected" `Quick test_bulk_bounds_rejected;
          Alcotest.test_case "bandwidth plausible" `Quick
            test_bulk_bandwidth_plausible;
          Alcotest.test_case "coexists with flipc" `Quick
            test_bulk_coexists_with_flipc;
          Alcotest.test_case "concurrent transfers" `Quick
            test_bulk_concurrent_transfers;
        ] );
    ]
