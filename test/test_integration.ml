(* Integration tests: full machines, end-to-end message transfer, discard
   semantics, blocking receive, endpoint groups, engine robustness. *)

module Sim = Flipc_sim.Engine
module Mailbox = Flipc_sim.Sync.Mailbox
module Mem_port = Flipc_memsim.Mem_port
module Config = Flipc.Config
module Address = Flipc.Address
module Api = Flipc.Api
module Machine = Flipc.Machine
module Msg_engine = Flipc.Msg_engine
module Endpoint_kind = Flipc.Endpoint_kind
module Endpoint_group = Flipc.Endpoint_group
module Layout = Flipc.Layout
module Rt_semaphore = Flipc_rt.Rt_semaphore

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail ("api error: " ^ Api.error_to_string e)

let mesh2 ?config () =
  Machine.create ?config (Machine.Mesh { cols = 2; rows = 1 }) ()

let poll_receive api ep =
  let rec loop () =
    match Api.receive api ep with
    | Some b -> b
    | None ->
        Mem_port.instr (Api.port api) 5;
        loop ()
  in
  loop ()

let finish machine =
  Machine.run machine;
  Machine.stop_engines machine;
  Machine.run machine

(* One message, payload checked byte-for-byte. *)
let test_basic_transfer () =
  let machine = mesh2 () in
  let addr_box = Mailbox.create () in
  let received = ref "" in
  Machine.spawn_app machine ~node:1 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      let buf = ok (Api.allocate_buffer api) in
      ok (Api.post_receive api ep buf);
      Mailbox.put addr_box (Api.address api ep);
      let got = poll_receive api ep in
      received := Bytes.to_string (Api.read_payload api got 11));
  Machine.spawn_app machine ~node:0 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
      Api.connect api ep (Mailbox.take addr_box);
      let buf = ok (Api.allocate_buffer api) in
      Api.write_payload api buf (Bytes.of_string "hello flipc");
      ok (Api.send api ep buf));
  finish machine;
  Alcotest.(check string) "payload intact" "hello flipc" !received

(* FIFO ordering from one source endpoint to one destination endpoint. *)
let test_ordering () =
  let machine = mesh2 () in
  let addr_box = Mailbox.create () in
  let n = 30 in
  let order = ref [] in
  Machine.spawn_app machine ~node:1 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      for _ = 1 to 6 do
        ok (Api.post_receive api ep (ok (Api.allocate_buffer api)))
      done;
      Mailbox.put addr_box (Api.address api ep);
      for _ = 1 to n do
        let buf = poll_receive api ep in
        let v = Bytes.get_int32_le (Api.read_payload api buf 4) 0 in
        order := Int32.to_int v :: !order;
        ok (Api.post_receive api ep buf)
      done);
  Machine.spawn_app machine ~node:0 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
      Api.connect api ep (Mailbox.take addr_box);
      let pool = List.init 4 (fun _ -> ok (Api.allocate_buffer api)) in
      let free = Queue.create () in
      List.iter (fun b -> Queue.push b free) pool;
      for i = 1 to n do
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
        let payload = Bytes.create 4 in
        Bytes.set_int32_le payload 0 (Int32.of_int i);
        Api.write_payload api buf payload;
        ok (Api.send api ep buf)
      done);
  finish machine;
  Alcotest.(check (list int)) "FIFO" (List.init n (fun i -> i + 1))
    (List.rev !order)

(* Optimistic discard: no posted buffer => message dropped and counted;
   later messages with buffers still arrive. *)
let test_discard_semantics () =
  let machine = mesh2 () in
  let addr_box = Mailbox.create () in
  let got = ref 0 and drops = ref 0 in
  let to_receiver = Mailbox.create () and to_sender = Mailbox.create () in
  Machine.spawn_app machine ~node:1 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      Mailbox.put addr_box (Api.address api ep);
      (* Phase 1: no buffers posted; the sender fires 3 messages. *)
      ignore (Mailbox.take to_receiver : int);
      (* Phase 2: post a buffer and receive one more message. *)
      ok (Api.post_receive api ep (ok (Api.allocate_buffer api)));
      Mailbox.put to_sender 2;
      ignore (poll_receive api ep : Api.buffer);
      incr got;
      drops := Api.drops_read_and_reset api ep);
  Machine.spawn_app machine ~node:0 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
      Api.connect api ep (Mailbox.take addr_box);
      let buf = ok (Api.allocate_buffer api) in
      for _ = 1 to 3 do
        ok (Api.send api ep buf);
        let rec reclaim () =
          match Api.reclaim api ep with
          | Some _ -> ()
          | None ->
              Mem_port.instr (Api.port api) 5;
              reclaim ()
        in
        reclaim ()
      done;
      (* Let the wire drain before the receiver posts its buffer. *)
      Sim.delay (Flipc_sim.Vtime.us 200);
      Mailbox.put to_receiver 1;
      ignore (Mailbox.take to_sender : int);
      ok (Api.send api ep buf));
  finish machine;
  check "one delivered" 1 !got;
  check "three dropped and counted" 3 !drops

(* The engine's statistics and the dropped-message counter agree. *)
let test_engine_stats () =
  let machine = mesh2 () in
  let addr_box = Mailbox.create () in
  Machine.spawn_app machine ~node:1 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      for _ = 1 to 8 do
        ok (Api.post_receive api ep (ok (Api.allocate_buffer api)))
      done;
      Mailbox.put addr_box (Api.address api ep);
      for _ = 1 to 5 do
        let b = poll_receive api ep in
        ok (Api.post_receive api ep b)
      done);
  Machine.spawn_app machine ~node:0 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
      Api.connect api ep (Mailbox.take addr_box);
      let buf = ok (Api.allocate_buffer api) in
      for _ = 1 to 5 do
        ok (Api.send api ep buf);
        let rec reclaim () =
          match Api.reclaim api ep with
          | Some _ -> ()
          | None ->
              Mem_port.instr (Api.port api) 5;
              reclaim ()
        in
        reclaim ()
      done);
  finish machine;
  let s0 = Msg_engine.stats (Machine.msg_engine (Machine.node machine 0)) in
  let s1 = Msg_engine.stats (Machine.msg_engine (Machine.node machine 1)) in
  check "sender engine sends" 5 s0.Msg_engine.sends;
  check "receiver engine recvs" 5 s1.Msg_engine.recvs;
  check "no drops" 0 s1.Msg_engine.drops;
  check_bool "engines iterated" true (s0.Msg_engine.iterations > 0)

(* Blocking receive via the real-time semaphore. *)
let test_receive_wait () =
  let machine = mesh2 () in
  let addr_box = Mailbox.create () in
  let woke_with = ref "" in
  let n1 = Machine.node machine 1 in
  let sem = Rt_semaphore.create (Machine.sched n1) in
  Machine.spawn_app machine ~node:1 (fun api ->
      let ep =
        ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ~semaphore:sem ())
      in
      ok (Api.post_receive api ep (ok (Api.allocate_buffer api)));
      Mailbox.put addr_box (Api.address api ep);
      ignore
        (Machine.spawn_thread machine ~node:1 ~priority:5 (fun thr api ->
             let buf = Api.receive_wait api ep thr in
             woke_with := Bytes.to_string (Api.read_payload api buf 4))
          : Flipc_rt.Sched.thread));
  Machine.spawn_app machine ~node:0 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
      Api.connect api ep (Mailbox.take addr_box);
      Sim.delay (Flipc_sim.Vtime.us 100);
      let buf = ok (Api.allocate_buffer api) in
      Api.write_payload api buf (Bytes.of_string "wake");
      ok (Api.send api ep buf));
  finish machine;
  Alcotest.(check string) "woken with payload" "wake" !woke_with

(* Endpoint groups: receive_any scans members; blocking group receive works
   through the shared semaphore. *)
let test_endpoint_group () =
  let machine = mesh2 () in
  let addr_box = Mailbox.create () in
  let got = ref [] in
  let n1 = Machine.node machine 1 in
  let sem = Rt_semaphore.create (Machine.sched n1) in
  Machine.spawn_app machine ~node:1 (fun api ->
      let group = Endpoint_group.create ~semaphore:sem api in
      let eps =
        List.init 3 (fun _ ->
            let ep =
              ok
                (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv
                   ~semaphore:sem ())
            in
            Endpoint_group.add group ep;
            ok (Api.post_receive api ep (ok (Api.allocate_buffer api)));
            ep)
      in
      check "group size" 3 (Endpoint_group.size group);
      List.iter (fun ep -> Mailbox.put addr_box (Api.address api ep)) eps;
      ignore
        (Machine.spawn_thread machine ~node:1 ~priority:5 (fun thr api ->
             ignore api;
             for _ = 1 to 3 do
               let ep, buf = Endpoint_group.receive_any_wait group thr in
               got := Api.endpoint_index ep :: !got;
               ignore (buf : Api.buffer)
             done)
          : Flipc_rt.Sched.thread));
  Machine.spawn_app machine ~node:0 (fun api ->
      let send_ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
      let targets = List.init 3 (fun _ -> Mailbox.take addr_box) in
      let buf = ok (Api.allocate_buffer api) in
      List.iter
        (fun target ->
          ok (Api.send_to api send_ep buf target);
          let rec reclaim () =
            match Api.reclaim api send_ep with
            | Some _ -> ()
            | None ->
                Mem_port.instr (Api.port api) 5;
                reclaim ()
          in
          reclaim ())
        targets);
  finish machine;
  check "three messages through group" 3 (List.length !got);
  check_bool "from distinct endpoints" true
    (List.sort_uniq Int.compare !got |> List.length = 3)

(* Endpoint free and reuse: a freed endpoint index is recycled and works. *)
let test_endpoint_free_reuse () =
  let machine = mesh2 () in
  let addr_box = Mailbox.create () in
  let received = ref "" in
  Machine.spawn_app machine ~node:1 (fun api ->
      let first = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      let first_index = Api.endpoint_index first in
      Api.free_endpoint api first;
      let again = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      check "index recycled" first_index (Api.endpoint_index again);
      ok (Api.post_receive api again (ok (Api.allocate_buffer api)));
      Mailbox.put addr_box (Api.address api again);
      let got = poll_receive api again in
      received := Bytes.to_string (Api.read_payload api got 7));
  Machine.spawn_app machine ~node:0 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
      Api.connect api ep (Mailbox.take addr_box);
      let buf = ok (Api.allocate_buffer api) in
      Api.write_payload api buf (Bytes.of_string "recycle");
      ok (Api.send api ep buf));
  finish machine;
  Alcotest.(check string) "reused endpoint delivers" "recycle" !received

(* Group maintenance: remove drops a member from scanning; group drop
   counts aggregate across members. *)
let test_group_remove_and_drops () =
  let machine = mesh2 () in
  let addr_box = Mailbox.create () in
  Machine.spawn_app machine ~node:1 (fun api ->
      let group = Endpoint_group.create api in
      let ep1 = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      let ep2 = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      Endpoint_group.add group ep1;
      Endpoint_group.add group ep2;
      check "two members" 2 (Endpoint_group.size group);
      Endpoint_group.remove group ep1;
      check "one member" 1 (Endpoint_group.size group);
      check_bool "remaining is ep2" true
        (List.map Api.endpoint_index (Endpoint_group.members group)
        = [ Api.endpoint_index ep2 ]);
      (* No buffers posted on ep2: traffic to it is discarded and the group
         drop aggregate sees it. *)
      Mailbox.put addr_box (Api.address api ep2);
      Sim.delay (Flipc_sim.Vtime.us 500);
      check_bool "group drops counted" true (Endpoint_group.drops group >= 1);
      check_bool "nothing receivable" true (Endpoint_group.receive_any group = None));
  Machine.spawn_app machine ~node:0 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
      Api.connect api ep (Mailbox.take addr_box);
      ok (Api.send api ep (ok (Api.allocate_buffer api))));
  finish machine

(* Regression: removing a member below the round-robin cursor must shift
   the cursor with the compacted array. The buggy remove left [next]
   pointing one slot past the member whose fair turn was due, so after
   consuming from ep0 and removing it, the next scan started at ep2 and
   ep1 lost its turn even with a message waiting. *)
let test_group_remove_cursor () =
  let machine = mesh2 () in
  let addr_box = Mailbox.create () in
  let sent_box = Mailbox.create () in
  Machine.spawn_app machine ~node:1 (fun api ->
      let group = Endpoint_group.create api in
      let eps =
        Array.init 3 (fun _ ->
            let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
            Endpoint_group.add group ep;
            ok (Api.post_receive api ep (ok (Api.allocate_buffer api)));
            ep)
      in
      Array.iter (fun ep -> Mailbox.put addr_box (Api.address api ep)) eps;
      (* Wait until all three deposits are in their queues, so every scan
         below sees a message on every member and the cursor alone decides
         which endpoint is served. *)
      Mailbox.take sent_box;
      Sim.delay (Flipc_sim.Vtime.us 500);
      let expect label ep =
        match Endpoint_group.receive_any group with
        | None -> Alcotest.fail (label ^ ": nothing receivable")
        | Some (got, buf) ->
            ignore (buf : Api.buffer);
            check label (Api.endpoint_index ep) (Api.endpoint_index got)
      in
      expect "first scan serves ep0" eps.(0);
      (* Cursor now sits on ep1. Removing ep0 compacts the array: ep1
         shifts into slot 0 and the cursor must follow it there. *)
      Endpoint_group.remove group eps.(0);
      expect "ep1 keeps its turn after remove" eps.(1);
      expect "then ep2" eps.(2));
  Machine.spawn_app machine ~node:0 (fun api ->
      let send_ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
      let targets = List.init 3 (fun _ -> Mailbox.take addr_box) in
      let buf = ok (Api.allocate_buffer api) in
      List.iter
        (fun target ->
          ok (Api.send_to api send_ep buf target);
          let rec reclaim () =
            match Api.reclaim api send_ep with
            | Some _ -> ()
            | None ->
                Mem_port.instr (Api.port api) 5;
                reclaim ()
          in
          reclaim ())
        targets;
      Mailbox.put sent_box ());
  finish machine

(* Wait-freedom: an application that stalls forever in the middle of an
   operation cannot stop the engine from serving other endpoints. *)
let test_engine_wait_freedom () =
  let machine = mesh2 () in
  let addr_box = Mailbox.create () in
  let delivered = ref false in
  (* Application A on node 1 "stalls": it allocates a receive endpoint,
     posts nothing, and writes garbage directly into its queue slot area
     without ever advancing the release pointer (a half-completed
     operation). *)
  Machine.spawn_app machine ~node:1 (fun api ->
      let _stalled = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      let port = Api.port api in
      let layout = Api.layout api in
      Mem_port.poke port (Layout.slot_addr layout ~ep:0 ~slot:0) 12345;
      (* Then the thread hangs forever. *)
      Sim.suspend (fun _resume -> ()));
  (* Application B on node 1 uses a second endpoint normally. *)
  Machine.spawn_app machine ~node:1 (fun api ->
      Sim.delay (Flipc_sim.Vtime.us 10);
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      ok (Api.post_receive api ep (ok (Api.allocate_buffer api)));
      Mailbox.put addr_box (Api.address api ep);
      ignore (poll_receive api ep : Api.buffer);
      delivered := true);
  Machine.spawn_app machine ~node:0 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
      Api.connect api ep (Mailbox.take addr_box);
      let buf = ok (Api.allocate_buffer api) in
      ok (Api.send api ep buf));
  finish machine;
  check_bool "stalled app cannot block delivery" true !delivered

(* Validity checks: a corrupt queued pointer is rejected (message dropped,
   engine keeps running) instead of crashing the engine. *)
let test_validity_rejects_corrupt_slot () =
  let config = { Config.default with Config.validity_checks = true } in
  let machine = mesh2 ~config () in
  let addr_box = Mailbox.create () in
  let later = ref false in
  Machine.spawn_app machine ~node:1 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      Mailbox.put addr_box (Api.address api ep);
      let port = Api.port api in
      let layout = Api.layout api in
      let epi = Api.endpoint_index ep in
      (* Corrupt: insert a bogus buffer pointer by writing the slot and
         release cursor directly. *)
      Mem_port.poke port (Layout.slot_addr layout ~ep:epi ~slot:0) 12342;
      Mem_port.poke port (Layout.ep_field layout ~ep:epi Layout.Release) 1;
      (* Now wait for the engine to have consumed the corrupt slot and a
         real message to follow. *)
      Sim.delay (Flipc_sim.Vtime.us 300);
      (* Repair our own queue: skip the corrupt slot on the acquire side
         (the engine already advanced past it). *)
      Mem_port.poke port (Layout.ep_field layout ~ep:epi Layout.Acquire) 1;
      ok (Api.post_receive api ep (ok (Api.allocate_buffer api)));
      ignore (poll_receive api ep : Api.buffer);
      later := true);
  Machine.spawn_app machine ~node:0 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
      Api.connect api ep (Mailbox.take addr_box);
      let buf = ok (Api.allocate_buffer api) in
      ok (Api.send api ep buf);
      Sim.delay (Flipc_sim.Vtime.us 500);
      ok (Api.send api ep buf));
  finish machine;
  check_bool "engine survived corruption" true !later;
  let s1 = Msg_engine.stats (Machine.msg_engine (Machine.node machine 1)) in
  check_bool "reject counted" true (s1.Msg_engine.rejects >= 1)

(* Send to an invalid destination: counted, buffer still recovered. *)
let test_bad_destination () =
  let machine = mesh2 () in
  Machine.spawn_app machine ~node:0 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
      (* Node 77 does not exist. *)
      Api.connect api ep (Address.make ~node:77 ~endpoint:0);
      let buf = ok (Api.allocate_buffer api) in
      ok (Api.send api ep buf);
      let rec reclaim () =
        match Api.reclaim api ep with
        | Some _ -> ()
        | None ->
            Mem_port.instr (Api.port api) 5;
            reclaim ()
      in
      reclaim ());
  finish machine;
  let s0 = Msg_engine.stats (Machine.msg_engine (Machine.node machine 0)) in
  check "bad dest counted" 1 s0.Msg_engine.bad_dest

(* A wire bit flip that sets either top bit of a frame's destination word
   leaves no decodable address. The frame must be counted — as a checksum
   failure when frames carry checksums, as unroutable when they do not —
   whether one engine or a shard router receives it, and the NIC callback
   that hands it over must survive. *)
let test_corrupt_destination_word () =
  List.iter
    (fun (word, checksum, shards) ->
      let config =
        { Config.default with frame_checksum = checksum; engine_shards = shards }
      in
      let machine = mesh2 ~config () in
      let image = Bytes.make config.Config.message_bytes '\000' in
      Bytes.set_int32_le image 0 (Int32.of_int word);
      Sim.spawn (Machine.sim machine) (fun () ->
          Flipc_net.Nic.send
            (Machine.nic (Machine.node machine 0))
            (Flipc_net.Packet.make ~src:0 ~dst:1 ~protocol:Flipc_net.Packet.Flipc
               image));
      finish machine;
      let stats =
        List.map Msg_engine.stats (Machine.msg_engines (Machine.node machine 1))
      in
      let sum field = List.fold_left (fun acc s -> acc + field s) 0 stats in
      let label what =
        Printf.sprintf "word %#x, checksum %b, %d shard(s): %s" word checksum
          shards what
      in
      check (label "corrupt frames")
        (if checksum then 1 else 0)
        (sum (fun s -> s.Msg_engine.corrupt_frames));
      check (label "unroutable")
        (if checksum then 0 else 1)
        (sum (fun s -> s.Msg_engine.unroutable)))
    (List.concat_map
       (fun word ->
         List.concat_map
           (fun checksum -> List.map (fun shards -> (word, checksum, shards)) [ 1; 2 ])
           [ true; false ])
       [ 0x8000_0000; 0xC000_0000 ])

(* API error paths. *)
let test_api_errors () =
  let machine = mesh2 () in
  Machine.spawn_app machine ~node:0 (fun api ->
      let send_ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
      let recv_ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      let buf = ok (Api.allocate_buffer api) in
      (match Api.send api send_ep buf with
      | Error `No_destination -> ()
      | _ -> Alcotest.fail "expected No_destination");
      (match Api.send api recv_ep buf with
      | Error `Wrong_kind -> ()
      | _ -> Alcotest.fail "expected Wrong_kind on send");
      (match Api.post_receive api send_ep buf with
      | Error `Wrong_kind -> ()
      | _ -> Alcotest.fail "expected Wrong_kind on post");
      (* Fill a receive queue to Full. *)
      let cap = (Api.config api).Config.queue_capacity in
      for _ = 1 to cap - 1 do
        ok (Api.post_receive api recv_ep (ok (Api.allocate_buffer api)))
      done;
      (match Api.post_receive api recv_ep (ok (Api.allocate_buffer api)) with
      | Error `Full -> ()
      | _ -> Alcotest.fail "expected Full");
      (* Exhaust endpoints. *)
      let rec exhaust () =
        match Api.allocate_endpoint api ~kind:Endpoint_kind.Recv () with
        | Ok _ -> exhaust ()
        | Error `No_resources -> ()
        | Error e -> Alcotest.fail (Api.error_to_string e)
      in
      exhaust ());
  finish machine

(* Buffer pool exhaustion surfaces as No_resources. *)
let test_buffer_exhaustion () =
  let machine = mesh2 () in
  Machine.spawn_app machine ~node:0 (fun api ->
      let total = (Api.config api).Config.total_buffers in
      for _ = 1 to total do
        ignore (ok (Api.allocate_buffer api) : Api.buffer)
      done;
      match Api.allocate_buffer api with
      | Error `No_resources -> ()
      | Ok _ -> Alcotest.fail "pool should be exhausted"
      | Error e -> Alcotest.fail (Api.error_to_string e));
  finish machine

(* Locked interface variant: functional equivalence with the lock-free
   interface (ablation only changes timing). *)
let test_locked_mode_functional () =
  let config = { Config.default with Config.lock_mode = Config.Test_and_set } in
  let machine = mesh2 ~config () in
  let addr_box = Mailbox.create () in
  let received = ref 0 in
  Machine.spawn_app machine ~node:1 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      for _ = 1 to 4 do
        ok (Api.post_receive api ep (ok (Api.allocate_buffer api)))
      done;
      Mailbox.put addr_box (Api.address api ep);
      for _ = 1 to 10 do
        let b = poll_receive api ep in
        incr received;
        ok (Api.post_receive api ep b)
      done);
  Machine.spawn_app machine ~node:0 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
      Api.connect api ep (Mailbox.take addr_box);
      let buf = ok (Api.allocate_buffer api) in
      for _ = 1 to 10 do
        ok (Api.send api ep buf);
        let rec reclaim () =
          match Api.reclaim api ep with
          | Some _ -> ()
          | None ->
              Mem_port.instr (Api.port api) 5;
              reclaim ()
        in
        reclaim ()
      done);
  finish machine;
  check "all delivered under locks" 10 !received

(* Packed layout variant is likewise functionally identical. *)
let test_packed_mode_functional () =
  let config = { Config.default with Config.layout_mode = Config.Packed } in
  let machine = mesh2 ~config () in
  let addr_box = Mailbox.create () in
  let received = ref "" in
  Machine.spawn_app machine ~node:1 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      ok (Api.post_receive api ep (ok (Api.allocate_buffer api)));
      Mailbox.put addr_box (Api.address api ep);
      let got = poll_receive api ep in
      received := Bytes.to_string (Api.read_payload api got 6));
  Machine.spawn_app machine ~node:0 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
      Api.connect api ep (Mailbox.take addr_box);
      let buf = ok (Api.allocate_buffer api) in
      Api.write_payload api buf (Bytes.of_string "packed");
      ok (Api.send api ep buf));
  finish machine;
  Alcotest.(check string) "packed delivers" "packed" !received

(* Messages across several nodes of a larger mesh simultaneously. *)
let test_many_nodes () =
  let machine = Machine.create (Machine.Mesh { cols = 4; rows = 4 }) () in
  let server_addr = Mailbox.create () in
  let received = ref 0 in
  let senders = [ 1; 3; 5; 12; 15 ] in
  Machine.spawn_app machine ~node:0 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      for _ = 1 to 8 do
        ok (Api.post_receive api ep (ok (Api.allocate_buffer api)))
      done;
      for _ = 1 to List.length senders do
        Mailbox.put server_addr (Api.address api ep)
      done;
      for _ = 1 to 3 * List.length senders do
        let b = poll_receive api ep in
        incr received;
        ok (Api.post_receive api ep b)
      done);
  List.iter
    (fun node ->
      Machine.spawn_app machine ~node (fun api ->
          let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
          Api.connect api ep (Mailbox.take server_addr);
          let buf = ok (Api.allocate_buffer api) in
          for _ = 1 to 3 do
            ok (Api.send api ep buf);
            let rec reclaim () =
              match Api.reclaim api ep with
              | Some _ -> ()
              | None ->
                  Mem_port.instr (Api.port api) 5;
                  reclaim ()
            in
            reclaim ()
          done))
    senders;
  finish machine;
  check "all messages arrive" (3 * List.length senders) !received

(* Ethernet and SCSI machines run the identical application code: the
   paper's portability claim for the library + communication buffer. *)
let portability_roundtrip kind =
  let machine = Machine.create ~cost:Flipc_memsim.Cost_model.pc_cluster kind () in
  let addr_box = Mailbox.create () in
  let received = ref "" in
  Machine.spawn_app machine ~node:1 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      ok (Api.post_receive api ep (ok (Api.allocate_buffer api)));
      Mailbox.put addr_box (Api.address api ep);
      let got = poll_receive api ep in
      received := Bytes.to_string (Api.read_payload api got 4));
  Machine.spawn_app machine ~node:0 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
      Api.connect api ep (Mailbox.take addr_box);
      let buf = ok (Api.allocate_buffer api) in
      Api.write_payload api buf (Bytes.of_string "port");
      ok (Api.send api ep buf));
  finish machine;
  Alcotest.(check string) "delivered" "port" !received

let test_ethernet_machine () = portability_roundtrip (Machine.Ethernet { nodes = 2 })
let test_scsi_machine () = portability_roundtrip (Machine.Scsi { nodes = 2 })

(* Engine lifecycle: parks when idle, wakes on traffic, stops cleanly. *)
let test_engine_park_and_stop () =
  let machine = mesh2 () in
  Machine.spawn_app machine ~node:0 (fun api -> ignore (Api.payload_bytes api));
  Machine.run machine;
  let e0 = Machine.msg_engine (Machine.node machine 0) in
  check_bool "parked when idle" true ((Msg_engine.stats e0).Msg_engine.parks >= 1);
  check_bool "still running" true (Msg_engine.running e0);
  Machine.stop_engines machine;
  Machine.run machine;
  check_bool "stopped" false (Msg_engine.running e0)

(* Two application CPUs of one node share a single send endpoint under the
   locked (test-and-set) interface: the multiprocessor mutual exclusion the
   paper's original interface provided. Every message must arrive, exactly
   once, whatever the interleaving of the two CPUs. *)
let test_two_cpus_share_locked_endpoint () =
  let config = { Config.default with Config.lock_mode = Config.Test_and_set } in
  let machine = mesh2 ~config () in
  let addr_box = Mailbox.create () in
  let per_cpu = 12 in
  let received = ref 0 in
  Machine.spawn_app machine ~node:1 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      for _ = 1 to 8 do
        ok (Api.post_receive api ep (ok (Api.allocate_buffer api)))
      done;
      (* Both CPUs look the address up. *)
      Mailbox.put addr_box (Api.address api ep);
      Mailbox.put addr_box (Api.address api ep);
      for _ = 1 to 2 * per_cpu do
        let b = poll_receive api ep in
        incr received;
        ok (Api.post_receive api ep b)
      done);
  (* The shared endpoint is allocated once by CPU 0's attachment and used
     by both CPUs through their own attachments. *)
  let shared_ep = Mailbox.create () in
  Machine.spawn_app ~cpu:0 machine ~node:0 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
      Api.connect api ep (Mailbox.take addr_box);
      Mailbox.put shared_ep ep;
      let buf = ok (Api.allocate_buffer api) in
      for _ = 1 to per_cpu do
        ok (Api.send api ep buf);
        let rec reclaim () =
          match Api.reclaim api ep with
          | Some _ -> ()
          | None ->
              Mem_port.instr (Api.port api) 7;
              reclaim ()
        in
        reclaim ()
      done);
  Machine.spawn_app ~cpu:1 machine ~node:0 (fun api ->
      ignore (Mailbox.take addr_box : Flipc.Address.t);
      let ep = Mailbox.take shared_ep in
      let buf = ok (Api.allocate_buffer api) in
      for _ = 1 to per_cpu do
        ok (Api.send api ep buf);
        let rec reclaim () =
          match Api.reclaim api ep with
          | Some _ -> ()
          | None ->
              Mem_port.instr (Api.port api) 5;
              reclaim ()
        in
        reclaim ()
      done);
  finish machine;
  check "all messages from both CPUs" (2 * per_cpu) !received

(* Distinct CPUs get distinct cached attachments; same CPU is cached. *)
let test_api_attachment_caching () =
  let machine = mesh2 () in
  let a0 = Machine.api machine ~node:0 ~cpu:0 () in
  let a0' = Machine.api machine ~node:0 ~cpu:0 () in
  let a1 = Machine.api machine ~node:0 ~cpu:1 () in
  check_bool "same cpu cached" true (a0 == a0');
  check_bool "different cpu distinct" true (not (a0 == a1));
  check_bool "distinct ports" true (not (Api.port a0 == Api.port a1));
  check_bool "shared comm buffer" true (Api.comm a0 == Api.comm a1)

(* The machine's typed tracer records the engine's side of the
   message lifecycle. *)
let test_engine_trace () =
  let machine = mesh2 () in
  let tracer = Flipc_obs.Obs.tracer (Machine.obs machine) in
  Flipc_obs.Tracer.enable tracer;
  let addr_box = Mailbox.create () in
  Machine.spawn_app machine ~node:1 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      ok (Api.post_receive api ep (ok (Api.allocate_buffer api)));
      Mailbox.put addr_box (Api.address api ep);
      ignore (poll_receive api ep : Api.buffer));
  Machine.spawn_app machine ~node:0 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
      Api.connect api ep (Mailbox.take addr_box);
      ok (Api.send api ep (ok (Api.allocate_buffer api))));
  finish machine;
  let has p =
    List.exists
      (fun (e : Flipc_obs.Tracer.entry) -> p e.Flipc_obs.Tracer.ev)
      (Flipc_obs.Tracer.to_list tracer)
  in
  check_bool "transmit traced" true
    (has (function Flipc_obs.Event.Engine_tx _ -> true | _ -> false));
  check_bool "deposit traced" true
    (has (function Flipc_obs.Event.Deposit _ -> true | _ -> false));
  check_bool "park traced" true
    (has (function Flipc_obs.Event.Engine_park _ -> true | _ -> false))

let () =
  Alcotest.run "integration"
    [
      ( "transfer",
        [
          Alcotest.test_case "basic" `Quick test_basic_transfer;
          Alcotest.test_case "ordering" `Quick test_ordering;
          Alcotest.test_case "discard semantics" `Quick test_discard_semantics;
          Alcotest.test_case "engine stats" `Quick test_engine_stats;
          Alcotest.test_case "many nodes" `Quick test_many_nodes;
        ] );
      ( "blocking",
        [
          Alcotest.test_case "receive_wait" `Quick test_receive_wait;
          Alcotest.test_case "endpoint group" `Quick test_endpoint_group;
          Alcotest.test_case "endpoint free/reuse" `Quick
            test_endpoint_free_reuse;
          Alcotest.test_case "group remove & drops" `Quick
            test_group_remove_and_drops;
          Alcotest.test_case "group remove keeps cursor fair" `Quick
            test_group_remove_cursor;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "wait freedom" `Quick test_engine_wait_freedom;
          Alcotest.test_case "validity checks" `Quick
            test_validity_rejects_corrupt_slot;
          Alcotest.test_case "bad destination" `Quick test_bad_destination;
          Alcotest.test_case "corrupt destination word" `Quick
            test_corrupt_destination_word;
          Alcotest.test_case "api errors" `Quick test_api_errors;
          Alcotest.test_case "buffer exhaustion" `Quick test_buffer_exhaustion;
        ] );
      ( "variants",
        [
          Alcotest.test_case "locked mode" `Quick test_locked_mode_functional;
          Alcotest.test_case "packed mode" `Quick test_packed_mode_functional;
          Alcotest.test_case "ethernet machine" `Quick test_ethernet_machine;
          Alcotest.test_case "scsi machine" `Quick test_scsi_machine;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "park and stop" `Quick test_engine_park_and_stop;
          Alcotest.test_case "engine trace" `Quick test_engine_trace;
          Alcotest.test_case "two CPUs, locked endpoint" `Quick
            test_two_cpus_share_locked_endpoint;
          Alcotest.test_case "attachment caching" `Quick
            test_api_attachment_caching;
        ] );
    ]
