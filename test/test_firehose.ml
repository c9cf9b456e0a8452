(* Properties of the throughput path (DESIGN.md §16): batched send and
   receive must be observationally identical to the singleton path —
   same per-endpoint FIFO, same conservation, clean invariant monitors —
   for every batch size, with and without fabric faults; the
   one-doorbell-per-burst protocol must never lose a wakeup, including
   when several applications ring the shared summary word concurrently;
   and the sharded multi-engine runs must stay deterministic with their
   per-shard metrics snapshot in a stable order. *)

module Sim = Flipc_sim.Engine
module Mem_port = Flipc_memsim.Mem_port
module Config = Flipc.Config
module Api = Flipc.Api
module Machine = Flipc.Machine
module Msg_engine = Flipc.Msg_engine
module Endpoint_kind = Flipc.Endpoint_kind
module Nameservice = Flipc.Nameservice
module Monitor = Flipc_obs.Monitor
module Faulty = Flipc_net.Faulty
module Firehose = Flipc_workload.Firehose

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail ("api error: " ^ Api.error_to_string e)

let finish machine =
  Machine.run machine;
  Machine.stop_engines machine;
  Machine.run machine

let seq_payload i =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int i);
  b

let seq_of_payload b = Int64.to_int (Bytes.get_int64_le b 0)

(* One sender streams [total] numbered messages to one receiver using
   the burst interface sized by the config knobs; the receiver drains
   with [receive_burst] and records the sequence numbers it saw. Returns
   (received sequence, receiver-side engine drops, sent, monitor).

   The raw path has no end-to-end flow control: the sender can keep
   [qcap + burst] messages in flight and a slow receiver can fall a whole
   ring behind, so the receive engine may drop. With [~credit] the
   harness holds the sender to at most [qcap] messages sent but not yet
   reposted by the receiver, so every arrival finds a posted buffer. *)
let run_numbered ~config ?fault ?(credit = false) ~total () =
  let machine =
    match fault with
    | Some fault ->
        Machine.create ~config ~fault (Machine.Mesh { cols = 2; rows = 1 }) ()
    | None -> Machine.create ~config (Machine.Mesh { cols = 2; rows = 1 }) ()
  in
  let mon = Machine.attach_monitor machine in
  let ns = Machine.names machine in
  let sim = Machine.sim machine in
  let qcap = config.Config.queue_capacity - 1 in
  let received = ref [] in
  let drops = ref 0 in
  let deadline = Flipc_sim.Vtime.ms 30 in
  let sent = ref 0 and reposted = ref 0 in
  Machine.spawn_app ~name:"rx" machine ~node:1 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      for _ = 1 to qcap do
        ok (Api.post_receive api ep (ok (Api.allocate_buffer api)))
      done;
      Nameservice.register ns "rx" (Api.address api ep);
      let burst = max 1 config.Config.app_recv_burst in
      let out = Array.make burst (ok (Api.allocate_buffer api)) in
      Api.free_buffer api out.(0);
      while Sim.now sim < deadline do
        let n = Api.receive_burst api ep ~out in
        if n = 0 then Sim.delay 500
        else begin
          for i = 0 to n - 1 do
            received := seq_of_payload (Api.read_payload api out.(i) 8)
                        :: !received
          done;
          reposted :=
            !reposted + ok (Api.post_receive_burst api ep (Array.sub out 0 n))
        end;
        drops := !drops + Api.drops_read_and_reset api ep
      done);
  Machine.spawn_app ~name:"tx" machine ~node:0 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
      Api.connect api ep (Nameservice.lookup ns "rx");
      let burst = max 1 config.Config.app_send_burst in
      let free = Queue.create () in
      for _ = 1 to min config.Config.total_buffers (qcap + burst) do
        Queue.push (ok (Api.allocate_buffer api)) free
      done;
      let next = ref 0 in
      let stage = Array.make burst (Queue.peek free) in
      while !next < total && Sim.now sim < deadline do
        let n = ref 0 in
        while
          !n < burst
          && !next + !n < total
          && (not (Queue.is_empty free))
          && ((not credit) || !sent + !n - !reposted < qcap)
        do
          let b = Queue.pop free in
          Api.write_payload api b (seq_payload (!next + !n));
          stage.(!n) <- b;
          incr n
        done;
        if !n > 0 then begin
          let accepted = ok (Api.send_burst api ep (Array.sub stage 0 !n)) in
          sent := !sent + accepted;
          next := !next + accepted;
          (* Overflow stays ours: put unaccepted staged buffers back. *)
          for i = accepted to !n - 1 do
            Queue.push stage.(i) free
          done
        end;
        let out = Array.make burst stage.(0) in
        let r = Api.reclaim_burst api ep ~out in
        for i = 0 to r - 1 do
          Queue.push out.(i) free
        done;
        if !n = 0 then Sim.delay 400
      done);
  Machine.run ~until:deadline machine;
  finish machine;
  (List.rev !received, !drops, !sent, mon)

let batch_gen =
  QCheck.Gen.(
    map3
      (fun tx s r -> (tx, s, r))
      (int_range 1 8) (int_range 1 8) (int_range 1 8))

let batch_print (tx, s, r) =
  Printf.sprintf "tx_batch=%d send_burst=%d recv_burst=%d" tx s r

(* Fault-free, with the sender credited from the receiver's reposts:
   every batch-size combination must deliver every message exactly once,
   in order, with no engine drop and clean monitors — byte-identical
   semantics to the singleton path. Returns the first violation. *)
let batched_fifo_failure (tx_batch, send_burst, recv_burst) =
  let config =
    {
      Config.default with
      Config.engine_tx_batch = tx_batch;
      app_send_burst = send_burst;
      app_recv_burst = recv_burst;
    }
  in
  let total = 40 in
  let received, drops, sent, mon =
    run_numbered ~config ~credit:true ~total ()
  in
  if sent <> total then Some (Printf.sprintf "sent %d of %d" sent total)
  else if drops <> 0 then
    Some (Printf.sprintf "unexpected engine drops: %d" drops)
  else if received <> List.init total Fun.id then
    Some
      (Printf.sprintf "out of order or lost: got %d msgs, FIFO %b"
         (List.length received)
         (List.sort compare received = received))
  else if not (Monitor.clean mon) then
    Some (Fmt.str "monitor violations:@ %a" Monitor.pp_report mon)
  else None

let batched_fifo_prop =
  QCheck.Test.make ~name:"batched path: FIFO & conservation, any batch size"
    ~count:20
    (QCheck.make ~print:batch_print batch_gen)
    (fun batch ->
      match batched_fifo_failure batch with
      | None -> true
      | Some why -> QCheck.Test.fail_report why)

(* The triples that overran the receive ring by one drop before the
   sender was credited. *)
let test_batched_fifo_pinned () =
  List.iter
    (fun batch ->
      Option.iter
        (fun why -> Alcotest.failf "%s: %s" (batch_print batch) why)
        (batched_fifo_failure batch))
    [ (5, 7, 1); (8, 4, 1) ]

(* Under drop faults the raw path may lose messages in the fabric, but
   whatever arrives must still be a FIFO subsequence of what was sent
   (frames on one endpoint pair never overtake on the mesh), nothing may
   be duplicated or corrupted, and the monitors must stay clean. Under
   reorder faults arrival order is the fabric's business, so only
   set-containment and cleanliness are asserted. *)
let faulted_batch_prop =
  QCheck.Test.make
    ~name:"batched path under drop/reorder faults: clean, no duplicates"
    ~count:15
    (QCheck.make
       ~print:(fun ((b : int * int * int), drop, reorder, seed) ->
         Printf.sprintf "%s drop=%.2f reorder=%.2f seed=%d" (batch_print b)
           drop reorder seed)
       QCheck.Gen.(
         let pairs =
           map2
             (fun a b -> (a, b))
             (map (fun k -> float_of_int k /. 100.) (int_bound 20))
             (oneofl [ 0.0; 0.25 ])
         in
         map3
           (fun b (drop, reorder) seed -> (b, drop, reorder, seed))
           batch_gen pairs (int_bound 1000)))
    (fun ((tx_batch, send_burst, recv_burst), drop, reorder, seed) ->
      let config =
        {
          Config.default with
          Config.engine_tx_batch = tx_batch;
          app_send_burst = send_burst;
          app_recv_burst = recv_burst;
        }
      in
      let fault =
        Faulty.config ~drop ~reorder ~reorder_hold_ns:40_000 ~seed ()
      in
      let total = 40 in
      let received, _drops, sent, mon = run_numbered ~config ~fault ~total () in
      if sent <> total then
        QCheck.Test.fail_reportf "sent %d of %d" sent total;
      let sorted = List.sort compare received in
      let rec no_dup = function
        | a :: (b :: _ as rest) -> a <> b && no_dup rest
        | _ -> true
      in
      if not (no_dup sorted) then
        QCheck.Test.fail_reportf "duplicate delivery";
      List.iter
        (fun s ->
          if s < 0 || s >= total then
            QCheck.Test.fail_reportf "corrupt sequence %d" s)
        received;
      if reorder = 0.0 && sorted <> received then
        QCheck.Test.fail_reportf "FIFO broken without reorder faults";
      if not (Monitor.clean mon) then
        QCheck.Test.fail_reportf "monitor violations:@ %a" Monitor.pp_report
          mon;
      true)

(* One doorbell ring and one poke cover a whole burst; a parked engine
   woken by that single poke must drain every message of the burst with
   no further application activity beyond polling its own cursors. *)
let no_lost_wakeup_prop =
  QCheck.Test.make ~name:"single poke per burst: no lost wakeup" ~count:20
    QCheck.(map ~rev:(fun k -> k) Fun.id (int_range 1 8))
    (fun k ->
      let config =
        {
          Config.default with
          Config.app_send_burst = k;
          engine_tx_batch = k;
          (* Park almost immediately so the burst lands on a parked
             engine and the single poke is the only thing waking it. *)
          engine_park_after = 2;
        }
      in
      let machine =
        Machine.create ~config (Machine.Mesh { cols = 2; rows = 1 }) ()
      in
      let ns = Machine.names machine in
      let sim = Machine.sim machine in
      let delivered = ref 0 in
      let reclaimed = ref 0 in
      Machine.spawn_app ~name:"rx" machine ~node:1 (fun api ->
          let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
          for _ = 1 to 8 do
            ok (Api.post_receive api ep (ok (Api.allocate_buffer api)))
          done;
          Nameservice.register ns "rx" (Api.address api ep);
          while Sim.now sim < Flipc_sim.Vtime.ms 3 do
            (match Api.receive api ep with
            | Some b ->
                incr delivered;
                ok (Api.post_receive api ep b)
            | None -> ());
            Sim.delay 1_000
          done);
      Machine.spawn_app ~name:"tx" machine ~node:0 (fun api ->
          let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ()) in
          Api.connect api ep (Nameservice.lookup ns "rx");
          let bufs =
            Array.init k (fun _ -> ok (Api.allocate_buffer api))
          in
          Array.iter (fun b -> Api.write_payload api b (seq_payload 0)) bufs;
          (* Let both engines run dry and park. *)
          Sim.delay 200_000;
          let accepted = ok (Api.send_burst api ep bufs) in
          if accepted <> k then
            QCheck.Test.fail_reportf "burst truncated: %d of %d" accepted k;
          (* Pure polling from here: no further doorbells, no pokes. *)
          let out = Array.make k bufs.(0) in
          while !reclaimed < k && Sim.now sim < Flipc_sim.Vtime.ms 3 do
            reclaimed := !reclaimed + Api.reclaim_burst api ep ~out;
            Sim.delay 2_000
          done);
      Machine.run ~until:(Flipc_sim.Vtime.ms 3) machine;
      finish machine;
      if !reclaimed <> k then
        QCheck.Test.fail_reportf "lost wakeup: reclaimed %d of %d burst"
          !reclaimed k;
      if !delivered <> k then
        QCheck.Test.fail_reportf "delivered %d of %d" !delivered k;
      true)

(* The doorbell summary word is shared by every application on a
   communication buffer; concurrent rings must never cancel out into a
   value the engine has already seen (the locked-increment contract).
   Several senders on one node ring at staggered offsets — every
   message must still be processed. *)
let concurrent_ringers_prop =
  QCheck.Test.make ~name:"concurrent doorbell ringers never lose a wakeup"
    ~count:20
    QCheck.(
      make
        ~print:(fun offs ->
          String.concat "," (List.map string_of_int offs))
        Gen.(list_size (int_range 2 4) (int_bound 2_000)))
    (fun offsets ->
      let n = List.length offsets in
      let machine = Machine.create (Machine.Mesh { cols = 2; rows = 1 }) () in
      let ns = Machine.names machine in
      let sim = Machine.sim machine in
      let delivered = ref 0 in
      let reclaimed = ref 0 in
      Machine.spawn_app ~name:"rx" machine ~node:1 (fun api ->
          let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
          for _ = 1 to 8 do
            ok (Api.post_receive api ep (ok (Api.allocate_buffer api)))
          done;
          Nameservice.register ns "rx" (Api.address api ep);
          while Sim.now sim < Flipc_sim.Vtime.ms 3 do
            (match Api.receive api ep with
            | Some b ->
                incr delivered;
                ok (Api.post_receive api ep b)
            | None -> ());
            Sim.delay 1_000
          done);
      List.iteri
        (fun i off ->
          Machine.spawn_app
            ~name:(Printf.sprintf "tx%d" i)
            machine ~node:0
            (fun api ->
              let ep =
                ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Send ())
              in
              Api.connect api ep (Nameservice.lookup ns "rx");
              let buf = ok (Api.allocate_buffer api) in
              Api.write_payload api buf (seq_payload i);
              (* All senders ring within a few cache-miss times of each
                 other — the window where a plain read-modify-write of
                 the shared summary word loses increments. *)
              Sim.delay (100_000 + off);
              ok (Api.send api ep buf);
              while
                Api.reclaim api ep = None && Sim.now sim < Flipc_sim.Vtime.ms 3
              do
                Sim.delay 1_500
              done;
              incr reclaimed))
        offsets;
      Machine.run ~until:(Flipc_sim.Vtime.ms 3) machine;
      finish machine;
      if !delivered <> n then
        QCheck.Test.fail_reportf "lost wakeup: %d of %d delivered" !delivered
          n;
      if !reclaimed <> n then
        QCheck.Test.fail_reportf "only %d of %d senders reclaimed" !reclaimed
          n;
      true)

(* Sharded runs: same seed, same everything — bit-identical results,
   every shard active, per-shard snapshot in node-major shard order. *)
let test_sharded_deterministic () =
  let config =
    {
      Config.default with
      Config.engine_shards = 2;
      engine_tx_batch = 4;
      app_send_burst = 4;
      app_recv_burst = 4;
    }
  in
  let run () =
    Firehose.measure ~config ~senders:2 ~receivers:2 ~duration_us:200
      ~mean_gap_ns:4_000 ~seed:5 ~streams:4 ()
  in
  let a = run () and b = run () in
  Alcotest.(check int) "offered" a.Firehose.offered b.Firehose.offered;
  Alcotest.(check int) "delivered" a.Firehose.delivered b.Firehose.delivered;
  Alcotest.(check int) "shed" a.Firehose.shed b.Firehose.shed;
  let keys r = List.map (fun (n, s, _) -> (n, s)) r.Firehose.engines in
  Alcotest.(check (list (pair int int)))
    "node-major shard order"
    [ (0, 0); (0, 1); (1, 0); (1, 1); (2, 0); (2, 1); (3, 0); (3, 1) ]
    (keys a);
  List.iter2
    (fun (n, s, sa) (_, _, sb) ->
      Alcotest.(check int)
        (Printf.sprintf "node%d.s%d sends" n s)
        sa.Msg_engine.sends sb.Msg_engine.sends;
      Alcotest.(check int)
        (Printf.sprintf "node%d.s%d recvs" n s)
        sa.Msg_engine.recvs sb.Msg_engine.recvs)
    a.Firehose.engines b.Firehose.engines;
  List.iter
    (fun (n, s, st) ->
      if st.Msg_engine.sends + st.Msg_engine.recvs = 0 then
        Alcotest.failf "engine node%d shard%d saw no traffic" n s)
    a.Firehose.engines

(* Metric names: single-shard machines keep the historical
   [node<i>.engine.*] names; sharded engines expose
   [node<i>.engine.s<k>.*] with zero-padded shard ids. *)
let test_shard_metric_names () =
  let module Metrics = Flipc_obs.Metrics in
  let names config =
    let machine =
      Machine.create ~config (Machine.Mesh { cols = 2; rows = 1 }) ()
    in
    Machine.run ~until:1_000 machine;
    Machine.stop_engines machine;
    Machine.run machine;
    List.map fst
      (Metrics.snapshot (Flipc_obs.Obs.metrics (Machine.obs machine)))
  in
  let single = names Config.default in
  Alcotest.(check bool)
    "single-shard historical name" true
    (List.mem "node0.engine.iterations" single);
  Alcotest.(check bool)
    "no shard suffix when unsharded" false
    (List.exists
       (fun n -> n = "node0.engine.s00.iterations")
       single);
  let sharded = names { Config.default with Config.engine_shards = 2 } in
  List.iter
    (fun expect ->
      Alcotest.(check bool) expect true (List.mem expect sharded))
    [
      "node0.engine.s00.iterations";
      "node0.engine.s01.iterations";
      "node1.engine.s00.iterations";
      "node1.engine.s01.iterations";
    ]

(* Wall-clock mode runs one independent machine per domain, so each
   slice must be exactly the virtual run of its senders with its derived
   seed, and the merged sketch must hold every slice's sojourns. *)
let test_wallclock_slices () =
  let w =
    Firehose.measure_wallclock ~domains:2 ~senders:2 ~receivers:2
      ~duration_us:300 ~mean_gap_ns:2_000 ~seed:11 ()
  in
  let engines r =
    List.map
      (fun (n, s, st) ->
        Fmt.str "node%d.s%d %s" n s
          (Flipc_obs.Json.to_string
             (Flipc_obs.Json.Obj (Msg_engine.stats_fields st))))
      r.Firehose.engines
  in
  let sojourns r = Flipc_obs.Sketch.count r.Firehose.sojourn_us in
  List.iteri
    (fun d (got : Firehose.result) ->
      let want =
        Firehose.measure ~senders:1 ~receivers:2 ~duration_us:300
          ~mean_gap_ns:2_000
          ~seed:(11 + (104_729 * d))
          ()
      in
      let check_int what f =
        Alcotest.(check int) (Fmt.str "domain %d %s" d what) (f want) (f got)
      in
      check_int "offered" (fun r -> r.Firehose.offered);
      check_int "sent" (fun r -> r.Firehose.sent);
      check_int "shed" (fun r -> r.Firehose.shed);
      check_int "delivered" (fun r -> r.Firehose.delivered);
      check_int "rx_drops" (fun r -> r.Firehose.rx_drops);
      check_int "sojourn count" sojourns;
      Alcotest.(check (float 0.))
        (Fmt.str "domain %d elapsed_us" d)
        want.Firehose.elapsed_us got.Firehose.elapsed_us;
      Alcotest.(check (list string))
        (Fmt.str "domain %d engines" d)
        (engines want) (engines got))
    w.Firehose.per_domain;
  Alcotest.(check int) "two slices" 2 (List.length w.Firehose.per_domain);
  Alcotest.(check int)
    "merged sojourn count"
    (List.fold_left (fun n r -> n + sojourns r) 0 w.Firehose.per_domain)
    (Flipc_obs.Sketch.count w.Firehose.merged_sojourn_us)

(* The words allocated by [n] empty [receive_burst] calls into an [out]
   of length [max], on a fresh two-node machine. *)
let empty_receive_words ~max =
  let machine =
    Machine.create ~config:Config.default (Machine.Mesh { cols = 2; rows = 1 }) ()
  in
  let words = ref nan in
  Machine.spawn_app ~name:"rx" machine ~node:1 (fun api ->
      let ep = ok (Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ()) in
      let out = Array.make max (ok (Api.allocate_buffer api)) in
      ignore (Api.receive_burst api ep ~out : int);
      let before = Gc.minor_words () in
      for _ = 1 to 100 do
        ignore (Api.receive_burst api ep ~out : int)
      done;
      words := Gc.minor_words () -. before);
  finish machine;
  !words

(* A receive burst fills [out] in place: an empty call allocates no
   scratch array, so its cost in words does not grow with [out]. Both
   machines run the same schedule, so everything else they allocate is
   the same. *)
let test_empty_receive_burst_allocation () =
  let w8 = empty_receive_words ~max:8 and w64 = empty_receive_words ~max:64 in
  Alcotest.(check (float 0.)) "words of 100 empty calls, max 8 vs 64" w8 w64

let () =
  Alcotest.run "firehose"
    [
      ( "batching",
        [
          QCheck_alcotest.to_alcotest batched_fifo_prop;
          QCheck_alcotest.to_alcotest faulted_batch_prop;
          Alcotest.test_case "batched path: overrun triples pinned" `Quick
            test_batched_fifo_pinned;
          Alcotest.test_case "empty receive burst: no scratch array" `Quick
            test_empty_receive_burst_allocation;
        ] );
      ( "doorbell",
        [
          QCheck_alcotest.to_alcotest no_lost_wakeup_prop;
          QCheck_alcotest.to_alcotest concurrent_ringers_prop;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "deterministic per-shard snapshot" `Quick
            test_sharded_deterministic;
          Alcotest.test_case "probe names keyed by shard" `Quick
            test_shard_metric_names;
        ] );
      ( "wallclock",
        [
          Alcotest.test_case "each domain is its virtual slice" `Quick
            test_wallclock_slices;
        ] );
    ]
