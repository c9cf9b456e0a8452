module Sim = Flipc_sim.Engine
module Prng = Flipc_sim.Prng
module Mem_port = Flipc_memsim.Mem_port
module Dma = Flipc_net.Dma
module Obs = Flipc_obs.Obs
module Event = Flipc_obs.Event

type transport = {
  tname : string;
  transmit : dst:Address.t -> Bytes.t -> (unit, [ `Bad_dest ]) result;
}

type stats = {
  mutable iterations : int;
  mutable sends : int;
  mutable recvs : int;
  mutable drops : int;
  mutable rejects : int;
  mutable unroutable : int;
  mutable bad_dest : int;
  mutable forbidden : int;
  mutable parks : int;
  mutable doorbell_hits : int;
  mutable sched_rebuilds : int;
  mutable rx_truncations : int;
  mutable idle_scans_avoided : int;
  mutable corrupt_frames : int;
}

type t = {
  sim : Sim.t;
  node : int;
  shard : int;  (* this engine's shard index in [0, shard_count) *)
  shard_count : int;
  layouts : Layout.t array;  (* one communication buffer per element *)
  config : Config.t;
  port : Mem_port.t;
  dma : Dma.t;
  transport : transport;
  incoming : Bytes.t Queue.t;
  mutable running : bool;
  mutable started : bool;
  mutable parked : (unit -> unit) option;
  mutable poked : bool;
  mutable idle : int;
  mutable rx_chain : int;
      (* deposits so far in the current incoming drain; every
         [engine_tx_batch]'th reprograms the DMA descriptor chain, the
         rest ride it (see [handle_verified]) *)
  rx_release : int array;
      (* per-global-endpoint cached receive-ring [Release] cursor, valid
         while [rx_release_gen] matches [rx_gen] — one coherence miss per
         endpoint per incoming drain instead of one per deposit *)
  rx_release_gen : int array;
  mutable rx_gen : int;
  rx_recv_accum : int array;
      (* per-comm-buffer deposit count accumulated over one drain; a
         batching engine flushes each as a single [Engine_recvs] bump *)
  prng : Prng.t;
  stats : stats;
  (* Doorbell scheduler state (engine-private; see DESIGN.md §11).
     [shadow] holds the last observed Send_pending value per node-global
     endpoint; [pending] marks doorbells observed but not yet drained.
     The schedule is three parallel arrays holding the allocated send
     endpoints in (priority desc, endpoint asc) order, rebuilt only when
     a communication buffer's G_schedule_epoch differs from
     [cached_epoch]. All are preallocated: the steady-state iteration
     allocates nothing. *)
  shadow : int array;
  pending : bool array;
  hot : int array;  (* eager-visit countdown per endpoint; see iteration_doorbell *)
  sched_ep : int array;
  sched_prio : int array;
  sched_burst : int array;
  mutable sched_len : int;
  cached_epoch : int array;  (* one per communication buffer *)
  shadow_seq : int array;
      (* last observed G_doorbell_seq per communication buffer; the
         per-endpoint shadow scan runs only when one changed *)
  mutable wakeup_hook : (ep:int -> unit) option;
  mutable obs : Obs.t option;
}

let create ?(shard = (0, 1)) ~sim ~node ~comms ~port ~dma ~transport () =
  let shard_index, shard_count = shard in
  if shard_count < 1 || shard_index < 0 || shard_index >= shard_count then
    invalid_arg "Msg_engine.create: bad shard";
  (match comms with
  | [] -> invalid_arg "Msg_engine.create: need at least one comm buffer"
  | first :: rest ->
      let c0 = Comm_buffer.config first in
      List.iter
        (fun c ->
          if Comm_buffer.config c <> c0 then
            invalid_arg
              "Msg_engine.create: all comm buffers must share one config")
        rest);
  let config = Comm_buffer.config (List.hd comms) in
  let layouts = Array.of_list (List.map Comm_buffer.layout comms) in
  let total_eps = Array.length layouts * config.Config.endpoints in
  {
    sim;
    node;
    shard = shard_index;
    shard_count;
    layouts;
    config;
    port;
    dma;
    transport;
    incoming = Queue.create ();
    running = false;
    started = false;
    parked = None;
    poked = false;
    idle = 0;
    rx_chain = 0;
    rx_release = Array.make total_eps (-1);
    rx_release_gen = Array.make total_eps (-1);
    rx_gen = 0;
    rx_recv_accum = Array.make (Array.length layouts) 0;
    (* Shard 0 keeps the historical stream so single-shard timelines are
       bit-identical with pre-sharding builds; higher shards decorrelate
       their poll jitter. *)
    prng = Prng.create ~seed:(0x5EED + node + (shard_index * 0x1003F));
    obs = None;
    stats =
      {
        iterations = 0;
        sends = 0;
        recvs = 0;
        drops = 0;
        rejects = 0;
        unroutable = 0;
        bad_dest = 0;
        forbidden = 0;
        parks = 0;
        doorbell_hits = 0;
        sched_rebuilds = 0;
        rx_truncations = 0;
        idle_scans_avoided = 0;
        corrupt_frames = 0;
      };
    shadow = Array.make total_eps 0;
    pending = Array.make total_eps false;
    hot = Array.make total_eps 0;
    sched_ep = Array.make total_eps 0;
    sched_prio = Array.make total_eps 0;
    sched_burst = Array.make total_eps 0;
    sched_len = 0;
    cached_epoch = Array.make (Array.length layouts) 0;
    shadow_seq = Array.make (Array.length layouts) 0;
    wakeup_hook = None;
  }

let node t = t.node
let shard t = t.shard
let shard_count t = t.shard_count
let stats t = t.stats
let set_wakeup_hook t f = t.wakeup_hook <- Some f

(* Which shard of a [count]-way partition owns node-global endpoint [g].
   The machine's delivery router and the application library's poke
   target use this same function, which is what makes per-shard
   ownership airtight: nothing else ever maps an endpoint to an
   engine. *)
let owner_shard ~count g = if count = 1 then 0 else g mod count

(* Probe names: the single-shard machine keeps the historical
   [node<i>.engine.*] names; sharded engines key theirs by zero-padded
   shard id ([node<i>.engine.s03.*]) so the registry's name-sorted
   snapshot enumerates shards in index order — stable across runs and
   shard counts. *)
let probe_prefix t =
  if t.shard_count = 1 then Printf.sprintf "node%d.engine" t.node
  else Printf.sprintf "node%d.engine.s%02d" t.node t.shard

let counters =
  [
    ("iterations", fun s -> s.iterations);
    ("sends", fun s -> s.sends);
    ("recvs", fun s -> s.recvs);
    ("drops", fun s -> s.drops);
    ("rejects", fun s -> s.rejects);
    ("unroutable", fun s -> s.unroutable);
    ("bad_dest", fun s -> s.bad_dest);
    ("forbidden", fun s -> s.forbidden);
    ("parks", fun s -> s.parks);
    ("doorbell_hits", fun s -> s.doorbell_hits);
    ("sched_rebuilds", fun s -> s.sched_rebuilds);
    ("rx_truncations", fun s -> s.rx_truncations);
    ("idle_scans_avoided", fun s -> s.idle_scans_avoided);
    ("corrupt_frames", fun s -> s.corrupt_frames);
  ]

let stats_fields s =
  List.map (fun (name, f) -> (name, Flipc_obs.Json.Int (f s))) counters

let set_obs t obs =
  t.obs <- Some obs;
  let m = Obs.metrics obs in
  let prefix = probe_prefix t in
  let probe name f =
    Flipc_obs.Metrics.probe m
      (Printf.sprintf "%s.%s" prefix name)
      (fun () -> float_of_int (f ()))
  in
  List.iter (fun (name, f) -> probe name (fun () -> f t.stats)) counters

let obs t = t.obs

(* Typed trace event; one branch when tracing is off. [ev] is a thunk so
   disabled tracing never allocates the event. *)
let emit t ev =
  match t.obs with
  | Some o when Obs.tracing o -> Obs.event o (ev ())
  | _ -> ()

(* [poked] stays set across an iteration: the engine only parks after a
   full iteration during which nobody poked it, closing the race where a
   poke lands mid-iteration (a no-op on a running engine) just before
   the park decision. *)
let poke t =
  t.poked <- true;
  match t.parked with
  | Some resume ->
      t.parked <- None;
      resume ()
  | None -> ()

let deliver t image =
  (* Wire arrival: the instant the image reaches the destination
     engine, before the engine loop gets around to handling it. *)
  let dest = Msg_buffer.dest_of_image image in
  if not (Address.is_null dest) then
    emit t (fun () ->
        Event.Wire_rx
          {
            node = t.node;
            ep = Address.endpoint dest;
            mid = Msg_buffer.msg_id_of_image image;
          });
  Queue.push image t.incoming;
  poke t

let stop t =
  t.running <- false;
  poke t

let running t = t.running

(* Node-global endpoint index -> (communication buffer, local index). *)
let resolve t global_ep =
  let eps = t.config.Config.endpoints in
  let idx = global_ep / eps in
  if global_ep < 0 || idx >= Array.length t.layouts then None
  else Some (t.layouts.(idx), global_ep mod eps)

let bump_global t layout g =
  let addr = Layout.global_addr layout g in
  Mem_port.store t.port addr (Mem_port.peek t.port addr + 1)

(* Batched counter flush: the globals line is shared with the
   application's own counters, so every engine bump is a coherence miss
   on a busy node. A batching engine accumulates deltas host-side and
   flushes once per drain. *)
let bump_global_n t layout g n =
  if n > 0 then
    let addr = Layout.global_addr layout g in
    Mem_port.store t.port addr (Mem_port.peek t.port addr + n)

let reject t layout =
  t.stats.rejects <- t.stats.rejects + 1;
  bump_global t layout Layout.Engine_rejects

(* A message with a null or unresolvable destination belongs to no
   communication buffer; charging it to buffer 0's globals would falsify
   that buffer's statistics, so it is counted at node level only. *)
let reject_unroutable t =
  t.stats.unroutable <- t.stats.unroutable + 1

let charge_validity t =
  if t.config.Config.validity_checks then
    Mem_port.instr t.port t.config.Config.validity_check_instrs

(* An arriving message: demultiplex to its receive endpoint and deposit it
   in the next posted buffer, or discard it and count the drop. The
   receiving node is thereby always prepared to accept from the
   interconnect, which is what makes the optimistic protocol deadlock-free
   on a reliable fabric. *)
let handle_verified t image =
  let dest = Msg_buffer.dest_of_image image in
  charge_validity t;
  let discard reason global_ep =
    emit t (fun () ->
        Event.Drop
          {
            node = t.node;
            ep = global_ep;
            mid = Msg_buffer.msg_id_of_image image;
            reason;
          })
  in
  if Address.is_null dest then begin
    discard Event.Bad_destination (-1);
    reject_unroutable t
  end
  else
    let global_ep = Address.endpoint dest in
    match resolve t global_ep with
    | None ->
        discard Event.Bad_destination global_ep;
        reject_unroutable t
    | Some (layout, ep) -> (
        let kind_word =
          Mem_port.load t.port (Layout.ep_field layout ~ep Layout.Ep_type)
        in
        match Endpoint_kind.of_word kind_word with
        | Some Endpoint_kind.Recv -> (
            (* Batched cursor reads on the deposit path: within one
               incoming drain the app-owned [Release] of each receive
               ring is fetched once and cached ([rx_gen] stamps the
               drain), refreshed only when the cached view looks empty —
               so an apparent ring-full is re-checked before a message is
               dropped, and the cached path drops exactly when
               [engine_peek] would. Unbatched knob keeps the per-deposit
               peek, the ablation baseline. *)
            let peek () =
              if t.config.Config.engine_tx_batch = 1 then
                Buffer_queue.engine_peek t.port layout ~ep
              else begin
                let fresh () =
                  let r = Buffer_queue.engine_fetch_release t.port layout ~ep in
                  t.rx_release.(global_ep) <- r;
                  t.rx_release_gen.(global_ep) <- t.rx_gen;
                  r
                in
                let release =
                  if t.rx_release_gen.(global_ep) = t.rx_gen then
                    t.rx_release.(global_ep)
                  else fresh ()
                in
                match Buffer_queue.engine_peek_at t.port layout ~ep ~release with
                | Some _ as hit -> hit
                | None ->
                    Buffer_queue.engine_peek_at t.port layout ~ep
                      ~release:(fresh ())
              end
            in
            match peek () with
            | None ->
                Drop_counter.engine_increment t.port layout ~ep;
                t.stats.drops <- t.stats.drops + 1;
                discard Event.No_posted_buffer global_ep;
                bump_global t layout Layout.Engine_drops
            | Some (buf_addr, cursor) -> (
                match Layout.buffer_of_addr layout buf_addr with
                | None ->
                    (* The application queued a corrupt pointer (or one
                       aimed at another application's region). Skip the
                       slot so the queue cannot wedge the engine, and
                       discard the message. *)
                    discard Event.Corrupt_slot global_ep;
                    reject t layout;
                    Buffer_queue.engine_advance t.port layout ~ep ~cursor
                | Some buf ->
                    (* Deposit-side descriptor-chain reuse, mirroring the
                       transmit batch: within one incoming drain, only
                       every [engine_tx_batch]'th deposit reprograms the
                       DMA channel. *)
                    let first_of_batch =
                      t.rx_chain mod t.config.Config.engine_tx_batch = 0
                    in
                    t.rx_chain <- t.rx_chain + 1;
                    Dma.write ~setup:first_of_batch t.dma ~pos:buf_addr image;
                    Msg_buffer.set_state t.port layout ~buf Msg_buffer.Complete;
                    Buffer_queue.engine_advance t.port layout ~ep ~cursor;
                    t.stats.recvs <- t.stats.recvs + 1;
                    emit t (fun () ->
                        Event.Deposit
                          {
                            node = t.node;
                            ep = global_ep;
                            mid = Msg_buffer.msg_id_of_image image;
                          });
                    if t.config.Config.engine_tx_batch = 1 then
                      bump_global t layout Layout.Engine_recvs
                    else
                      t.rx_recv_accum.(global_ep / t.config.Config.endpoints) <-
                        t.rx_recv_accum.(global_ep / t.config.Config.endpoints)
                        + 1;
                    let sem =
                      Mem_port.load t.port
                        (Layout.ep_field layout ~ep Layout.Sem_flag)
                    in
                    if sem = 1 then begin
                      Mem_port.instr t.port 8;
                      match t.wakeup_hook with
                      | Some hook -> hook ~ep:global_ep
                      | None -> ()
                    end))
        | Some Endpoint_kind.Send | None ->
            discard Event.Bad_destination global_ep;
            reject t layout)

let handle_incoming t ~first image =
  (* Demultiplex + protocol-framework dispatch on the coprocessor. The
     first frame of each [engine_tx_batch] run in a drain pays the full
     dispatch; followers reuse the hot demux state — the receive-side
     mirror of the transmit dispatch discount. *)
  Mem_port.instr t.port (if first then 15 else 4);
  (* Checksum first, before the destination word is even decoded: a
     damaged frame's every bit — address, state, payload — is suspect, so
     it must not reach demultiplexing, where a flipped destination bit
     would deliver it to the wrong endpoint. The sender's reliability
     layer sees the discard as a loss and retransmits. *)
  if
    t.config.Config.frame_checksum
    && not
         (Mem_port.instr t.port (Bytes.length image / 4);
          Msg_buffer.image_checksum_ok image)
  then begin
    t.stats.corrupt_frames <- t.stats.corrupt_frames + 1;
    (* mid 0, not the image's: a checksum-failed frame's id bits are as
       suspect as the rest, and a corrupted id would attach this discard
       to an unrelated span. The original send's span keeps its
       [Fault_corrupt] marker, which Causal classifies as a wire-stage
       corruption stall. *)
    emit t (fun () ->
        Event.Drop
          { node = t.node; ep = -1; mid = 0; reason = Event.Corrupt_frame })
  end
  else handle_verified t image

(* Deposit incoming messages, at most [engine_rx_burst] per iteration: the
   loop is non-preemptible, so one flooded node must not monopolize an
   iteration and starve the transmit path. A truncated drain reports work
   remaining, which keeps the engine polling (and never parking) until the
   backlog clears. *)
let drain_incoming t =
  let budget = t.config.Config.engine_rx_burst in
  let tx_batch = t.config.Config.engine_tx_batch in
  t.rx_chain <- 0;
  t.rx_gen <- t.rx_gen + 1;
  let handled = ref 0 in
  while !handled < budget && not (Queue.is_empty t.incoming) do
    let first = tx_batch = 1 || !handled mod tx_batch = 0 in
    incr handled;
    handle_incoming t ~first (Queue.pop t.incoming)
  done;
  if tx_batch > 1 then
    Array.iteri
      (fun li n ->
        if n > 0 then begin
          t.rx_recv_accum.(li) <- 0;
          bump_global_n t t.layouts.(li) Layout.Engine_recvs n
        end)
      t.rx_recv_accum;
  if not (Queue.is_empty t.incoming) then begin
    t.stats.rx_truncations <- t.stats.rx_truncations + 1;
    true
  end
  else !handled > 0

(* Protection check: an endpoint may be restricted to one destination
   node ("restrict where messages can be sent"). 0 means unrestricted. *)
let destination_allowed t layout ~ep ~dest =
  let allowed =
    Mem_port.load t.port (Layout.ep_field layout ~ep Layout.Allowed_node)
  in
  allowed = 0 || (not (Address.is_null dest) && Address.node dest = allowed - 1)

(* Outcome of one endpoint drain. Constant constructors: the hot path
   allocates nothing. *)
type drain_result =
  | Empty  (** ring was already empty *)
  | Drained  (** transmitted work and emptied the ring *)
  | Truncated  (** hit the burst cap; the ring may hold more *)

(* Transmit messages the application has released on one send endpoint,
   at most [burst] per call; with no configured burst the cap is the ring
   capacity. An uncapped drain loop would let one saturating producer
   starve every other endpoint and the receive path: the producer can
   refill the ring as fast as the engine empties it, so the engine's
   non-preemptible loop must bound its work per endpoint per iteration. *)
let process_sends t layout ~global_ep ~ep ~burst =
  let limit =
    if burst > 0 then burst else t.config.Config.queue_capacity - 1
  in
  let tx_batch = t.config.Config.engine_tx_batch in
  let progressed = ref false in
  let transmitted = ref 0 in
  let continue = ref true in
  let truncated = ref false in
  (* Batched cursor reads: fetch the app-owned [Release] once per drain
     and peek against the cached value, refreshing only on apparent-empty
     — one coherence miss per drain instead of one per message. The
     unbatched knob setting keeps the per-message [engine_peek], the
     ablation baseline. *)
  let release = ref (-1) in
  let ok_sends = ref 0 in
  if tx_batch > 1 then
    release := Buffer_queue.engine_fetch_release t.port layout ~ep;
  let peek () =
    if tx_batch = 1 then Buffer_queue.engine_peek t.port layout ~ep
    else
      match Buffer_queue.engine_peek_at t.port layout ~ep ~release:!release with
      | Some _ as hit -> hit
      | None ->
          release := Buffer_queue.engine_fetch_release t.port layout ~ep;
          Buffer_queue.engine_peek_at t.port layout ~ep ~release:!release
  in
  while !continue do
    if !transmitted >= limit then begin
      truncated := true;
      continue := false
    end
    else
      match peek () with
      | None -> continue := false
      | Some (buf_addr, cursor) -> (
          progressed := true;
          incr transmitted;
          (* Batched transmit: the first message of each [engine_tx_batch]
             run pays full dispatch (12 instrs) and programs the DMA
             descriptor chain; followers in the same run reuse the chain —
             reduced dispatch, no [setup_ns]. A batch never outlives this
             drain, so correctness is untouched: every message still moves
             through the identical peek/DMA/transmit/advance sequence. *)
          let first_of_batch = (!transmitted - 1) mod tx_batch = 0 in
          Mem_port.instr t.port (if first_of_batch then 12 else 3);
          charge_validity t;
          match Layout.buffer_of_addr layout buf_addr with
          | None ->
              (* Corrupt, or pointing into another application's region:
                 either way the engine refuses to touch it. *)
              reject t layout;
              Buffer_queue.engine_advance t.port layout ~ep ~cursor
          | Some buf ->
              let dest = Msg_buffer.dest t.port layout ~buf in
              let refused reason =
                emit t (fun () ->
                    Event.Drop
                      {
                        node = t.node;
                        ep = global_ep;
                        mid = Msg_buffer.msg_id t.port layout ~buf;
                        reason;
                      })
              in
              (if not (destination_allowed t layout ~ep ~dest) then begin
                 t.stats.forbidden <- t.stats.forbidden + 1;
                 refused Event.Forbidden_destination;
                 bump_global t layout Layout.Engine_rejects
               end
               else begin
                 let pos, len = Msg_buffer.region layout ~buf in
                 let image = Dma.read ~setup:first_of_batch t.dma ~pos ~len in
                 match t.transport.transmit ~dst:dest image with
                 | Ok () ->
                     t.stats.sends <- t.stats.sends + 1;
                     emit t (fun () ->
                         Event.Engine_tx
                           {
                             node = t.node;
                             ep = global_ep;
                             dst_node = Address.node dest;
                             dst_ep = Address.endpoint dest;
                             mid = Msg_buffer.msg_id_of_image image;
                           });
                     if tx_batch = 1 then
                       bump_global t layout Layout.Engine_sends
                     else incr ok_sends
                 | Error `Bad_dest ->
                     t.stats.bad_dest <- t.stats.bad_dest + 1;
                     refused Event.Bad_destination
               end);
              (* Buffer recovery must not depend on delivery: mark it
                 processed either way. *)
              Msg_buffer.set_state t.port layout ~buf Msg_buffer.Complete;
              Buffer_queue.engine_advance t.port layout ~ep ~cursor)
  done;
  (* Batched counter flush, mirroring the deposit path: one globals-line
     store per drain instead of one per transmitted message. *)
  if tx_batch > 1 then bump_global_n t layout Layout.Engine_sends !ok_sends;
  if !truncated then Truncated else if !progressed then Drained else Empty

let park t =
  t.stats.parks <- t.stats.parks + 1;
  emit t (fun () -> Event.Engine_park { node = t.node; idle = t.idle });
  Sim.suspend (fun resume -> t.parked <- Some resume);
  t.parked <- None;
  emit t (fun () -> Event.Engine_wake { node = t.node });
  t.idle <- 0

let poll_delay t =
  let base = t.config.Config.engine_poll_ns in
  let jitter = t.config.Config.engine_poll_jitter in
  if jitter = 0. then base
  else
    let span = float_of_int base *. jitter in
    let offset = Prng.float t.prng (2. *. span) -. span in
    max 0 (base + int_of_float offset)

let scan_stamp t layout ~ep =
  Mem_port.store t.port
    (Layout.ep_field layout ~ep Layout.Scan_stamp)
    (t.stats.iterations land 0x3FFFFFFF)

(* Rebuild the cached priority schedule from the endpoint tables — the
   only full scan the doorbell engine ever does, and it runs only when an
   epoch word changed. The cached epoch is captured {e before} this scan
   (in [check_epochs]): a table change racing with the rebuild bumps the
   epoch again, so the next iteration rescans. Insertion into the
   preallocated parallel arrays keeps (priority desc, endpoint asc) order
   without a sort; allocation order is ascending, so the insertion scan
   only has to move strictly-lower-priority entries. *)
let rebuild_schedule t =
  t.stats.sched_rebuilds <- t.stats.sched_rebuilds + 1;
  t.sched_len <- 0;
  let eps = t.config.Config.endpoints in
  for li = 0 to Array.length t.layouts - 1 do
    let layout = t.layouts.(li) in
    for ep = 0 to eps - 1 do
      (* Shard ownership gate: a sharded engine schedules (and stamps)
         only its own residue class, so every engine-written endpoint
         word keeps exactly one writer. Unowned entries cost this rebuild
         nothing — not even the [Ep_type] load. *)
      if owner_shard ~count:t.shard_count ((li * eps) + ep) = t.shard then begin
      let kind_word =
        Mem_port.load t.port (Layout.ep_field layout ~ep Layout.Ep_type)
      in
      if kind_word <> Endpoint_kind.free_word then begin
        scan_stamp t layout ~ep;
        if kind_word = Endpoint_kind.to_word Endpoint_kind.Send then begin
          let g = (li * eps) + ep in
          let priority =
            Mem_port.load t.port (Layout.ep_field layout ~ep Layout.Priority)
          in
          let burst =
            Mem_port.load t.port (Layout.ep_field layout ~ep Layout.Burst)
          in
          (* Re-sync the shadow from the live doorbell and force one
             visit. The shadow may be stale across a free/reallocate of
             this slot (the fresh doorbell could coincide with the old
             shadow value and be missed); one possibly-empty visit per
             rebuild buys an unconditional invariant: entering the
             schedule implies being visited. *)
          t.shadow.(g) <-
            Mem_port.load t.port
              (Layout.ep_field layout ~ep Layout.Send_pending);
          t.pending.(g) <- true;
          let i = ref t.sched_len in
          while !i > 0 && t.sched_prio.(!i - 1) < priority do
            t.sched_ep.(!i) <- t.sched_ep.(!i - 1);
            t.sched_prio.(!i) <- t.sched_prio.(!i - 1);
            t.sched_burst.(!i) <- t.sched_burst.(!i - 1);
            decr i
          done;
          t.sched_ep.(!i) <- g;
          t.sched_prio.(!i) <- priority;
          t.sched_burst.(!i) <- burst;
          t.sched_len <- t.sched_len + 1
        end
      end
      end
    done
  done

(* Compare each scheduled endpoint's doorbell with the engine's shadow;
   a difference means the application released onto that queue since the
   engine last looked. The shadow is updated here — before the drain — so
   a release that lands mid-drain (bumping the doorbell again) re-raises
   [pending] on the next check rather than being absorbed silently. *)
(* Doorbell aggregation: the application bumps one summary word per
   communication buffer after every per-endpoint ring, so a check costs
   one load per buffer — a cache hit while nothing rang — and the
   [sched_len]-wide shadow scan runs only behind a changed summary. That
   is what keeps doorbell idle load traffic flat as the endpoint table
   grows (the engine_scan bench gates on it). The summary is captured
   {e before} the per-endpoint scan: a ring racing the scan leaves the
   summary ahead of the engine's copy, forcing a rescan next iteration,
   so the release-then-ring wakeup ordering stays lossless. Sharded
   engines share the summary read-only; a ring owned by another shard
   causes a scan that finds nothing, never a missed one. *)
let check_doorbells t =
  let eps = t.config.Config.endpoints in
  let changed = ref false in
  for li = 0 to Array.length t.layouts - 1 do
    let s =
      Mem_port.load t.port
        (Layout.global_addr t.layouts.(li) Layout.G_doorbell_seq)
    in
    if s <> t.shadow_seq.(li) then begin
      t.shadow_seq.(li) <- s;
      changed := true
    end
  done;
  if !changed then
    for i = 0 to t.sched_len - 1 do
      let g = t.sched_ep.(i) in
      let layout = t.layouts.(g / eps) in
      let ep = g mod eps in
      let v =
        Mem_port.load t.port (Layout.ep_field layout ~ep Layout.Send_pending)
      in
      if v <> t.shadow.(g) then begin
        t.shadow.(g) <- v;
        t.pending.(g) <- true;
        t.hot.(g) <- t.config.Config.engine_park_after;
        t.stats.doorbell_hits <- t.stats.doorbell_hits + 1;
        emit t (fun () -> Event.Doorbell { node = t.node; ep = g })
      end
    done

(* One check of all communication buffers' schedule epochs; returns true
   (and updates the cached copies) when any differs. The cached value is
   the one read {e before} the rebuild's table scan — see
   [rebuild_schedule]. *)
let check_epochs t =
  let stale = ref false in
  for li = 0 to Array.length t.layouts - 1 do
    let e =
      Mem_port.load t.port
        (Layout.global_addr t.layouts.(li) Layout.G_schedule_epoch)
    in
    if e <> t.cached_epoch.(li) then begin
      t.cached_epoch.(li) <- e;
      stale := true
    end
  done;
  !stale

(* Work-proportional iteration: epoch load per buffer + doorbell load per
   allocated send endpoint, then visits only pending endpoints. An idle
   iteration touches no endpoint table entry at all — the full
   buffers x endpoints scan below ([iteration_full_scan]) is what this
   avoids. *)
let iteration_doorbell t =
  let did_work = ref (drain_incoming t) in
  let rebuilt = check_epochs t in
  if rebuilt then rebuild_schedule t;
  let eps = t.config.Config.endpoints in
  let visited = ref 0 in
  (* A second check+visit pass runs when the first drained work: a
     release landing while the engine drains a queue rings its doorbell
     after the queue store, and the second check picks it up in the same
     iteration. The pass count is bounded so a saturating producer
     cannot pin the engine inside one iteration. *)
  let pass = ref 0 in
  let again = ref true in
  while !again && !pass < 2 do
    incr pass;
    again := false;
    check_doorbells t;
    for i = 0 to t.sched_len - 1 do
      let g = t.sched_ep.(i) in
      (* Visit when the doorbell fired, and keep visiting for a while
         after it last fired ([hot] countdown): an eager visit peeks the
         ring cursors directly, so a release on a recently-active
         endpoint is caught by loads already in flight rather than
         waiting out a full poll cycle for the next doorbell check — the
         wide-net discovery the old always-scanning engine got for free.
         Endpoints with no recent traffic decay back to the single
         doorbell load, keeping idle cost proportional to {e active}
         endpoints, which is the point of the scheduler. *)
      if t.pending.(g) || t.hot.(g) > 0 then begin
        incr visited;
        if !pass = 1 && t.hot.(g) > 0 then t.hot.(g) <- t.hot.(g) - 1;
        let layout = t.layouts.(g / eps) in
        let ep = g mod eps in
        scan_stamp t layout ~ep;
        match
          process_sends t layout ~global_ep:g ~ep ~burst:t.sched_burst.(i)
        with
        | Empty -> t.pending.(g) <- false
        | Drained ->
            t.pending.(g) <- false;
            t.hot.(g) <- t.config.Config.engine_park_after;
            did_work := true;
            again := true
        | Truncated ->
            (* Burst cap hit: leave the doorbell pending so the endpoint
               is revisited next iteration even if no new release rings
               it. *)
            t.hot.(g) <- t.config.Config.engine_park_after;
            did_work := true
      end
    done
  done;
  if (not rebuilt) && !visited = 0 then
    t.stats.idle_scans_avoided <- t.stats.idle_scans_avoided + 1;
  !did_work

(* The original scan-everything iteration, kept verbatim as the
   [Full_scan] ablation: per-iteration cost is proportional to configured
   endpoints (plus a list build and sort), which the engine_scan bench
   contrasts with the doorbell path. *)
let iteration_full_scan t =
  let did_work = ref (drain_incoming t) in
  (* Scan every communication buffer's allocated endpoints, collecting
     send endpoints with their transport priorities; transmit in priority
     order (real-time prioritization of the basic transport), respecting
     per-endpoint bursts (capacity control). Priority is global across
     buffers, so one application cannot starve another's urgent traffic
     by local priority inflation alone — but the table is the trust
     boundary, so co-operating applications should agree on a policy. *)
  let sends = ref [] in
  Array.iteri
    (fun li layout ->
      for ep = 0 to t.config.Config.endpoints - 1 do
        let kind_word =
          Mem_port.load t.port (Layout.ep_field layout ~ep Layout.Ep_type)
        in
        if kind_word <> Endpoint_kind.free_word then begin
          (* Record scan progress for this endpoint (engine bookkeeping). *)
          scan_stamp t layout ~ep;
          if kind_word = Endpoint_kind.to_word Endpoint_kind.Send then begin
            let priority =
              Mem_port.load t.port (Layout.ep_field layout ~ep Layout.Priority)
            in
            let burst =
              Mem_port.load t.port (Layout.ep_field layout ~ep Layout.Burst)
            in
            sends :=
              (priority, (li * t.config.Config.endpoints) + ep, burst)
              :: !sends
          end
        end
      done)
    t.layouts;
  let ordered =
    List.sort
      (fun (pa, ea, _) (pb, eb, _) ->
        match Int.compare pb pa with 0 -> Int.compare ea eb | c -> c)
      !sends
  in
  List.iter
    (fun (_, global_ep, burst) ->
      match resolve t global_ep with
      | Some (layout, ep) -> (
          match process_sends t layout ~global_ep ~ep ~burst with
          | Empty -> ()
          | Drained | Truncated -> did_work := true)
      | None -> ())
    ordered;
  !did_work

let iteration t =
  t.stats.iterations <- t.stats.iterations + 1;
  Sim.delay (poll_delay t);
  bump_global t t.layouts.(0) Layout.Engine_iterations;
  match t.config.Config.sched_mode with
  | Config.Doorbell -> iteration_doorbell t
  | Config.Full_scan -> iteration_full_scan t

(* Untimed pre-park re-check ([Mem_port.peek] only — no suspension
   points, so the whole check plus [Sim.suspend] is one atomic step of
   the cooperative simulation): is there really nothing to do? In
   doorbell mode this re-reads every scheduled doorbell, establishing the
   no-lost-wakeup invariant the property test exercises: a doorbell rung
   at any point before the park decision is seen here, and one rung after
   it finds the engine parked and [poke]s it awake. *)
let quiescent t =
  Queue.is_empty t.incoming
  &&
  match t.config.Config.sched_mode with
  | Config.Full_scan -> true
  | Config.Doorbell ->
      let eps = t.config.Config.endpoints in
      let quiet = ref true in
      for i = 0 to t.sched_len - 1 do
        let g = t.sched_ep.(i) in
        if t.pending.(g) then quiet := false
        else
          let layout = t.layouts.(g / eps) in
          let ep = g mod eps in
          if
            Mem_port.peek t.port
              (Layout.ep_field layout ~ep Layout.Send_pending)
            <> t.shadow.(g)
          then quiet := false
      done;
      !quiet

let start t =
  if t.started then invalid_arg "Msg_engine.start: already started";
  t.started <- true;
  t.running <- true;
  let name =
    if t.shard_count = 1 then Printf.sprintf "msg-engine-%d" t.node
    else Printf.sprintf "msg-engine-%d.s%d" t.node t.shard
  in
  Sim.spawn ~name t.sim (fun () ->
      while t.running do
        t.poked <- false;
        if iteration t then t.idle <- 0
        else begin
          t.idle <- t.idle + 1;
          (* Park only after an entire iteration during which no poke
             arrived and the final untimed re-check finds no work: no
             release can fall between the check and the suspension. *)
          if
            t.running
            && t.idle >= t.config.Config.engine_park_after
            && (not t.poked) && quiescent t
          then park t
        end
      done)
