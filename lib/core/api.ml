module Mem_port = Flipc_memsim.Mem_port
module Sched = Flipc_rt.Sched
module Rt_semaphore = Flipc_rt.Rt_semaphore

type t = {
  comm : Comm_buffer.t;
  port : Mem_port.t;
  engines : Msg_engine.t array;  (* the node's engine shards, index = shard *)
  config : Config.t;
  layout : Layout.t;
  mutable last_mid : int;
  mutable last_recv_mid : int;
}

(* Causal message ids: one process-wide counter stamps every send (the
   stamp rides in the state-word store the send already performs, so the
   timed cost is zero). Process-global rather than per-attachment so an
   id names one message across every machine in the simulation. 28 bits,
   wrapping past 0 (0 = unstamped). Atomic because the wall-clock
   firehose mode runs independent machines on separate domains; the
   virtual-time path is unaffected (single domain, same sequence). *)
let mid_counter = Atomic.make 0

let fresh_mid () = (Atomic.fetch_and_add mid_counter 1 mod Msg_buffer.max_msg_id) + 1

let fresh_msg_id = fresh_mid

type endpoint = {
  index : int;
  ep_kind : Endpoint_kind.t;
  sem : Rt_semaphore.t option;
}

type buffer = int

type error = [ `No_resources | `Full | `Wrong_kind | `No_destination ]

let error_to_string = function
  | `No_resources -> "no resources"
  | `Full -> "endpoint queue full"
  | `Wrong_kind -> "wrong endpoint kind"
  | `No_destination -> "no destination connected"

let attach ~comm ~port ~engines =
  if Array.length engines = 0 then invalid_arg "Api.attach: no engines";
  {
    comm;
    port;
    engines;
    config = Comm_buffer.config comm;
    layout = Comm_buffer.layout comm;
    last_mid = 0;
    last_recv_mid = 0;
  }

let last_msg_id t = t.last_mid
let last_recv_msg_id t = t.last_recv_mid

let config t = t.config
let layout t = t.layout
let port t = t.port
let comm t = t.comm
let now t = Flipc_sim.Engine.now (Flipc_memsim.Mem_port.engine t.port)

let instr_ns t =
  (Flipc_memsim.Bus.cost_model (Flipc_memsim.Mem_port.bus t.port))
    .Flipc_memsim.Cost_model.instr_ns
let payload_bytes t = Config.payload_bytes t.config
let node t = Msg_engine.node t.engines.(0)
let obs t = Msg_engine.obs t.engines.(0)

(* The engine shard that owns local endpoint [ep] — the same map the
   machine's delivery router uses, so doorbell pokes always reach the
   engine that will drain the queue (no lost wakeups across shards). *)
let owner_engine t ~ep =
  let count = Array.length t.engines in
  if count = 1 then t.engines.(0)
  else
    t.engines.(Msg_engine.owner_shard ~count (Comm_buffer.ep_offset t.comm + ep))

let emit t ev =
  match obs t with
  | Some o when Flipc_obs.Obs.tracing o -> Flipc_obs.Obs.event o (ev ())
  | _ -> ()

(* Mutual exclusion among application threads per the configured interface
   variant. The lock word is a test-and-set spinlock with no cache
   residency; spinning backs off by a few instruction times so a simulated
   contender cannot livelock the clock. *)
let with_lock t ~ep f =
  match t.config.Config.lock_mode with
  | Config.Lock_free -> f ()
  | Config.Test_and_set ->
      let lock_addr = Layout.ep_field t.layout ~ep Layout.Lock in
      while not (Mem_port.test_and_set t.port lock_addr) do
        Mem_port.instr t.port 10
      done;
      Fun.protect ~finally:(fun () -> Mem_port.clear t.port lock_addr) f

let ep_field t ~ep field = Layout.ep_field t.layout ~ep field

(* Drop-counter idiom (single writer, load + store, no RMW): the
   application side owns this word, so the unsynchronized increment is
   safe, and only the store is a timed memory operation. *)
let bump_word t addr = Mem_port.store t.port addr ((Mem_port.peek t.port addr + 1) land 0x3FFFFFFF)

(* Send doorbell: rung after every release onto a send endpoint's queue
   (strictly after — the engine checks doorbells before parking, so
   release-then-ring is what makes wakeups lossless). The engine compares
   the word against its private shadow; any change means "look at this
   queue". *)
let ring_doorbell t ~ep =
  bump_word t (ep_field t ~ep Layout.Send_pending);
  (* Summary second: the engine captures the summary before scanning the
     per-endpoint words, so ring-then-summarize keeps wakeups lossless —
     an engine that saw the new summary scans after this point and finds
     the ring; one that missed it is forced to rescan by the changed
     summary on its next look. Unlike [Send_pending] (single writer: the
     endpoint's owner), the summary is shared by every application on the
     communication buffer, so the bump must be a locked increment — a
     plain load+store pair can lose an increment to a concurrent ringer,
     leaving the word equal to the engine's shadow and the doorbell
     unseen forever. *)
  ignore
    (Mem_port.fetch_add t.port
       (Layout.global_addr t.layout Layout.G_doorbell_seq)
       1
      : int)

(* Schedule-invalidation epoch: bumped after any endpoint-table change
   the engine's cached schedule depends on. Several attachments may share
   a buffer and coalesce increments (both read [n], both store [n+1]);
   that is harmless because each bump is ordered after its own table
   writes, so whichever value the engine observes, the rebuild's table
   scan sees all the coalesced changes. The poke makes the change take
   effect promptly when the engine is parked — without it the rebuild
   would be deferred to the next traffic-driven wakeup (still correct,
   since a send both rings its doorbell and pokes, but it would leave
   e.g. a priority change invisible for an unbounded idle stretch). *)
let bump_epoch t =
  (* Locked for the same reason as the doorbell summary: the epoch word
     is written by every application sharing the buffer, and a lost
     increment can leave the word equal to an engine's cached copy with
     a table change unseen. *)
  ignore
    (Mem_port.fetch_add t.port
       (Layout.global_addr t.layout Layout.G_schedule_epoch)
       1
      : int);
  (* Every shard caches its own slice of the schedule off the same epoch
     word, so a table change must wake them all. *)
  Array.iter Msg_engine.poke t.engines

let allocate_endpoint t ~kind ?semaphore ?(priority = 0) ?(burst = 0)
    ?allowed_node () =
  if priority < 0 then invalid_arg "Api.allocate_endpoint: negative priority";
  if burst < 0 then invalid_arg "Api.allocate_endpoint: negative burst";
  (match allowed_node with
  | Some n when n < 0 -> invalid_arg "Api.allocate_endpoint: bad allowed_node"
  | _ -> ());
  match Comm_buffer.alloc_endpoint t.comm with
  | None -> Error `No_resources
  | Some ep ->
      Mem_port.instr t.port 12;
      Buffer_queue.init t.port t.layout ~ep;
      Mem_port.store t.port (ep_field t ~ep Layout.Priority) priority;
      Mem_port.store t.port (ep_field t ~ep Layout.Burst) burst;
      Mem_port.store t.port
        (ep_field t ~ep Layout.Allowed_node)
        (match allowed_node with Some n -> n + 1 | None -> 0);
      Mem_port.store t.port
        (ep_field t ~ep Layout.Queue_base)
        (Layout.slot_addr t.layout ~ep ~slot:0);
      Mem_port.store t.port
        (ep_field t ~ep Layout.Queue_capacity)
        t.config.Config.queue_capacity;
      Mem_port.store t.port
        (ep_field t ~ep Layout.Sem_flag)
        (match semaphore with Some _ -> 1 | None -> 0);
      Mem_port.store t.port
        (ep_field t ~ep Layout.Dest_addr)
        (Address.to_word Address.null);
      Mem_port.store t.port (ep_field t ~ep Layout.Drop_read) 0;
      Mem_port.store t.port (ep_field t ~ep Layout.Drop_count) 0;
      Mem_port.store t.port (ep_field t ~ep Layout.Send_pending) 0;
      Mem_port.store t.port (ep_field t ~ep Layout.Lock) 0;
      (* The type word last: the engine ignores the endpoint until it is
         typed, so a partially initialized endpoint is never scanned.
         The epoch bump is ordered after the type word: when the engine
         sees the new epoch, the rebuild scan sees the whole endpoint. *)
      Mem_port.store t.port
        (ep_field t ~ep Layout.Ep_type)
        (Endpoint_kind.to_word kind);
      bump_epoch t;
      Comm_buffer.set_semaphore t.comm ~ep semaphore;
      Ok { index = ep; ep_kind = kind; sem = semaphore }

let free_endpoint t ep =
  Mem_port.store t.port
    (ep_field t ~ep:ep.index Layout.Ep_type)
    Endpoint_kind.free_word;
  bump_epoch t;
  Comm_buffer.set_semaphore t.comm ~ep:ep.index None;
  Comm_buffer.free_endpoint t.comm ep.index

let set_priority t ep priority =
  if priority < 0 then invalid_arg "Api.set_priority: negative priority";
  Mem_port.store t.port (ep_field t ~ep:ep.index Layout.Priority) priority;
  bump_epoch t

let set_burst t ep burst =
  if burst < 0 then invalid_arg "Api.set_burst: negative burst";
  Mem_port.store t.port (ep_field t ~ep:ep.index Layout.Burst) burst;
  bump_epoch t

let address t ep =
  (* Addresses carry node-global endpoint indices so the engine can
     demultiplex across multiple communication buffers. *)
  Address.make ~node:(node t)
    ~endpoint:(Comm_buffer.ep_offset t.comm + ep.index)
let endpoint_index ep = ep.index
let kind ep = ep.ep_kind
let semaphore ep = ep.sem

let connect t ep addr =
  Mem_port.store t.port
    (ep_field t ~ep:ep.index Layout.Dest_addr)
    (Address.to_word addr)

let allocate_buffer t =
  match Comm_buffer.alloc_buffer t.comm with
  | None -> Error `No_resources
  | Some buf ->
      Mem_port.instr t.port 6;
      Msg_buffer.set_state t.port t.layout ~buf Msg_buffer.Idle;
      Ok buf

let free_buffer t buf = Comm_buffer.free_buffer t.comm buf
let buffer_index buf = buf

let buffer_of_index t i =
  if i < 0 || i >= t.config.Config.total_buffers then
    invalid_arg "Api.buffer_of_index: out of range";
  i

let write_payload t buf ?at data =
  Msg_buffer.write_payload t.port t.layout ~buf ?at data

let read_payload t buf ?at len =
  Msg_buffer.read_payload t.port t.layout ~buf ?at len

let buffer_complete t buf =
  match Msg_buffer.state t.port t.layout ~buf with
  | Some Msg_buffer.Complete -> true
  | Some Msg_buffer.Idle | None -> false

let release_on ?(doorbell = false) t ~ep ~buf =
  let buf_addr = Layout.buffer_addr t.layout buf in
  match Buffer_queue.app_release t.port t.layout ~ep ~buf_addr with
  | Ok () ->
      (* Order matters: queue release, then doorbell, then poke. The
         engine re-checks doorbells before parking, so a ring that lands
         while it runs is never lost; the poke wakes it if parked. The
         poke goes to the shard that owns this endpoint. *)
      if doorbell then ring_doorbell t ~ep;
      Msg_engine.poke (owner_engine t ~ep);
      Ok ()
  | Error `Full -> Error `Full

let send_with_dest t ep buf dest =
  if ep.ep_kind <> Endpoint_kind.Send then Error `Wrong_kind
  else if Address.is_null dest then Error `No_destination
  else
    let mid = fresh_mid () in
    let r =
      with_lock t ~ep:ep.index (fun () ->
          Mem_port.instr t.port 6;
          Msg_buffer.set_dest t.port t.layout ~buf dest;
          Msg_buffer.set_state_and_id t.port t.layout ~buf ~mid Msg_buffer.Idle;
          (* Checksum last: it must cover the header words just written.
             The engine only reads the buffer after the release below, so
             the digest is what the wire will carry. *)
          if Msg_buffer.checksum_enabled t.layout then
            Msg_buffer.store_checksum t.port t.layout ~buf;
          release_on ~doorbell:true t ~ep:ep.index ~buf)
    in
    (match r with
    | Ok () ->
        t.last_mid <- mid;
        emit t (fun () ->
            Flipc_obs.Event.Send_enqueued
              {
                node = node t;
                ep = Comm_buffer.ep_offset t.comm + ep.index;
                dst_node = Address.node dest;
                dst_ep = Address.endpoint dest;
                mid;
              })
    | Error _ -> ());
    r

let send t ep buf =
  let dest =
    Address.of_word
      (Mem_port.load t.port (ep_field t ~ep:ep.index Layout.Dest_addr))
  in
  send_with_dest t ep buf dest

let send_to t ep buf dest = send_with_dest t ep buf dest

let post_receive t ep buf =
  if ep.ep_kind <> Endpoint_kind.Recv then Error `Wrong_kind
  else
    with_lock t ~ep:ep.index (fun () ->
        Mem_port.instr t.port 4;
        Msg_buffer.set_state t.port t.layout ~buf Msg_buffer.Idle;
        release_on t ~ep:ep.index ~buf)

let acquire_any t ep =
  with_lock t ~ep:ep.index (fun () ->
      match Buffer_queue.app_acquire t.port t.layout ~ep:ep.index with
      | None -> None
      | Some buf_addr -> (
          match Layout.buffer_of_addr t.layout buf_addr with
          | Some buf -> Some buf
          | None ->
              (* Only the application writes slots, so a bad pointer here is
                 its own corruption; surface it loudly. *)
              invalid_arg "Api: corrupt buffer pointer in own queue"))

let receive t ep =
  if ep.ep_kind <> Endpoint_kind.Recv then
    invalid_arg "Api.receive: not a receive endpoint"
  else
    match acquire_any t ep with
    | None -> None
    | Some buf as r ->
        t.last_recv_mid <- Msg_buffer.msg_id t.port t.layout ~buf;
        emit t (fun () ->
            Flipc_obs.Event.Recv_dequeued
              {
                node = node t;
                ep = Comm_buffer.ep_offset t.comm + ep.index;
                mid = t.last_recv_mid;
              });
        r

let reclaim t ep =
  if ep.ep_kind <> Endpoint_kind.Send then
    invalid_arg "Api.reclaim: not a send endpoint"
  else acquire_any t ep

(* {2 Burst operations}

   The batched hot path ({!Config.t.app_send_burst} / [app_recv_burst];
   DESIGN.md §16). Each burst pays one cursor round-trip on the
   underlying queue ({!Buffer_queue.app_release_burst} /
   [app_acquire_burst]) and — on the send side — rings the doorbell and
   pokes the owning engine shard exactly once, however many messages it
   carries. Wakeups stay lossless by the same argument as the singleton
   path: all queue stores precede the one ring, which precedes the one
   poke, and the engine re-checks doorbells before parking. *)

let send_burst t ep bufs =
  if ep.ep_kind <> Endpoint_kind.Send then Error `Wrong_kind
  else
    let dest =
      Address.of_word
        (Mem_port.load t.port (ep_field t ~ep:ep.index Layout.Dest_addr))
    in
    if Address.is_null dest then Error `No_destination
    else
      let count = Array.length bufs in
      if count = 0 then Ok 0
      else
        with_lock t ~ep:ep.index (fun () ->
            let mids = Array.make count 0 in
            let addrs = Array.make count 0 in
            for i = 0 to count - 1 do
              let buf = bufs.(i) in
              let mid = fresh_mid () in
              mids.(i) <- mid;
              addrs.(i) <- Layout.buffer_addr t.layout buf;
              Mem_port.instr t.port 6;
              Msg_buffer.set_dest t.port t.layout ~buf dest;
              Msg_buffer.set_state_and_id t.port t.layout ~buf ~mid
                Msg_buffer.Idle;
              (* Checksum last, as in the singleton send: it must cover
                 the header words just written. *)
              if Msg_buffer.checksum_enabled t.layout then
                Msg_buffer.store_checksum t.port t.layout ~buf
            done;
            let n =
              Buffer_queue.app_release_burst t.port t.layout ~ep:ep.index
                ~buf_addrs:addrs ~count
            in
            (* Overflowed buffers (i >= n) were never released: the caller
               still owns them and their header writes are inert. *)
            if n > 0 then begin
              ring_doorbell t ~ep:ep.index;
              Msg_engine.poke (owner_engine t ~ep:ep.index);
              t.last_mid <- mids.(n - 1);
              let dst_node = Address.node dest in
              let dst_ep = Address.endpoint dest in
              let src_node = node t in
              let src_ep = Comm_buffer.ep_offset t.comm + ep.index in
              for i = 0 to n - 1 do
                emit t (fun () ->
                    Flipc_obs.Event.Send_enqueued
                      {
                        node = src_node;
                        ep = src_ep;
                        dst_node;
                        dst_ep;
                        mid = mids.(i);
                      })
              done
            end;
            Ok n)

let acquire_burst t ep ~out =
  let max = Array.length out in
  if max = 0 then 0
  else
    with_lock t ~ep:ep.index (fun () ->
        (* A buffer is its index, an int: the queue's addresses land in
           [out] and become indices in place, so a call allocates no
           scratch array. *)
        let n =
          Buffer_queue.app_acquire_burst t.port t.layout ~ep:ep.index ~max ~out
        in
        for i = 0 to n - 1 do
          match Layout.buffer_of_addr t.layout out.(i) with
          | Some buf -> out.(i) <- buf
          | None -> invalid_arg "Api: corrupt buffer pointer in own queue"
        done;
        n)

let receive_burst t ep ~out =
  if ep.ep_kind <> Endpoint_kind.Recv then
    invalid_arg "Api.receive_burst: not a receive endpoint"
  else
    let n = acquire_burst t ep ~out in
    if n > 0 then begin
      let node = node t in
      let global_ep = Comm_buffer.ep_offset t.comm + ep.index in
      for i = 0 to n - 1 do
        let mid = Msg_buffer.msg_id t.port t.layout ~buf:out.(i) in
        t.last_recv_mid <- mid;
        emit t (fun () ->
            Flipc_obs.Event.Recv_dequeued { node; ep = global_ep; mid })
      done
    end;
    n

let post_receive_burst t ep bufs =
  if ep.ep_kind <> Endpoint_kind.Recv then Error `Wrong_kind
  else
    let count = Array.length bufs in
    if count = 0 then Ok 0
    else
      with_lock t ~ep:ep.index (fun () ->
          let addrs = Array.make count 0 in
          for i = 0 to count - 1 do
            Mem_port.instr t.port 4;
            Msg_buffer.set_state t.port t.layout ~buf:bufs.(i) Msg_buffer.Idle;
            addrs.(i) <- Layout.buffer_addr t.layout bufs.(i)
          done;
          let n =
            Buffer_queue.app_release_burst t.port t.layout ~ep:ep.index
              ~buf_addrs:addrs ~count
          in
          (* No doorbell: receive queues are drained on deposit, not on a
             Send_pending ring; the poke covers the parked-engine case. *)
          if n > 0 then Msg_engine.poke (owner_engine t ~ep:ep.index);
          Ok n)

let reclaim_burst t ep ~out =
  if ep.ep_kind <> Endpoint_kind.Send then
    invalid_arg "Api.reclaim_burst: not a send endpoint"
  else acquire_burst t ep ~out

let receive_wait t ep thr =
  match ep.sem with
  | None -> invalid_arg "Api.receive_wait: endpoint has no semaphore"
  | Some sem ->
      let rec loop () =
        match receive t ep with
        | Some buf -> buf
        | None ->
            Rt_semaphore.wait sem thr;
            loop ()
      in
      loop ()

let drops t ep = Drop_counter.read t.port t.layout ~ep:ep.index

let drops_read_and_reset t ep =
  let count = Drop_counter.read_and_reset t.port t.layout ~ep:ep.index in
  if count > 0 then
    emit t (fun () ->
        Flipc_obs.Event.Drops_read
          {
            node = node t;
            ep = Comm_buffer.ep_offset t.comm + ep.index;
            count;
          });
  count
