(** The FLIPC messaging engine.

    An independently executing component that moves messages between the
    communication buffer and the interconnect. On the modelled Paragon it
    runs on the dedicated message coprocessor: it shares the node's
    memory-coherence domain with the application CPUs (its [port]), and is
    structured as a non-preemptible event loop. Per the paper's protection
    argument, nothing the application does can block it: all shared-state
    interaction is through the wait-free queue and counter structures.

    Each loop iteration costs {!Config.engine_poll_ns} plus the memory
    traffic of discovering work; this polling cost is a real part of
    message latency and is visible in the FIG4 reproduction.

    {b Scheduling.} With {!Config.sched_mode} = [Doorbell] (the default)
    the iteration is work-proportional: the engine consults one schedule
    epoch word per communication buffer and one [Send_pending] doorbell
    word per {e allocated} send endpoint, visits only endpoints whose
    doorbell is raised, and rebuilds its cached priority schedule only
    when the epoch changed — no allocation, no sort, and no contact with
    the endpoint table on an idle poll. [Full_scan] keeps the original
    scan of every configured endpoint as an ablation. Both respect
    per-endpoint bursts and {!Config.engine_rx_burst}. See DESIGN.md §11.

    {b Parking.} A real engine spins forever. So that simulations
    terminate, an engine with no work for [engine_park_after] consecutive
    iterations suspends until {!poke}d (by the NIC on packet arrival or by
    the application library after queueing work). Parking only ever skips
    time in which nothing could happen; the one distortion is that the
    first message after an idle period sees no polling-discovery delay —
    a cold-start effect the TRANSIENT experiment documents. *)

type transport = {
  tname : string;
  transmit : dst:Address.t -> Bytes.t -> (unit, [ `Bad_dest ]) result;
      (** Called in engine-process context with the full wire image. The
          native mesh transport is asynchronous; the KKT transport blocks
          for an RPC round trip (the mismatch the paper calls out). *)
}

type stats = {
  mutable iterations : int;
  mutable sends : int;
  mutable recvs : int;
  mutable drops : int;  (** messages discarded: no posted receive buffer *)
  mutable rejects : int;  (** messages rejected by validity checks *)
  mutable unroutable : int;
      (** arrivals with a null or unresolvable destination — they belong
          to no communication buffer, so they are counted here at node
          level instead of being charged to some buffer's globals *)
  mutable bad_dest : int;  (** sends with an undeliverable destination *)
  mutable forbidden : int;
      (** sends refused by the endpoint's destination restriction *)
  mutable parks : int;
  mutable doorbell_hits : int;  (** doorbell observations that raised work *)
  mutable sched_rebuilds : int;
      (** cached-schedule rebuilds (epoch changes); constant under
          steady-state traffic *)
  mutable rx_truncations : int;
      (** iterations whose incoming drain hit {!Config.engine_rx_burst} *)
  mutable idle_scans_avoided : int;
      (** doorbell-mode iterations that visited no endpoint — each one a
          full table scan the [Full_scan] engine would have done *)
  mutable corrupt_frames : int;
      (** arrivals discarded by the frame-checksum check
          ({!Config.t.frame_checksum}); nothing in a damaged frame — the
          destination word included — can be trusted, so they are counted
          at node level and never demultiplexed *)
}

type t

(** [create ~comms ...] builds an engine serving one or more communication
    buffers (all sharing one {!Config.t}); several buffers support multiple
    mutually untrusting applications per node. Addresses carry node-global
    endpoint indices ([buffer_index * Config.endpoints + local]).

    [?shard] is [(index, count)]: this engine is shard [index] of a
    [count]-way partition of the node's endpoints and owns exactly the
    node-global endpoints [g] with [g mod count = index] (see
    {!owner_shard}). It schedules, stamps and drains only those, so every
    engine-written endpoint word keeps a single writer and the wait-free
    structures need no new synchronization. Default [(0, 1)]: the whole
    node, bit-identical to the pre-sharding engine. See DESIGN.md §16. *)
val create :
  ?shard:int * int ->
  sim:Flipc_sim.Engine.t ->
  node:int ->
  comms:Comm_buffer.t list ->
  port:Flipc_memsim.Mem_port.t ->
  dma:Flipc_net.Dma.t ->
  transport:transport ->
  unit ->
  t

val node : t -> int

(** This engine's shard index, and the node's shard count. *)
val shard : t -> int

val shard_count : t -> int

(** [owner_shard ~count g] is the shard owning node-global endpoint [g]
    under a [count]-way partition. The machine's delivery router and the
    application library's doorbell-poke target both use this exact
    function — the single source of endpoint-to-engine mapping. *)
val owner_shard : count:int -> int -> int

val stats : t -> stats

(** Every {!stats} counter as a JSON field, in the order of the
    [set_obs] probes: the one field list the probes and every report
    use. *)
val stats_fields : stats -> (string * Flipc_obs.Json.t) list

(** [deliver t image] hands an arriving wire image to the engine (called by
    transport receive paths) and pokes it. *)
val deliver : t -> Bytes.t -> unit

(** [poke t] wakes a parked engine; idempotent. *)
val poke : t -> unit

(** [start t] spawns the engine loop as a simulation process. *)
val start : t -> unit

(** [stop t] makes the loop exit at its next iteration. *)
val stop : t -> unit

val running : t -> bool

(** [set_wakeup_hook t f] installs the message-arrival notification used
    for the real-time semaphore option: [f ~ep] (node-global index) runs
    (in engine context) after a message is deposited on an endpoint whose
    [Sem_flag] is set. *)
val set_wakeup_hook : t -> (ep:int -> unit) -> unit

(** [set_obs t obs] attaches an observability bundle: the engine emits
    typed trace events (while the bundle is {!Flipc_obs.Obs.tracing})
    and exports its {!stats} fields as
    pull-probes on the bundle's registry — [node<i>.engine.*] for a
    single-shard engine (the historical names), [node<i>.engine.s<kk>.*]
    (zero-padded shard id) when sharded, so name-sorted metric snapshots
    enumerate shards deterministically in index order. *)
val set_obs : t -> Flipc_obs.Obs.t -> unit

val obs : t -> Flipc_obs.Obs.t option
