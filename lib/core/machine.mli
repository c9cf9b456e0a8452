(** Whole-machine assembly: nodes (memory, caches, CPUs, message
    coprocessor, NIC, DMA), an interconnect fabric, one messaging engine
    per node, and per-node real-time schedulers.

    Modelled after a Paragon of MP3 nodes: each node has [app_cpus]
    application processors plus a dedicated message coprocessor, all in
    one cache-coherence domain. The Ethernet and SCSI variants rebuild the
    same structure over the development-cluster fabrics, which is how the
    paper validated FLIPC's portability. *)

type fabric_kind =
  | Mesh of { cols : int; rows : int }
  | Ethernet of { nodes : int }
  | Scsi of { nodes : int }

type node

type t

(** How each node's messaging engine reaches the wire. The maker is called
    once per node during boot; it returns the engine's transmit transport
    and is responsible for arranging inbound delivery by calling [deliver]
    (which hands a wire image to that node's engine) from whatever NIC
    callback or protocol machinery it sets up. The default is the native
    one-way optimistic transport; {!Flipc_kkt} provides an RPC-based
    alternative reproducing the paper's portable development path. *)
type transport_maker =
  node:int ->
  nic:Flipc_net.Nic.t ->
  node_count:int ->
  deliver:(Bytes.t -> unit) ->
  Msg_engine.transport

val native_transport : transport_maker

(** [create kind ()] builds and boots the machine: memories and
    communication buffers initialized, NIC callbacks wired, messaging
    engines started, wakeup hooks installed.

    @param config FLIPC configuration (default {!Config.default})
    @param cost memory-system cost model (default
      {!Flipc_memsim.Cost_model.paragon})
    @param mesh_config mesh timing (default {!Flipc_net.Mesh.paragon_config})
    @param app_cpus application CPUs per node (default 2, as on MP3 nodes)
    @param transport engine transport wiring (default {!native_transport})
    @param fault wrap the fabric in {!Flipc_net.Faulty} fault injection
      (drop / burst loss / duplicate / reorder / jitter / corrupt);
      default none
    @param fault_links per-(src,dst)-link fault overrides
      ({!Flipc_net.Faulty.links}); giving only [?fault_links] wraps the
      fabric with a clean fabric-wide config so just the named links
      fault *)
val create :
  ?config:Config.t ->
  ?cost:Flipc_memsim.Cost_model.t ->
  ?mesh_config:Flipc_net.Mesh.config ->
  ?app_cpus:int ->
  ?transport:transport_maker ->
  ?heap_bytes:int ->
  ?comm_buffers:int ->
  ?fault:Flipc_net.Faulty.config ->
  ?fault_links:Flipc_net.Faulty.links ->
  fabric_kind ->
  unit ->
  t

val sim : t -> Flipc_sim.Engine.t

(** The machine's observability bundle: its registry carries the
    [node<i>.engine.*] (and, with [?fault], [fabric.faults.*]) probes,
    and enabling its tracer — or attaching a watcher such as
    {!Flipc_obs.Latency.attach} — turns on typed event tracing
    machine-wide. *)
val obs : t -> Flipc_obs.Obs.t

(** The machine-wide endpoint name service (the external service FLIPC
    assumes; see {!Nameservice}). *)
val names : t -> Nameservice.t

val fabric : t -> Flipc_net.Fabric.t

(** [attach_monitor t] attaches an online invariant monitor
    ({!Flipc_obs.Monitor.attach}) to the machine's bundle and registers
    per-node [queue.pointer_order] state checks over every allocated
    endpoint queue (untimed cursor peeks against
    {!Buffer_queue.well_formed}). Enables event tracing machine-wide. *)
val attach_monitor : t -> Flipc_obs.Monitor.t

(** Injected-fault tally when the machine was created with [?fault]. *)
val fault_stats : t -> Flipc_net.Faulty.stats option

val config : t -> Config.t
val node_count : t -> int
val node : t -> int -> node

(** {1 Per-node access} *)

val node_id : node -> int

(** The node's physical memory (communication buffer + application heap). *)
val mem : node -> Flipc_memsim.Shared_mem.t

(** The node's DMA engine (shared with the messaging engine). *)
val dma : node -> Flipc_net.Dma.t

(** [alloc_heap n bytes] bump-allocates a 32-byte-aligned block from the
    node's application heap (above the communication buffer); used for
    bulk-transfer regions. Fails when the heap is exhausted. *)
val alloc_heap : node -> int -> int

val heap_remaining : node -> int

(** The node's first communication buffer (most machines have just one). *)
val comm : node -> Comm_buffer.t

(** Communication buffers on this node (the multi-application extension:
    mutually untrusting applications each get their own region, endpoints
    and message-buffer pool, all served by the one engine). *)
val comm_buffers : node -> int

val comm_at : node -> int -> Comm_buffer.t

(** The node's first (shard-0) messaging engine — the only one when
    {!Config.t.engine_shards} is 1. *)
val msg_engine : node -> Msg_engine.t

(** All of the node's engine shards, in shard-index order. Shard [k] owns
    exactly the node-global endpoints [g] with
    [Msg_engine.owner_shard ~count g = k]; the machine routes arrivals
    and doorbell pokes with that same map. *)
val msg_engines : node -> Msg_engine.t list

val nic : node -> Flipc_net.Nic.t
val bus : node -> Flipc_memsim.Bus.t
val sched : node -> Flipc_rt.Sched.t
val app_cpus : node -> int

(** [app_port n ~cpu] is application CPU [cpu]'s memory port. *)
val app_port : node -> cpu:int -> Flipc_memsim.Mem_port.t

(** [coproc_port n] is the message coprocessor's (engine's) memory port;
    its {!Flipc_memsim.Mem_port} operation counters let benches measure
    the engine's per-iteration memory traffic. *)
val coproc_port : node -> Flipc_memsim.Mem_port.t

(** [api t ~node ?cpu ?comm ()] is the FLIPC attachment for that CPU and
    communication buffer (cached). *)
val api : t -> node:int -> ?cpu:int -> ?comm:int -> unit -> Api.t

(** {1 Running applications} *)

(** [spawn_app t ~node f] runs [f] as a plain simulation process with that
    node's CPU-0 attachment (no CPU contention modelled). [comm] selects
    the communication buffer (application trust domain). *)
val spawn_app :
  ?name:string -> ?cpu:int -> ?comm:int -> t -> node:int -> (Api.t -> unit) -> unit

(** [spawn_thread t ~node ~priority f] runs [f] as a real-time thread under
    the node's priority scheduler. The thread uses CPU 0's memory port. *)
val spawn_thread :
  ?name:string ->
  ?comm:int ->
  t ->
  node:int ->
  priority:int ->
  (Flipc_rt.Sched.thread -> Api.t -> unit) ->
  Flipc_rt.Sched.thread

(** {1 Control} *)

(** [run t] advances the simulation until the event queue drains (engines
    park when idle, so this terminates once applications finish). *)
val run : ?until:Flipc_sim.Vtime.t -> t -> unit

(** Stop every node's messaging engine. *)
val stop_engines : t -> unit
