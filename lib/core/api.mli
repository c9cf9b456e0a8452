(** The FLIPC application interface layer.

    This is the library applications link against: it hides the
    communication-buffer data structures behind endpoint and buffer
    handles, and is the only component that manipulates the wait-free
    structures from the application side. One [Api.t] represents an
    attachment of application code running on one CPU of one node; several
    attachments may share a node's communication buffer (cooperating
    applications divide its endpoints).

    {b Threading.} The operations here are the paper's optimized
    lock-free interface when the configuration says [Lock_free]: at most
    one thread may use a given endpoint at a time (or the application
    provides its own mutual exclusion). With [Test_and_set] every endpoint
    operation takes the endpoint's multiprocessor lock — the original,
    slow interface kept for the cache ablation.

    All operations are asynchronous with respect to the messaging engine
    and never block, except [receive_wait], which blocks the calling
    real-time thread on the endpoint's semaphore. *)

type t
type endpoint
type buffer

type error =
  [ `No_resources  (** endpoint table or buffer pool exhausted *)
  | `Full  (** the endpoint's buffer queue is full *)
  | `Wrong_kind  (** send on a receive endpoint or vice versa *)
  | `No_destination  (** send with no connected destination *) ]

val error_to_string : error -> string

(** [attach ~comm ~port ~engines] creates an attachment. [engines] is the
    node's engine shard array in shard-index order (a single engine on an
    unsharded node); every doorbell poke this attachment performs goes to
    the shard that {!Msg_engine.owner_shard} assigns the endpoint. *)
val attach :
  comm:Comm_buffer.t ->
  port:Flipc_memsim.Mem_port.t ->
  engines:Msg_engine.t array ->
  t

val config : t -> Config.t
val layout : t -> Layout.t
val port : t -> Flipc_memsim.Mem_port.t
val comm : t -> Comm_buffer.t

(** Current virtual time on this attachment's clock (the simulation
    engine behind its memory port). Blocking library layers use it for
    deadline-based timeouts, so every layer's timeout is expressed in
    the same unit — virtual nanoseconds — regardless of fabric. *)
val now : t -> Flipc_sim.Vtime.t

(** The cost model's nanoseconds per instruction on this attachment's
    port: the conversion factor between legacy spin-count timeout
    budgets and virtual-time deadlines. *)
val instr_ns : t -> int

(** {1 Causal message ids}

    Every successful send stamps a process-unique 28-bit message id into
    the message's state word (see {!Msg_buffer}); trace events along the
    whole path carry it. These accessors let layers above (e.g.
    {!Flipc_flow.Retrans_layer} over the channel transport) correlate
    their own sequence numbers with the id of the message they just sent
    or received. 0 = none yet. *)

(** Id stamped by the most recent successful [send]/[send_to] on this
    attachment. *)
val last_msg_id : t -> int

(** Id carried by the most recent message returned from [receive]. *)
val last_recv_msg_id : t -> int

(** Draw a fresh id from the process-wide counter — for subsystems that
    move data outside the per-message send path (e.g. {!Flipc_bulk}
    stamping one id per bulk transfer so its events join causal spans). *)
val fresh_msg_id : unit -> int

(** Usable application payload per message. *)
val payload_bytes : t -> int

(** The engine's observability bundle, if {!Msg_engine.set_obs} attached
    one; sends and receives through this interface emit their lifecycle
    events on it. *)
val obs : t -> Flipc_obs.Obs.t option

(** {1 Endpoints} *)

(** [allocate_endpoint t ~kind ()] allocates and initializes an endpoint.

    [semaphore] attaches a real-time wakeup semaphore (receive endpoints):
    the engine posts it on each message deposit, enabling [receive_wait]
    and blocking endpoint-group receives.

    The remaining options are the transport-extension controls (the
    paper's future-work items, implemented):
    - [priority] (send endpoints, default 0): the engine transmits from
      higher-priority endpoints first within each loop iteration.
    - [burst] (send endpoints, default unlimited): capacity control — at
      most this many messages leave the endpoint per engine iteration, so
      a bulk stream cannot monopolize the transmit path.
    - [allowed_node]: protection — the engine refuses (and counts) any
      message from this endpoint addressed to a different node. *)
val allocate_endpoint :
  t ->
  kind:Endpoint_kind.t ->
  ?semaphore:Flipc_rt.Rt_semaphore.t ->
  ?priority:int ->
  ?burst:int ->
  ?allowed_node:int ->
  unit ->
  (endpoint, error) result

(** [free_endpoint] returns the endpoint to the table. The application
    must have drained its queue. *)
val free_endpoint : t -> endpoint -> unit

(** [set_priority]/[set_burst] change a send endpoint's transport
    priority / per-iteration burst cap after allocation and bump the
    schedule epoch, so the engine's cached priority schedule picks the
    change up on its next iteration. *)
val set_priority : t -> endpoint -> int -> unit

val set_burst : t -> endpoint -> int -> unit

(** The system-assigned opaque address receivers hand to senders. *)
val address : t -> endpoint -> Address.t

val endpoint_index : endpoint -> int
val kind : endpoint -> Endpoint_kind.t
val semaphore : endpoint -> Flipc_rt.Rt_semaphore.t option

(** [connect t ep addr] sets a send endpoint's destination. *)
val connect : t -> endpoint -> Address.t -> unit

(** {1 Buffers}

    All message buffers are allocated by FLIPC (alignment is internal);
    an application that wants flow control builds it above this layer. *)

val allocate_buffer : t -> (buffer, error) result
val free_buffer : t -> buffer -> unit
val buffer_index : buffer -> int

(** [buffer_of_index t i] rebuilds a handle; for handing buffers between
    application components. *)
val buffer_of_index : t -> int -> buffer

val write_payload : t -> buffer -> ?at:int -> Bytes.t -> unit
val read_payload : t -> buffer -> ?at:int -> int -> Bytes.t

(** [buffer_complete t buf] polls the buffer's state field: has the engine
    finished processing it? *)
val buffer_complete : t -> buffer -> bool

(** {1 Message transfer}

    The five steps of the paper's Figure 2: the receiver posts a buffer
    (1, [post_receive]); the sender queues a message (2, [send]); the
    engine moves it (3); the receiver removes it (4, [receive]); the
    sender reclaims its buffer (5, [reclaim]). *)

(** [send t ep buf] queues [buf] for transmission to the connected
    destination. *)
val send : t -> endpoint -> buffer -> (unit, error) result

(** [send_to] overrides the connected destination for this message. *)
val send_to : t -> endpoint -> buffer -> Address.t -> (unit, error) result

(** [post_receive t ep buf] provides an empty buffer for message arrival. *)
val post_receive : t -> endpoint -> buffer -> (unit, error) result

(** [receive t ep] removes the oldest delivered message, or [None]. *)
val receive : t -> endpoint -> buffer option

(** [reclaim t ep] recovers the oldest transmitted send buffer for reuse,
    or [None]. *)
val reclaim : t -> endpoint -> buffer option

(** [receive_wait t ep thr] blocks [thr] on the endpoint's semaphore until
    a message is available. Raises [Invalid_argument] if the endpoint has
    no semaphore. *)
val receive_wait : t -> endpoint -> Flipc_rt.Sched.thread -> buffer

(** {1 Burst transfer}

    The batched hot path (DESIGN.md §16): each call pays one queue-cursor
    round-trip for the whole run, and the send side rings the doorbell
    and pokes the owning engine shard exactly once per burst. Semantics
    are identical to a loop of the singleton operations — same FIFO
    order, same per-message trace events — only the
    bookkeeping traffic is coalesced. Sized by {!Config.t.app_send_burst}
    / [app_recv_burst] in the stock workloads; burst size 1 degenerates
    to the singleton cost plus one instruction, which is the ablation
    baseline. *)

(** [send_burst t ep bufs] queues [bufs] (in array order) to the
    connected destination, returning how many were accepted — fewer than
    [Array.length bufs] when the queue fills; the caller keeps ownership
    of the overflow. *)
val send_burst : t -> endpoint -> buffer array -> (int, error) result

(** [receive_burst t ep ~out] removes up to [Array.length out] delivered
    messages into [out], oldest first, returning the count. *)
val receive_burst : t -> endpoint -> out:buffer array -> int

(** [post_receive_burst t ep bufs] posts [bufs] as empty receive buffers,
    returning how many the queue accepted. *)
val post_receive_burst : t -> endpoint -> buffer array -> (int, error) result

(** [reclaim_burst t ep ~out] recovers up to [Array.length out] processed
    send buffers into [out], returning the count. *)
val reclaim_burst : t -> endpoint -> out:buffer array -> int

(** {1 Drop accounting} *)

(** Messages discarded on this endpoint since the last reset. *)
val drops : t -> endpoint -> int

(** Read and reset as one logical wait-free operation; no drop event can
    be lost. *)
val drops_read_and_reset : t -> endpoint -> int
