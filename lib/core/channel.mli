(** Convenience channel layer: automatic buffer management over FLIPC.

    The paper's own verdict on the raw interface: "a FLIPC application can
    expect to employ about half of its calls to FLIPC to send or receive
    messages, and the other half for message buffer management. An
    improved buffer management design that frees the programmer from most
    of these details is clearly called for." This module is that design,
    implemented — per the paper's layering philosophy — entirely above the
    transport, in the library.

    A sender channel owns a pool of message buffers: [send] copies the
    payload in, queues it, and transparently reclaims transmitted buffers
    back into the pool. A receiver channel keeps its endpoint's queue
    topped up: [recv] copies the payload out and reposts the buffer
    immediately. Payloads are variable-length up to [capacity]: the first
    payload word carries the length (a 4-byte library header inside
    FLIPC's fixed-size message).

    The cost of the convenience is one payload copy per side — exactly the
    trade the paper declines to make in the transport itself but endorses
    above it. Latency-critical code keeps using {!Api} directly. *)

type tx
type rx

type error = [ Api.error | `No_buffer  (** pool exhausted and nothing reclaimable *) ]

val error_to_string : error -> string

(** {1 Sender} *)

(** [create_tx api ~dest ()] allocates a send endpoint connected to
    [dest] and a pool of [pool] buffers (default 4). [priority] and
    [burst] pass through to {!Api.allocate_endpoint}'s transport
    prioritization / capacity controls. *)
val create_tx :
  Api.t ->
  dest:Address.t ->
  ?pool:int ->
  ?priority:int ->
  ?burst:int ->
  unit ->
  (tx, error) result

(** [send t payload] copies [payload] into a pool buffer and queues it.
    Spins (bounded by queue drain) for a reclaimable buffer when the pool
    is momentarily empty. Raises [Invalid_argument] if the payload exceeds
    [capacity]. *)
val send : tx -> Bytes.t -> (unit, error) result

(** [try_send t payload] never spins: [`No_buffer] when the pool is empty
    and nothing has been transmitted yet, [`Full] when the endpoint queue
    is full. *)
val try_send : tx -> Bytes.t -> (unit, error) result

(** [send_deadline t ~deadline payload] is [send] with a bounded wait:
    when the pool is empty it polls for a reclaimable buffer until the
    virtual clock ({!Api.now}) reaches [deadline] (absolute, virtual ns)
    before returning [`Timeout] — the recourse when the engine may have
    stopped processing (the unbounded [send] would spin forever). *)
val send_deadline :
  tx -> deadline:int -> Bytes.t -> (unit, [ error | `Timeout ]) result

(** Messages queued so far. *)
val sent : tx -> int

(** The send endpoint underneath (layers above key their trace events
    and probes on it). *)
val tx_endpoint : tx -> Api.endpoint

(** {1 Receiver} *)

(** [create_rx api ?depth ?semaphore ()] allocates a receive endpoint with
    [depth] (default 4) posted buffers. *)
val create_rx :
  Api.t ->
  ?depth:int ->
  ?semaphore:Flipc_rt.Rt_semaphore.t ->
  unit ->
  (rx, error) result

(** The endpoint address to hand to senders (or a name service). *)
val address : rx -> Address.t

(** [recv t] copies out the oldest delivered payload and reposts its
    buffer, or [None]. *)
val recv : rx -> Bytes.t option

(** [recv_wait t thr] blocks on the endpoint's semaphore. Requires the
    channel to have been created with one. *)
val recv_wait : rx -> Flipc_rt.Sched.thread -> Bytes.t

(** Messages consumed so far. *)
val received : rx -> int

(** The receive endpoint underneath. *)
val rx_endpoint : rx -> Api.endpoint

(** Frames discarded because their length header was garbage (a peer not
    speaking the channel framing); the channel skips them rather than
    failing. *)
val corrupt_frames : rx -> int

(** Transport discards on this channel since the last call (wait-free
    read-and-reset). *)
val drops : rx -> int

(** {1 Both} *)

(** Largest payload a channel message can carry
    (= {!Api.payload_bytes} - 4 bytes of length header). *)
val capacity : Api.t -> int
