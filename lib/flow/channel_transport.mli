(** {!Flipc.Channel} as a {!Transport.S}: the on-machine base of every
    stack.

    A connection is a receive channel (created first, so its address can
    be exchanged through a mailbox or the name service) plus a send
    channel wired to the peer's address with {!connect}. Buffer
    management is the channel layer's: pooled transmit buffers, reposted
    receive buffers, 4-byte length framing — the "improved buffer
    management design" the paper calls for, now under any reliability
    layer stacked on top.

    Semantics are FLIPC's optimistic transport: a message that finds no
    posted receive buffer at the peer is discarded ({!drops} counts
    them); transient local exhaustion (transmit pool, send ring)
    surfaces as [`No_buffer] and is absorbed by the deadline-blocking
    operations. *)

type t

(** Satisfies {!Transport.S}. *)

val capacity : t -> int
val now : t -> Flipc_sim.Vtime.t
val idle : t -> unit
val pump : t -> (unit, Transport.error) result
val try_send : t -> Bytes.t -> (unit, Transport.error) result

val send :
  t -> deadline:Flipc_sim.Vtime.t -> Bytes.t -> (unit, Transport.error) result

val recv : t -> (Bytes.t option, Transport.error) result

val recv_deadline :
  t -> deadline:Flipc_sim.Vtime.t -> (Bytes.t, Transport.error) result

val close : t -> unit

(** {1 Construction} *)

(** [create api ()] allocates the receive half; the connection sends
    nothing (and reports [`Closed] from send operations) until
    {!connect}. [pool] sizes the transmit buffer pool, [depth] the
    posted receive queue (both default 4, as in {!Flipc.Channel}).
    [semaphore] attaches a real-time wakeup semaphore to the receive
    endpoint, making the connection eligible for a
    {!Transport.Group.recv_any_wait} group built on the same
    semaphore. *)
val create :
  Flipc.Api.t ->
  ?pool:int ->
  ?depth:int ->
  ?semaphore:Flipc_rt.Rt_semaphore.t ->
  unit ->
  (t, Transport.error) result

(** The receive half's address, to hand to the peer. *)
val address : t -> Flipc.Address.t

(** [connect t dest] wires the send half to the peer's receive address.
    [`Closed] if already connected or closed. *)
val connect : t -> Flipc.Address.t -> (unit, Transport.error) result

(** {1 Trace site}

    A layer stacked {e directly} on this transport can report in the
    machine's observability: its frames are exactly this connection's
    FLIPC messages, so {!Flipc.Api.last_msg_id} and
    {!Flipc.Api.last_recv_msg_id} name the message a frame just
    travelled in. *)

(** The attachment plus the connection's send and receive endpoints. *)
type site = {
  api : Flipc.Api.t;
  tx_ep : Flipc.Api.endpoint;
  rx_ep : Flipc.Api.endpoint;
}

(** [site t] of a connected transport. Raises [Invalid_argument] before
    {!connect}. *)
val site : t -> site

(** [trace site ep ev] records [ev ~node ~ep] — [ep]'s node and endpoint
    number — when the machine is tracing; otherwise does nothing. *)
val trace :
  site ->
  Flipc.Api.endpoint ->
  (node:int -> ep:int -> Flipc_obs.Event.t) ->
  unit

(** [register_probes site ~layer ep fields] exports each [(name, read)]
    as the pull-probe [node<i>.<layer>.ep<n>.<name>] on the machine's
    metrics registry (sampled at snapshot time). *)
val register_probes :
  site ->
  layer:string ->
  Flipc.Api.endpoint ->
  (string * (unit -> int)) list ->
  unit

(** {1 Counters} *)

(** Transport discards at this side's receive endpoint since the last
    call (read-and-reset). *)
val drops : t -> int

(** Frames skipped for garbage length headers (cumulative). *)
val corrupt_frames : t -> int

val sent : t -> int
val received : t -> int
