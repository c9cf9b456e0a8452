(** Exactly-once, in-order delivery as a functor over any
    {!Transport.S}: the recovery library the paper's layering
    prescribes, implemented entirely above the optimistic transport.

    [Retrans_layer (Channel_transport)] turns a {!Flipc.Channel}
    connection — which FLIPC may drop (no posted buffer) and a lossy
    interconnect ({!Flipc_net.Faulty}) may drop, duplicate or reorder —
    into an exactly-once, in-order one. Stacking over {!Window_layer}
    composes retransmission with credit flow control.

    {b Frames.} Data and acknowledgement frames share the connection,
    distinguished by a one-byte tag. A data frame is the tag plus a
    4-byte sequence number (first message = 1) before the payload, so
    {!capacity} is the base's minus five. An ack frame carries the
    cumulative highest in-order sequence and a 64-bit SACK bitmap (bit
    [i] set: the receiver holds [cum + 1 + i] out of order). Both ack
    fields only describe state the receiver never gives back, so any
    later ack repairs a lost one. Both directions are independent
    instances of the protocol: each side keeps sender state (in-flight
    window, retransmission timer) and receiver state (expected
    sequence, out-of-order buffer).

    {b Recovery.} The default mode is {e selective repeat}: the
    receiver buffers out-of-order frames (the SACK bitmap advertises
    them) and the sender retransmits only the unacknowledged holes when
    the oldest in-flight frame outlives the timeout. [Go_back_n] is
    kept as the ablation: the receiver discards out-of-order frames and
    the sender ignores SACK, resending the whole window.

    The timeout adapts to the measured round trip (RFC 6298): [SRTT],
    [RTTVAR] and [RTO = SRTT + 4*RTTVAR], sampled only from frames that
    were neither retransmitted nor SACK-held (Karn's rule). The
    configured [rto_ns] is the initial value and the floor; an
    unanswered round backs the live timeout off exponentially up to
    [max_rto_ns], and the backoff stands until such a sample arrives.

    A send whose oldest in-flight frame exhausts [max_retries]
    retransmission rounds reports [`Peer_dead] — the peer is presumed
    unreachable — distinct from [`Timeout], which only ever means "your
    deadline passed". A round in which the base refuses every frame
    (local backpressure) spends no retry.

    {b Observability.} Given a {!Channel_transport.site} — pass one only
    to the layer sitting directly on {!Channel_transport}, where each
    frame is exactly one FLIPC message — the layer emits
    [Frame_tx] (on the site's send endpoint, one per wire traversal,
    with that message's id), [Frame_deliver] and [Ack_tx] (on its
    receive endpoint; a SACK-held frame keeps the id it arrived in),
    and registers [node<i>.retrans.ep<n>.*] probes. Without a site it
    emits nothing. *)

(** Recovery discipline; [Go_back_n] is the ablation mode. *)
type mode = Selective_repeat | Go_back_n

type config = {
  window : int;  (** max unacknowledged messages in flight (<= 64) *)
  rto_ns : int;  (** initial retransmission timeout and floor (virtual ns) *)
  max_rto_ns : int;  (** exponential-backoff / adaptive-RTO cap *)
  ack_every : int;
      (** acknowledge every n in-order deliveries, and re-acknowledge at
          most once per n duplicate/gap anomalies (or one [rto_ns] of
          ack silence) *)
  max_retries : int;  (** retransmission rounds before [`Peer_dead] *)
  mode : mode;
}

(** [window = 8], [rto_ns = 1ms], [max_rto_ns = 8ms], [ack_every = 1],
    [max_retries = 30], [mode = Selective_repeat]. The initial timeout
    must exceed the fabric's round trip; the estimator pulls the live
    timeout toward the measured round trip from the first ack on. *)
val default_config : config

module Make (T : Transport.S) : sig
  type t

  (** Satisfies {!Transport.S}. *)

  val capacity : t -> int
  val now : t -> Flipc_sim.Vtime.t
  val idle : t -> unit

  (** Absorbs acknowledgements, delivers arriving data into the
      in-order queue, fires due retransmissions. [`Peer_dead] when the
      oldest in-flight frame has exhausted its retry budget. *)
  val pump : t -> (unit, Transport.error) result

  val try_send : t -> Bytes.t -> (unit, Transport.error) result

  val send :
    t ->
    deadline:Flipc_sim.Vtime.t ->
    Bytes.t ->
    (unit, Transport.error) result

  (** Exactly-once, in-order. *)
  val recv : t -> (Bytes.t option, Transport.error) result

  val recv_deadline :
    t -> deadline:Flipc_sim.Vtime.t -> (Bytes.t, Transport.error) result

  val close : t -> unit

  (** [create conn ()] wraps a connected base transport; both ends must
      be wrapped with the same [config]. [site] turns on the layer's
      events and probes (see above). *)
  val create :
    T.t -> ?config:config -> ?site:Channel_transport.site -> unit -> t

  (** [flush t ~deadline] pumps until every queued message is
      acknowledged, or reports [`Timeout] once the virtual clock has
      reached [deadline]. *)
  val flush :
    t -> deadline:Flipc_sim.Vtime.t -> (unit, Transport.error) result

  (** {1 Sender counters} *)

  val in_flight : t -> int

  (** Highest cumulative sequence acknowledged by the peer. *)
  val acked : t -> int

  (** Data frames retransmitted on the wire. Attempts the base refused
      (see {!backpressure}) are not counted. *)
  val retransmits : t -> int

  (** Data-frame transmissions the base refused transiently (transmit
      pool starved or send ring full): nothing reached the wire. *)
  val backpressure : t -> int

  (** Smoothed round-trip estimate in virtual ns (0 until the first
      sample). *)
  val srtt_ns : t -> int

  (** Round-trip variance estimate in virtual ns. *)
  val rttvar_ns : t -> int

  (** The live retransmission timeout: [SRTT + 4*RTTVAR] clamped to
      [rto_ns .. max_rto_ns], times any standing backoff. *)
  val rto_current_ns : t -> int

  (** {1 Receiver counters} *)

  (** In-order messages released to the application. *)
  val delivered : t -> int

  (** Frames discarded as already delivered or already buffered. *)
  val duplicates : t -> int

  (** Frames that arrived beyond the next expected sequence: buffered
      under selective repeat, discarded under [Go_back_n] or beyond the
      SACK bitmap. *)
  val reordered : t -> int

  (** Out-of-order frames currently buffered for selective repeat. *)
  val ooo_held : t -> int

  (** Out-of-order frames ever buffered. *)
  val ooo_buffered : t -> int

  (** Acknowledgement frames sent. *)
  val acks_sent : t -> int

  (** Re-acknowledgements withheld by the anomaly rate limit. *)
  val reacks_suppressed : t -> int
end
