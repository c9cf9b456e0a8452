(** Credit-window flow control as a functor over any {!Transport.S}.

    FLIPC's optimistic transport discards messages that find no posted
    receive buffer; applications that cannot statically provision
    ({!Provision}) run a library like this one between themselves and
    FLIPC — the structure the paper prescribes, and the window scheme
    PAM's active-message facility uses. The receiver grants cumulative
    credits as the application consumes; the sender never exceeds
    [window] unconsumed messages. [Window_layer (Channel_transport)] is
    the classic flow-controlled channel, and the result is itself a
    transport, so a reliability layer can ride on top or below.

    Both directions of the duplex connection are flow-controlled
    independently; data and credit frames share the underlying
    connection, distinguished by a one-byte tag (so {!capacity} is the
    base transport's minus one). Credits carry the {e cumulative}
    consumed count: a credit message the base transport loses is
    recovered by any later one. Because credit is granted only when the
    application consumes ({!Transport.S.recv}), the layer's inbound
    queue never holds more than [window] messages — flow control
    doubles as receive-buffer provisioning.

    Given a {!Channel_transport.site} (only for the layer directly on
    {!Channel_transport}), the layer emits [Window_send] on the site's
    send endpoint and [Credit_grant] on its receive endpoint, and
    registers [node<i>.window.ep<n>.*] probes. Without a site it emits
    nothing. *)

module Make (T : Transport.S) : sig
  type t

  (** Satisfies {!Transport.S}. [`No_buffer] from [try_send] means the
      credit window is exhausted (or the base refused transiently). *)

  val capacity : t -> int
  val now : t -> Flipc_sim.Vtime.t
  val idle : t -> unit
  val pump : t -> (unit, Transport.error) result
  val try_send : t -> Bytes.t -> (unit, Transport.error) result

  val send :
    t ->
    deadline:Flipc_sim.Vtime.t ->
    Bytes.t ->
    (unit, Transport.error) result

  val recv : t -> (Bytes.t option, Transport.error) result

  val recv_deadline :
    t -> deadline:Flipc_sim.Vtime.t -> (Bytes.t, Transport.error) result

  val close : t -> unit

  (** [create conn ~window ()] wraps a connected base transport. Both
      ends of the connection must be wrapped with the same [window] and
      [grant_every] (default [max 1 (window / 2)]). [site] turns on the
      layer's events and probes. *)
  val create :
    T.t ->
    window:int ->
    ?grant_every:int ->
    ?site:Channel_transport.site ->
    unit ->
    t

  (** Sender-side credits currently available. *)
  val credits_available : t -> int

  val messages_sent : t -> int
  val messages_received : t -> int
end
