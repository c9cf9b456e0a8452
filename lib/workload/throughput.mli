(** Streaming message-throughput measurement.

    One sender pushes [messages] fixed-size messages flat out; the receiver
    consumes and reposts eagerly. Reported rate covers first send to last
    delivery. Complements {!Pingpong} (latency) the way the paper's
    bandwidth discussion complements its latency figure, and drives the
    queue-depth design ablation: a deeper endpoint ring lets the engine
    pipeline more messages per scan. *)

type result = {
  messages : int;
  payload_bytes : int;
  elapsed_us : float;
  msgs_per_sec : float;
  mb_per_sec : float;  (** application payload bytes per second *)
  drops : int;
}

(** [run ~machine ~node_a ~node_b ~payload_bytes ~messages ()] streams
    [messages] from [node_a] to [node_b]. Raises [Invalid_argument] when
    [messages < 1] or the payload exceeds the configured message size. *)
val run :
  machine:Flipc.Machine.t ->
  node_a:int ->
  node_b:int ->
  payload_bytes:int ->
  messages:int ->
  ?send_window:int ->
  ?recv_depth:int ->
  unit ->
  result

(** Fresh-machine convenience, like {!Pingpong.measure}. *)
val measure :
  ?config:Flipc.Config.t ->
  ?cols:int ->
  ?rows:int ->
  payload_bytes:int ->
  messages:int ->
  ?send_window:int ->
  ?recv_depth:int ->
  unit ->
  result
