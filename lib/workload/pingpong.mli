(** The paper's latency measurement: timed two-way message exchanges
    between a pair of nodes.

    "These measurements were obtained via a test program that measures the
    time consumed by multiple two-way message exchanges between a pair of
    nodes. The time for a single message is then obtained by dividing this
    overall time by twice the number of two-way exchanges."

    In addition to the aggregate, each exchange's round-trip time is
    recorded so the start-up transient (short runs vs. steady state) can
    be observed.

    [touch_payload] controls whether the applications write/read the
    payload each exchange. The paper's latency figure reflects transport
    cost, not application payload handling, so FIG4 runs with it off;
    turning it on shows the extra cache traffic of payload access. *)

type result = {
  payload_bytes : int;
  message_bytes : int;  (** wire-level fixed message size used *)
  exchanges : int;
  round_trips_us : float list;  (** per-exchange round-trip times *)
  one_way : Flipc_stats.Summary.t;  (** per-message latency (RTT/2) *)
  aggregate_one_way_us : float;  (** total / (2 * exchanges), paper's metric *)
  drops : int;  (** should be zero when buffers are provisioned *)
}

val run :
  ?touch_payload:bool ->
  ?warmup:int ->
  ?recv_depth:int ->
  machine:Flipc.Machine.t ->
  node_a:int ->
  node_b:int ->
  payload_bytes:int ->
  exchanges:int ->
  unit ->
  result

(** [measure ?config ... ()] builds a fresh two-node-relevant machine with
    [config] (payload size adjusted), runs [run] on the given node pair of
    a [cols x rows] mesh (default 4x4, corner to far corner neighbour
    pair (0,1)), and returns the result. Convenience for benches. *)
val measure :
  ?config:Flipc.Config.t ->
  ?cost:Flipc_memsim.Cost_model.t ->
  ?cols:int ->
  ?rows:int ->
  ?node_a:int ->
  ?node_b:int ->
  ?touch_payload:bool ->
  ?warmup:int ->
  payload_bytes:int ->
  exchanges:int ->
  unit ->
  result

(** The result as flat JSON fields: the sizes, [exchanges],
    [aggregate_one_way_us], [drops], then the one-way summary ([n],
    [mean_us] ... [p99_us]); the per-exchange samples are left out. The
    one field list every report of a ping-pong uses. *)
val result_fields : result -> (string * Flipc_obs.Json.t) list
