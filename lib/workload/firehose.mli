(** Open-loop sustained-load workload ("firehose"; DESIGN.md §16).

    M sender nodes offer messages to N receiver nodes at an externally
    clocked arrival rate ({!Arrivals}; Poisson by default). Arrivals that
    find no free send buffer are {e shed at the source} and counted —
    never blocked on — so offered vs delivered rate measures real system
    throughput rather than echoing the system's own backpressure, and the
    per-message sojourn (send-side arrival stamp to receiver drain,
    {!Flipc_obs.Sketch} quantiles) includes queueing and batching delay.

    Senders flush with {!Flipc.Api.send_burst} every
    {!Flipc.Config.t.app_send_burst} arrivals; receivers drain with
    [receive_burst] in runs of [app_recv_burst]. Knobs at 1 reproduce
    the unbatched singleton path (the ablation baseline). *)

(** Arrival process shape; the mean rate is [1 / mean_gap_ns] for all. *)
type arrival = [ `Poisson | `Periodic | `Jittered of float | `Bursty of int ]

type result = {
  senders : int;
  receivers : int;
  duration_us : int;
  offered : int;  (** arrivals generated across all senders *)
  sent : int;  (** accepted into send queues *)
  shed : int;  (** offered - sent: shed at source (no buffer / queue full) *)
  delivered : int;  (** drained by receivers *)
  rx_drops : int;  (** engine discards: no posted receive buffer *)
  elapsed_us : float;  (** virtual time, first arrival to full drain *)
  offered_per_sec : float;
  delivered_per_sec : float;
  delivered_ratio : float;  (** delivered / offered; 1.0 when offered = 0 *)
  sojourn_us : Flipc_obs.Sketch.t;
  engines : (int * int * Flipc.Msg_engine.stats) list;
      (** (node, shard, counters), node-major then shard order — the
          deterministic per-shard snapshot *)
  violations : int;  (** online monitor violations; 0 when not attached *)
}

(** [run ~machine ...] drives the firehose on a pre-built machine whose
    nodes 0..senders-1 send and senders..senders+receivers-1 receive.
    Each node carries [streams] endpoint pairs (default 1): sender
    stream [(i, s)] targets receiver node [i mod receivers], stream [s].
    Because endpoint [g] is owned by engine shard [g mod shard_count],
    multiple streams are what spread a node's traffic across its shards.
    [arrivals k] makes the arrival process for global sender stream
    [k = i * streams + s]. Arrivals follow an absolute schedule — the
    next arrival instant advances by the drawn gap independent of how
    long servicing the previous one took — so the offered rate is set by
    the external clock, never by the system's own backpressure. Runs to
    full drain: every accepted message is delivered or counted as an
    engine drop before the clock stops. [monitor] attaches the online
    invariant monitor. *)
val run :
  machine:Flipc.Machine.t ->
  senders:int ->
  receivers:int ->
  duration_us:int ->
  arrivals:(int -> Arrivals.t) ->
  ?streams:int ->
  ?payload_bytes:int ->
  ?monitor:bool ->
  unit ->
  result

(** [measure ()] builds a [senders + receivers]-node mesh machine from
    [config] and runs. Deterministic for a fixed seed: the whole run is
    virtual-time, single-domain. *)
val measure :
  ?config:Flipc.Config.t ->
  ?monitor:bool ->
  senders:int ->
  receivers:int ->
  duration_us:int ->
  mean_gap_ns:int ->
  ?arrival:arrival ->
  ?seed:int ->
  ?streams:int ->
  ?payload_bytes:int ->
  unit ->
  result

(** [sojourn_quantile r p] is the [p]-quantile of the sojourn sketch, in
    us; 0 when nothing was delivered. *)
val sojourn_quantile : result -> float -> float

(** The result as one JSON object: every field, the sojourn sketch as its
    p50/p99/p999, each engine as its node, shard and
    {!Flipc.Msg_engine.stats_fields}. *)
val result_json : result -> Flipc_obs.Json.t

(** {1 Wall-clock mode (opt-in; real OCaml 5 domains)} *)

type wall_result = {
  per_domain : result list;  (** each slice's deterministic virtual result *)
  wall_s : float;  (** host seconds for the whole fan-out *)
  wall_delivered_per_sec : float;
      (** total delivered / wall seconds — a host-parallelism figure, not
          a simulated-time one *)
  merged_sojourn_us : Flipc_obs.Sketch.t;
}

(** [measure_wallclock ~domains ...] splits the senders across [domains]
    OCaml domains, each running its own complete, independent machine
    (simulation state is never shared between domains, so each slice
    stays deterministic); only the wall-clock aggregate varies with the
    host. *)
val measure_wallclock :
  ?config:Flipc.Config.t ->
  ?monitor:bool ->
  domains:int ->
  senders:int ->
  receivers:int ->
  duration_us:int ->
  mean_gap_ns:int ->
  ?arrival:arrival ->
  ?seed:int ->
  ?streams:int ->
  ?payload_bytes:int ->
  unit ->
  wall_result
