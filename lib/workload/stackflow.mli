(** Reliable and flow-controlled flows over a composed
    {!Flipc_flow.Transport} stack: the one driver every reliable flow in
    the CLI, the bench harness and the tests runs through.

    {!Flipc_flow.Channel_transport} sits at the base, with
    {!Flipc_flow.Retrans_layer} / {!Flipc_flow.Window_layer} functors
    above, on a faulted machine: flow [i] streams [messages] verified
    payloads from node [i] to node [(i + n/2) mod n] of the [n]-node
    machine, with an invariant monitor attached and a virtual-time
    watchdog per process. The layer directly on the channel gets its
    {!Flipc_flow.Channel_transport.site}, so frame, ack and credit
    events reach the monitor and causal tracing.

    Receivers check every delivered payload against the pattern the
    sender wrote and require strict in-order, exactly-once delivery;
    [corrupt_leaks] counts mismatches (must stay zero — the frame
    checksum turns wire corruption into loss, and the reliability
    layer recovers loss). *)

(** Which composition to run. [Bare_channel] and [Window_over_channel]
    give no delivery guarantee under faults — run them on clean
    fabrics; the [Retrans_*] stacks must deliver exactly-once under
    any fault mix. *)
type stack =
  | Bare_channel
  | Window_over_channel
  | Retrans_over_channel
  | Retrans_over_window

val stack_name : stack -> string

(** Retransmission-layer counters, summed over every connection end
    (all zero for stacks without a retransmission layer) — except
    [srtt_ns] and [rto_current_ns], the flows' mean of each sender's
    final round-trip estimate and live timeout. *)
type counters = {
  retransmits : int;
  backpressure : int;
  duplicates : int;
  reordered : int;
  ooo_buffered : int;
  acks_sent : int;
  reacks_suppressed : int;
  srtt_ns : int;
  rto_current_ns : int;
}

type result = {
  expected : int;
  delivered : int;
  latencies_us : float list;
      (** per delivered message, from the send call to in-order
          delivery at the top of the stack, in delivery order *)
  counters : counters;
  corrupt_leaks : int;  (** delivered payloads that failed verification *)
  transport_drops : int;  (** optimistic discards at base receive endpoints *)
  watchdogs_expired : int;  (** flow processes that aborted *)
  stall_report : string option;
      (** the first expired watchdog's flight-recorder report *)
  monitor : Flipc_obs.Monitor.t;
  monitor_violations : int;
  corrupt_frames_dropped : int;
      (** arrivals the frame checksum discarded, summed over the nodes *)
  machine : Flipc.Machine.t;
      (** the drained machine: fault stats, engine counters, [Obs] *)
  clean : bool;
      (** all delivered, nothing corrupt, no stall, monitor clean *)
}

(** [retrans_config ?mode rto_ns] is the retransmission layer's default
    config with initial timeout [rto_ns], backing off to [8 * rto_ns],
    in [mode] (default selective repeat). {!run}'s default is
    [retrans_config 200_000]. *)
val retrans_config :
  ?mode:Flipc_flow.Retrans_layer.mode -> int -> Flipc_flow.Retrans_layer.config

(** [run ~kind ~messages ()] builds the machine (frame checksum on),
    runs the flows over the chosen [stack] to completion and returns
    the tally.

    @param stack default [Retrans_over_channel]
    @param fault fabric-wide fault injection (default none)
    @param fault_links per-link fault overrides
    @param cost memory cost model (default paragon)
    @param retrans retransmission-layer config, mode included (default
      {!Flipc_flow.Retrans_layer.default_config} with [rto_ns = 200us]
      and [max_rto_ns = 1.6ms]; set [rto_ns] above the fabric round
      trip)
    @param pace_ns inter-message virtual delay per sender (default 25us)
    @param budget per-process watchdog budget (default 50ms)
    @param window window size for the window layer (default 6)
    @param payload_bytes verified payload size (default 32, clamped to
      the stack's capacity)
    @param flows how many of the [i -> i + n/2] flows to run (default
      one per node) *)
val run :
  ?stack:stack ->
  ?fault:Flipc_net.Faulty.config ->
  ?fault_links:Flipc_net.Faulty.links ->
  ?cost:Flipc_memsim.Cost_model.t ->
  ?retrans:Flipc_flow.Retrans_layer.config ->
  ?pace_ns:int ->
  ?budget:Flipc_sim.Vtime.t ->
  ?window:int ->
  ?payload_bytes:int ->
  ?flows:int ->
  kind:Flipc.Machine.fabric_kind ->
  messages:int ->
  unit ->
  result

(** The result as flat JSON fields: [expected], [delivered], every
    counter, [corrupt_leaks], [corrupt_frames_dropped],
    [transport_drops], [monitor_violations], [watchdogs_expired], the
    wire [faults] ({!Flipc_net.Faulty.stats_json}, [null] on an unfaulted
    fabric), [clean], and when anything was delivered the latency summary
    ([n], [mean_us] ... [p99_us]). The one field list every report of a
    flow uses. *)
val result_fields : result -> (string * Flipc_obs.Json.t) list

(** {1 Two-node fabrics} *)

(** A two-node fabric for one reliable flow: its machine, its cost
    model, an initial RTO above its round trip, and a reorder hold long
    enough for later frames to overtake a held one. *)
type fabric = {
  kind : Flipc.Machine.fabric_kind;
  cost : Flipc_memsim.Cost_model.t;
  rto_ns : int;
  reorder_hold_ns : int;
}

(** The two-node mesh (Paragon costs), Ethernet and SCSI (PC-cluster
    costs) fabrics, by name. *)
val two_node_fabrics : (string * fabric) list

(** [two_node_flow ~fabric ~fault ~pace_ns ~payload_bytes ~messages ()]
    runs one reliable flow from node 0 to node 1 of [fabric] over the
    retransmission layer, with [retrans_config ?mode fabric.rto_ns] and a
    2 s watchdog budget. *)
val two_node_flow :
  ?mode:Flipc_flow.Retrans_layer.mode ->
  fabric:fabric ->
  fault:Flipc_net.Faulty.config ->
  pace_ns:int ->
  payload_bytes:int ->
  messages:int ->
  unit ->
  result
