(** Fault-injecting fabric wrapper.

    Every concrete fabric here ({!Mesh}, {!Ethernet}, {!Scsi_bus},
    {!Hypercube}) is perfectly reliable, which leaves the optimistic
    transport's whole recovery story — drop counters, flow-control
    libraries, retransmission ({!Flipc_flow.Retrans_layer}), the frame
    checksum — untested. [wrap] interposes on an underlying fabric's
    [send] and injects configurable, PRNG-seeded faults before the
    packet reaches the wire:

    - {b drop}: the packet silently vanishes (uniform i.i.d.);
    - {b burst drop}: a two-state Gilbert–Elliott channel — a Markov
      chain over \{good, bad\} states with per-state drop rates — models
      correlated loss: once the channel turns bad, drops cluster into
      bursts instead of scattering uniformly;
    - {b duplicate}: a second, independent copy is submitted;
    - {b reorder}: the packet is held back for a random interval so later
      packets overtake it;
    - {b latency jitter}: a small random delay on every surviving packet;
    - {b corrupt}: 1–3 seeded bit flips in a copy of the wire image, so
      the damaged transmission reaches the receiver (where the frame
      checksum, when enabled, catches it) without touching the sender's
      bytes or any duplicate copy.

    Each fault kind draws from its own dedicated splitmix64 stream
    derived from the config seed, and every decision is sampled
    unconditionally per packet, so changing one fault's probability never
    shifts the values another fault's decisions see: seeded runs are
    exactly reproducible {e and} comparable across configs. With
    [?links], individual (src, dst) pairs can override the fabric-wide
    config — a single lossy, bursty or corrupting link in an otherwise
    clean fabric — each link on its own independent streams and its own
    Gilbert–Elliott state. The wrapper shares the underlying fabric's
    {!Fabric.stats} record (only packets that actually reach the wire are
    counted there); injected faults are tallied separately in {!stats}. *)

(** Two-state Gilbert–Elliott loss channel. Per packet the chain first
    takes one transition step, then drops with the current state's rate.
    Stationary bad-state occupancy is [p_good_bad /. (p_good_bad +.
    p_bad_good)]; mean bad-burst length in packets is [1. /. p_bad_good]. *)
type ge = {
  p_good_bad : float;  (** per-packet transition probability good→bad *)
  p_bad_good : float;  (** per-packet transition probability bad→good *)
  drop_good : float;  (** drop probability while in the good state *)
  drop_bad : float;  (** drop probability while in the bad state *)
}

(** [burst ()] builds a Gilbert–Elliott config; defaults give rare
    (1%/packet) transitions into a bad state that drops half its packets
    and lasts 4 packets on average. *)
val burst :
  ?p_good_bad:float ->
  ?p_bad_good:float ->
  ?drop_good:float ->
  ?drop_bad:float ->
  unit ->
  ge

type config = {
  drop : float;  (** probability a packet is dropped, in [0,1] *)
  duplicate : float;  (** probability a packet is sent twice *)
  reorder : float;  (** probability a packet is held back *)
  reorder_hold_ns : int;
      (** maximum hold time for reordered packets; must exceed the
          fabric's typical latency for overtaking to actually occur.
          A zero hold disables reordering entirely (nothing can overtake
          a packet held for 0 ns, so nothing is counted either). *)
  jitter_ns : int;  (** maximum extra per-packet latency, 0 = none *)
  corrupt : float;  (** probability of seeded bit flips in the image *)
  burst : ge option;  (** correlated loss channel, [None] = uniform only *)
  seed : int;  (** PRNG seed; every fault stream derives from it *)
}

(** No faults: [wrap ~config:none] is a transparent pass-through. *)
val none : config

(** [config ?drop ?duplicate ?reorder ?corrupt ?burst ?seed ()] builds a
    configuration with unspecified fields at their fault-free defaults. *)
val config :
  ?drop:float ->
  ?duplicate:float ->
  ?reorder:float ->
  ?reorder_hold_ns:int ->
  ?jitter_ns:int ->
  ?corrupt:float ->
  ?burst:ge ->
  ?seed:int ->
  unit ->
  config

(** Per-link fault overrides: [links ~src ~dst] returns [Some config] to
    fault that directed link specially, [None] to fall back to the
    fabric-wide config. Consulted per packet; override lanes are created
    lazily and keep their own PRNG streams and channel state, seeded from
    the override's seed mixed with (src, dst). *)
type links = src:int -> dst:int -> config option

type stats = {
  mutable dropped : int;  (** uniform drops (the [drop] rate) *)
  mutable duplicated : int;  (** extra copies injected *)
  mutable reordered : int;  (** packets held back *)
  mutable delayed : int;  (** packets given nonzero jitter *)
  mutable corrupted : int;  (** packets with flipped bits *)
  mutable burst_dropped : int;  (** drops from the Gilbert–Elliott chain *)
  mutable ge_good_pkts : int;  (** packets seen in the good state *)
  mutable ge_bad_pkts : int;  (** packets seen in the bad state *)
  mutable ge_bursts : int;  (** good→bad transitions (burst count) *)
}

(** Every tally by name, in the order of the [fabric.faults.*] probes:
    the one field list the probes, {!stats_json} and the reports use. *)
val tallies : stats -> (string * int) list

(** {!tallies} as a JSON object. *)
val stats_json : stats -> Flipc_obs.Json.t

(** [wrap ~engine ~config fabric] is a fabric with [fabric]'s name,
    node count and handler table, whose [send] injects faults. With
    [?links], per-(src,dst) override configs; with [?obs], the tally is
    exported as [fabric.faults.*] pull-probes (including Gilbert–Elliott
    state occupancy) and each injected fault emits a typed [Fault] trace
    event (attributed to the sending node). *)
val wrap :
  engine:Flipc_sim.Engine.t ->
  config:config ->
  ?links:links ->
  ?obs:Flipc_obs.Obs.t ->
  Fabric.t ->
  Fabric.t

(** [stats_of fabric] finds the fault tally of a wrapped fabric (matched
    through the shared stats record, so both the wrapper and the underlying
    fabric resolve), or [None] for an unwrapped fabric. Wrapping the same
    inner fabric more than once merges every layer's faults into a single
    tally, so the answer does not depend on wrap order. Per-link faults
    tally into the same record as fabric-wide ones. *)
val stats_of : Fabric.t -> stats option

(** Live entries in the internal fabric→tally registry. Dead fabrics are
    swept (the key is weak) and the table is hard-capped, so this stays
    bounded across arbitrarily many machine creations; exposed for the
    regression tests. *)
val registry_size : unit -> int
