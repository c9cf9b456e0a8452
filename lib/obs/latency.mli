(** Per-message latency breakdown: who owns each microsecond.

    A fold over the typed event stream. Every lifecycle event carries
    the causal message id ([mid], see {!Event}), and five stages are
    each bounded by two lifecycle kinds — the first event of each kind
    for one mid:

    - [Send_stage]: [Send_enqueued] → [Engine_tx] (engine pickup and
      transmit-side processing);
    - [Wire_stage]: [Engine_tx] → [Wire_rx] (DMA/injection plus fabric
      flight);
    - [Queue_stage]: [Wire_rx] → [Deposit] (the destination engine's
      incoming queue and the deposit itself);
    - [Recv_stage]: [Deposit] → [Recv_dequeued] (receive-side discovery
      by the application);
    - [Total_stage]: [Send_enqueued] → [Recv_dequeued] (end to end).

    Every sample joins two events with the same mid, so duplicated,
    dropped or reordered frames cannot mispair: a duplicate adds no
    second sample, and [Total_stage] counts exactly the messages with a
    [Send_enqueued] and a [Recv_dequeued]. The first four stages chain,
    so a message that passes every milestone contributes four samples
    summing exactly to its total.

    {b Faults.} A message whose record sees a [Drop] or a wire [Fault]
    of kind drop or corrupt is counted in {!dropped_in_flight}, and taken
    back out if the same mid later reaches [Recv_dequeued] (a duplicate
    copy got through). Mind the order: the fault injector emits its
    marker inside transmit, before the engine's [Engine_tx]; a checksum
    discard emits [Drop] with mid 0 after the frame's [Wire_rx] — events
    without a mid are not attributed, the message was counted by its
    corrupt marker. An event whose mid has no open record counts in
    {!unmatched}.

    {b Bounded.} Open records live in a 65,536-slot table indexed by
    mid: a new message evicts the record 65,536 mids older, counting it
    in {!unmatched} unless it was already counted as dropped. Per-stage
    accumulators are constant-size sketches ({!Sketch}). *)

type t

type stage = Send_stage | Wire_stage | Queue_stage | Recv_stage | Total_stage

val stage_name : stage -> string

(** Path order, [Total_stage] last. *)
val all_stages : stage list

(** [stage_ns stage span] is the stage's duration within one causal
    span — the first event of its closing kind minus the first of its
    opening kind — if both happened, in that order. *)
val stage_ns : stage -> Causal.span -> int option

val create : unit -> t

(** [attach obs] returns a fresh breakdown fed by a watcher on [obs]
    (which makes {!Obs.tracing} true). Attach before the run: events
    from before the attach are not seen. *)
val attach : Obs.t -> t

(** [feed t records] folds replayed capture records, in file order. *)
val feed : t -> Replay.record list -> unit

(** {1 Results} *)

(** Messages that completed this stage (exact). *)
val stage_count : t -> stage -> int

(** Sum in microseconds (exact). *)
val stage_sum_us : t -> stage -> float

(** Mean in microseconds ([None] before any sample). *)
val stage_mean_us : t -> stage -> float option

(** Sketch percentiles + exact moments over all observations. *)
val stage_summary : t -> stage -> Flipc_stats.Summary.t option

(** Lifecycle events that found no open record for their mid: events
    from before the attach, evicted records, late duplicate copies. Zero
    on a lossless run observed from the start. *)
val unmatched : t -> int

(** Messages whose path ended in a drop: an engine discard, a refused
    send, or a wire drop or corruption. *)
val dropped_in_flight : t -> int

val pp : Format.formatter -> t -> unit
val json : t -> Json.t
