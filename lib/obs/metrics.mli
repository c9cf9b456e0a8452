(** Named-metric registry: counters, gauges, histograms and pull-probes.

    One registry per machine. Names are dotted paths following the
    scheme documented in DESIGN.md §10 (e.g. [node0.engine.sends],
    [node1.retrans.ep2.rto_ns], [fabric.faults.dropped]); {!snapshot}
    returns every registered metric sorted by name, so two identical
    (same-seed) runs produce identical, diffable snapshots.

    Two registration styles:
    - {b push}: obtain a {!counter}/{!gauge}/{!histogram} handle once and
      update it from the hot path;
    - {b pull} ({!probe}): register a sampling closure over state a
      component already maintains (how [Msg_engine.stats],
      [Retrans_layer]'s retry/RTO state, [Window_layer]'s credit counts
      and [Faulty]'s fault tallies are exported without double
      bookkeeping). Probes are read at snapshot time.

    Histograms are log-bucketed sketches ({!Sketch}): constant storage
    regardless of observation volume, exact all-time count and sum,
    quantiles accurate to within one geometric bucket width. *)

type t
type counter
type gauge
type histo

val create : unit -> t

(** [counter t name] finds or registers a counter. Raises
    [Invalid_argument] when [name] is malformed or already registered as
    a different metric type. *)
val counter : t -> string -> counter

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val gauge : t -> string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

(** [histogram t name] finds or registers a sketch-backed histogram. *)
val histogram : t -> string -> histo

val observe : histo -> float -> unit

(** All-time observation count (exact). *)
val histo_count : histo -> int

(** All-time sum (exact). *)
val histo_sum : histo -> float

(** Sketch quantile for [p] in [0,1]; [None] when empty. *)
val histo_quantile : histo -> float -> float option

val histo_summary : histo -> Flipc_stats.Summary.t option

(** [probe t name f] registers (or replaces) a pull-metric: [f ()] is
    read at each snapshot and reported as a gauge. *)
val probe : t -> string -> (unit -> float) -> unit

(** {1 Snapshots} *)

type snap_value =
  | Snap_counter of int
  | Snap_gauge of float
  | Snap_histogram of {
      count : int;  (** all-time observations (exact) *)
      sum : float;  (** all-time sum (exact) *)
      summary : Flipc_stats.Summary.t option;
          (** sketch percentiles + exact moments; [None] when empty *)
    }

(** Sorted by metric name: deterministic and diffable. *)
type snapshot = (string * snap_value) list

val snapshot : t -> snapshot

(** One metric per line, name-aligned. *)
val pp_snapshot : Format.formatter -> snapshot -> unit

(** JSON object keyed by metric name (same sorted order). *)
val snapshot_json : snapshot -> Json.t

(** The fields of a {!Flipc_stats.Summary.t}: [n], then [mean], [stddev],
    [min], [max], [p50], [p95] and [p99], each name followed by [suffix]
    (default none; the bench's latency summaries use ["_us"]). *)
val summary_fields : ?suffix:string -> Flipc_stats.Summary.t -> (string * Json.t) list

(** [summary_fields] as an object. *)
val summary_json : Flipc_stats.Summary.t -> Json.t
