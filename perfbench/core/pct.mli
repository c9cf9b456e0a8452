(** Percentiles by nearest rank, and the rule for how far into the tail a
    sample set may be read. *)

(** [tail_level n] is the highest percentile, from the ladder p99.99,
    p99.9, p99, p90, p50, that has at least ten of [n] samples beyond it
    (samples ranked strictly above its nearest-rank position); [None]
    when even the median has fewer than ten. *)
val tail_level : int -> float option

(** [interp sorted p] is the [p]-th percentile of an ascending array by
    linear interpolation of the empirical CDF between distinct sample
    values: with [F(v)] the share of samples [<= v], it is the point
    where the line from [(u, F u)] to [(v, F v)] reaches [p / 100], for
    the first distinct [v] with [F v >= p / 100] and the distinct value
    [u] below it. On distinct samples it is the nearest-rank percentile;
    on samples
    that sit on a coarse grid, such as latencies quantized by a polling
    loop, it still moves when the mass on each grid point moves. A
    [max_int] sample stands for a failed request: a percentile that
    reaches one is [infinity]. Raises [Invalid_argument] on an empty
    array. *)
val interp : int array -> float -> float

(** [beyond n p] is how many of [n] samples rank above the nearest-rank
    [p]-th percentile. *)
val beyond : int -> float -> int
