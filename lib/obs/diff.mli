(** Cross-run capture diffing: [flipc doctor --replay A --against B].

    Re-derives the full diagnosis from two captures and compares them:
    violations keyed by (rule, node) — added, removed, count-changed;
    per-event-kind counter deltas; per-stage latency quantiles from the
    {!Latency} fold over each capture's records; and per-site span
    accounting, where a {e site} is the (source node, destination node)
    pair of a message stream and spans within a site are aligned
    ordinally by first-step time (msg_ids differ across runs, stream
    position does not). *)

type t

(** [compare_runs ~base ~cand] derives and diffs both reports.
    Violations present in [cand] but not [base] are "added" (the
    regression direction {!regressions} counts). *)
val compare_runs : base:Replay.t -> cand:Replay.t -> t

(** Number of (rule, node) violation keys present only in the
    candidate — the CI-gate signal. *)
val regressions : t -> int

(** Machine-readable diff document. *)
val json : t -> Json.t

(** Human report. *)
val pp : Format.formatter -> t -> unit
