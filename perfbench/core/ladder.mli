(** Throughput at a latency limit over a ladder of offered rates. *)

type rung = {
  rate : float;  (** offered rate of the rung, msg/s *)
  p99_us : float;
      (** p99 sojourn, with every shed or dropped request counted as
          missing the limit *)
  shed : int;
  drops : int;
  backlog_growth : int;
      (** backlog at window end minus backlog at mid-window *)
}

(** [max_rate_at_p99 ~limit_us ~tolerance rungs] is the highest [rate]
    among rungs with [p99_us <= limit_us], nothing shed or dropped, and
    [backlog_growth <= tolerance]; [None] when no rung qualifies. *)
val max_rate_at_p99 :
  limit_us:float -> tolerance:int -> rung list -> float option
