(** Failure accounting: every kind of failure counts against the number
    of requests attempted.

    Two views are kept apart. {!failed} is every request that did not
    complete inside its window: shed at the source, dropped by the
    engine, left in the backlog when the window closed, or any
    correctness failure. {!broken} is the correctness failures alone —
    mismatched or duplicated payloads, lost accepted messages, transport
    errors, stalled flows, monitor violations and virtual drift — which
    no workload may have. Shedding and backlog are how an open loop
    reports overload; a broken request is a bug. *)

type t = {
  mutable attempted : int;
  mutable shed : int;
  mutable drops : int;
  mutable backlog : int;
  mutable mismatches : int;
  mutable lost : int;
  mutable errors : int;  (** [`Timeout], [`Peer_dead] and kin *)
  mutable stalls : int;  (** watchdog expiries, even if all was delivered *)
  mutable violations : int;
}

val create : unit -> t
val add : into:t -> t -> unit
val broken : t -> int
val failed : t -> int

(** [failed_ratio t] is [failed t / attempted]; [0.] when nothing was
    attempted. *)
val failed_ratio : t -> float

val pp : Format.formatter -> t -> unit
