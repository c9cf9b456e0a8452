(** Bounded typed-event trace with Chrome [trace_event] export.

    The in-memory record of every message's path: components emit
    {!Event.t} values stamped with virtual time into a fixed-capacity
    drop-oldest ring ({!Ring}), so tracing a week-long soak costs bounded
    memory and reports how many early events it shed ({!dropped}).

    A disabled tracer costs one branch per {!emit}; construction of the
    event value is the caller's concern (guard hot paths on {!enabled}). *)

type entry = { ts : Flipc_sim.Vtime.t; ev : Event.t }

type t

(** [create ()] makes a tracer holding at most [capacity] (default
    65536) events, disabled unless [enabled]. *)
val create : ?capacity:int -> ?enabled:bool -> unit -> t

val enable : t -> unit
val disable : t -> unit
val enabled : t -> bool

(** [emit t ~now ev] records the event if the tracer is enabled. *)
val emit : t -> now:Flipc_sim.Vtime.t -> Event.t -> unit

(** Events currently retained. *)
val length : t -> int

(** Events evicted since creation/clear. *)
val dropped : t -> int

(** Oldest first. *)
val to_list : t -> entry list

val clear : t -> unit

(** One line per retained event. *)
val pp : Format.formatter -> t -> unit

(** Chrome [trace_event] array entries (metadata + instant events),
    for {!Causal.chrome_json_of} to merge into one document. [pid]
    distinguishes machines (default 0); nodes map to thread rows.
    [process_name] overrides the "flipc machine <pid>" metadata row. *)
val chrome_events : ?pid:int -> ?process_name:string -> t -> Json.t list
