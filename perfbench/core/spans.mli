(** In-memory span recorder for the traced run.

    A span brackets one call the benchmark makes into a layer's public
    function. Each records its name, its parent (the enclosing span of
    the same actor), a message id, and start and end on three clocks:
    virtual time, host time and the simulator's step counter. Spans are
    kept in memory up to [cap] and written out when the run ends.

    An actor is one simulated process; its spans nest like a call stack.
    Processes interleave at every simulated memory access, so a span's
    host time and step count include other actors' work; the step count
    is reported beside each self time to show how much.

    Self time is the guide's: a span's duration minus the part its child
    spans cover. It is aggregated per span name as spans close, so totals
    are exact even for spans beyond [cap]. *)

type clock = { vt : unit -> int; host : unit -> int; steps : unit -> int }

type t
type actor

(** Per-name totals, in the clocks' own units. *)
type agg = {
  mutable calls : int;
  mutable vt : int;
  mutable host : int;
  mutable steps : int;
  mutable self_vt : int;
  mutable self_host : int;
  mutable self_steps : int;
}

(** [create ~names ~cap clock]; span names are indices into [names]. *)
val create : names:string array -> cap:int -> clock -> t

val actor : t -> actor

(** The recorder an actor writes to. *)
val owner : actor -> t

(** [enter a name ~msg] opens a span as a child of [a]'s innermost open
    span. *)
val enter : actor -> int -> msg:int -> unit

(** The message id spans take when their caller does not know it: layers
    below the one the benchmark calls inherit the id the benchmark set
    with [set_current]. *)
val current : actor -> int

val set_current : actor -> int -> unit

(** [leave a] closes [a]'s innermost open span. *)
val leave : actor -> unit

val agg : t -> int -> agg

(** Spans opened so far, including any beyond [cap]. *)
val count : t -> int

(** Named event counters kept beside the spans (empty polls, refusals,
    burst fill). *)
val bump : t -> string -> int -> unit

val counter : t -> string -> int

(** [write t oc] prints the retained spans as tab-separated rows:
    id, name, parent id (-1 for a root), msg, then start and end on the
    virtual, host and step clocks. *)
val write : t -> out_channel -> unit
