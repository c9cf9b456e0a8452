(** Per-machine observability bundle: metrics registry + typed event
    stream, sharing the machine's virtual clock.

    {!Machine.create} builds one per machine and threads it through the
    engines, the application interface, the flow-control libraries and
    the fault injector. Metrics are always on (they cost only host time,
    never virtual time, so they cannot perturb measured latencies);
    events are built only while someone listens — the ring ([tracing],
    {!Tracer.enable} on {!tracer}) or a watcher ({!add_watcher}: a
    {!Sink}, a {!Monitor}, a {!Latency} breakdown). *)

type t

(** [create ~sim ()] builds a bundle on [sim]'s clock. [tracing]
    enables the event tracer from the start ([trace_capacity] bounds
    it). *)
val create :
  ?tracing:bool -> ?trace_capacity:int -> sim:Flipc_sim.Engine.t -> unit -> t

(** Process-unique id (creation order); the [pid] in Chrome exports. *)
val id : t -> int

val sim : t -> Flipc_sim.Engine.t
val metrics : t -> Metrics.t
val tracer : t -> Tracer.t

(** Current virtual time. *)
val now : t -> Flipc_sim.Vtime.t

(** Human-readable machine name, used as the Chrome process name
    (default ["flipc machine <id>"]). *)
val label : t -> string

val set_label : t -> string -> unit

(** Whether events should be constructed — true when the tracer records
    {e or} a watcher is registered. Hot paths check this before
    constructing an event. *)
val tracing : t -> bool

(** [event t ev] records [ev] at the current virtual time and feeds it
    to every registered watcher (no-op when {!tracing} is false). *)
val event : t -> Event.t -> unit

(** {1 Watchers and reporters}

    Watchers are synchronous taps on the typed event stream — the online
    invariant monitors ({!Monitor}) register one. Registering a watcher
    makes {!tracing} true, so the existing emit guards feed it without
    enabling the ring. Reporters contribute machine state to flight
    recorder dumps ({!Monitor.Watchdog}): {!Flipc.Machine} registers one
    that prints engine stats and endpoint queue depths. *)

val add_watcher : t -> (Flipc_sim.Vtime.t -> Event.t -> unit) -> unit
val add_reporter : t -> (Format.formatter -> unit) -> unit

(** Run every registered reporter. *)
val report : t -> Format.formatter -> unit

(** [on_create f] registers a hook run on every subsequently created
    bundle; returns a disposer. This is how tooling reaches machines
    built deep inside workload helpers: the CLI's [--capture] attaches a
    {!Sink} and its [--trace] enables each tracer through it. *)
val on_create : (t -> unit) -> unit -> unit
