(** Discrete-event simulation engine with effect-based cooperative processes.

    A process is an ordinary OCaml function that may perform the [delay] and
    [suspend] operations (implemented with OCaml 5 effect handlers). The
    engine runs processes one at a time; a process executes without
    interruption until it delays, suspends, or returns, so code between
    those points is atomic with respect to other processes. All blocking
    abstractions (condition variables, semaphores, mailboxes, the FLIPC
    engine's poll loop, ...) are built from [suspend].

    Time is virtual ({!Vtime}); nothing here reads the wall clock. *)

type t

val create : unit -> t

(** Current virtual time. Usable from inside or outside processes. *)
val now : t -> Vtime.t

(** Number of events executed so far; a cheap progress measure for tests. *)
val steps : t -> int

(** Number of spawned processes that have not yet returned. *)
val live_processes : t -> int

(** [spawn t ?name f] schedules process [f] to start at the current time,
    after everything already queued for that time. [name] labels errors.
    Callable from inside or outside processes. *)
val spawn : ?name:string -> t -> (unit -> unit) -> unit

(** [spawn_at t time f] schedules [f] to start at absolute [time], which must
    not be in the past. *)
val spawn_at : ?name:string -> t -> Vtime.t -> (unit -> unit) -> unit

(** [run t] executes events in time order until the queue is empty.
    [~until] stops the clock at the given time, leaving later events queued.
    An exception escaping a process aborts the run and is re-raised,
    wrapped in {!Process_failure}. *)
val run : ?until:Vtime.t -> t -> unit

(** Raised by [run] when a process raised; carries the process name and the
    original exception. *)
exception Process_failure of string * exn

(** {1 Operations available inside a process} *)

(** [delay d] suspends the calling process for [d] virtual nanoseconds.
    Raises [Invalid_argument] if [d] is negative, and [Effect.Unhandled]
    if called outside a process.

    When the caller is provably the next to run — [now + d] is within the
    current [run ~until], and nothing is queued at or before [now + d] —
    [delay] returns in place: it advances [now] and counts one step.
    Otherwise the caller parks, and when the next event is queued within
    the run, the caller's handler continues that event's process itself,
    without returning to the run loop: one stack switch per change of
    process. Either way the event order, [now] and [steps] are exactly
    those of parking the caller and popping the earliest event. The
    running engine is found through a domain-local slot that [run] sets
    and restores. *)
val delay : Vtime.t -> unit

(** [delay_on e d] is [delay d], for a caller that holds the engine it
    runs on: when [e] is the innermost engine running on this domain it
    skips the domain-local lookup, and otherwise it looks the engine up
    as [delay] does. [e] must not be running on another domain. *)
val delay_on : t -> Vtime.t -> unit

(** [yield ()] is [delay Vtime.zero]: lets other events at the same time
    run before continuing. *)
val yield : unit -> unit

(** [suspend register] parks the calling process and hands a [resume]
    thunk to [register]. The process continues (at the virtual time of the
    call to [resume]) once the thunk is invoked; invoking it more than once
    is harmless. *)
val suspend : ((unit -> unit) -> unit) -> unit
