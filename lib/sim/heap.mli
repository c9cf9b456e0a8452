(** Stable binary min-heap on [int] keys.

    Keys and push sequence numbers live in parallel int arrays with the
    number of the slot that holds each value, so a push or pop allocates
    nothing (beyond the occasional doubling of the arrays) and a sift
    moves only ints. Equal keys pop in push order: the simulator's event queue
    keys by virtual time and relies on this for first-in first-out order
    among simultaneous events; the real-time scheduler keys by negated
    priority for first-come first-served order within a priority.

    A popped value may stay reachable from the heap until its slot is
    reused. *)

type 'v t

val create : unit -> 'v t
val size : 'v t -> int
val is_empty : 'v t -> bool

(** [push h key v] adds [v] under [key], after every entry already queued
    under an equal key. *)
val push : 'v t -> int -> 'v -> unit

(** [min_key h] is the smallest key. Raises [Invalid_argument] if [h] is
    empty. *)
val min_key : 'v t -> int

(** [pop h] removes and returns the value with the smallest key, the
    earliest pushed among equal keys. Raises [Invalid_argument] if [h] is
    empty. *)
val pop : 'v t -> 'v

(** [replace_top h key v] is [pop h] followed by [push h key v], done in one
    sift: it returns the value [pop] would, and [v] goes after every entry
    queued under [key], as a push would put it. Raises [Invalid_argument]
    if [h] is empty. *)
val replace_top : 'v t -> int -> 'v -> 'v

val clear : 'v t -> unit
