(** Fixed-capacity drop-oldest ring buffer.

    The storage discipline for every bounded observability store (event
    traces, latency sample windows): pushes never fail, and memory is
    taken once, at the first push, so a ring that never records (every
    machine's tracer while tracing is off) costs nothing; once full, each
    push overwrites the oldest element and bumps the {!dropped} counter,
    so a long soak keeps the most recent window and an honest account of
    what it shed. *)

type 'a t

(** [create ~capacity] holds at most [capacity] elements.
    Raises [Invalid_argument] if [capacity < 1]. *)
val create : capacity:int -> 'a t

val capacity : 'a t -> int

(** Elements currently held (at most [capacity]). *)
val length : 'a t -> int

(** Elements overwritten since creation (or the last {!clear}). *)
val dropped : 'a t -> int

val is_empty : 'a t -> bool

(** [push t x] appends [x], evicting the oldest element when full. *)
val push : 'a t -> 'a -> unit

(** Oldest-first iteration over the retained window. *)
val iter : 'a t -> ('a -> unit) -> unit

val fold : 'a t -> init:'b -> ('b -> 'a -> 'b) -> 'b

(** Oldest-first list of the retained window. *)
val to_list : 'a t -> 'a list

(** Empty the ring and reset the dropped counter. *)
val clear : 'a t -> unit
