(** Per-processor cache model: set-associative, write-back, MESI states.

    The cache holds no data, only tags and states; data always lives in
    {!Shared_mem}. Coherence actions between caches are coordinated by
    {!Bus}; this module is the per-cache tag store plus statistics. *)

type state = Invalid | Shared | Exclusive | Modified

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable invalidations_received : int;
      (** lines knocked out of this cache by another processor's write *)
  mutable invalidations_caused : int;
      (** remote copies this processor's writes knocked out *)
  mutable writebacks : int;
  mutable evictions : int;
  mutable locked_rmws : int;
}

type t

(** [create ~name ()] builds a cache. Defaults model the i860: 16 KB,
    32-byte lines, 2-way set associative. [line_bytes] must be a power of
    two, [assoc] positive, and [size_bytes] a multiple of
    [line_bytes * assoc] whose set count [size_bytes / (line_bytes * assoc)]
    is a positive power of two, so that a line's set is a shift and a
    mask; anything else raises [Invalid_argument "Cache.create: ..."]. *)
val create :
  ?size_bytes:int -> ?line_bytes:int -> ?assoc:int -> name:string -> unit -> t

val name : t -> string
val line_bytes : t -> int

(** [line_addr t addr] is the address of the start of [addr]'s line. *)
val line_addr : t -> int -> int

val stats : t -> stats
val reset_stats : t -> unit

(** {1 Tag-store operations (used by {!Bus})}

    Lookups run on every simulated memory access, so they report absence
    as [Invalid] rather than allocating an option. A [line] is a line
    address ({!line_addr}); no negative line is ever present. *)

(** [find t ~line] is the state of [line], [Invalid] when it is absent. A
    hit counts as a use for LRU replacement. *)
val find : t -> line:int -> state

(** [set_state t ~line s] updates a present line's state; raises if the line
    is absent or [s] is [Invalid] (use {!invalidate}). *)
val set_state : t -> line:int -> state -> unit

(** [insert t ~line s] brings a line in with state [s], evicting the LRU way
    of its set if needed. Returns the evicted line and state, if any.
    Raises [Invalid_argument] if [line] is negative or [s] is [Invalid]. *)
val insert : t -> line:int -> state -> (int * state) option

(** [invalidate t ~line] drops the line and returns its prior state,
    [Invalid] when it was absent. *)
val invalidate : t -> line:int -> state

(** [flush t] invalidates everything (cold cache); returns the number of
    Modified lines dropped. Statistics are preserved. *)
val flush : t -> int
