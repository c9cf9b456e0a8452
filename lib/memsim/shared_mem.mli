(** Byte-addressable backing store for a simulated node's physical memory.

    This is always the authoritative copy of the data: the cache model
    ({!Cache}, {!Bus}) affects only {e timing} and statistics, never values.
    That separation keeps functional correctness independent of the timing
    model, which mirrors a write-through view of the coherent memory system
    and is sound here because the simulator runs one process at a time.

    32-bit accesses must be 4-byte aligned, as on the i860. *)

type t

val create : size:int -> t
val size : t -> int

(** {1 Word access} *)

(** [load32 t addr] reads the 32-bit little-endian word at [addr].
    Raises [Invalid_argument] if out of bounds or misaligned. *)
val load32 : t -> int -> int32

val store32 : t -> int -> int32 -> unit

(** [load_int]/[store_int] view the word as a non-negative OCaml int;
    most FLIPC fields are small counters and offsets. [load_int] reads
    [[0, 2^31)] and raises [Invalid_argument] on a word with the top bit
    set; [store_int] writes [[0, 2^30)], that is up to [0x3FFFFFFF], and
    raises [Invalid_argument] outside it, which is why counters that wrap
    (scan stamps, drop counts) are masked to 30 bits. *)
val load_int : t -> int -> int

val store_int : t -> int -> int -> unit

(** {1 Block access} *)

(** [read_bytes t ~pos ~len] copies out a fresh buffer. *)
val read_bytes : t -> pos:int -> len:int -> Bytes.t

(** [write_bytes t ~pos b] copies [b] into memory at [pos]. *)
val write_bytes : t -> pos:int -> Bytes.t -> unit

(** [blit t ~src ~dst ~len] copies within the same memory. *)
val blit : t -> src:int -> dst:int -> len:int -> unit

val fill : t -> pos:int -> len:int -> char -> unit
