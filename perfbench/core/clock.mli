(** Host clocks, in nanoseconds. *)

(** CPU time consumed by this process ([CLOCK_PROCESS_CPUTIME_ID]): the
    clock every host-cost metric is measured on. *)
external cpu_ns : unit -> int = "perfbench_cpu_ns" [@@noalloc]

(** [CLOCK_MONOTONIC]: cheap enough to read twice per span, and used to
    pace the run against [--seconds]. *)
external mono_ns : unit -> int = "perfbench_mono_ns" [@@noalloc]
