external cpu_ns : unit -> int = "perfbench_cpu_ns" [@@noalloc]
external mono_ns : unit -> int = "perfbench_mono_ns" [@@noalloc]
