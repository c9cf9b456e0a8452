#!/usr/bin/env python3
"""Flat host profile of flipc_bench by sampling its program counter.

    scripts/pcprof.py [--workload stack_lossy] [--seed 1] [--seconds 10]
        [--top 40] [--exe PATH]

Builds perfbench/flipc_bench.exe in the release profile (as
perfbench/run.py does), starts it on one workload with --trace 0, and
samples its main thread about every millisecond: each sample stops the
thread with ptrace, reads RIP and lets it go on. Each sample is mapped
to the enclosing symbol through /proc/PID/maps and `nm -n` of the
executable; a sample in a shared library counts under the library's
file name, and one outside every file mapping read at start counts
as "?". It prints the top symbols by share of samples, then a rollup
by library (Flipc_sim, Flipc_memsim, Flipc core, Flipc_flow, Flipc_obs,
the OCaml runtime and effects, perfbench, ...).

A sample lands wherever the thread is, not only at OCaml poll points,
so short leaf functions (a cache tag lookup, a heap sift) get their
true share. x86_64 Linux only; it needs permission to ptrace its own
child and `nm` on the PATH, and uses nothing outside the Python
standard library.
"""

import argparse
import bisect
import collections
import ctypes
import os
import platform
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "flipc_bench.exe")

PTRACE_CONT = 7
PTRACE_GETREGS = 12
PTRACE_SEIZE = 0x4206
PTRACE_INTERRUPT = 0x4207
RIP = 16  # index of rip in struct user_regs_struct
INTERVAL_S = 0.001  # between samples

# (symbol prefix, rollup group), first match wins.
GROUPS = [
    ("camlFlipc_sim", "Flipc_sim (engine, heap)"),
    ("camlFlipc_memsim", "Flipc_memsim (cache, bus, memory)"),
    ("camlFlipc_flow", "Flipc_flow"),
    ("camlFlipc_obs", "Flipc_obs"),
    ("camlFlipc_net", "Flipc_net"),
    ("camlFlipc_workload", "Flipc_workload"),
    ("camlFlipc_stats", "Flipc_stats"),
    ("camlFlipc__", "Flipc core"),
    ("camlPerfbench", "perfbench"),
    ("camlDune__exe", "perfbench"),
    ("camlStdlib__Effect", "OCaml runtime and effects"),
    ("caml_perform", "OCaml runtime and effects"),
    ("caml_resume", "OCaml runtime and effects"),
    ("caml_reperform", "OCaml runtime and effects"),
    ("caml_runstack", "OCaml runtime and effects"),
    ("camlStdlib", "OCaml stdlib"),
    ("caml", "OCaml runtime and effects"),
]


def group_of(sym):
    """Rollup group of a symbol of the executable. Its C symbols without
    a caml prefix (compare_val, the GC's mark and sweep) are the OCaml
    runtime's; a shared library's samples are named "lib:FILE", and a
    sample no symbol or file mapping covers "?"."""
    if sym.startswith("lib:") or sym == "?":
        return sym
    for prefix, group in GROUPS:
        if sym.startswith(prefix):
            return group
    return "OCaml runtime and effects"


class Symbols:
    """Text symbols of one ELF file, from `nm -n`."""

    def __init__(self, path):
        out = subprocess.run(["nm", "-n", "--defined-only", path],
                             stdout=subprocess.PIPE, text=True,
                             check=True).stdout
        self.addrs, self.names = [], []
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 3 and parts[1] in "tTwW":
                self.addrs.append(int(parts[0], 16))
                self.names.append(parts[2])
        with open(path, "rb") as f:
            header = f.read(18)
        self.pie = header[16] == 3  # e_type ET_DYN

    def lookup(self, addr):
        i = bisect.bisect_right(self.addrs, addr) - 1
        return self.names[i] if i >= 0 else "?"


def mappings(pid):
    """Executable mappings of [pid] that name a file (or [vdso]), as
    (start, end, file offset, path)."""
    maps = []
    with open(f"/proc/{pid}/maps") as f:
        for line in f:
            parts = line.split(maxsplit=5)
            if len(parts) < 6 or "x" not in parts[1]:
                continue
            lo, hi = (int(x, 16) for x in parts[0].split("-"))
            maps.append((lo, hi, int(parts[2], 16),
                         os.path.realpath(parts[5].strip())))
    return maps


def sample(pid, interval_s):
    """RIPs of [pid]'s main thread, one per interval, until it exits."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.ptrace.restype = ctypes.c_long
    libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p,
                            ctypes.c_void_p]
    if libc.ptrace(PTRACE_SEIZE, pid, None, None) != 0:
        sys.exit(f"pcprof: cannot ptrace pid {pid}: "
                 f"{os.strerror(ctypes.get_errno())}")
    regs = (ctypes.c_ulonglong * 27)()
    rips = []
    while True:
        time.sleep(interval_s)
        if libc.ptrace(PTRACE_INTERRUPT, pid, None, None) != 0:
            break
        _, status = os.waitpid(pid, 0)
        if os.WIFEXITED(status) or os.WIFSIGNALED(status):
            return rips, status
        sig = os.WSTOPSIG(status)
        if libc.ptrace(PTRACE_GETREGS, pid, None, ctypes.byref(regs)) == 0:
            rips.append(regs[RIP])
        # A stop for a real signal must pass it on; ptrace's own is SIGTRAP.
        pass_on = 0 if sig in (signal.SIGTRAP, signal.SIGSTOP) else sig
        if libc.ptrace(PTRACE_CONT, pid, None, pass_on) != 0:
            break
    _, status = os.waitpid(pid, 0)
    return rips, status


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", default="stack_lossy",
                   choices=["pingpong", "firehose_ladder", "stack_lossy"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--top", type=int, default=40)
    p.add_argument("--exe", default=None,
                   help="profile this flipc_bench instead of building one")
    args = p.parse_args()
    if sys.platform != "linux" or platform.machine() != "x86_64":
        sys.exit("pcprof: x86_64 Linux only (ptrace registers are read as "
                 "x86_64's user_regs_struct)")
    exe = args.exe
    if exe is None:
        exe = EXE
        build = ["dune", "build", "--root", ROOT, "--profile", "release",
                 "--cache", "disabled", "--display", "quiet",
                 "./perfbench/flipc_bench.exe"]
        if subprocess.run(build, cwd=ROOT, stdout=sys.stderr).returncode:
            sys.exit("pcprof: build failed")
    syms = Symbols(exe)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    time.sleep(0.05)  # let the loader map the libraries
    real = os.path.realpath(exe)
    maps = mappings(child.pid)
    # A position-independent executable's symbols are offsets from the
    # address its file offset 0 is mapped at, the lowest such mapping.
    base = 0
    if syms.pie:
        base = min((lo - off for lo, _, off, path in maps if path == real),
                   default=0)
    rips, status = sample(child.pid, INTERVAL_S)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        print(f"pcprof: flipc_bench exited {code}", file=sys.stderr)
    counts = collections.Counter()
    for rip in rips:
        name = "?"
        for lo, hi, _, path in maps:
            if lo <= rip < hi:
                if path == real:
                    name = syms.lookup(rip - base)
                else:
                    name = "lib:" + os.path.basename(path)
                break
        counts[name] += 1
    total = sum(counts.values())
    if total == 0:
        sys.exit("pcprof: no samples")
    print(f"# {args.workload} seed {args.seed}, {args.seconds} s: "
          f"{total} samples")
    print(f"{'share':>7}  {'samples':>8}  symbol")
    for name, n in counts.most_common(args.top):
        print(f"{100.0 * n / total:6.2f}%  {n:8d}  {name}")
    groups = collections.Counter()
    for name, n in counts.items():
        groups[group_of(name)] += n
    print()
    print(f"{'share':>7}  {'samples':>8}  library")
    for g, n in groups.most_common():
        print(f"{100.0 * n / total:6.2f}%  {n:8d}  {g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
