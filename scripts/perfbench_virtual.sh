#!/bin/sh
# Pin the virtual side of the FLIPC benchmark (perfbench/).
#
#   scripts/perfbench_virtual.sh            # compare against the pin
#   scripts/perfbench_virtual.sh --update   # rewrite the pin
#
# Runs perfbench/flipc_bench.exe on every workload with --trace 0 and
# --trace 1 (seed 1, --seconds 0: one warm-up round plus the minimum three
# timed rounds), requires every run to exit 0, and compares its virtual
# metrics exactly against bench/baseline/perfbench_virtual.json: the vt_*
# metrics and every per-layer metric except the host-side ones
# (sim.host_ns_per_step, gc.*, *.host_ns_per_call, *.self_host_ns_per_msg
# and trace.overhead_ratio). Virtual time is deterministic and the same in
# dev and release builds, so any difference means a change moved a
# simulated event. No --spans is passed, so nothing is written under
# perfbench/.
set -eu
cd "$(dirname "$0")/.."

pin=bench/baseline/perfbench_virtual.json
exe=_build/default/perfbench/flipc_bench.exe
update=0
case "${1:-}" in
  --update) update=1 ;;
  "") ;;
  *)
    echo "usage: $0 [--update]" >&2
    exit 2
    ;;
esac
command -v python3 >/dev/null 2>&1 || {
  echo "perfbench_virtual: python3 is required" >&2
  exit 2
}

dune build ./perfbench/flipc_bench.exe
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
for w in pingpong firehose_ladder stack_lossy; do
  for t in 0 1; do
    if ! "$exe" --workload "$w" --seed 1 --seconds 0 --trace "$t" \
      >"$out/$w.$t.out"; then
      echo "perfbench_virtual: $w --trace $t exited non-zero:" >&2
      grep 'FAIL' "$out/$w.$t.out" >&2 || tail -n 3 "$out/$w.$t.out" >&2
      exit 1
    fi
  done
done

python3 - "$out" "$pin" "$update" <<'EOF'
import json, os, sys

out, pin_path, update = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
WORKLOADS = ["pingpong", "firehose_ladder", "stack_lossy"]
HOST = {"setup_s", "host_msgs_per_s", "alloc_words_per_msg", "peak_heap_mb",
        "sim.host_ns_per_step", "trace.overhead_ratio"}

def virtual(name):
    return not (name in HOST or name.startswith("gc.")
                or name.endswith(".host_ns_per_call")
                or name.endswith(".self_host_ns_per_msg"))

got = {}
for w in WORKLOADS:
    got[w] = {}
    for t in ("0", "1"):
        with open(os.path.join(out, f"{w}.{t}.out")) as f:
            result = json.loads(f.read().splitlines()[-1])
        got[w]["trace" + t] = {name: m["value"]
                               for name, m in result["metrics"].items()
                               if virtual(name)}

if update:
    os.makedirs(os.path.dirname(pin_path), exist_ok=True)
    with open(pin_path, "w") as f:
        json.dump(got, f, indent=1, sort_keys=True)
        f.write("\n")
    n = sum(len(v) for runs in got.values() for v in runs.values())
    print(f"perfbench_virtual: pinned {n} metrics in {pin_path}")
    sys.exit(0)

with open(pin_path) as f:
    pinned = json.load(f)
diffs = []
for w in WORKLOADS:
    for run in ("trace0", "trace1"):
        want, have = pinned.get(w, {}).get(run, {}), got[w][run]
        for name in sorted(set(want) | set(have)):
            a, b = want.get(name), have.get(name)
            if a != b:
                diffs.append(f"  {w} {run} {name}: pinned {a!r}, got {b!r}")
if diffs:
    print("perfbench_virtual: virtual metrics moved:", file=sys.stderr)
    print("\n".join(diffs), file=sys.stderr)
    sys.exit(1)
n = sum(len(v) for runs in got.values() for v in runs.values())
print(f"perfbench_virtual: {n} virtual metrics match {pin_path}")
EOF
