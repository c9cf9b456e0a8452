#!/bin/sh
# CI gate: full build, test suite, formatting.
#
#   scripts/check.sh
#
# Fails on the first broken step. Formatting: when ocamlformat is
# installed the whole tree is checked via `dune build @fmt`; otherwise
# (the default container has no ocamlformat) the gate degrades to the
# dune files alone, which `dune format-dune-file` handles by itself.
set -eu
cd "$(dirname "$0")/.."

echo "== build (@all) =="
dune build @all

echo "== tests =="
dune runtest

echo "== EXPERIMENTS.md tables =="
# dune runtest has just diffed every deterministic experiment against its
# pinned output (bench/expected/<id>.txt); every number in EXPERIMENTS.md's
# tables must appear in the pinned output of its section's experiment, so
# the paper tables cannot drift from what the bench prints.
if command -v python3 >/dev/null 2>&1; then
  python3 scripts/check_experiments.py
else
  echo "(python3 not installed: skipping the table check)"
fi

echo "== observability smoke =="
# The obs suite runs under `dune runtest` too; run it by name so a
# failure is attributed clearly, then validate the CLI's machine-readable
# surfaces: `flipc metrics --json` must emit parseable JSON and --trace
# must emit a parseable Chrome trace_event document.
dune exec test/test_obs.exe -- -c >/dev/null
dune exec test/test_flight.exe -- -c >/dev/null
obs_tmp=$(mktemp -d)
trap 'rm -rf "$obs_tmp"' EXIT
dune exec bin/flipc_cli.exe -- metrics --json --exchanges 40 \
  --trace "$obs_tmp/trace.json" >"$obs_tmp/metrics.json"
# Prometheus exposition: the time-series surface must emit well-formed
# families (TYPE lines + flipc_-prefixed samples).
dune exec bin/flipc_cli.exe -- metrics --prom --exchanges 40 \
  >"$obs_tmp/metrics.prom"
grep -q '^# TYPE flipc_' "$obs_tmp/metrics.prom"
grep -q '^flipc_' "$obs_tmp/metrics.prom"
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool "$obs_tmp/metrics.json" >/dev/null
  python3 -c "
import json, sys
doc = json.load(open('$obs_tmp/metrics.json'))
assert doc['metrics'], 'empty metrics snapshot'
lat = doc['latency']
for stage in ('send', 'wire', 'queue', 'recv', 'total'):
    assert lat[stage]['count'] > 0, f'latency stage {stage} has no samples'
assert lat['unmatched'] == 0, 'lossless run left latency events unmatched'
trace = json.load(open('$obs_tmp/trace.json'))
assert trace['traceEvents'], 'empty chrome trace'
"
else
  # No python3: at least require non-empty output of the right shape.
  grep -q '"metrics":{' "$obs_tmp/metrics.json"
  grep -q '"unmatched":0,' "$obs_tmp/metrics.json"
  grep -q '"traceEvents":\[' "$obs_tmp/trace.json"
fi
# The engines' event timeline: `flipc trace` prints its two-node demo as
# JSON lines (header, one record per typed event, trailer); every line
# must parse, and the engine's transmit, deposit and park transitions
# must be in it.
dune exec bin/flipc_cli.exe -- trace >"$obs_tmp/trace.jsonl"
if command -v python3 >/dev/null 2>&1; then
  python3 -c "
import json
kinds = set()
for line in open('$obs_tmp/trace.jsonl'):
    kinds.add(json.loads(line).get('k'))
for k in ('engine_tx', 'deposit', 'engine_park'):
    assert k in kinds, f'flipc trace printed no {k} record'
"
else
  for k in engine_tx deposit engine_park; do
    grep -q "\"k\":\"$k\"" "$obs_tmp/trace.jsonl"
  done
fi

echo "== perfbench virtual pin =="
# The simulator's host-side optimisations must not move one virtual
# event: every virtual metric of the benchmark's three workloads, plain
# and traced, must equal its pinned value exactly (see the script for
# the metric list; --update rewrites the pin).
sh scripts/perfbench_virtual.sh

echo "== perf smoke =="
# Scheduler work-proportionality gate: a short ping-pong must keep the
# engine's cached schedule stable (--max-rebuilds exits 1 when any
# node's rebuild counter exceeds the budget — rebuilds on the
# steady-state path mean the hot loop is allocating and sorting again),
# and the doorbell counters must show the wait-free wakeup path in use.
dune exec bin/flipc_cli.exe -- engine --json --exchanges 40 --max-rebuilds 4 \
  >"$obs_tmp/engine.json"
# One small engine_scan size (ENGINE_SCAN_SIZES skips the expensive
# 256-endpoint full-scan ablation): the doorbell engine's idle
# iteration budget is one epoch load plus one doorbell load per
# allocated send endpoint — with one sender that is 2 loads/iteration;
# fail if it ever exceeds 4. BENCH_engine_scan.json is a gitignored
# artifact, so regenerating it here is harmless.
ENGINE_SCAN_SIZES=8 dune exec bench/main.exe -- engine_scan >/dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 -c "
import json
doc = json.load(open('$obs_tmp/engine.json'))
eng = doc['engine']
assert doc['sched_mode'] == 'doorbell', 'doorbell scheduling not the default'
assert eng['node0.engine.doorbell_hits'] > 0, 'no doorbell hits recorded'
assert eng['node0.engine.idle_scans_avoided'] > 0, 'no idle scans avoided'
scan = json.load(open('BENCH_engine_scan.json'))
for row in scan['sizes']:
    loads = row['doorbell']['idle_loads_per_iter']
    assert loads <= 4.0, f'idle loads/iter over budget: {loads}'
"
else
  grep -q '"sched_mode":"doorbell"' "$obs_tmp/engine.json"
  grep -q '"experiment":"engine_scan"' BENCH_engine_scan.json
fi

echo "== firehose smoke =="
# Open-loop throughput path: a bounded, seeded firehose run with the
# batching knobs on must deliver at least 90% of the offered load with
# zero invariant-monitor violations (--assert-clean attaches the
# monitor; --min-delivered-ratio makes the ratio a hard exit code).
# A second cell turns on engine sharding with multiple streams per
# node and checks the per-shard metrics snapshot: every (node, shard)
# pair must appear, in deterministic node-major shard order.
dune exec bin/flipc_cli.exe -- firehose --senders 2 --receivers 2 \
  --duration-us 300 --mean-gap-ns 2000 --seed 11 \
  --tx-batch 8 --send-burst 4 --recv-burst 4 \
  --assert-clean --min-delivered-ratio 0.9 --json >"$obs_tmp/firehose.json"
dune exec bin/flipc_cli.exe -- firehose --senders 2 --receivers 2 \
  --duration-us 300 --mean-gap-ns 8000 --seed 11 --streams 4 --shards 2 \
  --assert-clean --min-delivered-ratio 0.9 --json >"$obs_tmp/firehose_sharded.json"
if command -v python3 >/dev/null 2>&1; then
  python3 -c "
import json
doc = json.load(open('$obs_tmp/firehose.json'))
assert doc['violations'] == 0, 'firehose: invariant monitor fired'
assert doc['delivered_ratio'] >= 0.9, 'firehose: delivered ratio regressed'
sharded = json.load(open('$obs_tmp/firehose_sharded.json'))
pairs = [(e['node'], e['shard']) for e in sharded['engines']]
assert pairs == [(n, s) for n in range(4) for s in range(2)], \
    f'firehose: bad per-shard snapshot order: {pairs}'
assert all(e['sends'] + e['recvs'] > 0 for e in sharded['engines']), \
    'firehose: an engine shard saw no traffic'
"
else
  grep -q '"violations":0' "$obs_tmp/firehose.json"
  grep -q '"shard":1' "$obs_tmp/firehose_sharded.json"
fi

echo "== retrans smoke =="
# Selective-repeat gate (Retrans_layer over the channel transport,
# driven by Stackflow): on a reorder-only wire (no loss) the SACK
# receiver buffers the overtaken frames, so the sender should barely
# retransmit — the ratio bound exits 1 if selective repeat regresses
# toward go-back-N behaviour. The retrans_modes bench then records the
# SR-vs-GBN ablation (BENCH_retrans_modes.json is a gitignored
# artifact) and the JSON is checked for the headline invariant:
# selective repeat strictly fewer retransmits than go-back-N.
dune exec bin/flipc_cli.exe -- retrans --reorder 0.3 --messages 300 \
  --max-retransmit-ratio 0.15 >/dev/null
RETRANS_MODES_MESSAGES=300 dune exec bench/main.exe -- retrans_modes >/dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 -c "
import json
doc = json.load(open('BENCH_retrans_modes.json'))
points = {(p['fabric'], p['mode']): p for p in doc['points']}
for fabric in ('mesh', 'ethernet'):
    sr, gbn = points[(fabric, 'sr')], points[(fabric, 'gbn')]
    assert sr['delivered'] == doc['messages'], f'{fabric}: sr lost messages'
    assert gbn['delivered'] == doc['messages'], f'{fabric}: gbn lost messages'
    assert sr['retransmits'] < gbn['retransmits'], \
        f'{fabric}: selective repeat not cheaper than go-back-N'
    assert sr['srtt_ns'] > 0, f'{fabric}: RTT estimator never sampled'
"
else
  grep -q '"experiment":"retrans_modes"' BENCH_retrans_modes.json
fi

echo "== doctor gate =="
# Correlation-and-diagnosis layer: the doctor scenario (Retrans_layer
# flows over a lossy 4x4 mesh with causal tracing, online invariant
# monitors and progress watchdogs attached) must come back clean — no
# invariant violations, no watchdog expiry, every message delivered —
# and must show retransmitted frames: the seed-7 lossy mesh always
# retransmits, so zero means the layer's Frame_tx events no longer
# reach causal tracing. Then the formerly hanging soak seed is pinned:
# QCHECK_SEED=12 used to spin forever in a raw-channel receive loop
# after an optimistic discard (see DESIGN.md §13); over Window_layer
# flow control and watchdogs it must pass, not hang. The seed-7 run is
# captured twice to the binary flight recorder: an offline replay of
# each capture must re-derive the exact same report — byte-for-byte —
# or the black-box debugging story is broken.
for run in a b; do
  dune exec bin/flipc_cli.exe -- doctor --assert-clean --json \
    --capture "$obs_tmp/doctor_$run.ftrace" >"$obs_tmp/doctor_$run.json"
  dune exec bin/flipc_cli.exe -- doctor --assert-clean --json \
    --replay "$obs_tmp/doctor_$run.ftrace" >"$obs_tmp/doctor_${run}_replay.json"
  cmp "$obs_tmp/doctor_$run.json" "$obs_tmp/doctor_${run}_replay.json" || {
    echo "doctor replay of capture $run diverged from the live report" >&2
    exit 1
  }
done
# The capture must honour the >= 4x size contract against its JSON-lines
# rendering (flipc trace --replay).
dune exec bin/flipc_cli.exe -- trace --replay "$obs_tmp/doctor_a.ftrace" \
  >"$obs_tmp/doctor_a.jsonl"
jsonl_bytes=$(wc -c <"$obs_tmp/doctor_a.jsonl")
binary_bytes=$(wc -c <"$obs_tmp/doctor_a.ftrace")
[ $((4 * binary_bytes)) -le "$jsonl_bytes" ] || {
  echo "binary capture not 4x smaller: $binary_bytes vs $jsonl_bytes bytes" >&2
  exit 1
}
# Cross-run diffing: the two captures of the same seeded run must
# report zero regressions under --assert-clean.
dune exec bin/flipc_cli.exe -- doctor --assert-clean --json \
  --replay "$obs_tmp/doctor_b.ftrace" --against "$obs_tmp/doctor_a.ftrace" \
  >"$obs_tmp/doctor_diff.json"
QCHECK_SEED=12 dune exec test/test_soak.exe >/dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 -c "
import json
doc = json.load(open('$obs_tmp/doctor_a.json'))
assert doc['clean'], 'doctor reported an unclean run'
assert doc['delivered'] == doc['expected'], 'doctor lost messages'
assert doc['monitor_violations'] == 0, 'invariant monitor fired'
assert not doc['stalled'], 'a progress watchdog expired'
assert doc['spans_traced'] > 0, 'causal tracing captured nothing'
assert doc['retransmitted_frames'] > 0, 'no Frame_tx reached causal tracing'
assert doc['monitor_events_seen'] > 0, 'monitors saw no events'
diff = json.load(open('$obs_tmp/doctor_diff.json'))
assert diff['violations_added'] == 0, 'self-diff invented a regression'
assert diff['sites'], 'cross-run diff aligned no message sites'
"
else
  grep -q '"clean":true' "$obs_tmp/doctor_a.json"
  ! grep -q '"retransmitted_frames":0,' "$obs_tmp/doctor_a.json"
  grep -q '"violations_added":0' "$obs_tmp/doctor_diff.json"
fi

echo "== alert gate =="
# Declarative alerting as a CI primitive: a rules file holding the
# engine's must-stay-zero invariants (corrupt frames, transport drops)
# must come back clean on a healthy run — `flipc alert` exits 1 on any
# firing. The second cell inverts the polarity as a self-test of the
# tripwire: a rule that sends-must-be-zero obviously fires under
# traffic, and --expect-fire turns that firing into the passing case
# (exit 1 if the alert pipeline ever stops detecting it).
cat >"$obs_tmp/rules.json" <<'RULES'
{"rules": [
  {"name": "no-corrupt-frames", "kind": "counter_zero",
   "counter": "node0.engine.corrupt_frames"},
  {"name": "no-drops", "kind": "counter_zero",
   "counter": "node0.engine.drops"}
]}
RULES
dune exec bin/flipc_cli.exe -- alert --rules "$obs_tmp/rules.json" \
  --exchanges 40 --json >"$obs_tmp/alert.json"
cat >"$obs_tmp/tripwire.json" <<'RULES'
{"rules": [
  {"name": "sends-happened", "kind": "counter_zero",
   "counter": "node0.engine.sends"}
]}
RULES
dune exec bin/flipc_cli.exe -- alert --rules "$obs_tmp/tripwire.json" \
  --exchanges 40 --expect-fire sends-happened >/dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 -c "
import json
doc = json.load(open('$obs_tmp/alert.json'))
assert doc['clean'], 'alert gate fired on a healthy run'
assert doc['rules'] == 2 and doc['windows'] > 0, 'alert gate evaluated nothing'
"
else
  grep -q '"clean":true' "$obs_tmp/alert.json"
fi

echo "== soak matrix gate =="
# Adversarial fault matrix: all-to-all reliable flows on every fabric
# (mesh / Ethernet / SCSI) swept across uniform loss, Gilbert-Elliott
# burst loss, payload corruption (frame checksums on), a single faulted
# link, and everything combined — with invariant monitors and per-flow
# progress watchdogs attached. --assert-clean exits 1 unless every cell
# delivers everything with zero violations, zero watchdog expiries and
# zero corrupt frames leaking to the application. The seed is pinned so
# the run replays bit-identically.
dune exec bin/flipc_cli.exe -- soakmatrix --assert-clean --fault-seed 21 \
  --out "$obs_tmp/soak_matrix.json" >/dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 -c "
import json
doc = json.load(open('$obs_tmp/soak_matrix.json'))
assert doc['clean'], 'soak matrix reported an unclean cell'
assert len(doc['cells']) == 15, 'soak matrix did not cover the full matrix'
for cell in doc['cells']:
    where = (cell['fabric'], cell['scenario'])
    assert cell['delivered'] == cell['expected'], f'{where}: lost messages'
    assert cell['corrupt_leaks'] == 0, f'{where}: corrupt frame reached the app'
    assert cell['monitor_violations'] == 0, f'{where}: invariant monitor fired'
    assert cell['watchdogs_expired'] == 0, f'{where}: progress watchdog expired'
corrupting = [c for c in doc['cells'] if c['scenario'] in ('corrupt', 'combined')]
assert all(c['corrupt_frames_dropped'] > 0 for c in corrupting), \
    'corruption scenarios injected no detected corruption'
"
else
  grep -q '"clean":true}$' "$obs_tmp/soak_matrix.json"
fi

echo "== layered transport gate =="
# The TRANSPORT abstraction: one functorized conformance suite runs
# unchanged against the in-memory loopback transport and the channel
# stacks over a faulted mesh fabric (test_transport covers both
# harnesses, including exactly-once for the reliable compositions).
# Then the stack matrix drives every Stackflow composition all-to-all
# through the fault scenarios it promises to survive; --assert-clean
# exits 1 on any lost/duplicated/corrupt delivery, invariant violation
# or watchdog expiry.
dune exec test/test_transport.exe -- -c >/dev/null
dune exec bin/flipc_cli.exe -- stack --assert-clean --fault-seed 31 \
  --out "$obs_tmp/stack.json" >/dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 -c "
import json
doc = json.load(open('$obs_tmp/stack.json'))
assert doc['clean'], 'stack matrix reported an unclean cell'
stacks = {c['stack'] for c in doc['cells']}
assert stacks == {'channel', 'window/channel', 'retrans/channel',
                  'retrans/window/channel'}, f'missing compositions: {stacks}'
retrans_cells = [c for c in doc['cells'] if c['stack'] == 'retrans/channel']
assert len(retrans_cells) == 6, 'retrans stack did not sweep all scenarios'
faulted = [c for c in retrans_cells if c['scenario'] != 'clean']
assert all(c['retransmits'] > 0 for c in faulted), \
    'a faulted cell exercised no retransmission'
"
else
  grep -q '"clean":true}$' "$obs_tmp/stack.json"
fi

echo "== format =="
if command -v ocamlformat >/dev/null 2>&1; then
  dune build @fmt
else
  echo "(ocamlformat not installed: checking dune files only)"
  status=0
  for f in $(git ls-files | grep -E '(^|/)dune(-project)?$'); do
    if ! dune format-dune-file "$f" | cmp -s - "$f"; then
      echo "not formatted: $f (run: dune format-dune-file $f > tmp && mv tmp $f)"
      status=1
    fi
  done
  [ "$status" -eq 0 ]
fi

echo "== ok =="
