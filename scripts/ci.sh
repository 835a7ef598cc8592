#!/usr/bin/env bash
# Minimal CI: the tier-1 test suite plus the perf regression guards —
# a6 runs the decide workload on the flat production core and on the
# legacy reference core and fails if the flat core's smoke decide
# throughput regresses below the legacy core's, checks that learnt-
# clause GC changes no optimum, and that Echo enforcement sessions
# reuse one grounding (>= 20 % faster than re-grounding per edit), a7
# asserts the grounding fast
# path (pruning never enumerates more bindings than the naive arm and
# never changes a verdict; re-grounds reuse cached translations; the
# SAT entry points share one grounding), a8 replays a fixed seed list
# of *generated* scenarios (random metamodels/transformations/tuples)
# through every engine and asserts zero verdict/cost disagreements,
# bit-for-bit generator determinism and oscillation absorption, and a9
# asserts the batch service answers shards verdict/cost-identically to
# sequential per-call SAT with one grounding per shape per worker and
# worker-count-independent results (the >= 2x throughput gate runs in
# the full, non-smoke sweep), and a10 asserts the long-lived daemon
# answers bit-for-bit identically to serve_batch, replays same-shape
# traffic with zero re-grounding (the >= 2x warm-throughput gate runs
# in the full sweep), and dead-letters a wedged request within its
# deadline while its batch siblings complete, and a11 replays the
# generated workload under each injected fault class (worker crash,
# stall, corrupt wire, connection drop, poison) and asserts every
# request gets exactly one typed reply, successes stay bit-identical
# to the fault-free run with zero extra groundings, and the daemon
# ends healthy (under a hard timeout so a wedged daemon can never
# hang the pipeline). The end-to-end perfbench correctness stages
# replay the frozen generated corpus inline (gen-cold), through the
# pooled batch service's worker slots (gen-batch) and as delta
# sessions on a daemon's worker slots (gen-delta), and exit 1 on any
# answer that differs from its frozen (outcome, distance) reference.
# Docs can't rot silently: every example runs as a smoke stage, the
# code blocks in README.md and docs/ are import-checked, and the
# audited public modules' doctests execute.
#
# Usage: scripts/ci.sh  (from anywhere; finishes in about a minute)
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== a6 solver hot-loop + reference-core + enforcement-session smoke guard =="
python benchmarks/bench_a6_solver_hotloop.py --smoke

echo "== a7 grounding fast-path smoke guard =="
python benchmarks/bench_a7_grounding.py --smoke

# The seeded differential-oracle smoke (fixed seed list 0..24, <10 s)
# already runs inside the tier-1 pytest above
# (tests/test_differential_engines.py); a8 re-drives the same seeds in
# script mode with its own gates and emits the trajectory JSON.
echo "== a8 generated-workloads differential smoke benchmark =="
python benchmarks/bench_a8_generated_workloads.py --smoke

echo "== a9 batch-service smoke benchmark =="
python benchmarks/bench_a9_batch_service.py --smoke

# The daemon lifecycle suite (tests/test_daemon.py) already runs inside
# the tier-1 pytest above; a10 drives a real socketed daemon with its
# own gates and emits the trajectory JSON.
echo "== a10 daemon smoke benchmark =="
python benchmarks/bench_a10_daemon.py --smoke

# The fault-injection and robustness suites (tests/test_faults.py,
# tests/test_daemon.py) already run inside the tier-1 pytest above;
# a11 soaks a real socketed daemon under each fault class. The hard
# `timeout` wrapper is the backstop: chaos that wedges the daemon
# fails the stage instead of hanging CI.
echo "== a11 chaos smoke benchmark (hard 300 s timeout) =="
timeout 300 python benchmarks/bench_a11_chaos.py --smoke

# The delta-protocol suite (tests/test_delta_protocol.py) already runs
# inside the tier-1 pytest above; a12 gates the wire-level contract —
# delta sessions bit-identical to full tuples AND >= 10x fewer wire
# bytes per request on drift streams. Hard timeout: a wedged session
# daemon fails the stage instead of hanging CI.
echo "== a12 delta-sessions smoke benchmark (hard 300 s timeout) =="
timeout 300 python benchmarks/bench_a12_delta_sessions.py --smoke

# The end-to-end benchmark doubles as a correctness check: every
# answer on the frozen generated corpus must match its recorded
# (outcome, distance) reference, or the run exits 1.
echo "== perfbench gen-cold answers vs frozen references (hard 300 s timeout) =="
timeout 300 python3 perfbench/run.py --workload gen-cold --seconds 2

echo "== perfbench gen-batch answers vs frozen references (hard 300 s timeout) =="
timeout 300 python3 perfbench/run.py --workload gen-batch --seconds 2

echo "== perfbench gen-delta answers vs frozen references (hard 300 s timeout) =="
timeout 300 python3 perfbench/run.py --workload gen-delta --seconds 2

echo "== examples smoke =="
for example in examples/*.py; do
  echo "-- $example"
  python "$example" > /dev/null
done

echo "== docs code-block import check =="
python scripts/check_docs.py

echo "== public-surface doctests =="
python -m doctest \
  src/repro/solver/sat.py \
  src/repro/enforce/api.py \
  src/repro/enforce/session.py \
  src/repro/echo/tool.py

echo "CI OK"
