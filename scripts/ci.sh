#!/usr/bin/env bash
# Minimal CI. Each gate has one home, named here.
#
# tier-1 pytest holds the correctness gates of the serve stack and the
# generated-workload oracle:
#   - every engine agrees on verdict and optimal cost over the fixed
#     generated seeds 0..24, generation is bit-for-bit deterministic and
#     oscillating drift is absorbed (tests/test_differential_engines.py;
#     benchmarks/bench_a8_generated_workloads.py sweeps 200 seeds
#     outside CI);
#   - the batch service grounds once per shard, answers independently
#     of the worker count and matches sequential per-call SAT
#     (tests/test_serve.py);
#   - the daemon answers bit-for-bit like serve_batch, re-grounds
#     nothing on warm traffic and dead-letters a wedged request within
#     its deadline while its siblings complete (tests/test_daemon.py);
#   - delta sessions answer bit-for-bit like serve_batch and cut wire
#     bytes per request >= 10x on a drift stream
#     (tests/test_delta_protocol.py).
# a6 runs the decide workload on the flat production core and on the
# legacy reference core and fails if the flat core's smoke decide
# throughput regresses below the legacy core's, checks that learnt-
# clause GC changes no optimum, and that Echo enforcement sessions
# reuse one grounding (>= 20 % faster than re-grounding per edit).
# a7 asserts the grounding fast path (pruning never enumerates more
# bindings than the naive arm and never changes a verdict; re-grounds
# reuse cached translations; the SAT entry points share one grounding).
# a11 replays the generated workload under each injected fault class
# (worker crash, stall, corrupt wire, connection drop, poison) and
# asserts every request gets exactly one typed reply, successes stay
# bit-identical to the fault-free run with zero extra groundings, and
# the daemon ends healthy (under a hard timeout so a wedged daemon can
# never hang the pipeline).
# The end-to-end perfbench stages replay the frozen generated corpus
# (scenario seeds 0..119, six requests each) inline (gen-cold), through
# the pooled batch service's worker slots (gen-batch: the batch
# service's verdicts and costs on the whole corpus) and as delta
# sessions on a daemon's worker slots (gen-delta), plus the paper's own
# feature-model edits on one warm shape (paper-fm, the workload that
# regrounds), and exit 1 on any answer that differs from its frozen
# (outcome, distance) reference, computed by per-call SAT. One more
# gen-cold run with the per-layer tracer on guards the names the
# tracer patches: a refactor that renames one fails the stage instead
# of silently breaking the per-layer numbers.
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

# The fault-injection and robustness suites (tests/test_faults.py,
# tests/test_daemon.py) already run inside the tier-1 pytest above;
# a11 soaks a real socketed daemon under each fault class. The hard
# `timeout` wrapper is the backstop: chaos that wedges the daemon
# fails the stage instead of hanging CI.
echo "== a11 chaos smoke benchmark (hard 300 s timeout) =="
timeout 300 python benchmarks/bench_a11_chaos.py --smoke

# The end-to-end benchmark doubles as a correctness check: every
# answer on the frozen generated corpus must match its recorded
# (outcome, distance) reference, or the run exits 1.
echo "== perfbench gen-cold answers vs frozen references (hard 300 s timeout) =="
timeout 300 python3 perfbench/run.py --workload gen-cold --seconds 2

echo "== perfbench gen-cold with the per-layer tracer (hard 300 s timeout) =="
timeout 300 python3 perfbench/run.py --workload gen-cold --seconds 2 --trace 1

echo "== perfbench gen-batch answers vs frozen references (hard 300 s timeout) =="
timeout 300 python3 perfbench/run.py --workload gen-batch --seconds 2

echo "== perfbench gen-delta answers vs frozen references (hard 300 s timeout) =="
timeout 300 python3 perfbench/run.py --workload gen-delta --seconds 2

echo "== perfbench paper-fm answers vs frozen references (hard 300 s timeout) =="
timeout 300 python3 perfbench/run.py --workload paper-fm --seconds 2

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
