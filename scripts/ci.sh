#!/usr/bin/env bash
# Minimal CI. Each gate has one home, named here.
#
# tier-1 pytest holds the correctness gates of the fast paths, the serve
# stack and the generated-workload oracle:
#   - the solver gate is the certified battery
#     (tests/test_solver_backends.py): an independent reverse-unit-
#     propagation checker certifies every learnt clause, model and
#     failed-assumption core of the CDCL core on the A8 seeds 0..59 and
#     the paper feature-model toggle stream (TestCertifiedEnforcement)
#     and on random, hard and prefix-sharing probe streams
#     (TestCertifiedCnfStreams); TestRupChecker shows the checker
#     rejects bad certificates, and TestCertifiedLoads certifies a
#     clause load that keeps the assumption levels it does not touch.
#     A solve keeps the assumption levels it shares with the previous
#     one, assumes the literals that stay first in their old order,
#     answers like a fresh solver under every order and takes at most
#     13,000 propagations and 150 decisions on a paper feature-model
#     toggle stream
#     (tests/test_solver_incremental.py::TestAssumptionTrailReuse);
#     learnt-clause GC under constant restarts keeps the optimum of a
#     re-probed enforcement session (tests/test_solver_gc_restarts.py);
#     and the increasing search's disjoint-core bound never exceeds the
#     brute-force optimum, refutes a question with no repair in scope
#     in one solve and keeps the paper feature-model toggle stream at
#     <= 55 solves, <= 20 conflicts, no at_most call and 12 core
#     counters (tests/test_solver_card_maxsat.py::TestDisjointCores);
#     one session asked under a sequence of base assumption sets stays
#     exact while it frees remembered cores (TestCoreMemo);
#     its OLL completion never bounds above the optimum, returns it
#     at its last bound and, on a seeded 6-8 variable sweep, extends
#     a core counter whose output is in a core
#     (TestCoreGuidedCompletion); a unit
#     soft clause is relaxed by its own literal, so a session over unit
#     soft clauses allocates nothing beyond its hard CNF, and repeated
#     or complementary soft literals under base assumptions keep every
#     search at the brute-force optimum (TestRelaxationLiterals);
#   - an Echo enforcement session answers like re-grounding per edit
#     with one grounding, and renames never-grounded object ids onto
#     its warm grounding, so a paper feature-model toggle stream
#     re-grounds at most once per new object id while answering like
#     per-call SAT (tests/test_enforce_session.py::TestMonotoneUniverse);
#     a renamed answer is kept only when certified exact, and every
#     fallback re-grounds and answers like per-call SAT (TestRenaming);
#     a state smaller than the one its shape was grounded on creates no
#     more objects than its own adaptive scope (TestAdaptiveScope); its
#     cost-0 optimum doubles as the hippocratic check, except for
#     weight-0 targets, where it answers like per-call enforcement
#     (TestSessionReuse::test_weight_zero_target_answers_like_per_call);
#     a repeated state is answered from the session's memory without a
#     solve, close() forgets it and the uncached arm keeps none
#     (TestAnswerMemo);
#   - the request path is cycle-free: a paper feature-model toggle
#     stream on one session and generated requests through
#     serve_request leave 0 objects for the cyclic collector, and a
#     re-ground builds with the collector paused
#     (tests/test_enforce_session.py::TestNoCyclicGarbage); an evicted
#     or dropped shared session dies by reference counting alone, a
#     remembered no-repair verdict included, and eviction,
#     clear_shared_sessions and a forked worker's start leave nothing
#     frozen (tests/test_enforce_session.py::TestSharedSessionEviction);
#   - pruned grounding answers like the naive product with at most its
#     bindings, and at least 2x fewer on frozen-dominated questions;
#     re-grounds onto one persistent GroundingContext translate at most
#     half the clauses of private CNFs; the SAT entry points share one
#     grounding (tests/test_grounding_fastpath.py);
#   - the grounder writes one clause per binding with one-directional
#     definitions: for every assignment of a small atom set the clauses
#     are SAT exactly when guard -> conclusion holds, and a second
#     generation reuses the cached definitions
#     (tests/test_solver_grounding_encoder.py); the frozen corpora
#     encode in at most 2,425 hard clauses for the paper-fm question,
#     16,759 per gen pass and 1,026 for gen request 49, over exactly
#     2,135, 5,376 and 588 bindings
#     (tests/test_grounding_fastpath.py::TestEncodingSize); a fresh
#     solver's bulk load builds the arena, watch lists and pending units
#     that attaching clause by clause builds
#     (tests/test_solver_incremental.py::TestFreshLoad);
#   - every engine agrees on verdict and optimal cost over the fixed
#     generated seeds 0..24, generation is bit-for-bit deterministic,
#     its corpus text is pinned by a sha256 digest
#     (tests/test_gen_generators.py::TestScenarioGenerator) and the
#     session's answer memory absorbs oscillating frozen drift: two
#     groundings, every return a memory hit
#     (tests/test_differential_engines.py;
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
#     (tests/test_delta_protocol.py);
#   - the on-demand totalizer builds at most cap + 1 counter outputs
#     and >= 3x fewer clauses than the complete counter after a capped
#     optimum search, and a weight-25 request with cap 2 builds <= 3
#     outputs while matching the brute engine
#     (tests/test_solver_card_maxsat.py::TestOnDemandTotalizerGate).
# The paper's own claims (multidirectional repairs where every
# single-target transformation fails, distances growing as 2k, Horn
# entailment of compound dependencies, the standard semantics erring
# where the extended one is exact, ...) are tier-1 tests too, next to
# the layer each claim is about; README.md's claim table names them.
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
# feature-model edits on one warm shape (paper-fm: feature ids the
# session has not grounded are renamed onto its warm grounding, so no
# workload re-grounds after its shapes' first groundings), and exit 1
# on any answer that differs from its frozen
# (outcome, distance) reference, computed by per-call SAT. One more
# gen-cold run with the per-layer tracer on guards the names the
# tracer patches: a refactor that renames one fails the stage instead
# of silently breaking the per-layer numbers; a traced paper-fm run does
# the same for the core-memory and OLL path, which gen-cold barely takes.
# Docs can't rot silently: every example runs as a smoke stage, the
# code blocks in README.md and docs/ are import-checked, and every
# module under src/ that carries a doctest runs it.
#
# Usage: scripts/ci.sh  (from anywhere; finishes in a few minutes)
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests (the 10 slowest listed) =="
python -m pytest -x -q --durations=10

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

echo "== perfbench paper-fm with the per-layer tracer (hard 300 s timeout) =="
timeout 300 python3 perfbench/run.py --workload paper-fm --seconds 2 --trace 1

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

echo "== doctests =="
mapfile -t doctest_modules < <(grep -rl --include='*.py' '>>> ' src | sort)
echo "${#doctest_modules[@]} modules"
python -m doctest "${doctest_modules[@]}"

echo "CI OK"
