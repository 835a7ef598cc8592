"""Cross-engine differential oracle over generated scenarios.

The PR-1..3 fast-path stack (incremental SAT, session reuse, pruned and
cached grounding) was proven equivalent on hand-written cases; this file
proves it on *generated* ones. Every seeded scenario — random
metamodels, random well-typed transformation, consistent base state,
random perturbation, random question shape — is replayed through the
brute (checker-only search), oracle-accelerated search, shared SAT,
per-call SAT and fully-naive-session SAT engines, and all five must
agree on verdict and optimal cost; the guided engine is checked for
correctness (never beats the optimum, never touches a consistent
state).

The seed lists are fixed so failures reproduce from one integer and the
CI run is deterministic; this file is the only CI home of these seeds.
``benchmarks/bench_a8_generated_workloads.py`` sweeps a larger seed
range (200 seeds) outside CI.
"""

import pytest

from repro.gen import (
    CONSISTENT,
    REPAIRED,
    differential,
    oscillating_tuples,
    random_scenario,
    session_differential,
)
from repro.gen.edits import random_edit
from repro.metamodel.edits import apply_edit
from repro.solver.sat import IncrementalSolver
from repro.util.seeding import rng_from_seed

#: The CI smoke seed list: fixed forever, chosen to cover all three
#: consensus outcomes (see TestVerdictDiversity).
SMOKE_SEEDS = tuple(range(25))


@pytest.fixture(scope="module")
def smoke_reports():
    return {
        seed: differential(random_scenario(seed)) for seed in SMOKE_SEEDS
    }


class TestEngineAgreement:
    def test_zero_disagreements_on_the_smoke_seeds(self, smoke_reports):
        problems = {
            seed: report.disagreements()
            for seed, report in smoke_reports.items()
            if not report.ok
        }
        assert not problems, problems

    def test_verdict_diversity(self, smoke_reports):
        """The seed list must exercise every consensus outcome — a list
        of hippocratic no-ops would vacuously 'agree'."""
        outcomes = {
            report.consensus.outcome for report in smoke_reports.values()
        }
        assert CONSISTENT in outcomes
        assert REPAIRED in outcomes

    def test_no_repair_outcome_is_reachable(self):
        # Pinned separately from the smoke list: these questions have no
        # repair within the distance cap, and every exact engine must
        # *prove* that (capped-space exhaustion vs UNSAT sweep), not
        # just fail differently.
        from repro.gen import NO_REPAIR

        outcomes = set()
        for seed in (32, 37, 61):
            report = differential(random_scenario(seed))
            assert report.ok, report.disagreements()
            outcomes.add(report.consensus.outcome)
        assert outcomes == {NO_REPAIR}

    def test_reports_are_reproducible(self):
        a = differential(random_scenario(3))
        b = differential(random_scenario(3))
        assert a == b


class TestSessionStreams:
    """Edit streams drive the persistent session differentially.

    Oscillating frozen drifts flip a frozen model between two variants:
    each variant's first visit grounds, every return repeats an earlier
    state and is answered from the session's memory, and every step's
    verdict must match per-call SAT enforcement.
    """

    @pytest.mark.parametrize(
        "seed,frozen_param", [(3, "m2"), (5, "m1"), (18, "m1")]
    )
    def test_oscillating_frozen_drift_is_absorbed_by_the_answer_memory(
        self, seed, frozen_param
    ):
        scenario = random_scenario(seed)
        assert frozen_param not in scenario.targets.params
        stream = oscillating_tuples(
            seed, scenario.models, frozen_param, rounds=6
        )
        verdicts, session = session_differential(scenario, stream)
        assert len(verdicts) == 6
        # Two variants -> two groundings; the other four enforces repeat
        # an answered state and come from memory, not re-grounds.
        assert session.groundings == 2
        assert session.hits == 4

    def test_mixed_repairability_stream_agrees(self):
        # Seed 5's oscillation alternates repairable and unrepairable
        # states (within the cap): agreement must hold for both.
        scenario = random_scenario(5)
        stream = oscillating_tuples(5, scenario.models, "m1", rounds=4)
        verdicts, _session = session_differential(scenario, stream)
        assert {v.outcome for v in verdicts} == {REPAIRED, "no-repair"}

    def test_cumulative_drift_stream_agrees(self):
        """A stream of accumulating in-tuple edits (not oscillation)."""
        scenario = random_scenario(16)
        rng = rng_from_seed(16)
        tuples = []
        current = dict(scenario.models)
        params = sorted(scenario.targets.params)
        for _ in range(4):
            param = rng.choice(params)
            edit = random_edit(rng, current[param])
            if edit is not None:
                current = dict(current)
                current[param] = apply_edit(current[param], edit)
            tuples.append(dict(current))
        verdicts, session = session_differential(scenario, tuples)
        assert len(verdicts) == 4
        assert session.calls == 4


class TestMidSearchGcMetamorphic:
    """Forced mid-search learnt-clause reductions change no verdicts.

    The metamorphic transformation: shrink the learnt budget to almost
    nothing and force frequent restarts, so the solver reduces its
    database constantly *during* search (at non-root decision levels,
    under the generation-selector and origin assumptions of the shared
    grounding); every differential verdict on a generated workload must
    be identical to the untouched configuration's.
    """

    SEEDS = (2, 3, 4, 7, 8)

    def test_forced_midsearch_reductions_change_no_verdicts(
        self, monkeypatch
    ):
        baseline = {
            seed: differential(random_scenario(seed)) for seed in self.SEEDS
        }
        monkeypatch.setattr(IncrementalSolver, "GC_FIRST", 2)
        monkeypatch.setattr(IncrementalSolver, "GC_GROWTH", 1.05)
        monkeypatch.setattr(IncrementalSolver, "LUBY_UNIT", 4)
        stressed = {
            seed: differential(random_scenario(seed)) for seed in self.SEEDS
        }
        for seed in self.SEEDS:
            assert stressed[seed].ok, stressed[seed].disagreements()
            assert (
                stressed[seed].exact == baseline[seed].exact
            ), f"seed {seed}: GC pressure changed an exact verdict"

    def test_stress_actually_reduces_mid_search(self, monkeypatch):
        from repro.solver.sat import GLOBAL_STATS

        monkeypatch.setattr(IncrementalSolver, "GC_FIRST", 2)
        monkeypatch.setattr(IncrementalSolver, "GC_GROWTH", 1.05)
        monkeypatch.setattr(IncrementalSolver, "LUBY_UNIT", 4)
        before = GLOBAL_STATS.midsearch_reductions
        for seed in self.SEEDS:
            differential(random_scenario(seed))
        assert GLOBAL_STATS.midsearch_reductions > before


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
