"""Property-based tests for the persistent incremental SAT solver.

Random interleavings of ``add_clause`` and ``solve(assumptions)`` are
replayed against a mirror CNF decided by the :mod:`repro.solver.brute`
truth-table oracle. Checked invariants, per solve call of a sequence:

* **same satisfiability** — the incremental verdict equals the oracle's
  verdict on (mirror CNF + assumptions-as-units);
* **assignment validity** — SAT assignments satisfy every mirror clause
  and every assumption;
* **failed-core soundness** — UNSAT cores are a subset of the passed
  assumptions, and the mirror CNF stays UNSAT when exactly the core
  literals are added as unit clauses.

Deterministic hand tests pin the between-solve API: clause addition
after solving, variable growth, permanent-UNSAT latching, stats.

``TestAssumptionTrailReuse`` is the count and soundness gate of
assumption-trail reuse: a solve keeps the assumption levels it shares
with the previous solve instead of re-propagating them.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.enforce import EnforcementSession, TargetSelection, enforce
from repro.errors import SolverError
from repro.featuremodels import paper_transformation
from repro.solver.brute import brute_solve, check_assignment
from repro.solver.cnf import CNF
from repro.solver.sat import (
    GLOBAL_STATS,
    IncrementalSolver,
    SolverStats,
    global_stats,
    solve,
)
from tests.strategies import enforce_answer, probe_stream, toggle_stream


@st.composite
def solver_scripts(draw):
    """A random interleaving of add-clause and solve-under-assumption ops."""
    num_vars = draw(st.integers(1, 5))
    literal = st.integers(1, num_vars).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    ops = []
    for _ in range(draw(st.integers(1, 10))):
        if draw(st.booleans()):
            ops.append(("add", draw(st.lists(literal, min_size=1, max_size=3))))
        else:
            ops.append(("solve", draw(st.lists(literal, max_size=3))))
    # Always end on a solve so every script checks at least one verdict.
    ops.append(("solve", draw(st.lists(literal, max_size=2))))
    return num_vars, ops


def _oracle_verdict(mirror: CNF, assumptions) -> bool:
    query = mirror.copy()
    for lit in assumptions:
        query.add_clause([lit])
    return brute_solve(query).satisfiable


def _check_solve(mirror: CNF, result, assumptions) -> None:
    expected = _oracle_verdict(mirror, assumptions)
    assert result.satisfiable == expected
    if result.satisfiable:
        assert result.core is None
        assert check_assignment(mirror, result.assignment)
        for lit in assumptions:
            value = result.assignment[abs(lit)]
            assert value == (lit > 0), f"assumption {lit} violated"
    else:
        assert result.assignment is None
        assert result.core is not None
        assert set(result.core) <= set(assumptions)
        # Core soundness: the core alone (as units) must already be UNSAT.
        assert not _oracle_verdict(mirror, result.core)


class TestRandomScripts:
    @given(script=solver_scripts())
    @settings(max_examples=300, deadline=None)
    def test_incremental_script_matches_oracle(self, script):
        num_vars, ops = script
        mirror = CNF(num_vars)
        solver = IncrementalSolver(CNF(num_vars))
        for op, payload in ops:
            if op == "add":
                mirror.add_clause(payload)
                solver.add_clause(payload)
            else:
                _check_solve(mirror, solver.solve(payload), payload)

    @given(script=solver_scripts())
    @settings(max_examples=100, deadline=None)
    def test_state_persistence_is_pure(self, script):
        """Re-solving the same query twice in a row gives the same verdict
        (learnt clauses and phases must never change satisfiability)."""
        num_vars, ops = script
        solver = IncrementalSolver(CNF(num_vars))
        for op, payload in ops:
            if op == "add":
                solver.add_clause(payload)
            else:
                first = solver.solve(payload)
                second = solver.solve(payload)
                assert first.satisfiable == second.satisfiable

    @given(script=solver_scripts())
    @settings(max_examples=100, deadline=None)
    def test_matches_oneshot_solver(self, script):
        """After any op prefix, the persistent solver and a fresh one-shot
        solve of the accumulated CNF agree."""
        num_vars, ops = script
        mirror = CNF(num_vars)
        solver = IncrementalSolver(CNF(num_vars))
        for op, payload in ops:
            if op == "add":
                mirror.add_clause(payload)
                solver.add_clause(payload)
            else:
                incremental = solver.solve(payload)
                oneshot = solve(mirror, payload)
                assert incremental.satisfiable == oneshot.satisfiable


class TestModelEnumeration:
    @given(cnf=st.integers(0, 4))
    @settings(max_examples=20, deadline=None)
    def test_blocking_clause_enumeration_counts_models(self, cnf):
        """Enumerating via add_clause blocking finds exactly the models
        the truth-table oracle counts — the bounded.py enumeration
        pattern, exercised at solver level."""
        from repro.solver.brute import count_models

        instance = CNF(3)
        if cnf >= 1:
            instance.add_clause([1, 2])
        if cnf >= 2:
            instance.add_clause([-2, 3])
        if cnf >= 3:
            instance.add_clause([-1, -3])
        if cnf >= 4:
            instance.add_clause([2, 3])
        solver = IncrementalSolver(instance)
        found = 0
        while True:
            result = solver.solve()
            if not result.satisfiable:
                break
            found += 1
            assert found <= 8, "enumeration failed to terminate"
            solver.add_clause(
                [-v if value else v for v, value in result.assignment.items()]
            )
        assert found == count_models(instance)


class TestIncrementalApi:
    def test_add_clause_after_solve(self):
        solver = IncrementalSolver(CNF(2))
        assert solver.solve().satisfiable
        solver.add_clause([1])
        solver.add_clause([-1, 2])
        result = solver.solve()
        assert result.satisfiable and result.value(1) and result.value(2)
        solver.add_clause([-2])
        assert not solver.solve().satisfiable

    def test_variable_growth(self):
        solver = IncrementalSolver()
        a = solver.new_var()
        solver.add_clause([a])
        assert solver.solve().value(a) is True
        b = solver.new_var()
        solver.add_clause([-a, b])
        result = solver.solve()
        assert result.value(b) is True
        solver.ensure_vars(10)
        assert solver.solve().satisfiable
        assert len(solver.solve().assignment) == 10

    def test_add_clause_validates_literals(self):
        solver = IncrementalSolver(CNF(1))
        with pytest.raises(SolverError):
            solver.add_clause([0])
        with pytest.raises(SolverError):
            solver.add_clause([2])

    def test_out_of_range_assumption_rejected(self):
        solver = IncrementalSolver(CNF(1))
        with pytest.raises(SolverError):
            solver.solve([5])

    def test_permanent_unsat_latches(self):
        solver = IncrementalSolver(CNF(1))
        solver.add_clause([1])
        solver.add_clause([-1])
        assert not solver.solve().satisfiable
        assert solver.solve().core == ()
        # Still UNSAT under any assumptions, with the empty core.
        assert solver.solve([1]).core == ()

    def test_failed_core_is_subset_and_unsat(self):
        # x1 -> x2 -> x3; assuming x1 and -x3 is contradictory.
        cnf = CNF(4)
        cnf.add_clause([-1, 2])
        cnf.add_clause([-2, 3])
        solver = IncrementalSolver(cnf)
        result = solver.solve([1, 4, -3])
        assert not result.satisfiable
        assert set(result.core) <= {1, 4, -3}
        assert 4 not in result.core, "irrelevant assumption crept into the core"
        # And the formula is satisfiable again without the assumptions.
        assert solver.solve().satisfiable

    def test_learnt_state_survives_across_calls(self):
        """The second identical UNSAT probe costs fewer conflicts than
        the first — the point of persistence."""
        cnf = CNF(6)
        var = lambda p, h: 2 * p + h + 1
        for p in range(3):
            cnf.add_clause([var(p, 0), var(p, 1)])
        for h in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    cnf.add_clause([-var(p1, h), -var(p2, h)])
        solver = IncrementalSolver(cnf)
        assert not solver.solve().satisfiable
        first_conflicts = solver.stats.conflicts
        assert not solver.solve().satisfiable
        assert solver.stats.conflicts - first_conflicts <= first_conflicts

    def test_stats_accumulate(self):
        solver = IncrementalSolver(CNF(2))
        before_global = GLOBAL_STATS.snapshot()
        solver.add_clause([1, 2])
        solver.solve([-1])
        assert solver.stats.solves == 1
        assert solver.stats.propagations >= 1
        delta = GLOBAL_STATS - before_global
        assert delta.solves == 1
        assert delta.propagations == solver.stats.propagations

    def test_stats_snapshot_and_diff(self):
        stats = SolverStats(propagations=5, solves=2)
        copy = stats.snapshot()
        assert copy == stats and copy is not stats
        diff = stats - SolverStats(propagations=1, solves=1)
        assert diff.propagations == 4 and diff.solves == 1

    def test_input_cnf_never_mutated(self):
        cnf = CNF(2)
        cnf.add_clause([1, 2])
        clauses_before = list(cnf.clauses)
        solver = IncrementalSolver(cnf)
        solver.add_clause([-1])
        solver.solve([2])
        assert cnf.clauses == clauses_before and cnf.num_vars == 2


class TestRootLevelRefutation:
    """A database refuted at level 0 by unit propagation, reached three
    ways. Every such refutation runs through the search loop's one
    propagation pass; the answer is ``core == ()`` and latches. The
    per-call counters are the values of the release that still had a
    separate root-level propagation pass: a conflict found while
    propagating pending unit clauses is not counted, one found after a
    learnt unit is."""

    @staticmethod
    def _work(result):
        stats = result.stats
        return stats.propagations, stats.conflicts, stats.decisions

    def _assert_latched(self, solver):
        for assumptions in ((), (1,), (-2,)):
            again = solver.solve(assumptions)
            assert (again.satisfiable, again.core) == (False, ())
            assert self._work(again) == (0, 0, 0)

    def test_units_at_construction(self):
        # Units x1 and -x2 meet the binary (-x1 | x2).
        solver = IncrementalSolver(CNF(2, [(1,), (-1, 2), (-2,)]))
        result = solver.solve()
        assert (result.satisfiable, result.core) == (False, ())
        assert self._work(result) == (1, 0, 0)
        self._assert_latched(solver)

    def test_units_added_between_solves(self):
        solver = IncrementalSolver(CNF(3, [(-1, 2), (-2, 3)]))
        first = solver.solve()
        assert first.satisfiable and self._work(first) == (3, 0, 3)
        solver.add_clause([1])
        solver.add_clause([-3])
        result = solver.solve([2])
        assert (result.satisfiable, result.core) == (False, ())
        assert self._work(result) == (2, 0, 0)
        self._assert_latched(solver)

    def test_after_a_learnt_unit(self):
        # Deciding -x1 conflicts at once; the learnt unit x1 then
        # propagates into (-x1 | x3), (-x1 | -x3) at level 0.
        solver = IncrementalSolver(CNF(3, [(1, 2), (1, -2), (-1, 3), (-1, -3)]))
        result = solver.solve()
        assert (result.satisfiable, result.core) == (False, ())
        assert self._work(result) == (2, 2, 1)
        self._assert_latched(solver)


def _one_reason_stream(seed: int, num_vars: int = 12):
    """Binary clauses in which every literal occurs at most once, plus a
    :func:`~tests.strategies.probe_stream` whose added clause and unit
    keep that property.

    Each implied literal then has exactly one reason clause, and neither
    propagation nor decisions can conflict (only an assumption can find
    itself false), so a solve's verdict and failed core depend on the
    clauses and the assumption order alone, not on solver history.
    """
    rng = random.Random(seed)
    literals = [lit for var in range(1, num_vars + 1) for lit in (var, -var)]
    rng.shuffle(literals)
    pairs = [
        tuple(literals[i : i + 2])
        for i in range(0, len(literals), 2)
        if literals[i] != -literals[i + 1]
    ]
    clauses, (clause, (unit, _)) = pairs[:-2], pairs[-2:]
    result = IncrementalSolver(CNF(num_vars, clauses)).solve()
    model = [var if result.value(var) else -var for var in range(1, num_vars + 1)]
    return clauses, probe_stream(rng, model, clause, [unit])


class TestAssumptionTrailReuse:
    """A solve backtracks only to the end of the assumption prefix it
    shares with the previous solve; answers stay those of a fresh
    solver."""

    def test_repeat_of_a_failed_probe_propagates_nothing(self):
        # x1 -> x2 -> x3 -> -x4: assuming x1 then x4 fails on x4.
        solver = IncrementalSolver(CNF(4, [(-1, 2), (-2, 3), (-3, -4)]))
        first = solver.solve([1, 4])
        assert (first.satisfiable, first.core) == (False, (1, 4))
        assert first.stats.propagations == 4
        again = solver.solve([1, 4])
        assert (again.satisfiable, again.core) == (False, (1, 4))
        assert again.stats.propagations == 0
        # A new tail keeps level 1; x4 is already false, so it is a model.
        assert solver.solve([1, -4]).stats.propagations == 0

    def test_an_interrupted_solve_leaves_no_level_behind(self):
        """A search interrupted mid-conflict leaves its level half
        propagated; the next solve under the same assumptions must not
        keep it."""
        solver = IncrementalSolver(CNF(3, [(-1, -2, 3), (-1, -2, -3)]))

        def interrupt(conflict):
            raise KeyboardInterrupt

        solver._analyze = interrupt
        with pytest.raises(KeyboardInterrupt):
            solver.solve([1, 2])
        assert solver.trail_lim == []
        del solver._analyze
        result = solver.solve([1, 2])
        assert (result.satisfiable, result.core) == (False, (1, 2))
        assert solver.solve([1]).satisfiable

    @pytest.mark.parametrize("seed", range(20))
    def test_mixed_stream_answers_like_a_fresh_solver(self, seed):
        clauses, stream = _one_reason_stream(seed)
        mirror = CNF(12, clauses)
        solver = IncrementalSolver(mirror)  # copies the clauses
        for step in stream:
            if step[:1] == ("add",):
                solver.add_clause(step[1])
                mirror.add_clause(step[1])
                continue
            if step == ("new_var",):
                solver.new_var()
                mirror.new_var()
                continue
            result = solver.solve(step)
            expected = IncrementalSolver(mirror).solve(step)
            assert result.satisfiable == expected.satisfiable, step
            assert result.core == expected.core, step
            if result.satisfiable:
                assert check_assignment(mirror, result.assignment)
                assert all(result.value(abs(l)) == (l > 0) for l in step)

    def test_paper_toggle_stream_propagation_gate(self):
        """The count gate: the paper feature-model toggle stream (four
        features, 48 requests) on one session. Measured 66,577
        propagations, 911 decisions and 163 conflicts since solves
        assume the creation budget. Before it: 78,919, 1,204 and 205,
        and 126,331 propagations with the same decisions and conflicts
        when every solve re-propagated its assumptions from level 0."""
        transformation = paper_transformation(k=2)
        targets = TargetSelection(["cf1", "cf2"])
        stream = toggle_stream(features=4, requests=48)
        session = EnforcementSession(transformation, targets)
        before = global_stats()
        answers = [enforce_answer(lambda: session.enforce(models)) for models in stream]
        work = global_stats() - before
        assert work.propagations <= 80_000
        references = [
            enforce_answer(
                lambda: enforce(transformation, models, targets, share=False)
            )
            for models in stream
        ]
        assert answers == references
