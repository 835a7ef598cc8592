"""Hot-loop overhaul lockdown: VSIDS heap, Luby restarts, learnt GC.

Three layers of guarantees on the CDCL core:

* **Equivalence under pressure** — with a restart forced into every
  query and learnt-clause reduction forced at every opportunity (via
  the hooks ``force_restart`` / ``force_gc``), the solver's verdicts,
  model validity and core soundness still match the truth-table oracle
  on random incremental workloads, and match the plain GC-off solver
  verdict for verdict.
* **Deterministic tie-breaking** — the heap picks the unassigned
  variable of maximal activity, equal-activity ties broken towards the
  lowest variable index, so whole runs are reproducible.
* **GC safety** — locked reason clauses and glue clauses survive every
  reduction; the clause database stays internally consistent
  (reasons/watches reference live clauses) after solves that reduced.

Stress is applied through the hooks only — ``force_restart()``
(one-shot: the next restart fires after one conflict) and
``force_gc()`` (reduction at every chance) — so the tests do not reach
into scheduler internals. The few genuinely *structural* checks that
must read the clause database go through the helpers
``_check_database`` / ``_mark_all_weak`` / ``_locked_reasons`` below.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.engine import Checker
from repro.errors import SolverError
from repro.featuremodels import configuration, feature_model, paper_transformation
from repro.solver.bounded import Grounder, Scope
from repro.solver.brute import brute_solve, check_assignment
from repro.solver.cnf import CNF
from repro.solver.maxsat import MaxSatSession
from repro.solver.sat import IncrementalSolver, luby


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
    ops.append(("solve", draw(st.lists(literal, max_size=2))))
    return num_vars, ops


def _random_cnf(num_vars: int, num_clauses: int, seed: int) -> CNF:
    import random

    rng = random.Random(seed)
    cnf = CNF(num_vars)
    for _ in range(num_clauses):
        size = min(3, num_vars)
        chosen = rng.sample(range(1, num_vars + 1), size)
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in chosen])
    return cnf


def _stressed(cnf: CNF) -> IncrementalSolver:
    """A solver with GC forced constantly, via the hook."""
    solver = IncrementalSolver(cnf)
    solver.force_gc()  # reduce the learnt database at every chance
    return solver


def _oracle_verdict(mirror: CNF, assumptions) -> bool:
    query = mirror.copy()
    for lit in assumptions:
        query.add_clause([lit])
    return brute_solve(query).satisfiable


def _check_solve(mirror: CNF, result, assumptions) -> None:
    expected = _oracle_verdict(mirror, assumptions)
    assert result.satisfiable == expected
    if result.satisfiable:
        assert check_assignment(mirror, result.assignment)
        for lit in assumptions:
            assert result.assignment[abs(lit)] == (lit > 0)
    else:
        assert result.core is not None
        assert set(result.core) <= set(assumptions)
        assert not _oracle_verdict(mirror, result.core)


# ----------------------------------------------------------------------
# Structural helpers (the only representation-aware code).
# ----------------------------------------------------------------------
def _check_database(solver: IncrementalSolver) -> None:
    """Internal invariants that a buggy GC sweep would break."""
    arena, crefs = solver.arena, solver.cref_list
    live = set(crefs)
    assert solver.num_learnts == sum(1 for c in crefs if arena[c - 2] > 0)
    watch_entries = 0
    for watch_list in solver.watches:
        for cref in watch_list:
            assert cref in live
        watch_entries += len(watch_list)
    # every arena clause is watched on exactly its two watch slots
    assert watch_entries == 2 * len(crefs)
    for code in solver.trail:
        cref = solver.reasons[code >> 1]
        if cref:
            size = arena[cref - 1]
            assert (
                code in arena[cref : cref + size]
            ), "reason clause lost its literal"


def _mark_all_weak(solver: IncrementalSolver) -> None:
    """Relabel every clause as a weak learnt the GC would love to drop."""
    for cref in solver.cref_list:
        solver.arena[cref - 2] = 9
        solver.clause_act[cref] = 0.0
    solver.num_learnts = len(solver.cref_list)


def _locked_reasons(solver: IncrementalSolver) -> set:
    """The reason clauses of the live trail, as comparable literal sets."""
    locked = set()
    for code in solver.trail:
        cref = solver.reasons[code >> 1]
        if cref:
            size = solver.arena[cref - 1]
            locked.add(frozenset(solver.arena[cref : cref + size]))
    return locked


class TestEquivalenceUnderPressure:
    @given(script=solver_scripts())
    @settings(max_examples=100, deadline=None)
    def test_stressed_solver_matches_oracle(self, script):
        num_vars, ops = script
        mirror = CNF(num_vars)
        solver = _stressed(CNF(num_vars))
        for op, payload in ops:
            if op == "add":
                mirror.add_clause(payload)
                solver.add_clause(payload)
            else:
                solver.force_restart()  # next restart after one conflict
                _check_solve(mirror, solver.solve(payload), payload)
                _check_database(solver)

    @given(script=solver_scripts())
    @settings(max_examples=75, deadline=None)
    def test_stressed_solver_matches_plain_solver(self, script):
        """GC + forced restarts vs the plain GC-off arm: same verdicts."""
        num_vars, ops = script
        stressed = _stressed(CNF(num_vars))
        plain = IncrementalSolver(CNF(num_vars), gc=False)
        for op, payload in ops:
            if op == "add":
                stressed.add_clause(payload)
                plain.add_clause(payload)
            else:
                stressed.force_restart()
                assert (
                    stressed.solve(payload).satisfiable
                    == plain.solve(payload).satisfiable
                )

    def test_gc_actually_drops_and_verdicts_agree(self):
        cnf = _random_cnf(60, 255, seed=11)
        gc_on = IncrementalSolver(cnf)
        gc_on.force_gc()
        gc_off = IncrementalSolver(cnf, gc=False)
        verdict_on = gc_on.solve().satisfiable
        verdict_off = gc_off.solve().satisfiable
        assert verdict_on == verdict_off
        assert gc_on.stats.reductions > 0
        assert gc_on.stats.learnts_dropped > 0
        _check_database(gc_on)

    def test_gc_keeps_the_optimum_of_a_reprobed_enforcement_session(self):
        """The paper's k=2 repair question at ``extra_objects=3``: the
        optimum plus three re-probes at ``at_most(optimum)`` (the
        streaming pattern of ``enumerate_optimal``) under constant
        restarts and reductions equals the ``gc=False`` optimum."""
        transformation = paper_transformation(2)
        models = {
            "fm": feature_model({"core": True, "secure": True, "log": False}),
            "cf1": configuration([], name="cf1"),
            "cf2": configuration([], name="cf2"),
        }
        checker = Checker(transformation)
        # Smaller scopes learn only glue clauses, which no reduction
        # drops, so the gc arm would pass without ever reducing.
        grounding = Grounder(
            transformation,
            models,
            frozenset({"cf1", "cf2"}),
            [
                (relation, dependency)
                for relation in transformation.top_relations()
                for dependency in checker.directions_of(relation)
            ],
            scope=Scope(extra_objects=3),
        ).ground()
        costs = {}
        for gc in (False, True):
            session = MaxSatSession(grounding.cnf, list(grounding.soft))
            session.solver.gc = gc
            if gc:
                session.solver.LUBY_UNIT = 1  # restart after every conflict
                session.solver.force_gc()
            optimum = session.solve_optimal()
            for _ in range(3):
                assert session.solve(session.at_most(optimum.cost)).satisfiable
            costs[gc] = optimum.cost
        assert costs[True] == costs[False]
        assert session.solver.stats.reductions > 0

    def test_forced_restart_fires_once_then_schedule_resumes(self):
        cnf = _random_cnf(40, 170, seed=3)
        solver = IncrementalSolver(cnf)
        solver.force_restart()
        forced = solver.solve()
        assert solver.stats.restarts > 0
        assert forced.satisfiable == IncrementalSolver(cnf).solve().satisfiable


class TestTieBreaking:
    @given(
        activities=st.lists(
            st.sampled_from([0.0, 1.0, 2.0]), min_size=1, max_size=8
        ),
        assigned=st.lists(st.booleans(), min_size=1, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_heap_picks_lowest_index_of_maximal_activity(
        self, activities, assigned
    ):
        """Equal-activity ties break towards the lowest variable index.

        White-box on the core's ``activity`` column; the "taken"
        variables are unit clauses, so they are assigned at level 0
        before the search loop pops its first decision off the heap.
        The expected pick is a linear scan computed here.
        """
        n = len(activities)
        solver = IncrementalSolver(CNF(n))
        taken = {var for var, a in enumerate(assigned[:n], start=1) if a}
        for var in taken:
            solver.add_clause([var])
        for var, activity in enumerate(activities, start=1):
            solver.activity[var] = activity
        solver._rebuild_heap()
        expected = None
        best = -1.0
        for var in range(1, n + 1):
            if var not in taken and activities[var - 1] > best:
                expected, best = var, activities[var - 1]
        assert solver.solve().satisfiable
        if expected is None:
            assert solver.trail_lim == []
        else:
            assert solver.trail[solver.trail_lim[0]] >> 1 == expected

    def test_runs_are_deterministic(self):
        cnf = _random_cnf(50, 210, seed=5)
        runs = []
        for _ in range(2):
            solver = IncrementalSolver(cnf)
            result = solver.solve()
            runs.append(
                (result.satisfiable, result.assignment, solver.stats.snapshot())
            )
        assert runs[0] == runs[1]


class TestMidSearchGc:
    """Assumption-aware mid-search reduction (the PR-3 open follow-up).

    The learnt database is now reduced the moment it overflows — at any
    decision level, under assumptions — instead of waiting for a restart
    boundary. Metamorphic property on a generated workload: forcing
    constant mid-search reductions (``force_gc``) changes no verdict, no
    model validity, no core soundness.
    """

    def _generated_workload(self, seed):
        from repro.gen.workloads import random_assumptions, random_hard_cnf
        from repro.util.seeding import rng_from_seed

        rng = rng_from_seed(seed)
        cnf = random_hard_cnf(rng, num_vars=30)
        queries = [
            random_assumptions(rng, cnf.num_vars, max_size=4)
            for _ in range(4)
        ]
        return cnf, queries

    def test_forced_midsearch_reductions_change_no_verdicts(self):
        fired = 0
        for seed in range(10):
            cnf, queries = self._generated_workload(seed)
            stressed = IncrementalSolver(cnf)
            stressed.force_gc()
            plain = IncrementalSolver(cnf, gc=False)
            mirror = cnf.copy()
            for assumptions in queries:
                result = stressed.solve(assumptions)
                assert (
                    result.satisfiable
                    == plain.solve(assumptions).satisfiable
                )
                if result.satisfiable:
                    assert check_assignment(mirror, result.assignment)
                    for lit in assumptions:
                        assert result.assignment[abs(lit)] == (lit > 0)
                else:
                    assert result.core is not None
                    assert set(result.core) <= set(assumptions)
                _check_database(stressed)
            fired += stressed.stats.midsearch_reductions
        assert fired > 0, "the stress settings must actually reduce mid-search"

    def test_midsearch_reduction_keeps_nonroot_locked_reasons(self):
        """Reduce at a non-root decision level directly: every reason
        clause of the live trail — including assumption-implied
        assignments above level 0 — survives."""
        cnf = CNF(6)
        cnf.add_clause([-1, 2])   # 1 assumed -> 2 implied (level 1 reason)
        cnf.add_clause([-2, 3])
        cnf.add_clause([3, 4])    # filler the GC may drop
        cnf.add_clause([4, 5])
        cnf.add_clause([-4, 5, 6])
        solver = IncrementalSolver(cnf)
        # A SAT answer leaves the trail at its final (non-root) levels,
        # with clause [-1, 2] locked as the reason of the assumption-
        # implied literal 2.
        assert solver.solve([1]).satisfiable
        assert len(solver.trail_lim) > 0
        _mark_all_weak(solver)
        locked_before = _locked_reasons(solver)
        assert locked_before, "scenario must lock a non-root reason"
        solver._reduce_learnts()
        assert solver.stats.midsearch_reductions == 1
        assert _locked_reasons(solver) == locked_before
        _check_database(solver)
        solver._backtrack(0)
        assert solver.solve([1]).satisfiable


class TestGcSafety:
    def test_locked_reason_clauses_survive_reduction(self):
        """A mid-solve reduction never deletes a clause that is the
        reason of a current (root) assignment."""
        cnf = CNF(5)
        cnf.add_clause([1])  # unit: root fact
        cnf.add_clause([-1, 2])  # root propagation with a reason clause
        cnf.add_clause([-2, 3])
        # Disposable filler the GC is free to drop.
        cnf.add_clause([3, 4])
        cnf.add_clause([2, 5])
        cnf.add_clause([4, 5])
        cnf.add_clause([-4, 3, 5])
        solver = IncrementalSolver(cnf)
        assert solver.solve().satisfiable
        # Mark every clause as a weak learnt so the GC would love to drop
        # them; only the locked ones (reasons of the root trail) may not
        # go.
        solver._backtrack(0)
        _mark_all_weak(solver)
        locked_before = _locked_reasons(solver)
        assert locked_before, "scenario must pin at least one reason clause"
        solver._reduce_learnts()
        assert _locked_reasons(solver) == locked_before
        assert solver.stats.learnts_dropped >= 1
        _check_database(solver)
        assert solver.solve().satisfiable  # still answers correctly

    def test_glue_clauses_survive_reduction(self):
        cnf = _random_cnf(60, 255, seed=11)
        solver = IncrementalSolver(cnf)
        solver.force_gc()
        solver.solve()
        assert solver.stats.reductions > 0
        _check_database(solver)

    def test_input_validation(self):
        solver = IncrementalSolver(CNF(1))
        with pytest.raises(SolverError):
            solver.solve([0])
        with pytest.raises(SolverError):
            solver.add_clause([2])
        with pytest.raises(SolverError):
            luby(0)

    def test_per_solve_stats_attached(self):
        cnf = _random_cnf(20, 60, seed=2)
        solver = IncrementalSolver(cnf)
        result = solver.solve()
        assert result.stats is not None
        assert result.stats.solves == 1
        assert result.stats.propagations > 0
        # the per-call delta never participates in equality
        other = solver.solve()
        assert (result.satisfiable, result.assignment) == (
            other.satisfiable,
            other.assignment,
        )
