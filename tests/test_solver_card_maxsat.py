"""Tests for the totalizer encoding and MaxSAT search strategies.

Also the home of the on-demand totalizer count gate: a capped optimum
search on a generated scenario builds at most cap + 1 counter outputs
and at least 3x fewer totalizer clauses than the complete counter, and
a heavily weighted request builds no more outputs than its cap reads.
And of the disjoint-core gates: the core bound never exceeds the
optimum, a question with no repair in scope takes one solve, and the
paper toggle stream stays under its solve, conflict and ``at_most``
counts. And of the core-memory gates: one session answering a sequence
of base assumption sets stays exact while it frees remembered cores.
And of the relaxation-literal gates: a unit soft clause is relaxed by
its own negated literal, so a session over unit soft clauses
allocates nothing beyond its hard CNF, and repeated or complementary
soft literals and base assumptions on them keep every search exact.
"""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.enforce import EnforcementSession, TargetSelection, enforce
from repro.enforce.metrics import TupleMetric
from repro.errors import NoRepairFound, SolverError
from repro.featuremodels import configuration, feature_model, paper_transformation
from repro.gen import random_scenario
from repro.gen.oracle import run_engine
from repro.solver.bounded import Grounder, Scope
from repro.solver.card import Totalizer, at_most_one_pairwise, exactly_one
from repro.solver.cnf import CNF
from repro.solver.maxsat import (
    DECREASING,
    INCREASING,
    MaxSatResult,
    MaxSatSession,
    SoftClause,
    solve_maxsat,
    verify_soft_cost,
)
from repro.solver.sat import IncrementalSolver, global_stats, solve
from tests.strategies import toggle_stream


def fresh_cnf(n):
    cnf = CNF()
    return cnf, [cnf.new_var() for _ in range(n)]


@st.composite
def counter_asks(draw):
    """Up to 8 counter inputs (repeats and negations allowed) plus a
    sequence of ``(kind, bound, input assignment)`` asks."""
    num_vars = draw(st.integers(1, 4))
    literal = st.integers(1, num_vars).flatmap(lambda v: st.sampled_from([v, -v]))
    inputs = draw(st.lists(literal, min_size=1, max_size=8))
    n = len(inputs)
    ask = st.one_of(
        st.tuples(st.just("at_most"), st.integers(0, n + 1)),
        st.tuples(st.just("at_least"), st.integers(0, n)),
    )
    bits = st.lists(st.booleans(), min_size=num_vars, max_size=num_vars)
    asks = draw(st.lists(st.tuples(ask, bits), min_size=1, max_size=8))
    return num_vars, inputs, [(kind, k, b) for (kind, k), b in asks]


class TestTotalizer:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_outputs_are_sorted_counter(self, n):
        """For every input assignment, output i is true iff count > i."""
        cnf, lits = fresh_cnf(n)
        totalizer = Totalizer(cnf, lits)
        totalizer.at_least_assumption(n)  # outputs are built on demand
        assert len(totalizer.outputs) == n
        for bits in itertools.product((False, True), repeat=n):
            assumptions = [v if b else -v for v, b in zip(lits, bits)]
            result = solve(cnf, assumptions=assumptions)
            assert result.satisfiable
            count = sum(bits)
            for i, out in enumerate(totalizer.outputs):
                assert result.value(out) == (count >= i + 1)

    def test_at_most_assumption(self):
        cnf, lits = fresh_cnf(3)
        totalizer = Totalizer(cnf, lits)
        assumptions = totalizer.at_most_assumption(1)
        # forcing two inputs true contradicts the bound
        assert not solve(cnf, assumptions=assumptions + lits[:2]).satisfiable
        assert solve(cnf, assumptions=assumptions + lits[:1]).satisfiable

    def test_at_most_trivial_bound_is_empty(self):
        cnf, lits = fresh_cnf(2)
        totalizer = Totalizer(cnf, lits)
        assert totalizer.at_most_assumption(2) == []
        with pytest.raises(SolverError):
            totalizer.at_most_assumption(-1)

    def test_at_least(self):
        cnf, lits = fresh_cnf(3)
        totalizer = Totalizer(cnf, lits)
        totalizer.assert_at_least(2)
        result = solve(cnf, assumptions=[-lits[0], -lits[1]])
        assert not result.satisfiable

    def test_at_least_bounds_validation(self):
        cnf, lits = fresh_cnf(2)
        totalizer = Totalizer(cnf, lits)
        assert totalizer.at_least_assumption(0) == []
        with pytest.raises(SolverError):
            totalizer.at_least_assumption(3)

    def test_needs_literals(self):
        with pytest.raises(SolverError):
            Totalizer(CNF(), [])

    def test_construction_encodes_nothing(self):
        cnf, lits = fresh_cnf(6)
        totalizer = Totalizer(cnf, lits)
        assert totalizer.outputs == [] and len(cnf) == 0
        assert cnf.num_vars == 6

    @given(case=counter_asks())
    @settings(max_examples=120, deadline=None)
    def test_interleaved_asks_on_one_solver_match_the_count(self, case):
        """Asks extend the counter in place; a solver that already
        answered queries loads only the new clauses and stays exact."""
        num_vars, inputs, asks = case
        cnf = CNF(num_vars)
        totalizer = Totalizer(cnf, inputs)
        solver = IncrementalSolver(cnf)
        loaded = 0
        for kind, k, bits in asks:
            if kind == "at_most":
                assumption = totalizer.at_most_assumption(k)
            else:
                assumption = totalizer.at_least_assumption(k)
            solver.ensure_vars(cnf.num_vars)
            for clause in cnf.clauses[loaded:]:
                solver.add_clause(clause)
            loaded = len(cnf)
            count = sum(1 for lit in inputs if bits[abs(lit) - 1] == (lit > 0))
            expected = count <= k if kind == "at_most" else count >= k
            state = [v if bit else -v for v, bit in enumerate(bits, start=1)]
            result = solver.solve(assumption + state)
            assert result.satisfiable == expected
            if result.satisfiable:
                for i, out in enumerate(totalizer.outputs):
                    holds = result.value(abs(out)) == (out > 0)
                    assert holds == (count >= i + 1)


class TestSmallCardinalityHelpers:
    def test_at_most_one_pairwise(self):
        cnf, lits = fresh_cnf(3)
        at_most_one_pairwise(cnf, lits)
        assert not solve(cnf, assumptions=lits[:2]).satisfiable
        assert solve(cnf, assumptions=[lits[0]]).satisfiable

    def test_exactly_one(self):
        cnf, lits = fresh_cnf(3)
        exactly_one(cnf, lits)
        assert not solve(cnf, assumptions=[-l for l in lits]).satisfiable
        assert solve(cnf, assumptions=[lits[1]]).satisfiable

    def test_exactly_one_empty(self):
        with pytest.raises(SolverError):
            exactly_one(CNF(), [])


def hard_models(hard: CNF):
    """Every full assignment satisfying ``hard``, as ``(bits, dict)``."""
    for bits in itertools.product((False, True), repeat=hard.num_vars):
        assignment = dict(zip(range(1, hard.num_vars + 1), bits))
        if all(
            any((assignment[abs(l)] if l > 0 else not assignment[abs(l)]) for l in c)
            for c in hard.clauses
        ):
            yield bits, assignment


def brute_optimum(hard: CNF, soft) -> int | None:
    """Exhaustive optimal soft cost, None when hard is UNSAT."""
    costs = [verify_soft_cost(soft, a) for _bits, a in hard_models(hard)]
    return min(costs, default=None)


@st.composite
def maxsat_instances(draw, min_weight=1):
    num_vars = draw(st.integers(1, 5))
    hard = CNF(num_vars)
    literal = st.integers(1, num_vars).flatmap(lambda v: st.sampled_from([v, -v]))
    for _ in range(draw(st.integers(0, 5))):
        hard.add_clause(draw(st.lists(literal, min_size=1, max_size=3)))
    soft = []
    for _ in range(draw(st.integers(1, 5))):
        lits = tuple(draw(st.lists(literal, min_size=1, max_size=2)))
        soft.append(SoftClause(lits, weight=draw(st.integers(min_weight, 3))))
    return hard, soft


class TestMaxSat:
    def test_soft_clause_validation(self):
        with pytest.raises(SolverError):
            SoftClause((), 1)
        with pytest.raises(SolverError):
            SoftClause((1,), -1)

    @pytest.mark.parametrize("lit", [0, True, 1.0])
    def test_soft_literal_must_be_a_nonzero_int(self, lit):
        with pytest.raises(SolverError, match="is not a nonzero int"):
            MaxSatSession(CNF(2), [SoftClause((lit,))])

    @pytest.mark.parametrize("weight", [1.5, "2", None, True, False, -1])
    def test_soft_clause_weight_must_be_an_int(self, weight):
        with pytest.raises(SolverError, match="weight must be an int >= 0"):
            SoftClause((1,), weight)

    @pytest.mark.parametrize("max_cost", [True, False, 1.5, "1", -1])
    def test_max_cost_must_be_an_int(self, max_cost):
        session = counting_session(2)
        with pytest.raises(SolverError, match="max_cost must be >= 0"):
            session.solve_optimal(max_cost=max_cost)
        assert session.solve_optimal(max_cost=0).cost == 0

    @pytest.mark.parametrize("bound", [True, False, 1.5, "1", None])
    @pytest.mark.parametrize("soft", [False, True])
    def test_cost_bound_must_be_an_int(self, bound, soft):
        session = counting_session(2) if soft else MaxSatSession(CNF(2), [])
        with pytest.raises(SolverError, match="cost bound must be an int"):
            session.at_most(bound)

    @pytest.mark.parametrize("limit", [-1, True, False, 1.5])
    def test_enumeration_limit_must_be_an_int(self, limit):
        session = counting_session(2)
        with pytest.raises(SolverError, match="limit must be an int >= 0"):
            session.enumerate_optimal([1, 2], limit=limit)
        assert session.enumerate_optimal([1, 2], limit=0) == (0, [])

    def test_unknown_mode(self):
        with pytest.raises(SolverError):
            solve_maxsat(CNF(1), [], mode="magic")

    def test_no_soft_clauses_is_plain_sat(self):
        cnf = CNF(1)
        cnf.add_clause([1])
        result = solve_maxsat(cnf, [])
        assert result.satisfiable and result.cost == 0

    def test_hard_unsat(self):
        cnf = CNF(1)
        cnf.add_clause([1])
        cnf.add_clause([-1])
        assert not solve_maxsat(cnf, [SoftClause((1,))]).satisfiable

    def test_weighted_preference(self):
        """Two contradictory soft units: the heavier one wins."""
        cnf = CNF(1)
        soft = [SoftClause((1,), 3), SoftClause((-1,), 1)]
        for mode in (INCREASING, DECREASING):
            result = solve_maxsat(cnf, soft, mode=mode)
            assert result.cost == 1
            assert result.assignment[1] is True

    def test_max_cost_caps_search(self):
        cnf = CNF(2)
        cnf.add_clause([1])  # hard: x1
        soft = [SoftClause((-1,), 2)]  # conflicting soft of weight 2
        result = solve_maxsat(cnf, soft, max_cost=1)
        assert not result.satisfiable
        result = solve_maxsat(cnf, soft, max_cost=2)
        assert result.satisfiable and result.cost == 2

    def test_zero_weight_soft_ignored(self):
        cnf = CNF(1)
        cnf.add_clause([1])
        result = solve_maxsat(cnf, [SoftClause((-1,), 0)])
        assert result.cost == 0

    @given(instance=maxsat_instances())
    @settings(max_examples=80, deadline=None)
    def test_increasing_matches_brute_force(self, instance):
        hard, soft = instance
        expected = brute_optimum(hard, soft)
        result = solve_maxsat(hard, soft, mode=INCREASING)
        if expected is None:
            assert not result.satisfiable
        else:
            assert result.satisfiable and result.cost == expected
            assert verify_soft_cost(soft, result.assignment) <= expected

    @given(instance=maxsat_instances())
    @settings(max_examples=80, deadline=None)
    def test_both_modes_agree(self, instance):
        hard, soft = instance
        inc = solve_maxsat(hard, soft, mode=INCREASING)
        dec = solve_maxsat(hard, soft, mode=DECREASING)
        assert inc.satisfiable == dec.satisfiable
        if inc.satisfiable:
            assert inc.cost == dec.cost


def brute_optima(hard: CNF, soft, cost: int) -> set[tuple[bool, ...]]:
    """Every full assignment of the hard clauses with soft cost ``cost``."""
    return {
        bits
        for bits, assignment in hard_models(hard)
        if verify_soft_cost(soft, assignment) == cost
    }


def counting_session(n: int) -> MaxSatSession:
    """A session whose cost is the number of true variables among 1..n."""
    return MaxSatSession(CNF(n), [SoftClause((-v,)) for v in range(1, n + 1)])


class TestOnDemandSession:
    """MaxSatSession asks build counter outputs only as bounds need them."""

    @given(instance=maxsat_instances())
    @settings(max_examples=60, deadline=None)
    def test_uncapped_ask_builds_up_to_the_optimum(self, instance):
        hard, soft = instance
        expected = brute_optimum(hard, soft)
        session = MaxSatSession(hard, soft)
        result = session.solve_optimal()
        if expected is None:
            assert not result.satisfiable
            return
        assert result.satisfiable and result.cost == expected
        distance = session._distance(session._weights)
        assert len(distance.outputs) <= max(expected + 1, 1)

    @given(instance=maxsat_instances())
    @settings(max_examples=60, deadline=None)
    def test_rising_caps_on_one_session(self, instance):
        hard, soft = instance
        expected = brute_optimum(hard, soft)
        session = MaxSatSession(hard, soft)
        for cap in (0, 1, 3, None):
            result = session.solve_optimal(max_cost=cap)
            if expected is None or (cap is not None and expected > cap):
                assert not result.satisfiable
            else:
                assert result.satisfiable and result.cost == expected
                assert verify_soft_cost(soft, result.assignment) == expected

    @given(instance=maxsat_instances())
    @settings(max_examples=60, deadline=None)
    def test_decreasing_mode_fresh_and_after_an_extension(self, instance):
        hard, soft = instance
        expected = brute_optimum(hard, soft)
        session = MaxSatSession(hard, soft)
        fresh = session.solve_optimal(mode=DECREASING)
        session.solve_optimal(max_cost=1)
        warm = session.solve_optimal(mode=DECREASING)
        for result in (fresh, warm):
            if expected is None:
                assert not result.satisfiable
            else:
                assert result.satisfiable and result.cost == expected

    @given(instance=maxsat_instances())
    @settings(max_examples=40, deadline=None)
    def test_enumerate_optimal_after_an_extension(self, instance):
        hard, soft = instance
        expected = brute_optimum(hard, soft)
        if expected is None:
            return
        session = MaxSatSession(hard, soft)
        session.solve_optimal(max_cost=0)
        session.at_most(2)
        project = list(range(1, hard.num_vars + 1))
        cost, solutions = session.enumerate_optimal(project)
        assert cost == expected
        found = {tuple(s[v] for v in project) for s in solutions}
        assert len(found) == len(solutions)
        assert found == brute_optima(hard, soft, expected)

    def test_cap_above_the_current_output_count(self):
        session = counting_session(5)
        session.at_most(0)
        assert len(session._distance(session._weights).outputs) == 1
        cap = session.at_most(2)
        assert len(session._distance(session._weights).outputs) == 3
        assert not session.solve(cap + [1, 2, 3]).satisfiable
        assert session.solve(cap + [1, 2, -3]).satisfiable
        assert not session.solve(session.at_most(0) + [4]).satisfiable

    def test_cap_at_or_above_total_weight_builds_nothing(self):
        session = counting_session(4)
        clauses, variables = len(session._working), session._working.num_vars
        assert session.at_most(session.total_weight) == []
        assert session.at_most(session.total_weight + 3) == []
        assert session._counters == {}
        assert len(session._working) == clauses
        assert session._working.num_vars == variables

    @pytest.mark.parametrize("soft", [[], [SoftClause((1,))]])
    def test_negative_cap_is_rejected(self, soft):
        session = MaxSatSession(CNF(1), soft)
        with pytest.raises(SolverError):
            session.at_most(-1)


def ground_scenario(scenario):
    checker = scenario.checker()
    transformation = scenario.transformation
    directions = [
        (relation, dependency)
        for relation in transformation.top_relations()
        for dependency in checker.directions_of(relation)
    ]
    return Grounder(
        transformation,
        scenario.models,
        frozenset(scenario.targets.params),
        directions,
        scope=scenario.scope,
        weights=dict(scenario.metric.weights),
    ).ground()


class TestOnDemandTotalizerGate:
    """Count gates (not wall-clock) for the on-demand totalizer."""

    def test_capped_solve_builds_a_fraction_of_the_counter(self):
        scenario = random_scenario(2)  # a two-target repair at distance 2
        cap = scenario.max_distance
        session = ground_scenario(scenario).session()
        built = len(session._working)
        result = session.solve_optimal(max_cost=cap)
        assert result.satisfiable and result.cost == 2
        totalizer = session._distance(session._weights)
        assert len(totalizer.outputs) <= cap + 1
        on_demand = len(session._working) - built
        totalizer.at_least_assumption(session.total_weight)
        complete = len(session._working) - built
        assert complete >= 3 * on_demand

    @pytest.mark.parametrize("heavy", ["m1", "m2"])
    def test_heavy_weight_builds_only_what_the_cap_reads(self, heavy, monkeypatch):
        """Weight 25 replicates each relaxation literal 25 times; a cap
        of 2 must still read (and build) at most 3 outputs."""
        base = random_scenario(2)
        weights = dict(base.metric.weights, **{heavy: 25})
        scenario = dataclasses.replace(
            base, metric=TupleMetric(weights), max_distance=2
        )
        sessions = []
        construct = MaxSatSession.__init__

        def recording(self, *args, **kwargs):
            construct(self, *args, **kwargs)
            sessions.append(self)

        monkeypatch.setattr(MaxSatSession, "__init__", recording)
        brute = run_engine("brute", scenario)
        sat = run_engine("sat-unshared", scenario)
        assert (sat.outcome, sat.distance) == (brute.outcome, brute.distance)
        assert sessions and all(s.total_weight > 25 for s in sessions)
        assert all(len(s._distance(s._weights).outputs) <= 3 for s in sessions)

    def test_decreasing_stream_shares_one_distance_totalizer(self):
        """In ``decreasing`` mode every state asks distance bounds over
        its own objective. The totalizer reads steered inputs, so the 60
        states of a toggle stream (their budgets differ) share one, and
        the MaxSAT database stops growing at its first state's size
        (measured 9,154 clauses; one totalizer per state grew it to
        91,537). Each distance is the per-call one."""
        transformation = paper_transformation(k=2)
        targets = TargetSelection(["cf1", "cf2"])
        session = EnforcementSession(transformation, targets, mode=DECREASING)
        stream = toggle_stream(features=6, requests=60)
        references = [
            enforce(transformation, models, targets, mode=DECREASING, share=False)
            for models in stream
        ]
        totalizers = Totalizer.built
        sizes = []
        for models, reference in zip(stream, references):
            assert session.enforce(models).distance == reference.distance
            sizes.append(len(session._active.maxsat._working))
        assert session.groundings == 1
        assert Totalizer.built - totalizers == 1
        assert max(sizes) == sizes[0]


class TestDisjointCores:
    """The core phase of the increasing search (``_disjoint_cores``)."""

    @given(instance=maxsat_instances(min_weight=0), cap=st.integers(0, 16))
    @settings(max_examples=150, deadline=None)
    def test_core_bound_never_exceeds_the_optimum(self, instance, cap):
        hard, soft = instance
        expected = brute_optimum(hard, soft)
        session = MaxSatSession(hard, soft)
        lower, result = session._disjoint_cores(session.total_weight, [], session._weights)
        if expected is None:
            assert result is None
            assert not session.solve_optimal().satisfiable
            return
        assert lower <= expected
        assert result.satisfiable
        assert verify_soft_cost(soft, result.assignment) >= expected
        optimum = session.solve_optimal()
        assert optimum.satisfiable and optimum.cost == expected
        assert verify_soft_cost(soft, optimum.assignment) == expected
        capped = session.solve_optimal(max_cost=cap)
        assert capped.satisfiable == (expected <= cap)
        if capped.satisfiable:
            assert capped.cost == expected

    def test_a_core_adds_its_least_weight(self):
        """x1 and x2 are mutually exclusive, and the soft clauses want
        both: the one core costs its lighter member."""
        hard = CNF(2)
        hard.add_clause([-1, -2])
        soft = [SoftClause((1,), 3), SoftClause((2,), 2)]
        session = MaxSatSession(hard, soft)
        lower, result = session._disjoint_cores(session.total_weight, [], session._weights)
        assert lower == 2 and verify_soft_cost(soft, result.assignment) == 2
        assert session.solve_optimal().cost == 2

    def test_no_repair_in_scope_answers_after_one_solve(self):
        """An uncapped question with no repair in scope: ``fm`` makes
        ``log`` mandatory, and ``cf2`` has no fresh slot for it. The
        linear sweep refuted each of the 13 bounds 0..12 (13 solves);
        the core phase finds the hard clauses UNSAT in its first solve."""
        transformation = paper_transformation(k=2)
        models = {
            "fm": feature_model({"core": True, "log": True}),
            "cf1": configuration(["core", "log"], name="cf1"),
            "cf2": configuration(["core"], name="cf2"),
        }
        for share in (False, True):
            before = global_stats()
            with pytest.raises(NoRepairFound):
                enforce(
                    transformation,
                    models,
                    TargetSelection(["cf1", "cf2"]),
                    scope=Scope(extra_objects=0),
                    share=share,
                )
            assert (global_stats() - before).solves == 1

    def test_paper_toggle_stream_count_gate(self, monkeypatch):
        """The paper feature-model toggle stream (four features, 48
        requests) on one session. Measured 51 solves, 11 conflicts, no
        ``at_most`` call and 12 core counters since each state's own atom
        literals are its objective (no origin variables) and the solver
        keeps its assumption order stable; 51 solves, 15 conflicts and
        12 counters since the session answers a repeated state from
        memory (23 of the 48) and frees the cores earlier searches found
        without a solve: the reused cores change the disjoint set the
        OLL completion starts from, so it relaxes other cores. 156
        solves, 19 conflicts and 8 counters since the
        core-guided completion; 157, 42 and 8 with the ``at_most`` sweep
        after the core phase; 191, 163 and 147 with the linear sweep
        alone and the oracle pre-check."""
        asks = []
        at_most = MaxSatSession._at_most

        def counting(self, bound, *args):
            asks.append(bound)
            return at_most(self, bound, *args)

        monkeypatch.setattr(MaxSatSession, "_at_most", counting)
        session = EnforcementSession(
            paper_transformation(k=2), TargetSelection(["cf1", "cf2"])
        )
        before = global_stats()
        totalizers = Totalizer.built
        counters = MaxSatSession.counters_built
        for models in toggle_stream(features=4, requests=48):
            session.enforce(models)
        work = global_stats() - before
        assert work.solves <= 55
        assert work.conflicts <= 20
        assert asks == []
        # The core counters, each core's built once across the 48
        # searches, and no distance totalizer.
        assert MaxSatSession.counters_built - counters == 12
        assert Totalizer.built - totalizers == 12


@st.composite
def hostile_soft_sets(draw, min_weight=1):
    """A random hard CNF, unit soft clauses over a few literals (so they
    repeat, complemented too), some longer soft clauses, weights
    ``min_weight``-3, and base assumptions drawn from the unit soft
    literals and their negations."""
    num_vars = draw(st.integers(1, 5))
    hard = CNF(num_vars)
    literal = st.integers(1, num_vars).flatmap(lambda v: st.sampled_from([v, -v]))
    for _ in range(draw(st.integers(0, 4))):
        hard.add_clause(draw(st.lists(literal, min_size=1, max_size=3)))
    pool = draw(st.lists(literal, min_size=1, max_size=3))
    signed = st.sampled_from(pool).flatmap(lambda l: st.sampled_from([l, -l]))
    weight = st.integers(min_weight, 3)
    soft = [
        SoftClause((lit,), draw(weight))
        for lit in draw(st.lists(signed, min_size=1, max_size=6))
    ]
    for _ in range(draw(st.integers(0, 2))):
        longer = SoftClause(
            tuple(draw(st.lists(literal, min_size=2, max_size=3))), draw(weight)
        )
        soft.insert(draw(st.integers(0, len(soft))), longer)
    base = draw(st.lists(signed, max_size=3))
    return hard, soft, base


class TestRelaxationLiterals:
    """A unit soft clause ``(l)`` is relaxed by ``-l`` itself."""

    @given(instance=hostile_soft_sets())
    @settings(max_examples=200, deadline=None)
    def test_hostile_soft_sets_keep_every_search_exact(self, instance):
        hard, soft, base = instance
        pinned = hard.copy()
        for lit in base:
            pinned.add_clause([lit])
        expected = brute_optimum(pinned, soft)
        session = MaxSatSession(hard, soft)
        lower, first = session._disjoint_cores(session.total_weight, base, session._weights)
        if expected is None:
            assert first is None
        else:
            assert lower <= expected <= verify_soft_cost(soft, first.assignment)
        for mode in (INCREASING, DECREASING):
            result = session.solve_optimal(mode, assumptions=base)
            assert result.satisfiable == (expected is not None)
            if result.satisfiable:
                assert result.cost == expected
                assert verify_soft_cost(soft, result.assignment) == expected
                assert all(result.assignment[abs(l)] == (l > 0) for l in base)
        project = list(range(1, hard.num_vars + 1))
        if expected is None:
            with pytest.raises(SolverError):
                session.enumerate_optimal(project, assumptions=base, retract=True)
            return
        cost, solutions = session.enumerate_optimal(
            project, assumptions=base, retract=True
        )
        assert cost == expected
        found = {tuple(s[v] for v in project) for s in solutions}
        assert found == brute_optima(pinned, soft, expected)

    def test_unit_soft_clauses_allocate_nothing_before_a_bound(self):
        """n unit soft clauses (a repeated and a complementary one among
        them) add no variable and no clause to the hard CNF until the
        first ``at_most``; one relaxation variable per soft clause
        would add n of each. The optimum search asks no bound: its two
        disjoint cores, ``x1 | x2`` and ``x3 | -x3``, each get a core
        counter of two outputs, and no distance totalizer is built."""
        hard = CNF(4)
        hard.add_clause([1, 2])
        soft = [SoftClause((-v,)) for v in (1, 2, 3, 4)]
        soft += [SoftClause((-2,), 2), SoftClause((3,), 3)]
        session = MaxSatSession(hard, soft)
        assert (session._working.num_vars, len(session._working)) == (4, 1)
        assert session.solver.num_vars == 4
        assert session.total_weight == 9
        result = session.solve_optimal()
        assert result.cost == verify_soft_cost(soft, result.assignment) == 2
        assert sorted(session._counters) == [(-3, 3), (1, 2)]
        assert [c.outputs for c in session._counters.values()] == [[5, 6], [7, 8]]
        assert (session._working.num_vars, len(session._working)) == (8, 13)

    def test_a_longer_soft_clause_keeps_one_fresh_variable(self):
        session = MaxSatSession(CNF(2), [SoftClause((1, 2)), SoftClause((-1,))])
        assert session._working.clauses == [(1, 2, 3)]
        assert session.solve_optimal(assumptions=[-2]).cost == 1


@st.composite
def base_streams(draw):
    """A :func:`hostile_soft_sets` instance and a sequence of base
    assumption sets (with a cap each) for one session to answer."""
    hard, soft, base = draw(hostile_soft_sets(min_weight=0))
    literal = st.integers(1, hard.num_vars).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    asks = [(base, None)] + draw(
        st.lists(
            st.tuples(
                st.lists(literal, max_size=3),
                st.one_of(st.none(), st.integers(0, 8)),
            ),
            min_size=1,
            max_size=6,
        )
    )
    return hard, soft, asks


def pinned_optimum(hard, soft, base):
    """The brute-force optimum with every ``base`` literal a unit clause."""
    pinned = hard.copy()
    for lit in base:
        pinned.add_clause([lit])
    return brute_optimum(pinned, soft)


class TestCoreMemo:
    """A session frees the cores earlier searches found, without a
    solve, wherever every literal of theirs is still assumed."""

    def _check(self, session, soft, base, cap, expected):
        result = session.solve_optimal(max_cost=cap, assumptions=base)
        within = expected is not None and (cap is None or expected <= cap)
        assert result.satisfiable == within
        if within:
            assert result.cost == verify_soft_cost(soft, result.assignment)
            assert result.cost == expected
            assert all(result.assignment[abs(l)] == (l > 0) for l in base)

    @given(stream=base_streams())
    @settings(max_examples=200, deadline=None)
    def test_one_session_answers_every_base_exactly(self, stream):
        hard, soft, asks = stream
        session = MaxSatSession(hard, soft)
        for base, cap in asks:
            expected = pinned_optimum(hard, soft, base)
            self._check(session, soft, base, cap, expected)

    def test_seeded_sweep_reuses_cores_exactly(self):
        """30 seeded instances over 6-8 variables, each asked under 8
        random base assumption sets on one session: every answer is the
        brute-force optimum, and remembered cores are freed without a
        solve."""
        reused = MaxSatSession.cores_reused
        for seed in range(30):
            rng = random.Random(seed)
            num_vars = rng.randint(6, 8)
            hard = CNF(num_vars)
            for _ in range(rng.randint(3, 10)):
                chosen = rng.sample(range(1, num_vars + 1), rng.randint(2, 4))
                hard.add_clause([v if rng.random() < 0.8 else -v for v in chosen])
            soft = [
                SoftClause((-v,), rng.randint(1, 3)) for v in range(1, num_vars + 1)
            ]
            session = MaxSatSession(hard, soft)
            for _ in range(8):
                base = [
                    v if rng.random() < 0.5 else -v
                    for v in rng.sample(range(1, num_vars + 1), rng.randint(0, 3))
                ]
                cap = rng.choice([None, rng.randint(0, 6)])
                expected = pinned_optimum(hard, soft, base)
                self._check(session, soft, base, cap, expected)
        assert MaxSatSession.cores_reused - reused >= 1

    def test_a_remembered_core_refutes_without_a_solve(self):
        """x1 and x2 exclude each other and both are wanted: the second
        capped-at-0 search is refuted by the remembered core alone."""
        hard = CNF(2)
        hard.add_clause([-1, -2])
        session = MaxSatSession(hard, [SoftClause((1,)), SoftClause((2,))])
        assert not session.solve_optimal(max_cost=0).satisfiable
        solves = global_stats().solves
        reused = MaxSatSession.cores_reused
        assert not session.solve_optimal(max_cost=0).satisfiable
        assert global_stats().solves == solves
        assert MaxSatSession.cores_reused - reused == 1
        assert session.solve_optimal().cost == 1

    def test_a_core_over_an_unassumed_base_literal_is_not_freed(self):
        """Under base x3 the hard clause (-x3 | -x1 | -x2) makes x1 and
        x2 exclusive; without it both hold at cost 0."""
        hard = CNF(3)
        hard.add_clause([-3, -1, -2])
        session = MaxSatSession(hard, [SoftClause((1,)), SoftClause((2,))])
        assert session.solve_optimal(assumptions=[3]).cost == 1
        reused = MaxSatSession.cores_reused
        assert session.solve_optimal(assumptions=[]).cost == 0
        assert MaxSatSession.cores_reused == reused
        assert session.solve_optimal(assumptions=[3]).cost == 1
        assert MaxSatSession.cores_reused - reused == 1

    def test_the_memory_is_bounded(self, monkeypatch):
        monkeypatch.setattr(MaxSatSession, "CORE_LIMIT", 2)
        hard = CNF(6)
        for v in (1, 3, 5):
            hard.add_clause([-v, -(v + 1)])
        session = MaxSatSession(hard, [SoftClause((v,)) for v in range(1, 7)])
        assert session.solve_optimal().cost == 3
        assert len(session._cores) == 2


class BoundRecorder(MaxSatSession):
    """A session recording the lower bounds its increasing search
    reaches: the disjoint-core phase's, then every one of the OLL
    completion's (``oll``, empty when the completion did not run)."""

    disjoint = 0
    oll = ()

    def _disjoint_cores(self, *args):
        self.oll = []
        lower, result = super()._disjoint_cores(*args)
        self.disjoint = lower
        return lower, result

    def _oll(self, *args):
        self.running = 0
        return super()._oll(*args)

    def _relax(self, core, weights, outputs):
        least = super()._relax(core, weights, outputs)
        self.running += least
        self.oll.append(self.running)
        return least


class TestCoreGuidedCompletion:
    """The OLL completion of the increasing search (``_oll``): core
    counters instead of a sweep over distance bounds."""

    @given(instance=hostile_soft_sets(min_weight=0), cap=st.integers(0, 12))
    @settings(max_examples=200, deadline=None)
    def test_lower_bounds_never_exceed_the_optimum(self, instance, cap):
        """Weights 0-3, hostile base assumptions and a random cap: every
        lower bound either phase reaches is at most the optimum, and a
        completed search returns the optimum, at its last lower bound."""
        hard, soft, base = instance
        pinned = hard.copy()
        for lit in base:
            pinned.add_clause([lit])
        expected = brute_optimum(pinned, soft)
        session = BoundRecorder(hard, soft)
        result = session.solve_optimal(max_cost=cap, assumptions=base)
        if expected is None:
            assert not result.satisfiable
            return
        assert max([session.disjoint, *session.oll]) <= expected
        assert result.satisfiable == (expected <= cap)
        if result.satisfiable:
            assert result.cost == verify_soft_cost(soft, result.assignment) == expected
            assert all(result.assignment[abs(l)] == (l > 0) for l in base)
            if session.oll:
                assert session.oll[-1] == expected

    def test_seeded_sweep_extends_counters_exactly(self):
        """40 seeded instances over 6-8 variables: hard clauses of 2-4
        mostly positive literals against unit soft clauses (weights 1-3)
        that want every variable false. Each search's bounds stay at
        most the brute-force optimum and it returns that optimum; and
        some instances put a counter output in a core, so ``_relax``
        extends that counter past the two outputs its first bound reads
        (the properties above, at most 5 variables, rarely if ever do)."""
        extended = 0
        for seed in range(40):
            rng = random.Random(seed)
            num_vars = rng.randint(6, 8)
            hard = CNF(num_vars)
            for _ in range(rng.randint(3, 10)):
                chosen = rng.sample(range(1, num_vars + 1), rng.randint(2, 4))
                hard.add_clause([v if rng.random() < 0.8 else -v for v in chosen])
            soft = [
                SoftClause((-v,), rng.randint(1, 3)) for v in range(1, num_vars + 1)
            ]
            expected = brute_optimum(hard, soft)
            session = BoundRecorder(hard, soft)
            result = session.solve_optimal()
            assert result.satisfiable == (expected is not None)
            if expected is None:
                continue
            assert result.cost == verify_soft_cost(soft, result.assignment) == expected
            assert max([session.disjoint, *session.oll]) <= expected
            if session.oll:
                assert session.oll[-1] == expected
            extended += any(len(c.outputs) > 2 for c in session._counters.values())
        assert extended >= 1

    def test_a_core_over_a_counter_output_extends_the_counter(self):
        """At least two of x1..x4 hold. The disjoint phase finds the core
        x1 | x2 | x3 (bound 1); its model costs more. The completion's
        counter over that core says "more than 1 of them", and its first
        core is that output with x4 (bound 2): the counter is extended to
        "more than 2", and the core gets a counter of its own."""
        hard = CNF(4)
        for triple in itertools.combinations(range(1, 5), 3):
            hard.add_clause(list(triple))
        soft = [SoftClause((-v,)) for v in range(1, 5)]
        session = BoundRecorder(hard, soft)
        result = session.solve_optimal()
        assert result.cost == verify_soft_cost(soft, result.assignment) == 2
        assert (session.disjoint, session.oll) == (1, [1, 2])
        first = session._counters[(1, 2, 3)]
        assert len(first.outputs) == 3
        second = session._counters[(4, first.outputs[1])]
        assert len(second.outputs) == 2
        assert len(session._counters) == 2
