"""Equivalence tests for the incremental enforcement rebuild.

The enforcement stack now runs on a persistent incremental SAT core:
the SAT engine sweeps distance bounds as assumptions on one solver, the
search and guided engines screen candidates through the assumption-based
:class:`~repro.enforce.satengine.ConsistencyOracle`, and repair
enumeration reuses one solver across blocking clauses. None of that may
change *what* is computed:

* search/guided with the oracle on and off must return **identical
  repairs** (models, distances, exploration counters) — the oracle is a
  pure goal-test accelerator;
* the SAT engine must find the same optima and the same enumerated
  repair sets as a one-shot reference built here from the public
  :func:`~repro.solver.sat.solve` helper (a fresh solver per bound
  probe, the seed behaviour);
* reported distances must equal what :mod:`repro.enforce.metrics`
  measures on the returned tuples;
* one enforcement question must translate the encoding exactly once
  (the latent re-translation inefficiency, pinned by counters).
"""

import pytest

from repro.check.engine import Checker
from repro.enforce import TargetSelection, TupleMetric, enforce
from repro.enforce.guided import enforce_guided
from repro.enforce.satengine import (
    ConsistencyOracle,
    enforce_sat,
    enumerate_repairs,
)
from repro.enforce.search import enforce_search
from repro.errors import NoRepairFound
from repro.featuremodels import (
    configuration,
    feature_model,
    paper_transformation,
    scenario_mandatory_flip,
    scenario_new_mandatory_feature,
    scenario_rename,
)
from repro.metamodel.serialize import canonical_text
from repro.solver.bounded import Grounder, Scope
from repro.solver.card import Totalizer
from repro.solver.maxsat import (
    MaxSatSession,
    enumerate_optimal,
    solve_maxsat,
    verify_soft_cost,
)
from repro.solver.sat import GLOBAL_STATS, solve


def paper_env(fm, cf1, cf2):
    return {
        "fm": feature_model(fm),
        "cf1": configuration(cf1, name="cf1"),
        "cf2": configuration(cf2, name="cf2"),
    }


def models_key(tuple_):
    return {param: model.objects for param, model in tuple_.items()}


ENV_CASES = [
    ({"core": True}, [], [], ("cf1", "cf2")),
    ({"core": True, "log": True}, ["core"], ["log"], ("cf1", "cf2")),
    ({"core": True}, ["core", "x"], ["core"], ("fm",)),
    ({"core": True, "log": False}, ["log"], [], ("cf1", "cf2", "fm")),
]


class TestSearchOracleEquivalence:
    @pytest.mark.parametrize("fm,cf1,cf2,targets", ENV_CASES)
    def test_identical_repair_and_frontier(self, fm, cf1, cf2, targets):
        """Oracle on/off: same repaired models, distance, and explored
        frontier — the oracle must change cost, not behaviour."""
        t = paper_transformation(2)
        env = paper_env(fm, cf1, cf2)
        selection = TargetSelection(targets)
        checker = Checker(t)
        with_oracle = enforce_search(checker, env, selection, use_oracle=True)
        without = enforce_search(checker, env, selection, use_oracle=False)
        assert models_key(with_oracle[0]) == models_key(without[0])
        assert with_oracle[1] == without[1]
        assert with_oracle[2].popped == without[2].popped
        assert with_oracle[2].pushed == without[2].pushed
        # The oracle actually served this in-fragment spec.
        assert with_oracle[2].oracle_queries == with_oracle[2].popped
        assert with_oracle[2].oracle_fallbacks == 0

    @pytest.mark.parametrize("k", [2, 3])
    def test_scenarios_identical(self, k):
        for scenario in (
            scenario_mandatory_flip(k),
            scenario_new_mandatory_feature(k),
        ):
            checker = Checker(scenario.transformation)
            selection = TargetSelection(scenario.repairable_targets[0])
            try:
                with_oracle = enforce_search(
                    checker, scenario.after_update, selection, use_oracle=True
                )
            except NoRepairFound:
                with pytest.raises(NoRepairFound):
                    enforce_search(
                        checker, scenario.after_update, selection, use_oracle=False
                    )
                continue
            without = enforce_search(
                checker, scenario.after_update, selection, use_oracle=False
            )
            assert models_key(with_oracle[0]) == models_key(without[0])
            assert with_oracle[1] == without[1]

    def test_oracle_accepts_non_canonical_fresh_objects(self):
        """Regression: the oracle grounds WITHOUT symmetry breaking.

        A consistent state that places its new object at the second
        fresh id (reachable in search via create-1, create-2, remove-1)
        must get the checker's verdict, not a symmetry-clause veto."""
        from repro.metamodel.conformance import is_conformant
        from repro.metamodel.model import Model, ModelObject
        from repro.solver.bounded import fresh_oid

        t = paper_transformation(2)
        env = paper_env({"core": True, "log": True}, ["core", "log"], ["core"])
        checker = Checker(t)
        selection = TargetSelection(["cf1", "cf2"])
        oracle = ConsistencyOracle.try_build(
            checker, env, selection, Scope(extra_objects=2)
        )
        assert oracle is not None
        for index in (1, 2):
            new_obj = ModelObject.create(
                fresh_oid("Feature", index), "Feature", {"name": "log"}
            )
            state = dict(env)
            state["cf2"] = Model(
                env["cf2"].metamodel,
                env["cf2"].objects + (new_obj,),
                env["cf2"].name,
            )
            expected = all(
                is_conformant(state[p]) for p in ("cf1", "cf2")
            ) and checker.is_consistent(state)
            assert expected is True
            assert oracle.query(state) is True, f"fresh index {index}"

    def test_oracle_declines_drifted_frozen_models(self):
        """The oracle bakes non-target models in as constants; a query
        whose frozen side changed must fall back (None), never answer."""
        t = paper_transformation(2)
        env = paper_env({"core": True, "log": True}, ["core", "log"], ["core"])
        selection = TargetSelection(["cf1", "cf2"])
        oracle = ConsistencyOracle.try_build(
            Checker(t), env, selection, Scope(extra_objects=2)
        )
        assert oracle is not None
        assert oracle.query(env) is not None
        drifted = dict(env)
        drifted["fm"] = feature_model({"core": True})
        assert oracle.query(drifted) is None
        assert oracle.fallbacks >= 1

    def test_distance_matches_metric(self):
        t = paper_transformation(2)
        env = paper_env({"core": True, "log": True}, ["core"], [])
        metric = TupleMetric({"cf2": 3})
        selection = TargetSelection(["cf1", "cf2"])
        repaired, cost, _ = enforce_search(
            Checker(t), env, selection, metric=metric, scope=Scope(extra_objects=2)
        )
        assert cost == metric.distance(env, repaired)


class TestGuidedOracleEquivalence:
    @pytest.mark.parametrize("fm,cf1,cf2", [
        ({"core": True, "log": True}, ["core"], []),
        ({"core": True}, [], []),
        ({"core": True, "log": False}, ["log"], ["core"]),
    ])
    def test_identical_repair(self, fm, cf1, cf2):
        t = paper_transformation(2)
        env = paper_env(fm, cf1, cf2)
        selection = TargetSelection(["cf1", "cf2", "fm"])
        checker = Checker(t)
        try:
            with_oracle = enforce_guided(checker, env, selection, use_oracle=True)
        except NoRepairFound:
            with pytest.raises(NoRepairFound):
                enforce_guided(checker, env, selection, use_oracle=False)
            return
        without = enforce_guided(checker, env, selection, use_oracle=False)
        assert models_key(with_oracle[0]) == models_key(without[0])
        assert with_oracle[1] == without[1]


def grounder_for(transformation, models, targets, scope=Scope()):
    checker = Checker(transformation)
    directions = [
        (relation, dependency)
        for relation in transformation.top_relations()
        for dependency in checker.directions_of(relation)
    ]
    return Grounder(
        transformation, models, frozenset(targets), directions, scope=scope
    )


class OneShotReference:
    """Increasing-bound MaxSAT with a fresh solver per SAT call.

    The relaxation and totalizer encoding is rebuilt here from public
    pieces and every bound probe (and every enumeration step) goes
    through the one-shot :func:`solve`, so no learnt state carries from
    one call to the next.
    """

    def __init__(self, grounding):
        self.grounding = grounding
        self.cnf = grounding.cnf.copy()
        relax = []
        for clause in grounding.soft:
            if clause.weight:
                var = self.cnf.new_var()
                self.cnf.add_clause(list(clause.literals) + [var])
                relax.extend([var] * clause.weight)
        self.totalizer = Totalizer(self.cnf, relax) if relax else None
        self.top = len(relax)

    def at_most(self, bound):
        if self.totalizer is None:
            return []
        return self.totalizer.at_most_assumption(bound)

    def optimum(self):
        """``(cost, assignment)`` of the first satisfiable bound."""
        for bound in range(self.top + 1):
            result = solve(self.cnf, self.at_most(bound))
            if result.satisfiable:
                cost = verify_soft_cost(self.grounding.soft, result.assignment)
                return cost, result.assignment
        raise NoRepairFound("reference found no repair")

    def enumerate(self, project, limit=64):
        """Every optimum, distinct on ``project``, blocking as it goes."""
        cost, _ = self.optimum()
        solutions = []
        while len(solutions) < limit:
            result = solve(self.cnf, self.at_most(cost))
            if not result.satisfiable:
                break
            projection = {v: result.assignment[v] for v in project}
            solutions.append(projection)
            self.cnf.add_clause(
                [-v if value else v for v, value in projection.items()]
            )
        return cost, solutions


class TestSatEngineEquivalence:
    @pytest.mark.parametrize("fm,cf1,cf2,targets", ENV_CASES)
    @pytest.mark.parametrize("mode", ["increasing", "decreasing"])
    def test_incremental_matches_oneshot_optimum(
        self, fm, cf1, cf2, targets, mode
    ):
        t = paper_transformation(2)
        env = paper_env(fm, cf1, cf2)
        incremental = enforce_sat(
            Checker(t), env, TargetSelection(targets), mode=mode
        )
        grounder = grounder_for(t, env, targets)
        cost, assignment = OneShotReference(grounder.ground()).optimum()
        assert incremental[1] == cost
        metric = TupleMetric()
        assert incremental[1] == metric.distance(env, incremental[0])
        assert cost == metric.distance(env, grounder.decode(assignment))

    def test_enumeration_identical_repair_sets(self):
        """Full enumeration is order-canonical, so the incremental engine
        and the one-shot reference must return *identical* repair lists."""
        scenario = scenario_rename(2)
        targets = scenario.repairable_targets[0]
        scope = Scope(extra_objects=1)
        cost_inc, repairs_inc = enumerate_repairs(
            Checker(scenario.transformation),
            scenario.after_update,
            TargetSelection(targets),
            scope=scope,
        )
        grounder = grounder_for(
            scenario.transformation, scenario.after_update, targets, scope
        )
        grounding = grounder.ground()
        project = sorted(
            grounding.pool.var(name)
            for name in grounding.pool.names()
            if isinstance(name, tuple) and name[0] in ("obj", "attr", "ref")
        )
        cost_one, solutions = OneShotReference(grounding).enumerate(project)
        decoded = {}
        for assignment in solutions:
            tuple_ = grounder.decode(assignment)
            key = "|".join(canonical_text(tuple_[p]) for p in sorted(tuple_))
            decoded.setdefault(key, tuple_)
        repairs_one = [decoded[key] for key in sorted(decoded)]
        assert cost_inc == cost_one == 4
        assert [models_key(r) for r in repairs_inc] == [
            models_key(r) for r in repairs_one
        ]

    def test_enforce_api_unchanged(self):
        """The public entry point still yields least-change repairs on
        the paper scenario (end-to-end sanity of the rebuild)."""
        scenario = scenario_rename(2)
        repair = enforce(
            scenario.transformation,
            scenario.after_update,
            TargetSelection(scenario.repairable_targets[0]),
            engine="sat",
        )
        assert repair.distance == 4


class TestTranslationCounts:
    def test_enumeration_translates_once(self):
        """One enumeration = one grounding, one distance totalizer, one
        solver — blocking clauses no longer force re-translations. The
        optimum search's core counters are totalizers too, counted
        apart: this one's first core model meets the core bound, so it
        builds none."""
        scenario = scenario_rename(2)
        checker = Checker(scenario.transformation)
        selection = TargetSelection(scenario.repairable_targets[0])
        scope = Scope(extra_objects=1)
        groundings = Grounder.translations
        totalizers = Totalizer.built
        counters = MaxSatSession.counters_built
        builds = GLOBAL_STATS.solver_builds
        cost, repairs = enumerate_repairs(
            checker, scenario.after_update, selection, scope=scope
        )
        assert len(repairs) >= 2  # a real multi-solution enumeration
        assert Grounder.translations - groundings == 1
        cores = MaxSatSession.counters_built - counters
        assert cores == 0
        assert Totalizer.built - totalizers - cores == 1
        assert GLOBAL_STATS.solver_builds - builds == 1

    def test_maxsat_session_translates_once(self):
        """solve_maxsat + enumerate_optimal on the same grounding: the
        incremental path builds one solver per session."""
        t = paper_transformation(2)
        models = paper_env({"core": True, "log": True}, ["core"], [])
        grounding = grounder_for(
            t, models, {"cf1", "cf2"}, Scope(extra_objects=2)
        ).ground()
        builds = GLOBAL_STATS.solver_builds
        result = solve_maxsat(grounding.cnf, list(grounding.soft))
        assert result.satisfiable
        assert GLOBAL_STATS.solver_builds - builds == 1
        builds = GLOBAL_STATS.solver_builds
        project = sorted(
            grounding.pool.var(name)
            for name in grounding.pool.names()
            if isinstance(name, tuple) and name[0] in ("obj", "attr", "ref")
        )
        _, solutions = enumerate_optimal(
            grounding.cnf, list(grounding.soft), project, limit=8
        )
        assert solutions
        assert GLOBAL_STATS.solver_builds - builds == 1
