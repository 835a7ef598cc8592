"""Tests for the bounded grounder (universe, structure, consistency, distance)."""

import pytest

from repro.check.engine import Checker
from repro.deps.dependency import Dependency
from repro.errors import SatFragmentError, SolverError
from repro.expr.ast import Eq, Lit, StrLower, Var
from repro.featuremodels import (
    configuration,
    feature_model,
    paper_transformation,
)
from repro.metamodel.conformance import is_conformant
from repro.metamodel.distance import distance
from repro.metamodel.model import ModelObject
from repro.objectdb import schema_transformation
from repro.solver.bounded import (
    GroundModel,
    Grounder,
    Scope,
    ValuePools,
    fresh_oid,
    fresh_slots_for,
    fresh_string,
)
from repro.solver.cnf import CNF, VarPool
from repro.solver.maxsat import solve_maxsat
from repro.metamodel.types import BOOLEAN, INTEGER, STRING, EnumType


def paper_env(fm, cf1, cf2):
    return {
        "fm": feature_model(fm),
        "cf1": configuration(cf1, name="cf1"),
        "cf2": configuration(cf2, name="cf2"),
    }


def directions_of(transformation):
    checker = Checker(transformation)
    return [
        (relation, dependency)
        for relation in transformation.top_relations()
        for dependency in checker.directions_of(relation)
    ]


def ground_and_solve(
    transformation, models, targets, scope=Scope(), weights=None, symmetry_breaking=True
):
    grounder = Grounder(
        transformation,
        models,
        frozenset(targets),
        directions_of(transformation),
        scope=scope,
        weights=weights,
        symmetry_breaking=symmetry_breaking,
    )
    grounding = grounder.ground()
    result = solve_maxsat(grounding.cnf, list(grounding.soft))
    return grounder, result


class TestScopeAndPools:
    def test_scope_validation(self):
        with pytest.raises(SolverError):
            Scope(extra_objects=-1)

    @pytest.mark.parametrize(
        "fields",
        [
            {"extra_objects": True},
            {"extra_objects": 1.5},
            {"extra_objects": "2"},
            {"extra_strings": False},
            {"extra_strings": -1},
            {"extra_strings": None},
            {"extra_ints": (True, 0)},
            {"extra_ints": (2.5, "x")},
            {"extra_ints": [0, 1]},
            {"extra_ints": 3},
        ],
    )
    def test_scope_rejects_mistyped_fields(self, fields):
        """Typed like the wire codec: bools are not counts or Integers,
        and a malformed field is a SolverError, never a bare TypeError
        from deep inside the value pools."""
        with pytest.raises(SolverError):
            Scope(**fields)

    def test_scope_accepts_well_typed_fields(self):
        scope = Scope(extra_objects=0, extra_strings=0, extra_ints=(-3, 7))
        assert ValuePools({}, scope).candidates(INTEGER) == (-3, 7)
        assert Scope(extra_ints=()).extra_ints == ()

    def test_fresh_names(self):
        assert fresh_oid("Feature", 2) == "new_feature_2"
        assert fresh_string(1) == "$new1"

    def test_pools_collect_active_domain(self):
        models = paper_env({"core": True}, ["core", "extra"], [])
        pools = ValuePools(models, Scope(extra_strings=1))
        strings = pools.candidates(STRING)
        assert "core" in strings and "extra" in strings and "$new1" in strings

    def test_bool_and_int_pools(self):
        pools = ValuePools({}, Scope())
        assert pools.candidates(BOOLEAN) == (False, True)
        assert set(Scope().extra_ints) <= set(pools.candidates(INTEGER))

    def test_enum_pool_is_literals(self):
        pools = ValuePools({}, Scope())
        colour = EnumType("Colour", ("red", "green"))
        assert pools.candidates(colour) == ("red", "green")


class TestFragmentGuard:
    def test_when_clause_rejected(self):
        from repro.objectdb import consistent_environment

        with pytest.raises(SatFragmentError, match="when/where"):
            ground_and_solve(
                schema_transformation(),
                consistent_environment({"Person": ["age"]}),
                ["db"],
            )

    def test_compound_property_rejected(self):
        import dataclasses

        t = paper_transformation(2)
        mf = t.relation("MF")
        prop = mf.domains[0].template.properties[0]
        bad_prop = dataclasses.replace(prop, expr=StrLower(Var("n")))
        bad_template = dataclasses.replace(
            mf.domains[0].template, properties=(bad_prop,)
        )
        bad_domain = dataclasses.replace(mf.domains[0], template=bad_template)
        bad_mf = dataclasses.replace(
            mf, domains=(bad_domain,) + mf.domains[1:]
        )
        from repro.qvtr.ast import Transformation

        bad = Transformation("T", t.model_params, (bad_mf,))
        env = paper_env({"core": True}, ["core"], ["core"])
        grounder = Grounder(
            bad,
            env,
            frozenset({"cf1"}),
            [(bad_mf, Dependency(("fm",), "cf1"))],
        )
        with pytest.raises(SatFragmentError, match="fragment"):
            grounder.ground()

    def test_unknown_target_rejected(self):
        t = paper_transformation(2)
        env = paper_env({"core": True}, ["core"], ["core"])
        with pytest.raises(SolverError, match="unknown target"):
            Grounder(t, env, frozenset({"zz"}), [])


class TestFreshSlots:
    """A target's universe is its objects plus ``extra_objects`` fresh
    slots per concrete class; a frozen model's is its objects alone."""

    def test_fresh_slots_skip_occupied_ids(self):
        cf = configuration(["core"], name="cf1")
        occupied = cf.with_object(
            ModelObject.create("new_feature_1", "Feature", {"name": "log"})
        )
        assert fresh_slots_for(occupied, Scope(extra_objects=2)) == {
            "Feature": ("new_feature_2", "new_feature_3")
        }
        assert fresh_slots_for(cf, Scope(extra_objects=2)) == {
            "Feature": ("new_feature_1", "new_feature_2")
        }

    def test_ground_model_universe_holds_objects_and_fresh_slots(self):
        cf = configuration(["core", "log"], name="cf1")
        models = {"cf1": cf}
        scope = Scope(extra_objects=2)
        pools, var_pool = ValuePools(models, scope), VarPool(CNF())
        gm = GroundModel("cf1", cf, True, scope, pools, var_pool)
        assert gm.universe == (
            "new_feature_1", "new_feature_2", "s_core", "s_log"
        )
        assert gm.class_of("new_feature_2") == "Feature"
        frozen = GroundModel("cf1", cf, False, scope, pools, var_pool)
        assert frozen.universe == ("s_core", "s_log")

    def test_creatable_is_fresh_slots_capped_by_absent_ids(self):
        """``creatable`` counts what the creation budget leaves a state:
        ``min(fresh slots, absent ids)`` per target class."""
        t = paper_transformation(2)
        env = paper_env({"core": True, "log": False}, ["core", "log"], ["core"])
        grounding = Grounder(
            t, env, frozenset({"cf1"}), directions_of(t),
            scope=Scope(extra_objects=2),
        ).ground()
        full = dict(env, cf1=configuration(
            ["core", "log"], name="cf1"
        ).with_object(ModelObject.create("new_feature_2", "Feature", {"name": "x"})))
        assert grounding.creatable(env) == {("cf1", "Feature"): 2}
        assert grounding.creatable(full) == {("cf1", "Feature"): 1}
        dropped = dict(env, cf1=configuration(["core"], name="cf1"))
        assert grounding.creatable(dropped) == {("cf1", "Feature"): 2}


class TestGroundingSolves:
    def test_already_consistent_costs_zero(self):
        t = paper_transformation(2)
        env = paper_env({"core": True}, ["core"], ["core"])
        grounder, result = ground_and_solve(t, env, ["cf1", "cf2"])
        assert result.satisfiable and result.cost == 0
        repaired = grounder.decode(result.assignment)
        for param in env:
            assert repaired[param] == env[param]

    def test_repair_selects_missing_mandatory(self):
        t = paper_transformation(2)
        env = paper_env({"core": True}, ["core"], [])
        grounder, result = ground_and_solve(t, env, ["cf2"])
        assert result.satisfiable
        repaired = grounder.decode(result.assignment)
        names = {str(o.attr("name")) for o in repaired["cf2"].objects}
        assert names == {"core"}
        assert result.cost == 2  # fresh object + its name atom

    def test_decoded_models_are_conformant(self):
        t = paper_transformation(2)
        env = paper_env({"core": True, "log": True}, [], [])
        grounder, result = ground_and_solve(
            t, env, ["cf1", "cf2"], scope=Scope(extra_objects=2)
        )
        assert result.satisfiable
        repaired = grounder.decode(result.assignment)
        for param in ("cf1", "cf2"):
            assert is_conformant(repaired[param])

    def test_cost_equals_metric_distance(self):
        t = paper_transformation(2)
        env = paper_env({"core": True, "log": True}, ["core"], [])
        grounder, result = ground_and_solve(
            t, env, ["cf1", "cf2"], scope=Scope(extra_objects=2)
        )
        assert result.satisfiable
        repaired = grounder.decode(result.assignment)
        measured = sum(
            distance(env[p], repaired[p]) for p in ("cf1", "cf2", "fm")
        )
        assert measured == result.cost

    def test_repaired_tuple_is_consistent(self):
        t = paper_transformation(2)
        env = paper_env({"core": True, "log": True}, ["log"], [])
        grounder, result = ground_and_solve(
            t, env, ["cf1", "cf2"], scope=Scope(extra_objects=2)
        )
        assert result.satisfiable
        repaired = grounder.decode(result.assignment)
        assert Checker(t).is_consistent(repaired)

    def test_weights_scale_cost(self):
        t = paper_transformation(2)
        env = paper_env({"core": True}, ["core"], [])
        _, unweighted = ground_and_solve(t, env, ["cf2"])
        _, weighted = ground_and_solve(
            t, env, ["cf2"], weights={"cf2": 3, "cf1": 1, "fm": 1}
        )
        assert weighted.cost == 3 * unweighted.cost

    def test_unsat_when_target_cannot_absorb(self):
        """Repairing only cf1 cannot fix a mandatory feature missing from
        cf2 (the paper's closing example)."""
        t = paper_transformation(2)
        env = paper_env({"core": True, "secure": True}, ["core", "secure"], ["core"])
        _, result = ground_and_solve(t, env, ["cf1"])
        assert not result.satisfiable

    def test_fresh_objects_enable_growth(self):
        """Scope with 2 extra objects can create 2 features."""
        t = paper_transformation(2)
        env = paper_env({"a": True, "b": True}, [], [])
        scope = Scope(extra_objects=2)
        grounder, result = ground_and_solve(t, env, ["cf1", "cf2"], scope=scope)
        assert result.satisfiable
        repaired = grounder.decode(result.assignment)
        assert repaired["cf1"].size() == 2

    @pytest.mark.parametrize("extra", [2, 3, 4])
    def test_symmetry_breaking_keeps_the_optimum(self, extra):
        """Ablation A3: ordering the fresh objects of a class (new_i alive
        only if new_{i-1} is) changes no optimum as the budget grows."""
        t = paper_transformation(2)
        env = paper_env({"core": True, "secure": True, "log": False}, [], [])
        costs = set()
        for symmetry_breaking in (True, False):
            _, result = ground_and_solve(
                t, env, ["cf1", "cf2"], scope=Scope(extra_objects=extra),
                symmetry_breaking=symmetry_breaking,
            )
            assert result.satisfiable
            costs.add(result.cost)
        assert len(costs) == 1

    def test_scope_too_small_is_unsat(self):
        """Scope with 1 extra object cannot create 2 features."""
        t = paper_transformation(2)
        env = paper_env({"a": True, "b": True}, [], [])
        scope = Scope(extra_objects=1)
        _, result = ground_and_solve(t, env, ["cf1", "cf2"], scope=scope)
        assert not result.satisfiable
