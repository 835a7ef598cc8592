"""Tests for the directional checking semantics — the paper's section 2.

The key reproduction targets:

* the standard semantics' vacuity problem (2.1): ``MF_CF1`` is trivially
  true when another configuration is empty;
* the extended semantics expresses the intended ``MF`` (2.2);
* conservativity: extended semantics with the standard dependency set
  coincides with the standard semantics;
* invocation semantics with fixed roots and call-argument binding (2.3).
"""

import pytest
from hypothesis import given, settings

from repro.check.engine import CheckConfig, Checker, EXTENDED, STANDARD
from repro.check.semantics import check_direction
from repro.deps.dependency import Dependency
from repro.errors import CheckError, UnsafeRelationError
from repro.expr.ast import Eq, Lit, Nav, Var
from repro.expr.eval import EvalContext
from repro.featuremodels import (
    configuration,
    feature_model,
    paper_transformation,
    random_instance,
)
from repro.baselines.pairwise import ground_truth
from repro.baselines.standard_qvtr import compare_semantics
from repro.objectdb import consistent_environment, idx_model, oo_model, schema_transformation
from repro.qvtr.ast import (
    Domain,
    ModelParam,
    ObjectTemplate,
    PropertyConstraint,
    Relation,
    Transformation,
)
from tests.strategies import model_tuples


def models_for(fm, cf1, cf2):
    return {
        "fm": feature_model(fm),
        "cf1": configuration(cf1, name="cf1"),
        "cf2": configuration(cf2, name="cf2"),
    }


@pytest.fixture()
def extended():
    return Checker(paper_transformation(2), config=CheckConfig(semantics=EXTENDED))


@pytest.fixture()
def standard():
    return Checker(
        paper_transformation(2, annotated=False),
        config=CheckConfig(semantics=STANDARD),
    )


class TestPaperSection21:
    """The vacuity counterexample of section 2.1."""

    def test_intended_semantics_catches_missing_selection(self, extended):
        """'core' mandatory but configurations empty: MF violated."""
        env = models_for({"core": True}, [], [])
        assert not ground_truth(env)
        assert not extended.is_consistent(env)

    def test_standard_semantics_is_vacuously_true(self, standard):
        """Same environment passes the standard check: the universal
        quantification over the other (empty) configuration has an empty
        range."""
        env = models_for({"core": True}, [], [])
        assert standard.is_consistent(env)

    def test_both_agree_when_no_optional_is_selected(self, extended, standard):
        env = models_for({"core": True, "log": False}, ["core"], ["core"])
        assert extended.is_consistent(env)
        assert standard.is_consistent(env)

    def test_standard_false_rejects_optional_selections(self, extended, standard):
        """The same relation bodies under standard semantics denote a
        *different* relation: OF's directional test towards cf2 demands
        every (cf1, fm)-shared feature also in cf2, so a perfectly valid
        optional selection in cf1 alone is rejected."""
        env = models_for({"core": True, "log": False}, ["core", "log"], ["core"])
        assert extended.is_consistent(env)
        assert not standard.is_consistent(env)

    def test_mf_fm_direction_detects_shared_optional(self, extended):
        """A feature selected in *both* configurations must be mandatory."""
        env = models_for({"core": True, "log": False}, ["core", "log"], ["core", "log"])
        report = extended.check(env)
        failing = report.result_for("MF", Dependency(("cf1", "cf2"), "fm"))
        assert not failing.holds
        assert any("log" in str(v) for v in failing.violations)

    def test_of_direction_detects_unknown_feature(self, extended):
        env = models_for({"core": True}, ["core", "rogue"], ["core"])
        report = extended.check(env)
        assert not report.result_for("OF", Dependency(("cf1",), "fm")).holds
        assert report.result_for("OF", Dependency(("cf2",), "fm")).holds


class TestConservativity:
    """Section 2.2: the extension is conservative."""

    @given(models=model_tuples(k=2))
    @settings(max_examples=80, deadline=None)
    def test_extended_with_standard_deps_equals_standard(self, models):
        plain = paper_transformation(2, annotated=False)
        std = Checker(plain, config=CheckConfig(semantics=STANDARD))
        ext = Checker(plain, config=CheckConfig(semantics=EXTENDED))
        assert std.is_consistent(models) == ext.is_consistent(models)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_agreement_over_random_instances(self, n):
        """40 seeded instances of n features, half of them consistent:
        the standard and the extended checker agree on every one."""
        plain = paper_transformation(2, annotated=False)
        std = Checker(plain, config=CheckConfig(semantics=STANDARD))
        ext = Checker(plain, config=CheckConfig(semantics=EXTENDED))
        for i in range(40):
            models = random_instance(n, 2, seed=n * 1000 + i, consistent=bool(i % 2))
            assert std.is_consistent(models) == ext.is_consistent(models)

    @given(models=model_tuples(k=2))
    @settings(max_examples=80, deadline=None)
    def test_annotated_extended_matches_ground_truth(self, models):
        """The dependency-annotated MF/OF really denote F = MF ∩ OF."""
        checker = Checker(paper_transformation(2))
        assert checker.is_consistent(models) == ground_truth(models)


class TestDirectionalChecks:
    def test_direction_ignores_other_domains(self):
        """MF_{fm->cf1} must not depend on cf2's content at all."""
        t = paper_transformation(2)
        mf = t.relation("MF")
        dep = Dependency(("fm",), "cf1")
        env_a = models_for({"core": True}, ["core"], [])
        env_b = models_for({"core": True}, ["core"], ["x", "y", "z"])
        ctx_a = EvalContext(env_a)
        ctx_b = EvalContext(env_b)
        assert check_direction(mf, dep, ctx_a) == check_direction(mf, dep, ctx_b)

    def test_foreign_dependency_rejected(self):
        t = paper_transformation(2)
        mf = t.relation("MF")
        with pytest.raises(Exception):
            check_direction(mf, Dependency(("fm",), "zz"), EvalContext(models_for({}, [], [])))

    def test_witness_reports_binding(self):
        t = paper_transformation(2)
        mf = t.relation("MF")
        env = models_for({"core": True}, [], [])
        violations = check_direction(
            mf, Dependency(("fm",), "cf1"), EvalContext(env)
        )
        assert len(violations) == 1
        assert "n='core'" in str(violations[0])

    def test_max_violations_bounds_witnesses(self):
        t = paper_transformation(2)
        mf = t.relation("MF")
        env = models_for({"a": True, "b": True, "c": True}, [], [])
        violations = check_direction(
            mf, Dependency(("fm",), "cf1"), EvalContext(env), max_violations=2
        )
        assert len(violations) == 2


class TestPatternMatching:
    def test_literal_property_filters(self):
        """mandatory = true keeps optional features out of MF."""
        env = models_for({"core": True, "log": False}, ["core"], ["core"])
        checker = Checker(paper_transformation(2))
        assert checker.is_consistent(env)

    def test_missing_attribute_means_no_match(self):
        """An object without the pattern's slot silently does not match."""
        from repro.metamodel.model import Model, ModelObject
        from repro.featuremodels.metamodels import feature_metamodel

        nameless = Model(
            feature_metamodel(),
            (ModelObject.create("f1", "Feature", {"mandatory": True}),),
            "fm",
        )
        env = {
            "fm": nameless,
            "cf1": configuration([], name="cf1"),
            "cf2": configuration([], name="cf2"),
        }
        checker = Checker(paper_transformation(2))
        # The nameless mandatory feature matches no pattern: vacuously ok.
        assert checker.is_consistent(env)

    def test_unsafe_relation_detected_at_runtime(self):
        """A deferred check over an unbindable variable raises."""
        relation = Relation(
            name="R",
            domains=(
                Domain(
                    "a",
                    ObjectTemplate(
                        "x",
                        "Feature",
                        (PropertyConstraint("name", Nav(Var("ghost"), "name")),),
                    ),
                ),
                Domain("b", ObjectTemplate("y", "Feature", ())),
            ),
        )
        env = {
            "a": configuration(["f"], name="a"),
            "b": configuration([], name="b"),
        }
        with pytest.raises(UnsafeRelationError):
            check_direction(relation, Dependency(("a",), "b"), EvalContext(env))


class TestInvocations:
    def test_objectdb_environment_consistent(self):
        t = schema_transformation()
        env = consistent_environment({"Person": ["age"], "Tag": []})
        assert Checker(t).is_consistent(env)

    def test_when_guard_filters_wrong_table(self):
        """A column in the *wrong* table violates AttributeColumn."""
        t = schema_transformation()
        env = consistent_environment({"Person": ["age"], "Tag": []})
        from repro.objectdb import db_model

        env["db"] = db_model({"Person": [], "Tag": ["age"]})
        env["idx"] = idx_model([("Tag", "age")])
        assert not Checker(t).is_consistent(env)

    def test_where_clause_couples_names(self):
        """Index entries must use the *table's* name."""
        t = schema_transformation()
        env = consistent_environment({"Person": ["age"]})
        env["idx"] = idx_model([("Wrong", "age")])
        assert not Checker(t).is_consistent(env)

    def test_index_side_rejects_ghost_entries(self):
        t = schema_transformation()
        env = consistent_environment({"Person": ["age"]})
        env["idx"] = idx_model([("Person", "age"), ("Person", "ghost")])
        assert not Checker(t).is_consistent(env)

    def test_rename_breaks_all_three(self):
        t = schema_transformation()
        env = consistent_environment({"Person": ["age"]})
        env["oo"] = oo_model({"Customer": ["age"]})
        report = Checker(t).check(env)
        failing = {r.relation for r in report.failed()}
        assert "ClassTable" in failing


class TestRecursion:
    def test_self_recursive_call_resolved_coinductively(self):
        """A relation whose where calls itself terminates (greatest
        fixpoint: in-progress calls are assumed to hold)."""
        rec = Relation(
            name="Rec",
            domains=(
                Domain(
                    "a",
                    ObjectTemplate(
                        "x", "Feature", (PropertyConstraint("name", Var("n")),)
                    ),
                ),
                Domain(
                    "b",
                    ObjectTemplate(
                        "y", "Feature", (PropertyConstraint("name", Var("n")),)
                    ),
                ),
            ),
            where=Eq(
                Lit(True),
                Lit(True),
            ),
        )
        # Replace where by a self call through a fresh object expression.
        import dataclasses
        from repro.expr.ast import RelationCall

        rec = dataclasses.replace(rec, where=RelationCall("Rec", Var("x"), Var("y")))
        t = Transformation(
            "T",
            (ModelParam("a", "CF"), ModelParam("b", "CF")),
            (rec,),
        )
        env = {
            "a": configuration(["f"], name="a"),
            "b": configuration(["f"], name="b"),
        }
        checker = Checker(t)
        assert checker.is_consistent(env)


class TestRandomisedOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_consistent_generator_yields_consistent(self, seed):
        models = random_instance(6, 2, seed=seed, consistent=True)
        assert Checker(paper_transformation(2)).is_consistent(models)

    @pytest.mark.parametrize("seed", range(8))
    def test_inconsistent_generator_yields_inconsistent(self, seed):
        models = random_instance(6, 2, seed=seed, consistent=False)
        assert not Checker(paper_transformation(2)).is_consistent(models)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_extended_semantics_never_errs(self, n):
        """Section 2.1 over 20 seeded instances of n features: the
        extended semantics matches the intended F = MF ∩ OF on each."""
        instances = [
            random_instance(n, 2, seed=n * 100 + i, consistent=bool(i % 2))
            for i in range(20)
        ]
        comparison = compare_semantics(
            paper_transformation(2),
            paper_transformation(2, annotated=False),
            instances,
            ground_truth,
        )
        assert comparison.extended_errors == 0

    @pytest.mark.parametrize("k", [1, 3])
    def test_other_arities(self, k):
        models = random_instance(5, k, seed=1, consistent=True)
        assert Checker(paper_transformation(k)).is_consistent(models)
