"""Tests for the extended feature-model domain (the paper's future work)."""

import pytest

from repro.check.engine import Checker
from repro.enforce import TargetSelection, enforce
from repro.errors import ModelError
from repro.featuremodels import configuration
from repro.featuremodels.extended import (
    extended_feature_metamodel,
    extended_feature_model,
    extended_transformation,
    valid_configurations,
)
from repro.metamodel.conformance import is_conformant
from repro.qvtr.analysis import analyse


def sample_fm():
    return extended_feature_model(
        {
            "app": (True, None, (), ()),
            "db": (False, "app", ("log",), ()),
            "log": (False, "app", (), ()),
            "mock": (False, "app", (), ("db",)),
        }
    )


def product_line(n_components):
    """An app of n components, each requiring its own library."""
    spec = {"app": (True, None, (), ())}
    for i in range(n_components):
        spec[f"lib{i}"] = (False, "app", (), ())
        spec[f"comp{i}"] = (False, "app", (f"lib{i}",), ())
    return extended_feature_model(spec)


def env_with(cf1, cf2, fm=None):
    return {
        "fm": fm or sample_fm(),
        "cf1": configuration(cf1, name="cf1"),
        "cf2": configuration(cf2, name="cf2"),
    }


class TestMetamodelAndBuilder:
    def test_instance_conformant(self):
        assert is_conformant(sample_fm())

    def test_links_built(self):
        fm = sample_fm()
        assert fm.get("f_db").targets("parent") == ("f_app",)
        assert fm.get("f_db").targets("requires") == ("f_log",)
        assert fm.get("f_mock").targets("excludes") == ("f_db",)

    def test_unknown_parent_rejected(self):
        with pytest.raises(ModelError, match="unknown parent"):
            extended_feature_model({"a": (False, "ghost", (), ())})

    def test_unknown_requires_rejected(self):
        with pytest.raises(ModelError, match="unknown required"):
            extended_feature_model({"a": (False, None, ("ghost",), ())})

    def test_metamodel_reference_bounds(self):
        mm = extended_feature_metamodel()
        assert mm.reference("Feature", "parent").upper == 1


class TestTransformation:
    def test_statically_clean(self):
        from repro.featuremodels.metamodels import configuration_metamodel

        metamodels = {
            "FMX": extended_feature_metamodel(),
            "CF": configuration_metamodel(),
        }
        assert analyse(extended_transformation(2), metamodels).ok()

    def test_relation_inventory(self):
        t = extended_transformation(2)
        names = {r.name for r in t.relations}
        assert names == {
            "MF",
            "OF",
            "ParentClosure_cf1",
            "ParentClosure_cf2",
            "Requires_cf1",
            "Requires_cf2",
            "Excludes_cf1",
            "Excludes_cf2",
        }


class TestValidity:
    def test_closed_selections_are_consistent(self):
        fm = sample_fm()
        sel = valid_configurations(fm, [["db"], ["mock"]])
        env = env_with(sel[0], sel[1], fm)
        assert Checker(extended_transformation(2)).is_consistent(env)

    def test_closure_helper(self):
        fm = sample_fm()
        (closed,) = valid_configurations(fm, [["db"]])
        assert closed == {"app", "db", "log"}

    def test_missing_parent_violates(self):
        env = env_with(["db", "log"], ["app"])  # db/log selected without app
        report = Checker(extended_transformation(2)).check(env)
        failing = {r.relation for r in report.failed()}
        assert "ParentClosure_cf1" in failing

    def test_missing_requires_violates(self):
        env = env_with(["app", "db"], ["app"])  # db requires log
        report = Checker(extended_transformation(2)).check(env)
        failing = {r.relation for r in report.failed()}
        assert "Requires_cf1" in failing

    def test_excludes_violates(self):
        env = env_with(["app", "db", "log", "mock"], ["app"])
        report = Checker(extended_transformation(2)).check(env)
        failing = {r.relation for r in report.failed()}
        assert "Excludes_cf1" in failing

    def test_validity_is_per_configuration(self):
        """cf2's problems never implicate cf1's directed relations."""
        env = env_with(["app"], ["app", "db"])
        report = Checker(extended_transformation(2)).check(env)
        failing = {r.relation for r in report.failed()}
        assert "Requires_cf2" in failing
        assert "Requires_cf1" not in failing


class TestCoEvolutionRepairs:
    def test_guided_repairs_broken_requires(self):
        t = extended_transformation(2)
        env = env_with(["app", "db"], ["app"])  # db needs log
        repair = enforce(t, env, TargetSelection(["cf1"]), engine="guided")
        assert Checker(t).is_consistent(repair.models)

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_guided_repairs_a_growing_product_line(self, n):
        """Ablation A2: both configurations select every component of an
        n-component product line but none of the required libraries."""
        t = extended_transformation(2)
        selected = ["app"] + [f"comp{i}" for i in range(n)]
        env = env_with(selected, selected, fm=product_line(n))
        checker = Checker(t)
        assert not checker.is_consistent(env)
        repair = enforce(t, env, TargetSelection(["cf1", "cf2"]), engine="guided")
        assert checker.is_consistent(repair.models)

    def test_guided_is_hippocratic(self):
        fm = product_line(3)
        selections = valid_configurations(fm, [["comp0"], ["comp1", "comp2"]])
        env = env_with(selections[0], selections[1], fm=fm)
        t = extended_transformation(2)
        repair = enforce(t, env, TargetSelection(["cf1", "cf2"]), engine="guided")
        assert repair.distance == 0 and not repair.changed

    def test_new_cross_tree_constraint_coevolution(self):
        """Co-evolution: the architect adds a requires edge in the FM; the
        affected configuration is repaired around it."""
        t = extended_transformation(2)
        fm_before = sample_fm()
        sel = valid_configurations(fm_before, [["db"], []])
        fm_after = extended_feature_model(
            {
                "app": (True, None, (), ()),
                "db": (False, "app", ("log", "net"), ()),
                "log": (False, "app", (), ()),
                "mock": (False, "app", (), ("db",)),
                "net": (False, "app", (), ()),
            }
        )
        env = {
            "fm": fm_after,
            "cf1": configuration(sel[0], name="cf1"),
            "cf2": configuration(sel[1], name="cf2"),
        }
        checker = Checker(t)
        assert not checker.is_consistent(env)
        repair = enforce(t, env, TargetSelection(["cf1"]), engine="guided")
        names = {str(o.attr("name")) for o in repair.models["cf1"].objects}
        assert checker.is_consistent(repair.models)
        # Either 'net' joined the selection or 'db' was dropped.
        assert "net" in names or "db" not in names
