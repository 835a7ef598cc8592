"""Tests for the feature-model example domain (Figure 1 and generators)."""

import pytest

from repro.check.engine import Checker
from repro.featuremodels import (
    configuration,
    configuration_metamodel,
    feature_metamodel,
    feature_model,
    mf_dependencies,
    mf_relation,
    of_dependencies,
    of_relation,
    paper_transformation,
    random_configurations,
    random_feature_model,
    random_instance,
    scenario_mandatory_flip,
    scenario_new_mandatory_feature,
    scenario_rename,
)
from repro.deps.dependency import Dependency
from repro.featuremodels.instances import mandatory_names, selected_names
from repro.metamodel.conformance import check_conformance, is_conformant


class TestFigure1Metamodels:
    def test_fm_feature_attributes(self):
        mm = feature_metamodel()
        attrs = mm.all_attributes("Feature")
        assert set(attrs) == {"name", "mandatory"}

    def test_cf_feature_attributes(self):
        mm = configuration_metamodel()
        assert set(mm.all_attributes("Feature")) == {"name"}

    def test_instances_conform(self):
        assert is_conformant(feature_model({"a": True, "b": False}))
        assert is_conformant(configuration(["a", "b"]))
        assert check_conformance(random_feature_model(64, seed=7)) == []


class TestRelations:
    def test_mf_dependencies_match_paper(self):
        """MF ≡ {CF1 CF2 -> FM, FM -> CF1, FM -> CF2} (section 2.2)."""
        assert mf_dependencies(2) == frozenset(
            {
                Dependency(("cf1", "cf2"), "fm"),
                Dependency(("fm",), "cf1"),
                Dependency(("fm",), "cf2"),
            }
        )

    def test_of_dependencies_match_paper(self):
        """OF ≡ {CF1 -> FM, CF2 -> FM}."""
        assert of_dependencies(2) == frozenset(
            {Dependency(("cf1",), "fm"), Dependency(("cf2",), "fm")}
        )

    def test_unannotated_relations_have_no_dependencies(self):
        assert mf_relation(2, annotated=False).dependencies is None
        assert of_relation(2, annotated=False).dependencies is None

    def test_relation_shapes(self):
        mf = mf_relation(3)
        assert [d.model_param for d in mf.domains] == ["cf1", "cf2", "cf3", "fm"]
        assert mf.domains[-1].template.properties[1].feature == "mandatory"

    def test_k_validation(self):
        with pytest.raises(ValueError):
            paper_transformation(0)

    def test_transformation_params(self):
        t = paper_transformation(2)
        assert t.param("cf1").metamodel == "CF"
        assert t.param("fm").metamodel == "FM"


class TestBuilders:
    def test_feature_model_ids_deterministic(self):
        fm = feature_model({"log": True})
        assert fm.object_ids() == ["f_log"]

    def test_configuration_dedupes(self):
        cf = configuration(["a", "a", "b"])
        assert cf.size() == 2

    def test_selected_and_mandatory_names(self):
        fm = feature_model({"a": True, "b": False})
        assert mandatory_names(fm) == {"a"}
        assert selected_names(fm) == {"a", "b"}


class TestGenerators:
    def test_random_feature_model_is_deterministic(self):
        assert random_feature_model(6, seed=3) == random_feature_model(6, seed=3)

    def test_random_configurations_select_all_mandatory(self):
        fm = random_feature_model(8, p_mandatory=0.5, seed=1)
        for cf in random_configurations(fm, 3, seed=2):
            assert mandatory_names(fm) <= selected_names(cf)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_consistent_instances_check_out(self, seed, k):
        models = random_instance(5, k, seed=seed, consistent=True)
        assert Checker(paper_transformation(k)).is_consistent(models)

    @pytest.mark.parametrize("seed", range(6))
    def test_inconsistent_instances_check_out(self, seed):
        models = random_instance(5, 3, seed=seed, consistent=False)
        assert not Checker(paper_transformation(3)).is_consistent(models)


class TestScenarios:
    @pytest.mark.parametrize(
        "factory",
        [scenario_mandatory_flip, scenario_new_mandatory_feature, scenario_rename],
    )
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_scenario_structure(self, factory, k):
        scenario = factory(k)
        assert scenario.k == k
        assert set(scenario.before) == set(scenario.after_update)
        # Only the updated model differs.
        changed = {
            p
            for p in scenario.before
            if scenario.before[p] != scenario.after_update[p]
        }
        assert changed == {scenario.updated_param}

    def test_rename_targets_exclude_edited_model(self):
        scenario = scenario_rename(3)
        for targets in scenario.repairable_targets:
            assert "cf1" not in targets
