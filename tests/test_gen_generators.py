"""Validity and determinism lockdown for the :mod:`repro.gen` generators.

Two properties carry the whole generative-workload story:

* **validity** — generated metamodels validate, generated instances are
  conformant, generated transformations pass the static analyser and
  stay inside the SAT-groundable template fragment, generated edits
  apply;
* **determinism** — every generator is a pure function of its seed
  (bit-for-bit: equal dataclasses, equal canonical serialisations), so
  any failure anywhere reproduces from one integer.
"""

import hashlib

import pytest

from repro.errors import GenerationError
from repro.expr import ast as e
from repro.gen import (
    GeneratedScenario,
    anchor_rename,
    oscillating_tuples,
    perturb,
    random_cnf,
    random_dependency_set,
    random_edit,
    random_edits,
    random_metamodel,
    random_model,
    random_scenario,
    random_transformation,
)
from repro.metamodel.conformance import is_conformant
from repro.metamodel.edits import apply_edit, apply_edits
from repro.metamodel.serialize import canonical_text
from repro.qvtr.analysis import analyse
from repro.util.seeding import rng_from_seed

SEEDS = range(30)


class TestMetamodelGenerator:
    def test_deterministic_per_seed(self):
        for seed in SEEDS:
            assert random_metamodel(seed) == random_metamodel(seed)

    def test_every_class_has_the_name_anchor(self):
        for seed in SEEDS:
            mm = random_metamodel(seed)
            for cls in mm.classes:
                attr = mm.attribute(cls.name, "name")
                assert not attr.optional

    def test_structure_is_valid_by_construction(self):
        # Construction of Metamodel already validates; diversity check:
        # across seeds we see references and optional attributes.
        mms = [random_metamodel(seed) for seed in range(50)]
        assert any(c.references for mm in mms for c in mm.classes)
        assert any(
            a.optional for mm in mms for c in mm.classes for a in c.attributes
        )
        assert {len(mm.classes) for mm in mms} == {1, 2}


class TestInstanceGenerator:
    def test_conformant_and_deterministic(self):
        for seed in SEEDS:
            mm = random_metamodel(seed)
            model = random_model(mm, seed + 1, name="m")
            assert is_conformant(model)
            assert canonical_text(model) == canonical_text(
                random_model(mm, seed + 1, name="m")
            )

    def test_pinned_universe_pools_are_respected(self):
        from tests.strategies import GRAPH_MM

        for seed in SEEDS:
            model = random_model(
                GRAPH_MM,
                seed,
                oids={"Node": ("n1", "n2", "n3")},
                string_pool=("a", "b"),
                int_pool=(0, 1),
            )
            assert is_conformant(model)
            for obj in model.objects:
                assert obj.oid in ("n1", "n2", "n3")
                assert obj.attr("label") in ("a", "b")
                assert obj.attr("weight") in (0, 1)

    def test_min_objects_total(self):
        for seed in SEEDS:
            mm = random_metamodel(seed)
            model = random_model(mm, seed, min_objects_total=2)
            assert model.size() >= 2

    def test_reference_lower_bounds_satisfied(self):
        # Seeds are cheap: sweep until we hit metamodels with lower>=1
        # references and check the generator satisfied them.
        hits = 0
        for seed in range(120):
            mm = random_metamodel(seed, p_ref_lower=0.5)
            if not any(
                r.lower > 0 for c in mm.classes for r in c.references
            ):
                continue
            hits += 1
            assert is_conformant(random_model(mm, seed, min_objects_total=1))
        assert hits > 5


class TestTransformationGenerator:
    def _setup(self, seed):
        mm = random_metamodel(seed, name="MMA")
        by_param = {"m1": mm, "m2": mm}
        return by_param, random_transformation(seed, by_param)

    def test_deterministic_per_seed(self):
        for seed in SEEDS:
            by_param, t = self._setup(seed)
            assert t == random_transformation(seed, by_param)

    def test_passes_the_static_analyser(self):
        for seed in SEEDS:
            by_param, t = self._setup(seed)
            report = analyse(t, {mm.name: mm for mm in by_param.values()})
            assert report.ok(), report.all_messages()

    def test_stays_in_the_sat_fragment(self):
        for seed in SEEDS:
            _, t = self._setup(seed)
            for relation in t.relations:
                assert relation.when is None and relation.where is None
                for domain in relation.domains:
                    for prop in domain.template.properties:
                        assert isinstance(prop.expr, (e.Var, e.Lit))

    def test_shares_the_anchor_variable_across_domains(self):
        for seed in SEEDS:
            _, t = self._setup(seed)
            for relation in t.relations:
                anchors = [
                    prop.expr.name
                    for domain in relation.domains
                    for prop in domain.template.properties
                    if prop.feature == "name" and isinstance(prop.expr, e.Var)
                ]
                assert len(anchors) == len(relation.domains)
                assert len(set(anchors)) == 1

    def test_declared_dependency_sets_occur(self):
        declared = 0
        for seed in range(60):
            _, t = self._setup(seed)
            declared += sum(
                1 for r in t.relations if r.dependencies is not None
            )
        assert declared > 5


class TestEditGenerator:
    def test_edits_apply_and_are_deterministic(self):
        for seed in SEEDS:
            mm = random_metamodel(seed)
            model = random_model(mm, seed, min_objects_total=1)
            script = random_edits(seed, model, length=4)
            assert script == random_edits(seed, model, length=4)
            apply_edits(model, script)  # raises EditError on a bad edit

    def test_anchor_rename_changes_only_the_anchor(self):
        for seed in SEEDS:
            mm = random_metamodel(seed)
            model = random_model(mm, seed, min_objects_total=1)
            edit = anchor_rename(rng_from_seed(seed), model)
            assert edit is not None and edit.name == "name"
            renamed = apply_edit(model, edit)
            assert renamed.get(edit.oid).attr("name") == edit.value

    def test_perturb_reports_edited_params(self):
        for seed in SEEDS:
            mm = random_metamodel(seed)
            models = {
                p: random_model(mm, seed + i, name=p, min_objects_total=1)
                for i, p in enumerate(("m1", "m2"))
            }
            after, edited = perturb(rng_from_seed(seed), models, 2)
            changed = {
                p for p in models if models[p].objects != after[p].objects
            }
            assert changed <= edited <= set(models)

    def test_oscillation_flips_between_two_variants(self):
        mm = random_metamodel(3)
        models = {
            "m1": random_model(mm, 5, name="m1", min_objects_total=2),
            "m2": random_model(mm, 6, name="m2", min_objects_total=1),
        }
        stream = oscillating_tuples(9, models, "m1", rounds=6)
        assert len(stream) == 6
        assert stream[0]["m1"] == models["m1"]
        assert stream[1]["m1"] != stream[0]["m1"]
        assert all(t["m1"] == stream[i % 2]["m1"] for i, t in enumerate(stream))
        assert all(t["m2"] == models["m2"] for t in stream)


class TestWorkloadGenerators:
    def test_cnfs_deterministic_and_bounded(self):
        for seed in SEEDS:
            cnf = random_cnf(seed)
            again = random_cnf(seed)
            assert cnf.num_vars == again.num_vars
            assert cnf.clauses == again.clauses
            assert 1 <= cnf.num_vars <= 6

    def test_dependency_sets_deterministic(self):
        for seed in SEEDS:
            assert random_dependency_set(seed) == random_dependency_set(seed)


class TestScenarioGenerator:
    def test_bit_for_bit_deterministic_per_seed(self):
        # the differential oracle's smoke seeds (0..24): a drifting
        # generator would detach a failure from its seed
        for seed in range(25):
            a = random_scenario(seed)
            b = random_scenario(seed)
            assert isinstance(a, GeneratedScenario)
            assert a.transformation == b.transformation
            assert a.targets == b.targets
            assert a.metric == b.metric
            assert a.semantics == b.semantics
            assert a.max_distance == b.max_distance
            assert a.edited == b.edited
            for param in a.params():
                assert canonical_text(a.before[param]) == canonical_text(
                    b.before[param]
                )
                assert canonical_text(a.models[param]) == canonical_text(
                    b.models[param]
                )

    def test_before_state_is_consistent(self):
        for seed in range(10):
            scenario = random_scenario(seed)
            assert scenario.checker().is_consistent(scenario.before)

    def test_question_shape_is_well_formed(self):
        for seed in range(10):
            scenario = random_scenario(seed)
            scenario.targets.validate(scenario.transformation)
            assert 1 <= scenario.max_distance <= 3
            assert set(scenario.models) == set(scenario.params())

    def test_no_reserved_fresh_ids_survive_consistify(self):
        for seed in range(20):
            scenario = random_scenario(seed)
            for tuple_ in (scenario.before, scenario.models):
                for model in tuple_.values():
                    assert not any(
                        oid.startswith("new_") for oid in model.object_ids()
                    )

    def test_corpus_digest_is_pinned(self):
        """The smoke corpus (seeds 0..24) is fixed text: a change to the
        optimum search may not shift it. The base state of a repaired
        random tuple is the least optimal repair in canonical-text
        order, not whichever optimum the search meets first."""
        digest = hashlib.sha256()
        for seed in range(25):
            scenario = random_scenario(seed)
            for param in scenario.params():
                for tuple_ in (scenario.before, scenario.models):
                    digest.update(canonical_text(tuple_[param]).encode())
                    digest.update(b"\0")
        assert digest.hexdigest() == CORPUS_DIGEST

    def test_base_repair_enumeration_limit_fails_loudly(self, monkeypatch):
        # Seed 0's random tuple has 8 optimal base repairs.
        monkeypatch.setattr("repro.gen.scenarios.REPAIR_LIMIT", 9)
        random_scenario(0)
        monkeypatch.setattr("repro.gen.scenarios.REPAIR_LIMIT", 8)
        with pytest.raises(GenerationError, match="8 or more"):
            random_scenario(0)


#: sha256 of the canonical texts of ``random_scenario(0..24)``.
CORPUS_DIGEST = (
    "2ff6a424ff444e41bffae6797bbfec52bb1b4d66e423a94f9e6f686fd524c712"
)


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
