"""Tests for models, objects and the fluent builder."""

import pickle

import pytest

from repro.errors import ModelError
from repro.metamodel.builder import ModelBuilder, model_from_spec
from repro.metamodel.model import Model, ModelObject
from tests.strategies import GRAPH_MM


def node(oid="n1", label="a", weight=0, **refs):
    return ModelObject.create(
        oid, "Node", {"label": label, "weight": weight}, refs or None
    )


class TestModelObject:
    def test_slots_are_normalised(self):
        a = ModelObject("o", "C", (("b", 1), ("a", 2)), ())
        b = ModelObject("o", "C", (("a", 2), ("b", 1)), ())
        assert a == b
        assert hash(a) == hash(b)

    def test_ref_targets_deduplicated_and_sorted(self):
        obj = ModelObject("o", "C", (), (("r", ("z", "a", "z")),))
        assert obj.targets("r") == ("a", "z")

    def test_attr_access(self):
        obj = node()
        assert obj.attr("label") == "a"
        with pytest.raises(ModelError):
            obj.attr("nope")
        assert obj.attr_or("nope") is None
        assert obj.attr_or("nope", 9) == 9

    def test_has_attr(self):
        assert node().has_attr("label")
        assert not node().has_attr("missing")

    def test_with_attr_is_functional(self):
        original = node()
        updated = original.with_attr("label", "b")
        assert original.attr("label") == "a"
        assert updated.attr("label") == "b"

    def test_without_attr(self):
        assert not node().without_attr("label").has_attr("label")

    def test_with_without_target(self):
        obj = node().with_target("next", "n2")
        assert obj.targets("next") == ("n2",)
        obj = obj.without_target("next", "n2")
        assert obj.targets("next") == ()

    def test_without_last_target_drops_slot(self):
        obj = node().with_target("next", "n2").without_target("next", "n2")
        assert obj.refs == ()

    def test_empty_id_rejected(self):
        with pytest.raises(ModelError):
            ModelObject("", "C")


class TestModel:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ModelError, match="duplicate object id"):
            Model(GRAPH_MM, (node("n1"), node("n1", label="b")))

    def test_get_and_has(self):
        model = Model(GRAPH_MM, (node("n1"),))
        assert model.get("n1").attr("label") == "a"
        assert model.has("n1")
        assert not model.has("n2")
        with pytest.raises(ModelError):
            model.get("n2")

    def test_objects_sorted_by_id(self):
        model = Model(GRAPH_MM, (node("n2"), node("n1")))
        assert model.object_ids() == ["n1", "n2"]

    def test_equality_ignores_name(self):
        a = Model(GRAPH_MM, (node(),), name="x")
        b = Model(GRAPH_MM, (node(),), name="y")
        assert a == b

    def test_hash_is_computed_once_and_never_pickled(self):
        a = Model(GRAPH_MM, (node("n1"), node("n2")), name="x")
        b = Model(GRAPH_MM, (node("n2"), node("n1")), name="y")
        assert hash(a) == hash(b) == hash((GRAPH_MM, a.objects))
        # The second hash() reads the value cached by the first.
        a.__dict__["_hash"] = 7
        assert hash(a) == 7
        # str hashes are salted per process: a pickle carries no hash.
        restored = pickle.loads(pickle.dumps(b))
        assert "_hash" not in restored.__dict__
        assert restored == b and hash(restored) == hash(b)

    def test_with_object_replaces(self):
        model = Model(GRAPH_MM, (node("n1"),))
        updated = model.with_object(node("n1", label="z"))
        assert updated.get("n1").attr("label") == "z"
        assert model.get("n1").attr("label") == "a"

    def test_without_object_drops_incoming_refs(self):
        model = Model(GRAPH_MM, (node("n1", next=["n2"]), node("n2")))
        updated = model.without_object("n2")
        assert updated.get("n1").targets("next") == ()

    def test_attribute_values_deduplicated(self):
        model = Model(GRAPH_MM, (node("n1", label="a"), node("n2", label="a")))
        values = model.attribute_values()
        assert values.count("a") == 1

    def test_renamed(self):
        model = Model(GRAPH_MM, (node(),), name="x").renamed("y")
        assert model.name == "y"


class TestModelBuilder:
    def test_add_with_generated_id(self):
        builder = ModelBuilder(GRAPH_MM)
        oid = builder.add("Node", label="a", weight=0)
        assert oid == "node1"

    def test_add_rejects_unknown_attribute(self):
        builder = ModelBuilder(GRAPH_MM)
        with pytest.raises(ModelError, match="no attribute"):
            builder.add("Node", nope=1)

    def test_add_rejects_duplicate_id(self):
        builder = ModelBuilder(GRAPH_MM)
        builder.add("Node", oid="n1")
        with pytest.raises(ModelError, match="already used"):
            builder.add("Node", oid="n1")

    def test_link_validates_reference(self):
        builder = ModelBuilder(GRAPH_MM)
        builder.add("Node", oid="n1")
        builder.add("Node", oid="n2")
        with pytest.raises(Exception):
            builder.link("n1", "nope", "n2")
        builder.link("n1", "next", "n2")
        assert builder.build().get("n1").targets("next") == ("n2",)

    def test_remove_drops_dangling_links_at_build(self):
        builder = ModelBuilder(GRAPH_MM)
        builder.add("Node", oid="n1")
        builder.add("Node", oid="n2")
        builder.link("n1", "next", "n2")
        builder.remove("n2")
        assert builder.build().get("n1").targets("next") == ()

    def test_set_updates_attributes(self):
        builder = ModelBuilder(GRAPH_MM)
        builder.add("Node", oid="n1", label="a")
        builder.set("n1", label="b")
        assert builder.build().get("n1").attr("label") == "b"

    def test_model_from_spec(self):
        model = model_from_spec(
            GRAPH_MM,
            {"n1": ("Node", {"label": "a"}), "n2": ("Node", {"label": "b"})},
            links={("n1", "next"): ("n2",)},
        )
        assert model.get("n1").targets("next") == ("n2",)
