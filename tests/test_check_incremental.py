"""Tests for the incremental (caching) checker."""

import pytest

from repro.check.engine import Checker
from repro.check.incremental import IncrementalChecker, involved_params
from repro.deps.dependency import Dependency
from repro.enforce import TargetSelection
from repro.enforce.search import enforce_search
from repro.featuremodels import configuration, feature_model, paper_transformation
from repro.objectdb import schema_transformation
from repro.solver.bounded import Scope


def env(fm, cf1, cf2):
    return {
        "fm": feature_model(fm),
        "cf1": configuration(cf1, name="cf1"),
        "cf2": configuration(cf2, name="cf2"),
    }


class TestInvolvedParams:
    def test_plain_direction(self):
        t = paper_transformation(2)
        mf = t.relation("MF")
        involved = involved_params(t, mf, Dependency(("fm",), "cf1"))
        assert involved == {"fm", "cf1"}

    def test_invocations_extend_involvement(self):
        """AttributeColumn's when-call to ClassTable pulls in its domains
        (here a subset of the caller's, but computed transitively)."""
        t = schema_transformation()
        ac = t.relation("AttributeColumn")
        involved = involved_params(t, ac, Dependency(("oo",), "db"))
        assert involved == {"oo", "db"}

    def test_direction_smaller_than_relation(self):
        t = paper_transformation(3)
        mf = t.relation("MF")
        involved = involved_params(t, mf, Dependency(("fm",), "cf2"))
        assert "cf1" not in involved and "cf3" not in involved


class TestIncrementalChecker:
    def test_agrees_with_plain_checker(self):
        t = paper_transformation(2)
        plain = Checker(t)
        cached = IncrementalChecker(t)
        for models in (
            env({"core": True}, ["core"], ["core"]),
            env({"core": True}, [], []),
            env({"core": True, "log": False}, ["core", "log"], ["core"]),
        ):
            assert cached.is_consistent(models) == plain.is_consistent(models)

    def test_cache_hits_on_unchanged_directions(self):
        t = paper_transformation(2)
        cached = IncrementalChecker(t)
        a = env({"core": True}, ["core"], ["core"])
        cached.is_consistent(a)
        misses_before = cached.misses
        # Change cf2 only: directions over {fm, cf1} must be cache hits.
        b = dict(a)
        b["cf2"] = configuration(["core", "x"], name="cf2")
        cached.is_consistent(b)
        assert cached.hits > 0
        assert cached.misses > misses_before  # cf2 directions re-ran

    def test_identical_tuple_is_all_hits(self):
        t = paper_transformation(2)
        cached = IncrementalChecker(t)
        models = env({"core": True}, ["core"], ["core"])
        cached.is_consistent(models)
        before = cached.misses
        assert cached.is_consistent(models)
        assert cached.misses == before

    def test_clear_cache(self):
        t = paper_transformation(2)
        cached = IncrementalChecker(t)
        models = env({"core": True}, ["core"], ["core"])
        cached.is_consistent(models)
        cached.clear_cache()
        assert cached.hits == 0 and cached.misses == 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cache_keeps_the_search_optimum(self, n):
        """Ablation A4: a mandatory 'secure' missing from both
        configurations, beside n optional features cf1 selects; the
        search finds the same optimum with and without the cache."""
        t = paper_transformation(2)
        features = {f"ft{i}": False for i in range(n)}
        features["secure"] = True
        models = env(features, [f"ft{i}" for i in range(n)], [])
        targets = TargetSelection(["cf1", "cf2"])
        scope = Scope(extra_objects=1)
        _, plain_cost, _ = enforce_search(Checker(t), models, targets, scope=scope)
        _, cached_cost, _ = enforce_search(
            IncrementalChecker(t), models, targets, scope=scope
        )
        assert plain_cost == cached_cost

    def test_search_engine_with_incremental_checker(self):
        """The caching checker slots into the search engine unchanged and
        produces the same optimum.

        ``use_oracle=False`` forces the checker-driven goal test: with
        the assumption-based SAT oracle active the checker is only a
        fallback and would never be consulted on this in-fragment spec.
        """
        t = paper_transformation(2)
        models = env({"core": True, "log": True}, ["core"], [])
        targets = TargetSelection(["cf1", "cf2"])
        scope = Scope(extra_objects=2)
        _, plain_cost, _ = enforce_search(
            Checker(t), models, targets, scope=scope, use_oracle=False
        )
        cached = IncrementalChecker(t)
        _, cached_cost, _ = enforce_search(
            cached, models, targets, scope=scope, use_oracle=False
        )
        assert plain_cost == cached_cost
        assert cached.hits > 0
