"""Tests for enforcement: targets, metrics, both engines, public API."""

import pytest

from repro.check.engine import Checker
from repro.enforce import (
    Repair,
    TargetSelection,
    TupleMetric,
    all_but,
    enforce,
    only,
    paper_shapes,
)
from repro.enforce.laws import is_correct, is_hippocratic, least_change_optimum
from repro.enforce.session import clear_shared_sessions
from repro.errors import EnforcementError, NoRepairFound
from repro.featuremodels import (
    configuration,
    feature_model,
    paper_transformation,
    scenario_mandatory_flip,
    scenario_new_mandatory_feature,
    scenario_rename,
)
from repro.featuremodels.relations import config_params
from repro.serve.requests import EnforceRequest, request_from_dict, request_to_dict
from repro.serve.worker import reset_worker_state, serve_request
from repro.solver.bounded import Scope

#: The paper-claim tests' scope: one fresh object per class.
SCOPE = Scope(extra_objects=1)


def paper_env(fm, cf1, cf2):
    return {
        "fm": feature_model(fm),
        "cf1": configuration(cf1, name="cf1"),
        "cf2": configuration(cf2, name="cf2"),
    }


class TestTargets:
    def test_empty_selection_rejected(self):
        with pytest.raises(EnforcementError):
            TargetSelection([])

    def test_validation_against_transformation(self):
        t = paper_transformation(2)
        with pytest.raises(EnforcementError, match="unknown"):
            only("zz").validate(t)

    def test_frozen_complement(self):
        t = paper_transformation(2)
        assert only("fm").frozen(t) == {"cf1", "cf2"}

    def test_all_but(self):
        t = paper_transformation(2)
        assert all_but(t, "cf1").params == {"cf2", "fm"}
        with pytest.raises(EnforcementError):
            all_but(t, "cf1", "cf2", "fm")
        with pytest.raises(EnforcementError):
            all_but(t, "zz")

    def test_paper_shapes(self):
        t = paper_transformation(2)
        shapes = paper_shapes(t)
        assert shapes["F_FM"].params == {"fm"}
        assert shapes["F_CFk"].params == {"cf1", "cf2"}
        assert shapes["F_rest_of_cf1"].params == {"cf2", "fm"}

    def test_contains_and_str(self):
        sel = only("a", "b")
        assert "a" in sel and "c" not in sel
        assert str(sel) == "{a, b}"


class TestMetrics:
    def test_default_weight_is_one(self):
        assert TupleMetric().weight("anything") == 1

    def test_negative_weight_rejected(self):
        with pytest.raises(EnforcementError):
            TupleMetric({"a": -1})

    def test_distance_requires_same_params(self):
        metric = TupleMetric()
        a = {"x": feature_model({})}
        b = {"y": feature_model({})}
        with pytest.raises(EnforcementError):
            metric.distance(a, b)

    def test_weighted_distance(self):
        before = {"fm": feature_model({"a": True})}
        after = {"fm": feature_model({"a": False})}
        assert TupleMetric().distance(before, after) == 2
        assert TupleMetric({"fm": 4}).distance(before, after) == 8


class TestEnforceApi:
    def test_unknown_engine(self):
        t = paper_transformation(2)
        env = paper_env({"core": True}, ["core"], ["core"])
        with pytest.raises(EnforcementError, match="unknown engine"):
            enforce(t, env, only("fm"), engine="quantum")

    def test_missing_models(self):
        t = paper_transformation(2)
        with pytest.raises(EnforcementError, match="no models bound"):
            enforce(t, {"fm": feature_model({})}, only("fm"))

    def test_hippocraticness(self):
        """A consistent environment is returned untouched (distance 0)."""
        t = paper_transformation(2)
        env = paper_env({"core": True}, ["core"], ["core"])
        repair = enforce(t, env, only("fm"))
        assert repair.distance == 0
        assert repair.changed == frozenset()
        assert repair.engine == "none"
        assert is_hippocratic(Checker(t), env, repair)

    @pytest.mark.parametrize("engine", ["sat", "search"])
    def test_correctness(self, engine):
        t = paper_transformation(2)
        env = paper_env({"core": True, "log": True}, ["core"], [])
        repair = enforce(t, env, TargetSelection(["cf1", "cf2"]), engine=engine)
        assert is_correct(Checker(t), repair)

    @pytest.mark.parametrize("engine", ["sat", "search"])
    def test_only_targets_change(self, engine):
        t = paper_transformation(2)
        env = paper_env({"core": True, "log": True}, ["core"], [])
        repair = enforce(t, env, TargetSelection(["cf1", "cf2"]), engine=engine)
        assert repair.changed <= {"cf1", "cf2"}
        assert repair.models["fm"] == env["fm"]

    def test_summary(self):
        t = paper_transformation(2)
        env = paper_env({"core": True}, ["core"], ["core"])
        repair = enforce(t, env, only("fm"))
        assert "distance 0" in repair.summary()


class TestEnginesAgree:
    @pytest.mark.parametrize(
        "fm,cf1,cf2,targets",
        [
            ({"core": True}, [], [], ("cf1", "cf2")),
            ({"core": True, "log": True}, ["core"], ["log"], ("cf1", "cf2")),
            ({"core": True}, ["core", "x"], ["core"], ("fm",)),
            ({"core": True, "log": False}, ["log"], [], ("cf1", "cf2", "fm")),
        ],
    )
    def test_same_minimal_distance(self, fm, cf1, cf2, targets):
        """SAT and explicit search find the same optimum."""
        t = paper_transformation(2)
        env = paper_env(fm, cf1, cf2)
        sat = enforce(t, env, TargetSelection(targets), engine="sat")
        search = enforce(t, env, TargetSelection(targets), engine="search")
        assert sat.distance == search.distance

    def test_sat_modes_agree(self):
        t = paper_transformation(2)
        env = paper_env({"core": True, "log": True}, ["core"], [])
        inc = enforce(t, env, TargetSelection(["cf1", "cf2"]), mode="increasing")
        dec = enforce(t, env, TargetSelection(["cf1", "cf2"]), mode="decreasing")
        assert inc.distance == dec.distance

    def test_agree_when_tuple_occupies_reserved_fresh_ids(self):
        """A tuple carrying an accepted repair's ``new_*`` object asks
        the same bounded question of every engine: both skip the
        occupied slot and allocate the next reserved id (regression —
        the SAT grounder used to crash on the collision and the search
        engine silently lost its creation budget)."""
        from repro.metamodel.model import Model, ModelObject

        t = paper_transformation(2)
        env = paper_env({"core": True, "log": True}, ["core", "log"], [])
        # cf2's 'core' selection sits on the grounder's reserved id, as
        # if a previous repair created it and the user kept editing.
        cf2 = env["cf2"]
        env["cf2"] = Model(
            cf2.metamodel,
            (ModelObject.create("new_feature_1", "Feature", {"name": "core"}),),
            name="cf2",
        )
        sat = enforce(t, env, TargetSelection(["cf2"]), engine="sat")
        search = enforce(t, env, TargetSelection(["cf2"]), engine="search")
        assert sat.distance == search.distance > 0
        assert sat.models["cf2"].size() == search.models["cf2"].size() == 2

    @pytest.mark.parametrize(
        "n,engine,mode",
        [
            (n, engine, mode)
            for n in (2, 4, 6)
            for engine, mode in (
                ("sat", "increasing"),
                ("sat", "decreasing"),
                ("search", "increasing"),  # search ignores the mode
            )
            if engine == "sat" or n <= 4  # explicit search is exponential
        ],
    )
    def test_engines_agree_as_the_feature_model_grows(self, n, engine, mode):
        """Section 3: Echo's increasing loop (FASE'13), its decreasing
        optimiser (FASE'14) and the explicit search all repair a
        mandatory 'secure' missing from both configurations at distance
        4, beside n optional features."""
        features = {f"ft{i}": False for i in range(n)}
        features["secure"] = True
        env = paper_env(features, [f"ft{i}" for i in range(n)], [])
        t = paper_transformation(2)
        repair = enforce(
            t, env, TargetSelection(["cf1", "cf2"]), scope=SCOPE,
            engine=engine, mode=mode,
        )
        assert repair.distance == 4

    def test_one_answer_for_a_non_conformant_target(self):
        """ROADMAP item 2, pinned until it is fixed: the only target
        holds an int on a Boolean attribute (``mandatory: 1``). Today
        ``sat``, shared and per call, raises "this is a bug", ``search``
        repairs at distance 5 and ``guided`` finds no repair; every
        engine, and the request served off the wire, must give one
        (outcome, distance)."""
        t = paper_transformation(2)
        env = paper_env({"core": True, "log": False}, ["core"], ["core"])
        env["fm"] = env["fm"].with_object(
            env["fm"].get("f_core").with_attr("mandatory", 1)
        )
        targets = TargetSelection(["fm"])

        def answer(**options):
            try:
                repair = enforce(t, env, targets, **options)
            except NoRepairFound:
                return ("no-repair", None)
            except EnforcementError as exc:
                return ("error", str(exc))
            return (
                "consistent" if repair.engine == "none" else "repaired",
                repair.distance,
            )

        answers = {
            "sat": answer(engine="sat"),
            "sat-unshared": answer(engine="sat", share=False),
            "search": answer(engine="search"),
            "guided": answer(engine="guided"),
        }
        wire = request_to_dict(EnforceRequest.build(t, env, targets=["fm"]))
        try:
            served = serve_request(request_from_dict(wire))
        finally:
            clear_shared_sessions()
            reset_worker_state()
        answers["served"] = (
            (served.outcome, served.error)
            if served.outcome == "error"
            else (served.outcome, served.distance)
        )
        assert not any("this is a bug" in str(a) for a in answers.values()), answers
        assert len(set(answers.values())) == 1, answers


class TestScenarios:
    @pytest.mark.parametrize("k", [2, 3])
    def test_scenarios_start_consistent(self, k):
        for scenario in (
            scenario_mandatory_flip(k),
            scenario_new_mandatory_feature(k),
            scenario_rename(k),
        ):
            checker = Checker(scenario.transformation)
            assert checker.is_consistent(scenario.before), scenario.name
            assert not checker.is_consistent(scenario.after_update), scenario.name

    @pytest.mark.parametrize("k", [2, 3])
    def test_repairable_targets_succeed(self, k):
        for scenario in (
            scenario_mandatory_flip(k),
            scenario_new_mandatory_feature(k),
            scenario_rename(k),
        ):
            for targets in scenario.repairable_targets:
                repair = enforce(
                    scenario.transformation,
                    scenario.after_update,
                    TargetSelection(targets),
                    engine="sat",
                )
                assert repair.distance > 0, scenario.name

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_new_mandatory_feature_needs_every_configuration(self, k):
        """Section 3's closing example: after a new mandatory feature,
        the single-configuration ->F^1_CF cannot restore consistency,
        while ->F_CF^k repairs at distance 2k (a feature object and its
        name per configuration), the exact search's optimum for k <= 3."""
        scenario = scenario_new_mandatory_feature(k)
        cfs = config_params(k)
        with pytest.raises(NoRepairFound):
            enforce(
                scenario.transformation,
                scenario.after_update,
                TargetSelection([cfs[0]]),
                scope=SCOPE,
            )
        repair = enforce(
            scenario.transformation,
            scenario.after_update,
            TargetSelection(cfs),
            scope=SCOPE,
        )
        assert repair.distance == 2 * k
        if k <= 3:
            optimum = least_change_optimum(
                Checker(scenario.transformation),
                scenario.after_update,
                TargetSelection(cfs),
                scope=SCOPE,
            )
            assert optimum == repair.distance

    @pytest.mark.parametrize(
        "factory,targets,repairs",
        [
            (scenario_mandatory_flip, ["cf1"], False),
            (scenario_mandatory_flip, ["cf1", "cf2", "cf3"], True),
            (scenario_mandatory_flip, ["fm"], True),
            (scenario_rename, ["fm", "cf2", "cf3"], True),
        ],
        ids=["flip->F^1_CF", "flip->F_CF^k", "flip->F_FM", "rename->F^1_FMxCF^(k-1)"],
    )
    def test_transformation_space(self, factory, targets, repairs):
        """Section 3's shapes of one relation F at k = 3: a mandatory
        flip defeats ->F^1_CF but not ->F_CF^k, and reverting it through
        ->F_FM is legal too; a rename in cf1 is recovered by the feature
        model and the other configurations, leaving cf1 as edited."""
        scenario = factory(3)
        targets = TargetSelection(targets)
        if not repairs:
            with pytest.raises(NoRepairFound):
                enforce(
                    scenario.transformation,
                    scenario.after_update,
                    targets,
                    scope=SCOPE,
                )
            return
        repair = enforce(
            scenario.transformation, scenario.after_update, targets, scope=SCOPE
        )
        assert repair.distance > 0
        assert repair.changed <= targets.params

    @pytest.mark.parametrize("k", [2, 3])
    def test_unrepairable_targets_fail(self, k):
        """Section 3: single-configuration targets cannot restore
        consistency after a feature-model-side update."""
        for scenario in (
            scenario_mandatory_flip(k),
            scenario_new_mandatory_feature(k),
        ):
            for targets in scenario.unrepairable_targets:
                with pytest.raises(NoRepairFound):
                    enforce(
                        scenario.transformation,
                        scenario.after_update,
                        TargetSelection(targets),
                        engine="sat",
                    )

    def test_rename_repair_content(self):
        """The repair is minimal (distance 4) and 'kernel' reaches the
        feature model (forced by OF, since cf1 selects it).

        Reproduction note: the paper presents rename *propagation* as
        "the natural way to recover consistency", but least change alone
        does not single it out — demoting 'core' to optional plus
        renaming 'ui' in the feature model is equally minimal, and the
        solver may return either (README claim table, E6;
        tests/test_enumerate_repairs.py enumerates the optima).
        """
        scenario = scenario_rename(2)
        repair = enforce(
            scenario.transformation,
            scenario.after_update,
            TargetSelection(scenario.repairable_targets[0]),
            engine="sat",
        )
        assert repair.distance == 4
        fm_names = {str(o.attr("name")) for o in repair.models["fm"].objects}
        assert "kernel" in fm_names
        # cf1 (the user's edit) is untouched.
        assert repair.models["cf1"] == scenario.after_update["cf1"]


class TestLeastChange:
    @pytest.mark.parametrize(
        "fm,cf1,cf2,targets",
        [
            ({"core": True}, [], [], ("cf1", "cf2")),
            ({"core": True, "log": True}, ["core"], ["log"], ("cf1", "cf2")),
        ],
    )
    def test_sat_repair_is_least_change(self, fm, cf1, cf2, targets):
        t = paper_transformation(2)
        env = paper_env(fm, cf1, cf2)
        repair = enforce(t, env, TargetSelection(targets), engine="sat")
        optimum = least_change_optimum(
            Checker(t), env, TargetSelection(targets)
        )
        assert repair.distance == optimum

    def test_max_distance_cap(self):
        t = paper_transformation(2)
        env = paper_env({"core": True}, [], [])
        with pytest.raises(NoRepairFound):
            enforce(t, env, TargetSelection(["cf1", "cf2"]), max_distance=1)

    def test_weighted_repair_changes_witness(self):
        """Weights flip which side absorbs the change (E8's claim): with
        cf2 expensive, the repair avoids touching cf2; the paper's
        uniform sum touches at most fm and cf2."""
        scenario = scenario_rename(2)
        targets = TargetSelection(scenario.repairable_targets[0])
        for weights, scope, changeable in (
            ({"cf2": 5}, None, {"fm"}),
            ({"cf2": 3}, SCOPE, {"fm"}),
            ({}, SCOPE, {"fm", "cf2"}),
        ):
            repair = enforce(
                scenario.transformation,
                scenario.after_update,
                targets,
                metric=TupleMetric(weights),
                scope=scope,
            )
            assert repair.changed <= changeable, weights


class TestSearchEngineSpecifics:
    def test_search_stats_exposed(self):
        from repro.enforce.search import enforce_search

        t = paper_transformation(2)
        env = paper_env({"core": True}, ["core"], [])
        checker = Checker(t)
        repaired, cost, stats = enforce_search(
            checker, env, TargetSelection(["cf2"])
        )
        assert cost == 2
        assert stats.popped >= 1 and stats.pushed >= stats.popped

    def test_search_budget_exhaustion(self):
        from repro.enforce.search import enforce_search

        t = paper_transformation(2)
        env = paper_env({"core": True, "log": True}, [], [])
        with pytest.raises(NoRepairFound, match="budget"):
            enforce_search(
                Checker(t), env, TargetSelection(["cf1", "cf2"]), max_states=3
            )

    def test_search_max_distance(self):
        from repro.enforce.search import enforce_search

        t = paper_transformation(2)
        env = paper_env({"core": True}, [], [])
        with pytest.raises(NoRepairFound):
            enforce_search(
                Checker(t),
                env,
                TargetSelection(["cf1", "cf2"]),
                max_distance=1,
            )
