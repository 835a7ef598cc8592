"""Persistent enforcement sessions: equivalence + reuse lockdown.

The :class:`~repro.enforce.session.EnforcementSession` must answer every
question with the same optimum distance (and a fully verified repair) as
the one-shot :func:`repro.enforce.enforce` SAT path, while grounding the
transformation constraints exactly once for any stream of in-universe
edits. Out-of-universe edits (new attribute values, drifted frozen
models) must transparently re-ground, never mis-answer.
"""

import gc
import gzip
import json
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.echo.tool import Echo
from repro.echo.workspace import Workspace
from repro.enforce import EnforcementSession, TargetSelection, TupleMetric, enforce
from repro.enforce.session import (
    SHARED_SESSION_LIMIT,
    clear_shared_sessions,
    shared_session,
    shared_session_counters,
)
from repro.errors import EnforcementError, NoRepairFound, SolverError
from repro.featuremodels import (
    configuration,
    configuration_metamodel,
    feature_metamodel,
    feature_model,
    paper_transformation,
)
from repro.gen import random_scenario, scenario_requests
from repro.metamodel.meta import Attribute, Class, Metamodel
from repro.metamodel.model import Model, ModelObject
from repro.metamodel.types import STRING
from repro.qvtr.syntax.parser import parse_transformation
from repro.serve.requests import (
    request_from_dict,
    request_to_dict,
    response_to_dict,
)
from repro.serve.supervisor import WorkerSlot
from repro.serve.worker import reset_worker_state, serve_request
from repro.solver.bounded import Grounder, Scope
from repro.solver.sat import GLOBAL_STATS
from tests.strategies import enforce_answer, toggle_stream


def _tuple(fm_features, cf1_selected, cf2_selected):
    return {
        "fm": feature_model(fm_features).renamed("fm"),
        "cf1": configuration(cf1_selected).renamed("cf1"),
        "cf2": configuration(cf2_selected).renamed("cf2"),
    }


SCOPE = Scope(extra_objects=2)


@pytest.fixture
def collector_off():
    """Run a test with the cyclic collector disabled."""
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


def _freeze_count(_argument) -> int:
    """A worker task: how many objects the worker process keeps frozen."""
    return gc.get_freeze_count()


class TestSessionEquivalence:
    def test_matches_oneshot_enforce_across_edits(self):
        transformation = paper_transformation(k=2)
        session = EnforcementSession(
            transformation, TargetSelection(["cf1", "cf2"]), scope=SCOPE
        )
        edits = [
            _tuple({"core": True}, [], ["core"]),
            _tuple({"core": True}, ["core"], []),
            _tuple({"core": True, "log": False}, [], []),
            _tuple({"core": True}, ["core"], ["core"]),  # consistent
        ]
        for models in edits:
            from_session = session.enforce(models)
            reference = enforce(
                transformation,
                models,
                TargetSelection(["cf1", "cf2"]),
                engine="sat",
                scope=SCOPE,
                share=False,  # re-ground per edit
            )
            assert from_session.distance == reference.distance
            assert from_session.engine == reference.engine
            # verify_repair already guarded consistency/conformance/
            # distance inside the session; spot-check hippocraticness.
            if reference.distance == 0:
                assert from_session.models == dict(models)

    def test_modes_and_max_distance(self):
        transformation = paper_transformation(k=2)
        session = EnforcementSession(
            transformation,
            TargetSelection(["cf1", "cf2"]),
            scope=SCOPE,
            mode="decreasing",
        )
        models = _tuple({"core": True}, [], [])
        repair = session.enforce(models)
        assert repair.distance == 4  # two features, alive + name each
        with pytest.raises(NoRepairFound):
            session.enforce(models, max_distance=repair.distance - 1)
        # the session survives a failed (capped) query; forget the first
        # answer, so the solver answers again
        session._answers.clear()
        assert session.enforce(models).distance == repair.distance
        assert session.hits == 0

    @pytest.mark.parametrize("mode", ["increasing", "decreasing"])
    @pytest.mark.parametrize("share", [True, False])
    def test_negative_distance_cap_rejected_alike(self, mode, share):
        """A negative cap is one typed error in both MaxSAT modes, on
        the shared and the per-call grounding and through the session
        verb."""
        transformation = paper_transformation(k=2)
        targets = TargetSelection(["cf1", "cf2"])
        models = _tuple({"core": True}, [], [])
        with pytest.raises(SolverError, match="max_cost must be >= 0"):
            enforce(
                transformation, models, targets,
                scope=SCOPE, mode=mode, max_distance=-1, share=share,
            )
        session = EnforcementSession(
            transformation, targets, scope=SCOPE, mode=mode
        )
        with pytest.raises(SolverError, match="max_cost must be >= 0"):
            session.enforce(models, max_distance=-1)
        assert session.enforce(models).distance == 4

    def test_missing_binding_rejected(self):
        session = EnforcementSession(
            paper_transformation(k=2), TargetSelection(["cf1"]), scope=SCOPE
        )
        with pytest.raises(EnforcementError):
            session.enforce({"fm": feature_model({"core": True})})


class TestSessionReuse:
    def test_in_universe_edits_ground_once(self):
        session = EnforcementSession(
            paper_transformation(k=2),
            TargetSelection(["cf1", "cf2"]),
            scope=SCOPE,
        )
        before = Grounder.translations
        builds_before = GLOBAL_STATS.solver_builds
        # Every edit stays inside the first tuple's grounded universe:
        # cf1's universe contains s_core from the start, cf2's never
        # grows beyond its fresh objects.
        session.enforce(_tuple({"core": True}, ["core"], []))
        session.enforce(_tuple({"core": True}, [], []))
        # Forget the first answer, so its return is patched too.
        session._answers.clear()
        session.enforce(_tuple({"core": True}, ["core"], []))
        assert session.groundings == 1
        assert (session.reuses, session.hits) == (2, 0)
        # one grounding == one (shared) solver for maxsat + oracle
        assert Grounder.translations - before == 1
        assert GLOBAL_STATS.solver_builds - builds_before == 1

    def test_out_of_pool_edit_regrounds(self):
        session = EnforcementSession(
            paper_transformation(k=2),
            TargetSelection(["cf1", "cf2"]),
            scope=SCOPE,
        )
        session.enforce(_tuple({"core": True}, [], ["core"]))
        # "shiny" never appeared anywhere: outside the grounded value
        # pools and universe, so the cached grounding cannot express it.
        repair = session.enforce(_tuple({"core": True}, ["shiny"], ["core"]))
        assert session.groundings == 2
        assert repair.distance > 0

    def test_frozen_drift_regrounds(self):
        session = EnforcementSession(
            paper_transformation(k=2),
            TargetSelection(["cf1", "cf2"]),
            scope=SCOPE,
        )
        session.enforce(_tuple({"core": True}, [], ["core"]))
        repair = session.enforce(_tuple({"core": True, "log": True}, [], []))
        assert session.groundings == 2
        assert repair.distance > 0
        # and the repair respects the *new* feature model
        for param in ("cf1", "cf2"):
            names = {
                str(o.attr("name"))
                for o in repair.models[param].objects_of("Feature")
            }
            assert names == {"core", "log"}

    def test_nonconformant_consistent_input_is_cache_independent(self):
        """The hippocratic answer may not depend on cache state.

        A consistent tuple whose target is *non-conformant* (missing
        mandatory attribute) is left untouched by ``enforce()``; the
        session must answer identically before AND after it holds a
        cached grounding (the oracle's stricter verdict defers to the
        checker)."""
        mm = Metamodel(
            "TG",
            (
                Class(
                    "Feature",
                    attributes=(
                        Attribute("name", STRING),
                        Attribute("tag", STRING),
                    ),
                ),
            ),
        )
        transformation = parse_transformation(
            """
            transformation T (a : TG, b : TG) {
              top relation Same {
                n : String;
                domain a x : Feature { name = n }
                domain b y : Feature { name = n }
              }
            }
            """
        )

        def feature(name, tag, model_name):
            attrs = {"name": name}
            if tag is not None:
                attrs["tag"] = tag
            return Model(
                mm, (ModelObject.create("f1", "Feature", attrs, {}),), model_name
            )

        conformant_a = feature("x", "t", "a")
        nonconformant_b = feature("x", None, "b")  # consistent: names match
        session = EnforcementSession(transformation, TargetSelection(["b"]))
        first = session.enforce({"a": conformant_a, "b": nonconformant_b})
        assert first.engine == "none" and first.distance == 0
        # Prime the cache with a genuinely inconsistent edit ...
        repaired = session.enforce(
            {"a": conformant_a, "b": feature("y", "t", "b")}
        )
        assert repaired.distance > 0 and session.groundings == 1
        # ... and re-ask the original question: same answer as before.
        # Forget the first answer, so the cached grounding answers it.
        session._answers.clear()
        again = session.enforce({"a": conformant_a, "b": nonconformant_b})
        assert again.engine == "none" and again.distance == 0
        assert (session.groundings, session.reuses, session.hits) == (1, 1, 0)

    @pytest.mark.parametrize("targets", [["cf2"], ["cf1", "cf2"]])
    def test_weight_zero_target_answers_like_per_call(self, targets):
        """A weight-0 target has no distance atoms, so a cost-0 optimum
        may change it: the tuple below is inconsistent, and per-call
        enforcement repairs it at distance 0 by selecting ``log`` in
        ``cf2``. The patched second call must not read that cost-0
        optimum as "already consistent"."""
        transformation = paper_transformation(k=2)
        selection = TargetSelection(targets)
        metric = TupleMetric({"cf2": 0})
        models = _tuple({"core": True, "log": True}, ["core", "log"], ["core"])
        reference = enforce_answer(
            lambda: enforce(
                transformation, models, selection, metric=metric, share=False
            )
        )
        assert reference == ("repaired", 0)
        session = EnforcementSession(transformation, selection, metric=metric)
        first = enforce_answer(lambda: session.enforce(models))
        # Forget the first answer, so the patched grounding answers again.
        session._answers.clear()
        again = enforce_answer(lambda: session.enforce(models))
        assert [first, again] == [reference, reference]
        assert (session.groundings, session.reuses, session.hits) == (1, 1, 0)

    def test_consistent_input_needs_no_grounding(self):
        session = EnforcementSession(
            paper_transformation(k=2),
            TargetSelection(["cf1", "cf2"]),
            scope=SCOPE,
        )
        repair = session.enforce(_tuple({"core": True}, ["core"], ["core"]))
        assert repair.engine == "none"
        assert session.groundings == 0


class TestMonotoneUniverse:
    """Object ids a shape has not grounded do not re-ground it.

    A state whose configuration holds a never-grounded id is renamed onto
    an absent universe id of the same class and solved on the warm
    generation, so a toggle stream re-grounds at most once per new object
    id, not per toggle — and, on these streams, not at all.
    """

    def test_toggle_stream_regrounds_once_per_new_id(self):
        """The count gate. Four features, 48 toggles: every feature id
        is known after the first grounding except one per configuration
        (cf1 starts without s_f3, cf2 without s_f2), so three groundings
        suffice. Measured: 3 with ghosts, 8 when a re-ground forgets the
        ids it replaced."""
        transformation = paper_transformation(k=2)
        targets = TargetSelection(["cf1", "cf2"])
        stream = toggle_stream(features=4, requests=48)
        session = EnforcementSession(transformation, targets)
        answers = [enforce_answer(lambda: session.enforce(models)) for models in stream]
        assert session.groundings <= 3
        references = [
            enforce_answer(
                lambda: enforce(transformation, models, targets, share=False)
            )
            for models in stream
        ]
        assert answers == references
        assert {outcome for outcome, _ in answers} == {"consistent", "repaired"}

    def test_a_stream_of_new_ids_grounds_once(self):
        """Every step selects a never-seen feature id. Each is renamed
        onto the warm grounding, and the answers stay per-call SAT's.
        Measured: 1 grounding (6 when every new id re-grounded)."""
        transformation = paper_transformation(k=2)
        targets = TargetSelection(["cf1", "cf2"])
        features = {"core": True, **{f"f{i}": False for i in range(6)}}
        session = EnforcementSession(transformation, targets, scope=SCOPE)
        for i in range(6):
            models = _tuple(features, [f"f{i}"], ["core"])
            answer = enforce_answer(lambda: session.enforce(models))
            reference = enforce_answer(
                lambda: enforce(
                    transformation, models, targets, scope=SCOPE, share=False
                )
            )
            assert answer == reference == ("repaired", 2)
        assert (session.groundings, session.reuses, session.renames) == (1, 5, 5)

    def test_reviving_a_dropped_id_answers_like_per_call(self):
        """A state that brings a dropped id back next to a new one is
        served on the first grounding, at per-call SAT's distance.
        Measured: 1 grounding (2 when the new ``s_b`` re-grounded)."""
        transformation = paper_transformation(k=2)
        targets = TargetSelection(["cf1", "cf2"])
        features = {"core": True, "a": False, "b": False}
        session = EnforcementSession(transformation, targets, scope=SCOPE)
        session.enforce(_tuple(features, ["a"], ["core"]))
        session.enforce(_tuple(features, ["b"], ["core"]))  # s_b is new
        revived = _tuple(features, ["a", "b"], ["core"])
        repaired, distance = session.solve_tuple(revived)
        assert session.groundings == 1
        assert {"s_a", "s_b"} <= set(repaired["cf1"].object_ids())
        reference = enforce(
            transformation, revived, targets, scope=SCOPE, share=False
        )
        assert distance == reference.distance == 2


_CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"


def _cf(name, *objects):
    """A configuration from ``(object id, feature name)`` pairs."""
    return Model(
        configuration_metamodel(),
        tuple(
            ModelObject.create(oid, "Feature", {"name": feature})
            for oid, feature in objects
        ),
        name,
    )


def _renamed(model, mapping):
    """``model`` with its object ids renamed by ``mapping``."""
    return Model(
        model.metamodel,
        tuple(
            ModelObject(mapping.get(o.oid, o.oid), o.cls, o.attrs, o.refs)
            for o in model.objects
        ),
        model.name,
    )


@st.composite
def _renamed_questions(draw):
    """A paper k=2 tuple and a copy whose cf1 or cf2 ids are renamed by
    a bijection onto ids the tuple's grounding may or may not hold
    (feature ids, fresh-slot ids, unknown ids)."""
    names = ["f0", "f1", "f2", "f3"]
    fm = {name: draw(st.booleans()) for name in names if draw(st.booleans())}
    models = {"fm": feature_model(fm or {"f0": True})}
    for param in ("cf1", "cf2"):
        selected = draw(st.lists(st.sampled_from(names), unique=True))
        models[param] = configuration(selected, name=param)
    param = draw(st.sampled_from(["cf1", "cf2"]))
    ids = draw(st.permutations(
        ["s_f0", "s_f1", "s_f2", "s_f3", "s_x", "s_y", "new_feature_1",
         "new_feature_2"]
    ))
    mapping = dict(zip(models[param].object_ids(), ids))
    return models, dict(models, **{param: _renamed(models[param], mapping)})


class TestRenaming:
    """Renamed states answer like per-call enforcement of the original.

    A renamed state's answer is kept only under the exactness
    certificate (``EnforcementSession._optimum``): every fallback path
    below re-grounds and answers like per-call SAT, and every certified
    path keeps the warm grounding.
    """

    T = paper_transformation(k=2)
    TARGETS = TargetSelection(["cf1", "cf2"])
    E1 = Scope(extra_objects=1)

    def _stream(self, stream, scope=None, metric=TupleMetric(), cap=None):
        """Session answers, per-call answers and whether each step
        re-grounded."""
        session = EnforcementSession(
            self.T, self.TARGETS, scope=scope, metric=metric
        )
        answers, references, regrounds = [], [], []
        for models in stream:
            before = session.groundings
            answers.append(enforce_answer(
                lambda: session.enforce(models, max_distance=cap)
            ))
            regrounds.append(session.groundings > before)
            references.append(enforce_answer(lambda: enforce(
                self.T, models, self.TARGETS, scope=scope, metric=metric,
                max_distance=cap, share=False,
            )))
        return answers, references, regrounds

    def test_paper_fm_corpus_never_regrounds_after_warm_up(self):
        """The frozen paper-fm corpus, served inline in file order after
        its warm-up: every request is a reuse, and every answer matches
        the frozen reference. Measured: 4 groundings before renaming."""
        with gzip.open(_CORPUS / "paper-fm.json.gz", "rt") as handle:
            corpus = json.load(handle)
        clear_shared_sessions()
        reset_worker_state()
        try:
            serve_request(request_from_dict(corpus["warmup"]))
            (before,) = shared_session_counters()
            answers = []
            for wire in corpus["requests"]:
                reply = response_to_dict(serve_request(request_from_dict(wire)))
                answers.append([reply["outcome"], reply["distance"]])
            (after,) = shared_session_counters()
        finally:
            clear_shared_sessions()
            reset_worker_state()
        assert len(answers) == 48
        assert answers == corpus["reference"]
        assert after["groundings"] == before["groundings"]
        assert after["reuses"] - before["reuses"] == 48
        assert after["renames"] > before["renames"]

    def test_an_optimum_above_the_bound_regrounds(self):
        """cf1's new ``s_x`` takes the only fresh slot and cf1 dropped
        nothing, so the renamed state may create no Feature where
        per-call may create one: the bound is 1 and the cost-2 optimum
        re-grounds."""
        fm = feature_model({"a": True, "b": True, "x": False})
        first = {"fm": fm, "cf1": configuration(["a"], name="cf1"),
                 "cf2": configuration(["a", "b"], name="cf2")}
        second = dict(first, cf1=configuration(["a", "x"], name="cf1"))
        answers, references, regrounds = self._stream(
            [first, second], scope=self.E1
        )
        assert answers == references == [("repaired", 2), ("repaired", 2)]
        assert regrounds == [True, True]

    @pytest.mark.parametrize(
        "cap, reference, regrounds",
        [
            (None, ("repaired", 2), True),
            (2, ("repaired", 2), True),
            (1, ("no-repair", None), True),  # cap == bound: not certified
            (0, ("no-repair", None), False),  # cap < bound: certified
        ],
    )
    def test_a_no_repair_is_kept_only_below_the_bound(
        self, cap, reference, regrounds
    ):
        """cf1 needs ``c`` created, and the renamed ``s_b`` took cf1's
        only fresh slot: the warm solve finds no repair, but per-call
        creates ``c`` at distance 2. The bound is 1, so only a cap
        below it certifies the no-repair answer."""
        fm = feature_model({"a": True, "b": True, "c": True})
        first = {"fm": fm, "cf1": configuration(["a"], name="cf1"),
                 "cf2": configuration(["a", "b", "c"], name="cf2")}
        second = dict(first, cf1=configuration(["a", "b"], name="cf1"))
        answers, references, steps = self._stream(
            [first, second], scope=self.E1, cap=cap
        )
        assert answers == references
        assert answers[1] == reference
        assert steps[1] == regrounds

    def test_a_weight_zero_target_bounds_at_zero(self):
        """cf2 weighs 0 and its renamed ``s_y`` leaves it no absent id,
        so a repair beyond the renamed universe may cost nothing: only a
        cost-0 optimum is certified, and the cost-2 one re-grounds.
        Renaming cf1 alone keeps the same cost-2 optimum certified."""
        fm = feature_model({"a": True, "b": False, "c": False})
        metric = TupleMetric({"cf2": 0})
        first = {"fm": fm, "cf1": configuration(["a", "b"], name="cf1"),
                 "cf2": configuration(["c"], name="cf2")}
        cf1_only = dict(first, cf1=configuration(["c"], name="cf1"))
        both = dict(cf1_only, cf2=_cf("cf2", ("s_c", "c"), ("s_y", "b")))
        for second, regrounds in ((cf1_only, False), (both, True)):
            answers, references, steps = self._stream(
                [first, second], scope=self.E1, metric=metric
            )
            assert answers == references == [("repaired", 0), ("repaired", 2)]
            assert steps == [True, regrounds]

    def test_the_states_own_scope_decides(self):
        """Adaptive scope: the first tuple's 4-object cf1 grounds 4 fresh
        slots per class, and the second tuple's own scope creates 2.
        cf2's renamed ``s_q`` leaves it 3 absent ids, enough for the
        state's scope, so the cost-6 optimum is certified (the grounding's
        scope would bound it at 4)."""
        fm = feature_model({"a": True, "b": True})
        first = {
            "fm": fm,
            "cf1": _cf("cf1", ("s_a", "a"), ("s_b", "b"), ("s_x", "x"),
                       ("s_y", "y")),
            "cf2": configuration(["a"], name="cf2"),
        }
        second = dict(
            first,
            cf1=configuration([], name="cf1"),
            cf2=_cf("cf2", ("s_a", "a"), ("s_q", "x")),
        )
        answers, references, regrounds = self._stream([first, second])
        assert answers == references == [("repaired", 6), ("repaired", 6)]
        assert regrounds == [True, False]

    @given(_renamed_questions())
    @settings(max_examples=40, deadline=None)
    def test_renaming_ids_keeps_verdict_and_distance(self, question):
        """A bijective renaming of a target's ids changes neither verdict
        nor distance: per call, on a cold session, and on a session warm
        from the original tuple."""
        models, renamed = question
        per_call = [
            enforce_answer(
                lambda: enforce(self.T, m, self.TARGETS, share=False)
            )
            for m in (models, renamed)
        ]
        cold = EnforcementSession(self.T, self.TARGETS)
        warm = EnforcementSession(self.T, self.TARGETS)
        try:
            warm.solve_tuple(models)
        except NoRepairFound:
            pass
        assert warm.groundings == 1
        assert per_call[0] == per_call[1]
        assert enforce_answer(lambda: cold.enforce(renamed)) == per_call[0]
        assert enforce_answer(lambda: warm.enforce(renamed)) == per_call[0]


@st.composite
def _shrinking_questions(draw):
    """A paper k=2 tuple whose feature model holds every feature, a
    target selection and two smaller tuples over the first one's object
    ids: each target keeps a subset of its objects. The smaller tuples
    are patched onto the first grounding (no id to rename) and may have
    a smaller adaptive scope."""
    names = ["f0", "f1", "f2", "f3", "f4"]
    fm = {name: draw(st.booleans()) for name in names}
    selected = {
        param: draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
        for param in ("cf1", "cf2")
    }
    targets = draw(st.sampled_from([["fm"], ["cf1", "cf2"]]))

    def state(shrink):
        # A shrunk feature model keeps at most two features, so its
        # scope can fall below what the configurations select.
        kept = {
            "fm": draw(st.lists(st.sampled_from(sorted(fm)), unique=True, max_size=2))
            if shrink and "fm" in targets
            else sorted(fm),
        }
        for param in ("cf1", "cf2"):
            kept[param] = [
                name
                for name in selected[param]
                if not shrink or param not in targets or draw(st.booleans())
            ]
        return {
            "fm": feature_model({name: fm[name] for name in kept["fm"]}),
            "cf1": configuration(kept["cf1"], name="cf1"),
            "cf2": configuration(kept["cf2"], name="cf2"),
        }

    return state(False), TargetSelection(targets), [state(True), state(True)]


class TestAdaptiveScope:
    """A session grounded on a larger state answers a smaller one like
    per-call enforcement: the adaptive scope shrinks with the state, so
    the creation budget keeps only the smaller state's own
    ``extra_objects`` absent ids creatable per class, not every fresh
    slot of the grounding. Without that cap, a feature model emptied of
    most features was repaired by creating more of them than its own
    scope allows, where per-call enforcement finds no repair."""

    T = paper_transformation(k=2)

    @given(_shrinking_questions())
    @settings(max_examples=30, deadline=None)
    def test_a_smaller_state_answers_like_per_call(self, question):
        big, targets, smaller = question
        session = EnforcementSession(self.T, targets)
        try:
            session.solve_tuple(big)
        except NoRepairFound:
            pass
        for models in smaller:
            assert enforce_answer(lambda: session.enforce(models)) == enforce_answer(
                lambda: enforce(self.T, models, targets, share=False)
            )
        assert (session.groundings, session.renames) == (1, 0)

    def test_a_shrunk_feature_model_is_not_repaired_beyond_its_scope(self):
        """The configurations select four features between them, and the
        feature model shrinks from all four to one. The first tuple's
        scope creates 4 features per class, the second's 2; the second
        needs 3, so per-call enforcement finds no repair. Measured
        before the cap: the warm session repaired it at distance 9."""
        targets = TargetSelection(["fm"])
        big = {
            "fm": feature_model({"a": False, "b": False, "c": False, "d": False}),
            "cf1": configuration(["a", "b"], name="cf1"),
            "cf2": configuration(["c", "d"], name="cf2"),
        }
        small = dict(big, fm=feature_model({"a": False}))
        session = EnforcementSession(self.T, targets)
        assert session.solve_tuple(big)[1] == 0
        reference = enforce_answer(
            lambda: enforce(self.T, small, targets, share=False)
        )
        assert reference == ("no-repair", None)
        assert enforce_answer(lambda: session.enforce(small)) == reference
        assert (session.groundings, session.renames) == (1, 0)


class TestAnswerMemo:
    """A cached session answers a state it already answered, under the
    same cap, from memory: no grounding, no solve."""

    def _session(self, **kwargs):
        return EnforcementSession(
            paper_transformation(k=2),
            TargetSelection(["cf1", "cf2"]),
            scope=SCOPE,
            **kwargs,
        )

    def test_a_repeated_state_takes_no_solve(self):
        session = self._session()
        models = _tuple({"core": True}, [], ["core"])
        first = session.enforce(models)
        session.enforce(_tuple({"core": True}, ["core"], []))
        before = GLOBAL_STATS.snapshot()
        again = session.enforce(dict(models))
        assert (GLOBAL_STATS.snapshot() - before).solves == 0
        assert again == first and again.distance > 0
        assert again.models is not first.models
        assert (session.hits, session.reuses, session.groundings) == (1, 2, 1)
        assert session.counters()["hits"] == 1

    def test_a_handed_out_models_dict_is_the_callers(self):
        session = self._session()
        models = _tuple({"core": True}, [], ["core"])
        first = session.enforce(models)
        expected = dict(first.models)
        first.models.clear()
        assert session.enforce(models).models == expected

    def test_a_repeated_no_repair_verdict_takes_no_solve(self):
        session = self._session()
        models = _tuple({"core": True}, [], ["core"])
        with pytest.raises(NoRepairFound) as first:
            session.enforce(models, max_distance=0)
        message = (str(first.value), first.value.explored_distance)
        del first
        before = GLOBAL_STATS.snapshot()
        with pytest.raises(NoRepairFound) as again:
            session.enforce(models, max_distance=0)
        assert (GLOBAL_STATS.snapshot() - before).solves == 0
        assert (str(again.value), again.value.explored_distance) == message
        assert session.hits == 1
        # The cap is part of the question: a wider one is a new answer.
        assert session.enforce(models, max_distance=None).distance > 0
        assert session.hits == 1

    def test_close_forgets_the_answers(self):
        session = self._session()
        models = _tuple({"core": True}, [], ["core"])
        session.enforce(models)
        session.close()
        session.enforce(models)
        assert (session.groundings, session.hits) == (2, 0)

    def test_the_uncached_arm_solves_every_call(self):
        session = self._session(cache=False)
        models = _tuple({"core": True}, [], ["core"])
        first = session.enforce(models)
        before = GLOBAL_STATS.snapshot()
        assert session.enforce(models).distance == first.distance
        assert (GLOBAL_STATS.snapshot() - before).solves > 0
        assert session.hits == 0

    def test_a_boolean_state_is_not_its_integer_twin(self):
        """``Model`` equality reads ``True == 1``; the checker does not.
        A state whose mandatory flag is ``1`` is a new question after
        the same state with ``True``, and its frozen feature model a
        drift, so it is answered like per-call enforcement."""

        def state(mandatory):
            fm = Model(
                feature_metamodel(),
                (
                    ModelObject.create(
                        "f_core", "Feature", {"name": "core", "mandatory": mandatory}
                    ),
                ),
                "fm",
            )
            return {
                "fm": fm,
                "cf1": configuration(["core"]).renamed("cf1"),
                "cf2": configuration([]).renamed("cf2"),
            }

        session = self._session()
        selection = TargetSelection(["cf1", "cf2"])
        references = []
        for mandatory in (True, 1):
            models = state(mandatory)
            reference = enforce_answer(
                lambda: enforce(
                    session.transformation, models, selection, scope=SCOPE,
                    share=False,
                )
            )
            assert enforce_answer(lambda: session.enforce(models)) == reference
            references.append(reference)
        assert references[0] != references[1]
        assert session.hits == 0
        # The state asked last is remembered as it was asked.
        assert enforce_answer(lambda: session.enforce(state(1))) == reference
        assert session.hits == 1

    def test_the_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(EnforcementSession, "ANSWER_LIMIT", 2)
        session = self._session()
        states = [
            _tuple({"core": True}, [], ["core"]),
            _tuple({"core": True}, ["core"], []),
            _tuple({"core": True}, [], []),
        ]
        for models in states:
            session.enforce(models)
        session.enforce(states[2])
        session.enforce(states[0])  # the oldest was forgotten
        assert session.hits == 1
        assert len(session._answers) == 2


class TestSharedSessionEviction:
    """LRU eviction of the shared grounding cache must actually release.

    A cached session holds a full grounding, a MaxSAT session and an
    incremental solver; if eviction left a hidden strong reference, a
    long-running workspace cycling through many question shapes would
    leak one solver per shape.
    """

    def setup_method(self):
        clear_shared_sessions()

    def teardown_method(self):
        clear_shared_sessions()

    def test_eviction_releases_the_session(self):
        transformations = [
            paper_transformation(k=2) for _ in range(SHARED_SESSION_LIMIT + 1)
        ]
        first = shared_session(
            transformations[0], TargetSelection(["cf1", "cf2"]), scope=SCOPE
        )
        models = _tuple({"core": True}, [], ["core"])
        first.enforce(models)  # make it hold a live grounding + solver
        _memoize_no_repair(first, models)
        graveyard = (
            weakref.ref(first),
            weakref.ref(first._active.maxsat),
            weakref.ref(first._active.maxsat.solver),
            weakref.ref(first._active.grounding),
        )
        del first, models
        # Fill the cache past its limit with distinct question shapes
        # (transformation identity keys the cache): the LRU entry above
        # must be evicted and everything it owned collected.
        for transformation in transformations[1:]:
            shared_session(
                transformation, TargetSelection(["cf1", "cf2"]), scope=SCOPE
            )
        gc.collect()
        leaked = [ref() for ref in graveyard if ref() is not None]
        assert not leaked, f"evicted session still alive: {leaked}"

    def test_eviction_frees_the_session_without_a_collection(
        self, collector_off
    ):
        """With the collector off only reference counting frees memory:
        an evicted session, its MaxSAT session, solver and grounding
        must still die the moment the LRU drops them, a remembered
        no-repair verdict included."""
        transformations = [
            paper_transformation(k=2) for _ in range(SHARED_SESSION_LIMIT + 1)
        ]
        first = shared_session(
            transformations[0], TargetSelection(["cf1", "cf2"]), scope=SCOPE
        )
        models = _tuple({"core": True}, [], ["core"])
        first.enforce(models)
        _memoize_no_repair(first, models)
        graveyard = (
            weakref.ref(first),
            weakref.ref(first._active.maxsat),
            weakref.ref(first._active.maxsat.solver),
            weakref.ref(first._active.grounding),
        )
        del first, models
        for transformation in transformations[1:]:
            shared_session(
                transformation, TargetSelection(["cf1", "cf2"]), scope=SCOPE
            )
        leaked = [ref() for ref in graveyard if ref() is not None]
        assert not leaked, f"evicted session needs a collection: {leaked}"

    def test_a_dropped_session_with_a_remembered_verdict_needs_no_collection(
        self, collector_off
    ):
        """``clear_shared_sessions`` drops sessions without closing them.
        A remembered no-repair verdict is data, not the exception: an
        exception's traceback would pin the solve's frames, and through
        them the session, its solver and grounding, in a cycle that only
        a collection frees."""
        first = shared_session(
            paper_transformation(k=2), TargetSelection(["cf1", "cf2"]),
            scope=SCOPE,
        )
        models = _tuple({"core": True}, [], ["core"])
        _memoize_no_repair(first, models)
        graveyard = (
            weakref.ref(first),
            weakref.ref(first._active.maxsat.solver),
            weakref.ref(first._active.grounding),
        )
        del first, models
        clear_shared_sessions()
        leaked = [ref() for ref in graveyard if ref() is not None]
        assert not leaked, f"dropped session needs a collection: {leaked}"

    def test_eviction_and_clear_unfreeze_the_heap(self):
        """A re-ground freezes the heap; an eviction (``close``) and
        ``clear_shared_sessions`` each leave nothing frozen."""
        targets = TargetSelection(["cf1", "cf2"])
        models = _tuple({"core": True}, [], ["core"])
        shared_session(paper_transformation(k=2), targets, scope=SCOPE).enforce(
            models
        )
        assert gc.get_freeze_count() > 0
        for _ in range(SHARED_SESSION_LIMIT):
            shared_session(paper_transformation(k=2), targets, scope=SCOPE)
        assert gc.get_freeze_count() == 0  # the first shape was evicted
        shared_session(paper_transformation(k=2), targets, scope=SCOPE).enforce(
            models
        )
        assert gc.get_freeze_count() > 0
        clear_shared_sessions()
        assert gc.get_freeze_count() == 0

    def test_a_cycle_frozen_by_a_reground_is_reclaimed_after_close(
        self, collector_off
    ):
        """The freeze never leaks: a cycle a caller made before a
        re-ground is frozen with the heap, and collectable again once
        the session is closed."""

        class Node:
            pass

        node = Node()
        node.self = node
        cycle = weakref.ref(node)
        del node
        session = EnforcementSession(
            paper_transformation(k=2), TargetSelection(["cf1", "cf2"]),
            scope=SCOPE,
        )
        session.enforce(_tuple({"core": True}, [], ["core"]))
        assert session.groundings == 1
        gc.collect()
        assert cycle() is not None  # frozen: out of the collector's reach
        session.close()
        gc.collect()
        assert cycle() is None

    def test_a_forked_worker_starts_with_nothing_frozen(self):
        """A worker forked from a parent with a frozen heap unfreezes it
        first (``clear_shared_sessions``): it never keeps a frozen copy
        of its parent's heap that it could never release."""
        EnforcementSession(
            paper_transformation(k=2), TargetSelection(["cf1", "cf2"]),
            scope=SCOPE,
        ).enforce(_tuple({"core": True}, [], ["core"]))
        assert gc.get_freeze_count() > 0
        slot = WorkerSlot(0)
        try:
            slot.send(_freeze_count, None)
            assert slot.recv() == 0
        finally:
            slot.stop()

    def test_evicted_shape_regrounds_exactly_once_on_return(self):
        transformation = paper_transformation(k=2)
        targets = TargetSelection(["cf1", "cf2"])
        models = _tuple({"core": True}, ["core"], [])
        first = shared_session(transformation, targets, scope=SCOPE)
        baseline = first.enforce(models)
        assert first.groundings == 1
        fillers = [
            paper_transformation(k=2) for _ in range(SHARED_SESSION_LIMIT)
        ]
        for filler in fillers:
            shared_session(filler, targets, scope=SCOPE)
        # The shape was evicted: returning to it builds a fresh session …
        before = Grounder.translations
        again = shared_session(transformation, targets, scope=SCOPE)
        assert again is not first
        repair = again.enforce(models)
        assert repair.distance == baseline.distance
        # … which grounds exactly once and then reuses, like any session:
        # the follow-up edit stays inside the re-grounded universe.
        again.enforce(_tuple({"core": True}, [], []))
        assert again.groundings == 1
        assert Grounder.translations - before == 1

    def test_eviction_closes_a_still_referenced_session(self):
        """Eviction must release groundings even while a caller retains
        the session object — ``close()``, not mere cache removal.

        Before the disposal hook, a long-lived holder of an evicted
        shape (the Echo tool keeps sessions across edits) silently
        pinned the full grounding + solver; now eviction empties the
        session, which transparently re-grounds on its next call.
        """
        transformation = paper_transformation(k=2)
        targets = TargetSelection(["cf1", "cf2"])
        models = _tuple({"core": True}, ["core"], [])
        first = shared_session(transformation, targets, scope=SCOPE)
        first.enforce(models)
        assert first._active is not None
        graveyard = (
            weakref.ref(first._active.maxsat),
            weakref.ref(first._active.maxsat.solver),
            weakref.ref(first._active.grounding),
        )
        for _ in range(SHARED_SESSION_LIMIT):
            shared_session(
                paper_transformation(k=2), targets, scope=SCOPE
            )
        # Still referenced, yet everything heavy is gone: the close()
        # dropped the generation with its grounding + solver.
        assert first.counters()["closes"] == 1
        assert first._active is None
        gc.collect()
        leaked = [ref() for ref in graveyard if ref() is not None]
        assert not leaked, f"close() left grounding state alive: {leaked}"
        # The retained handle stays usable — next call re-grounds.
        repair = first.enforce(models)
        assert repair is not None
        assert first.groundings == 2

    def test_same_shape_stays_cached_until_evicted(self):
        transformation = paper_transformation(k=2)
        targets = TargetSelection(["cf1", "cf2"])
        first = shared_session(transformation, targets, scope=SCOPE)
        assert shared_session(transformation, targets, scope=SCOPE) is first
        # A different mode is a different shape, not a replacement.
        other = shared_session(
            transformation, targets, scope=SCOPE, mode="decreasing"
        )
        assert other is not first
        assert shared_session(transformation, targets, scope=SCOPE) is first


def _memoize_no_repair(session, models) -> None:
    """Make ``session`` remember a no-repair verdict (a cap of 0 on an
    inconsistent state), and drop the raised exception."""
    with pytest.raises(NoRepairFound):
        session.enforce(models, max_distance=0)
    with pytest.raises(NoRepairFound):
        session.enforce(models, max_distance=0)
    assert session.hits == 1


def _cyclic_garbage(serve) -> Counter:
    """The objects ``serve()`` leaves as cyclic garbage, by type name.

    Runs it with the collector off, so nothing it allocates is collected
    before the count, then unfreezes the heap (a re-ground freezes it,
    which would hide cycles from the count) and saves everything one
    collection finds."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        serve()
        gc.unfreeze()
        gc.collect()
        return Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


class TestNoCyclicGarbage:
    """The request path allocates no reference cycles.

    Reference counting then frees every request's garbage at once, so a
    re-ground can build its long-lived state with the collector paused
    and freeze it out of the collector's reach. Measured before the
    checker's call hook and the metamodel's ancestor walk stopped naming
    themselves: 2,616 cyclic objects on the toggle stream."""

    def test_toggle_stream_on_one_session(self):
        transformation = paper_transformation(k=2)
        targets = TargetSelection(["cf1", "cf2"])
        stream = toggle_stream(features=4, requests=48)

        def serve():
            session = EnforcementSession(transformation, targets)
            for models in stream:
                enforce_answer(lambda: session.enforce(models))
            session.close()

        assert _cyclic_garbage(serve) == Counter()

    def test_generated_requests_through_serve_request(self):
        """Wire dict to reply dict: decoding builds each request's
        metamodels and transformation, so their cycles would show."""
        wires = [
            request_to_dict(request)
            for seed in range(4)
            for request in scenario_requests(random_scenario(seed), rounds=3)
        ]

        def serve():
            clear_shared_sessions()
            reset_worker_state()
            for wire in wires:
                response_to_dict(serve_request(request_from_dict(wire)))
            clear_shared_sessions()
            reset_worker_state()

        assert _cyclic_garbage(serve) == Counter()

    def test_a_generation_is_built_with_the_collector_paused(
        self, monkeypatch
    ):
        """A re-ground's objects are frozen once it ends, so no
        collection may walk them while it runs."""
        enabled = []
        build = EnforcementSession._generation

        def spy(session, models):
            enabled.append(gc.isenabled())
            return build(session, models)

        monkeypatch.setattr(EnforcementSession, "_generation", spy)
        session = EnforcementSession(
            paper_transformation(k=2), TargetSelection(["cf1", "cf2"]),
            scope=SCOPE,
        )
        session.enforce(_tuple({"core": True}, [], ["core"]))
        assert enabled == [False]
        assert gc.isenabled()
        assert gc.get_freeze_count() > 0
        session.close()


class TestEchoIntegration:
    def _echo(self):
        echo = Echo()
        echo.add_metamodel(feature_metamodel())
        echo.add_metamodel(configuration_metamodel())
        echo.add_transformation(paper_transformation(k=2))
        echo.add_model("fm", feature_model({"core": True}))
        echo.add_model("cf1", configuration([]))
        echo.add_model("cf2", configuration(["core"]))
        return echo, {"fm": "fm", "cf1": "cf1", "cf2": "cf2"}

    def test_repeated_enforce_shares_one_session(self):
        echo, binding = self._echo()
        before = Grounder.translations
        echo.enforce("F", binding, targets=["cf1", "cf2"], scope=SCOPE)
        echo.add_model("cf1", configuration([]))
        echo.enforce("F", binding, targets=["cf1", "cf2"], scope=SCOPE)
        echo.enforce("F", binding, targets=["cf1", "cf2"], scope=SCOPE)
        assert Grounder.translations - before == 1
        sessions = echo.enforcement_sessions()
        assert len(sessions) == 1
        assert sessions[0].calls == 3
        assert sessions[0].groundings == 1

    def test_changed_settings_replace_the_session(self):
        echo, binding = self._echo()
        echo.enforce("F", binding, targets=["cf1", "cf2"], scope=SCOPE)
        echo.add_model("cf1", configuration([]))
        echo.enforce(
            "F", binding, targets=["cf1", "cf2"], scope=SCOPE, mode="decreasing"
        )
        sessions = echo.enforcement_sessions()
        assert len(sessions) == 1
        assert sessions[0].mode == "decreasing"
        assert sessions[0].calls == 1  # fresh session after the mode switch

    def test_reregistering_transformation_drops_sessions(self):
        echo, binding = self._echo()
        echo.enforce("F", binding, targets=["cf1", "cf2"], scope=SCOPE)
        assert echo.enforcement_sessions()
        echo.add_transformation(paper_transformation(k=2))
        assert not echo.enforcement_sessions()

    def test_search_engine_unaffected(self):
        echo, binding = self._echo()
        repair = echo.enforce(
            "F", binding, targets=["cf1"], engine="search", scope=SCOPE
        )
        assert repair.distance >= 0
        assert not echo.enforcement_sessions()

    def test_workspace_echo_bridge_is_cached(self):
        workspace = Workspace()
        workspace.metamodels["FM"] = feature_metamodel()
        workspace.metamodels["CF"] = configuration_metamodel()
        transformation = paper_transformation(k=2)
        workspace.transformations[transformation.name] = transformation
        workspace.models["fm"] = feature_model({"core": True})
        workspace.models["cf1"] = configuration([])
        workspace.models["cf2"] = configuration(["core"])
        first = workspace.echo()
        assert workspace.echo() is first
        binding = {"fm": "fm", "cf1": "cf1", "cf2": "cf2"}
        first.enforce("F", binding, targets=["cf1", "cf2"], scope=SCOPE)
        # sessions survive because the bridge is the same object
        assert workspace.echo().enforcement_sessions()
        workspace.invalidate_echo()
        assert workspace.echo() is not first

    def test_workspace_echo_preserves_applied_repairs(self):
        workspace = Workspace()
        workspace.metamodels["FM"] = feature_metamodel()
        workspace.metamodels["CF"] = configuration_metamodel()
        transformation = paper_transformation(k=2)
        workspace.transformations[transformation.name] = transformation
        workspace.models["fm"] = feature_model({"core": True})
        workspace.models["cf1"] = configuration([])
        workspace.models["cf2"] = configuration(["core"])
        binding = {"fm": "fm", "cf1": "cf1", "cf2": "cf2"}
        echo = workspace.echo()
        assert not echo.check("F", binding).consistent
        echo.enforce("F", binding, targets=["cf1", "cf2"], scope=SCOPE)
        # Re-entering through the bridge must not revert the applied
        # repair to the stale workspace copy ...
        assert workspace.echo().check("F", binding).consistent
        # ... but a workspace-side edit to the same model still wins.
        workspace.models["cf1"] = configuration([])
        assert not workspace.echo().check("F", binding).consistent
