"""Grounding fast path: equivalence, sharing and lockstep lockdown.

The PR 3 fast path may change *how much* work grounding does, never
*what* it computes:

* ``Grounder(prune=True)`` must be verdict- and optimal-cost-equivalent
  to the naive ``prune=False`` product enumeration on randomized model
  tuples, and must never enumerate more bindings;
* a cached (``GroundingContext``-backed) session must answer every
  question like the naive ``prune=False, cache=False`` arm, including
  across forced re-grounds;
* a session must answer like per-call enforcement even where its
  universe holds more ids a state lacks than a per-call grounding's
  fresh slots (dropped objects): it creates at most
  ``scope.extra_objects`` objects per class;
* ``enforce_sat``/``enumerate_repairs``/``ConsistencyOracle.try_build``
  must ride one shared grounding per question shape (grounding count
  asserted);
* a session grounding wires no origin variables: a state's objective
  is the per-call grounding's unit soft clauses;
* the state-encoding walk shared by the oracle and
  ``origin_assumptions`` must accept/decline in lockstep;
* learnt-clause binary self-subsuming resolution must fire and stay
  answer-preserving against the truth-table oracle;
* the encoding of the frozen benchmark corpora stays at most its pinned
  size, over exactly the pinned binding enumeration.
"""

import gzip
import json
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.check.engine import Checker
from repro.enforce import (
    EnforcementSession,
    TargetSelection,
    clear_shared_sessions,
    enforce,
    enforce_sat,
    enumerate_repairs,
)
from repro.enforce.metrics import TupleMetric
from repro.enforce.satengine import ConsistencyOracle
from repro.errors import NoRepairFound
from repro.featuremodels import (
    configuration,
    feature_model,
    paper_transformation,
)
from repro.metamodel.model import Model, ModelObject
from repro.serve.requests import request_from_dict
from repro.serve.worker import reset_worker_state, serve_request
from repro.solver.brute import brute_solve
from repro.solver.bounded import Grounder, GroundingContext, Scope
from repro.solver.cnf import CNF
from repro.solver.maxsat import MaxSatSession
from repro.solver.sat import IncrementalSolver
from tests.strategies import enforce_answer, model_tuples

_SCOPE = Scope(extra_objects=2)
_FEATURES = ("core", "log", "ui", "net")


def _directions(transformation):
    checker = Checker(transformation)
    return [
        (relation, dependency)
        for relation in transformation.top_relations()
        for dependency in checker.directions_of(relation)
    ]


def _ground_and_solve(transformation, models, targets, prune):
    grounder = Grounder(
        transformation,
        models,
        frozenset(targets),
        _directions(transformation),
        scope=_SCOPE,
        prune=prune,
    )
    before = Grounder.bindings_enumerated
    grounding = grounder.ground()
    bindings = Grounder.bindings_enumerated - before
    result = MaxSatSession(grounding.cnf, list(grounding.soft)).solve_optimal()
    return result, bindings


def _small(models) -> bool:
    return sum(m.size() for m in models.values()) <= 5


def _session_and_per_call(stream):
    """One paper k=2 session over ``stream`` (targets cf1 and cf2), its
    answers and per-call SAT enforcement's, as ``enforce_answer`` pairs."""
    transformation = paper_transformation(2)
    targets = TargetSelection(["cf1", "cf2"])
    session = EnforcementSession(transformation, targets, scope=_SCOPE)
    answers, references = [], []
    for models in stream:
        answers.append(enforce_answer(lambda: session.enforce(models)))
        references.append(
            enforce_answer(
                lambda: enforce(
                    transformation,
                    models,
                    targets,
                    engine="sat",
                    scope=_SCOPE,
                    share=False,
                )
            )
        )
    return session, answers, references


def _frozen_fm(features: int, variant: str = "a"):
    """A repair question whose frozen side dominates the binding space.

    ``fm`` holds ``features`` features, ``core`` mandatory; variant
    ``"b"`` swaps the last optional feature for another name. ``cf1``
    (frozen) selects ``core`` and ``cf2`` (the target) is empty, so the
    minimal repair adds ``core`` to ``cf2``.
    """
    names = {"core": True}
    names.update({f"opt{i:02d}": False for i in range(1, features)})
    if variant == "b":
        names.pop(f"opt{features - 1:02d}")
        names["alt01"] = False
    return {
        "fm": feature_model(names).renamed("fm"),
        "cf1": configuration(["core"], name="cf1"),
        "cf2": configuration([], name="cf2"),
    }


class TestPrunedGroundingEquivalence:
    @given(models=model_tuples(k=2), targets=st.sampled_from(
        [("cf1",), ("cf1", "cf2"), ("fm",), ("fm", "cf2")]
    ))
    @settings(max_examples=25, deadline=None)
    def test_same_verdict_cost_and_fewer_bindings(self, models, targets):
        """Pruning skips exactly the guard-refuted bindings: identical
        satisfiability and optimum, never more enumeration."""
        transformation = paper_transformation(2)
        naive, naive_bindings = _ground_and_solve(
            transformation, models, targets, prune=False
        )
        pruned, pruned_bindings = _ground_and_solve(
            transformation, models, targets, prune=True
        )
        assert pruned.satisfiable == naive.satisfiable
        assert pruned.cost == naive.cost
        assert pruned_bindings <= naive_bindings

    @pytest.mark.parametrize("features", [6, 10])
    def test_frozen_side_prunes_at_least_half_the_bindings(self, features):
        """Frozen patterns collapse to their matched bindings: on a
        frozen-dominated question the naive product enumerates at least
        twice the pruned bindings, at the same optimum."""
        transformation = paper_transformation(2)
        models = _frozen_fm(features)
        naive, naive_bindings = _ground_and_solve(
            transformation, models, ("cf2",), prune=False
        )
        pruned, pruned_bindings = _ground_and_solve(
            transformation, models, ("cf2",), prune=True
        )
        assert pruned.satisfiable and naive.satisfiable
        assert pruned.cost == naive.cost
        assert naive_bindings >= 2 * pruned_bindings

    @given(models=model_tuples(k=2))
    @settings(max_examples=10, deadline=None)
    def test_cached_session_matches_naive_arms(self, models):
        """A pruned+cached session answers like prune=False, cache=False."""
        assume(_small(models))
        transformation = paper_transformation(2)
        targets = TargetSelection(["cf1", "cf2"])
        fast = EnforcementSession(
            transformation, targets, scope=_SCOPE, prune=True, cache=True
        )
        naive = EnforcementSession(
            transformation, targets, scope=_SCOPE, prune=False, cache=False
        )
        try:
            from_fast = fast.enforce(models)
        except NoRepairFound:
            try:
                naive.enforce(models)
            except NoRepairFound:
                return
            raise AssertionError("fast path found no repair but naive did")
        from_naive = naive.enforce(models)
        assert from_fast.distance == from_naive.distance
        assert from_fast.engine == from_naive.engine

    @given(streams=st.lists(model_tuples(k=2), min_size=2, max_size=4))
    @settings(max_examples=8, deadline=None)
    def test_cached_session_equivalent_across_reground_stream(self, streams):
        """Random edit streams (frozen drifts included) through one cached
        session match per-call naive enforcement, re-grounds
        notwithstanding."""
        streams = [models for models in streams if _small(models)]
        assume(streams)
        transformation = paper_transformation(2)
        targets = TargetSelection(["cf1", "cf2"])
        session = EnforcementSession(
            transformation, targets, scope=_SCOPE, prune=True, cache=True
        )
        for models in streams:
            try:
                from_session = session.enforce(models)
            except NoRepairFound:
                from_session = None
            try:
                reference = enforce(
                    transformation,
                    models,
                    targets,
                    engine="sat",
                    scope=_SCOPE,
                    share=False,
                )
            except NoRepairFound:
                reference = None
            if from_session is None or reference is None:
                assert from_session is None and reference is None
            else:
                assert from_session.distance == reference.distance

    def test_ghost_widened_session_answers_like_per_call(self):
        """The first hypothesis counterexample to the stream property
        above, pinned. When a re-ground kept cf2's ``s_net`` as an empty
        object, the session's cf2 universe held 3 absent ids to the
        per-call grounding's 2 fresh slots; the creation budget kept the
        session from repairing (at distance 10) a tuple per-call
        enforcement cannot repair within scope."""
        session, answers, references = _session_and_per_call([
            {
                "fm": feature_model({"net": True, "ui": True}),
                "cf1": configuration(["net"], name="cf1"),
                "cf2": configuration(["net"], name="cf2"),
            },
            {
                "fm": feature_model({"log": True, "net": True, "ui": True}),
                "cf1": configuration(["net"], name="cf1"),
                "cf2": configuration([], name="cf2"),
            },
        ])
        assert references[1] == ("no-repair", None)
        assert answers == references

    def test_patched_state_creates_no_more_objects_than_per_call(self):
        """The same widening without a re-ground: the second state keeps
        fm, so the session patches its grounding, whose cf2 universe
        still holds the dropped ``s_net`` next to 2 fresh slots. cf2
        needs 3 created features and per-call enforcement has room for
        2, so both must answer ``no-repair``."""
        fm = feature_model({"log": True, "net": True, "ui": True})
        cf1 = configuration(["log", "net", "ui"], name="cf1")
        session, answers, references = _session_and_per_call([
            {"fm": fm, "cf1": cf1, "cf2": configuration(["net"], name="cf2")},
            {"fm": fm, "cf1": cf1, "cf2": configuration([], name="cf2")},
        ])
        assert (session.groundings, session.reuses) == (1, 1)
        assert references == [("repaired", 4), ("no-repair", None)]
        assert answers == references

    @pytest.mark.parametrize("seed", range(10))
    def test_session_answers_like_per_call_on_seeded_streams(self, seed):
        """Seeded four-tuple edit streams that keep fm half the time
        (patched states) and otherwise drift it (re-grounds), over
        mostly mandatory features: the session answers
        every tuple like per-call enforcement. Without the creation
        budget, seeds 1, 3 and 7 repair a tuple per-call enforcement
        cannot."""
        rng = random.Random(seed)
        stream = []
        fm = None
        for _ in range(4):
            if fm is None or rng.random() < 0.5:
                fm = feature_model(
                    {f: rng.random() < 0.8 for f in _FEATURES if rng.random() < 0.7}
                )
            models = {"fm": fm}
            for param in ("cf1", "cf2"):
                selected = [f for f in _FEATURES if rng.random() < 0.5]
                models[param] = configuration(selected, name=param)
            stream.append(models)
        _session, answers, references = _session_and_per_call(stream)
        assert answers == references


class TestSharedGrounding:
    def _question(self):
        transformation = paper_transformation(2)
        models = {
            "fm": feature_model({"core": True, "log": False}),
            "cf1": configuration(["core"], name="cf1"),
            "cf2": configuration([], name="cf2"),
        }
        return transformation, models, TargetSelection(["cf1", "cf2"])

    def test_entry_points_share_one_grounding(self):
        """enforce_sat + enumerate_repairs + oracle + session verb: one
        Grounder run for the whole question shape."""
        from repro.enforce import shared_session

        transformation, models, targets = self._question()
        checker = Checker(transformation)
        clear_shared_sessions()
        before = Grounder.translations
        _, cost = enforce_sat(checker, models, targets, scope=_SCOPE)
        enum_cost, repairs = enumerate_repairs(
            checker, models, targets, scope=_SCOPE, limit=8
        )
        oracle = ConsistencyOracle.try_build(checker, models, targets, _SCOPE)
        session = shared_session(transformation, targets, scope=_SCOPE)
        repair = session.enforce(models)
        assert Grounder.translations - before == 1
        assert oracle is not None
        assert cost == enum_cost == repair.distance
        assert repairs

    def test_session_objective_is_the_per_call_soft_clauses(self):
        """A session grounding has no origin or diff variable, and its
        state's objective is, atom by atom and weight by weight, the
        unit soft clauses a per-call grounding of that state bakes in."""
        transformation, models, targets = self._question()
        session = EnforcementSession(
            transformation, targets, metric=TupleMetric({"cf1": 2}), scope=_SCOPE
        )
        session.enforce(models)
        grounding = session._active.grounding
        assert not [
            name
            for name in grounding.pool.names()
            if isinstance(name, tuple) and name[0] in ("origin", "diff")
        ]
        objective, budget = grounding.origin_assumptions(models)
        assert budget == []
        per_call = Grounder(
            transformation,
            models,
            frozenset(targets.params),
            _directions(transformation),
            scope=_SCOPE,
            weights={"cf1": 2},
        ).ground()

        def named(pool, weighted):
            return sorted(
                (pool.name_of(lit), lit > 0, weight) for lit, weight in weighted
            )

        soft = [(clause.literals[0], clause.weight) for clause in per_call.soft]
        assert {weight for _lit, weight in soft} == {1, 2}
        assert named(grounding.pool, objective.items()) == named(per_call.pool, soft)

    def test_share_false_grounds_per_call(self):
        transformation, models, targets = self._question()
        checker = Checker(transformation)
        before = Grounder.translations
        enforce_sat(checker, models, targets, scope=_SCOPE, share=False)
        enforce_sat(checker, models, targets, scope=_SCOPE, share=False)
        assert Grounder.translations - before == 2

    def test_shared_enumeration_blocking_is_retracted(self):
        """Blocking clauses from one enumeration must not constrain the
        next query on the same shared grounding."""
        transformation, models, targets = self._question()
        checker = Checker(transformation)
        clear_shared_sessions()
        cost_a, repairs_a = enumerate_repairs(
            checker, models, targets, scope=_SCOPE, limit=8
        )
        cost_b, repairs_b = enumerate_repairs(
            checker, models, targets, scope=_SCOPE, limit=8
        )
        assert cost_a == cost_b
        assert [
            {p: m.objects for p, m in r.items()} for r in repairs_a
        ] == [{p: m.objects for p, m in r.items()} for r in repairs_b]
        # ... and an enforce on the same shape still finds the optimum.
        _, cost = enforce_sat(checker, models, targets, scope=_SCOPE)
        assert cost == cost_a

    def test_enum_clause_limit_rebuilds_the_maxsat_session(self, monkeypatch):
        """Past ``ENUM_CLAUSE_LIMIT`` retired blocking clauses the next
        enumeration rebuilds the generation's MaxSAT session (oracle
        re-attached to the new solver) without re-grounding, and answers
        exactly as before."""
        from repro.enforce import shared_session

        monkeypatch.setattr(EnforcementSession, "ENUM_CLAUSE_LIMIT", 1)
        transformation, models, targets = self._question()
        checker = Checker(transformation)
        clear_shared_sessions()
        cost_a, repairs_a = enumerate_repairs(
            checker, models, targets, scope=_SCOPE, limit=8
        )
        session = shared_session(transformation, targets, scope=_SCOPE)
        generation = session._active
        first_maxsat = generation.maxsat
        assert generation.enum_clauses >= 1
        cost_b, repairs_b = enumerate_repairs(
            checker, models, targets, scope=_SCOPE, limit=8
        )
        assert session._active is generation
        assert generation.maxsat is not first_maxsat
        assert generation.oracle is not None
        assert generation.oracle._solver is generation.maxsat.solver
        assert cost_a == cost_b
        assert [
            {p: m.objects for p, m in r.items()} for r in repairs_a
        ] == [{p: m.objects for p, m in r.items()} for r in repairs_b]
        before = Grounder.translations
        _, cost = enforce_sat(checker, models, targets, scope=_SCOPE)
        assert cost == 2
        assert Grounder.translations == before
        assert session.groundings == 1

    def test_shared_matches_unshared_results(self):
        transformation, models, targets = self._question()
        checker = Checker(transformation)
        clear_shared_sessions()
        shared = enforce_sat(checker, models, targets, scope=_SCOPE)
        unshared = enforce_sat(
            checker, models, targets, scope=_SCOPE, share=False
        )
        assert shared[1] == unshared[1]
        shared_enum = enumerate_repairs(checker, models, targets, scope=_SCOPE)
        unshared_enum = enumerate_repairs(
            checker, models, targets, scope=_SCOPE, share=False
        )
        assert shared_enum[0] == unshared_enum[0]
        assert [
            {p: m.objects for p, m in r.items()} for r in shared_enum[1]
        ] == [{p: m.objects for p, m in r.items()} for r in unshared_enum[1]]


class TestOscillatingFrozenDrift:
    def test_oscillating_frozen_drift_regrounds_per_escape(self):
        """A/B/A/B frozen drifts: every flip escapes the session's one
        generation. Each return to a variant asks about a new ``cf2``,
        so no answer comes from the session's memory (``hits``). Four
        flips re-ground; the consistent ``core`` selection is left
        untouched once by the checker alone (no grounding fits it) and
        once by a cost-0 solve on the active generation."""
        transformation = paper_transformation(2)
        targets = TargetSelection(["cf2"])
        session = EnforcementSession(transformation, targets, scope=_SCOPE)
        fm_a = feature_model({"core": True, "log": False})
        fm_b = feature_model({"core": True, "net": False})
        selections = [[], [], ["core"], ["core"], ["log"], ["net"]]
        distances, references = [], []
        for i, selected in enumerate(selections):
            models = {
                "fm": (fm_a if i % 2 == 0 else fm_b).renamed("fm"),
                "cf1": configuration(["core"], name="cf1"),
                "cf2": configuration(selected, name="cf2"),
            }
            distances.append(session.enforce(models).distance)
            references.append(
                enforce(
                    transformation, models, targets, scope=_SCOPE, share=False
                ).distance
            )
        assert session.groundings == 4
        assert session.reuses == 1
        assert session.hits == 0
        assert distances == references

    def test_persistent_context_halves_translated_clauses(self):
        """Six oscillating frozen-fm re-grounds onto one persistent
        ``GroundingContext`` translate at most half the clauses that
        six private per-ground CNFs do: after one round both variants'
        structural hashes are hits."""
        transformation = paper_transformation(2)
        directions = _directions(transformation)
        stream = [_frozen_fm(6, "ab"[i % 2]) for i in range(6)]

        def translated(models, context):
            """Clauses one ground() adds to its CNF."""
            grounder = Grounder(
                transformation,
                models,
                frozenset({"cf2"}),
                directions,
                scope=_SCOPE,
                context=context,
            )
            before = len(grounder.cnf)
            grounder.ground()
            return len(grounder.cnf) - before

        private = sum(translated(models, None) for models in stream)
        context = GroundingContext()
        shared = sum(translated(models, context) for models in stream)
        assert 2 * shared <= private

    def test_uncached_session_regrounds_every_drift(self):
        transformation = paper_transformation(2)
        session = EnforcementSession(
            transformation, TargetSelection(["cf2"]), scope=_SCOPE, cache=False
        )
        fm_a = feature_model({"core": True, "log": False})
        fm_b = feature_model({"core": True, "net": False})
        for i in range(4):
            session.enforce(
                {
                    "fm": (fm_a if i % 2 == 0 else fm_b).renamed("fm"),
                    "cf1": configuration(["core"], name="cf1"),
                    "cf2": configuration([], name="cf2"),
                }
            )
        assert session.groundings == 4


class TestSymmetrySoundnessOnSharedGroundings:
    def test_fresh_slot_occupying_state_solves_unchained(self):
        """The Echo loop hazard: a tuple that *occupies* a fresh slot of
        the cached grounding (e.g. an accepted repair evolved further)
        must not be solved under the symmetry chain — the chain would
        force alive(new_1) whenever alive(new_2), inflating the optimum.
        The shared path must return the true distance the per-call
        grounding finds."""
        from repro.metamodel.model import Model, ModelObject
        from repro.solver.bounded import fresh_oid

        transformation = paper_transformation(2)
        base = {
            "fm": feature_model({"core": True}),
            "cf1": configuration(["core"], name="cf1"),
            "cf2": configuration([], name="cf2"),
        }
        checker = Checker(transformation)
        targets = TargetSelection(["cf2"])
        clear_shared_sessions()
        # Prime the shared grounding on the base tuple.
        enforce_sat(checker, base, targets, scope=_SCOPE)
        # The evolved tuple is already CONSISTENT, with its one feature
        # at the SECOND fresh slot only — in-universe, so the cached
        # grounding is reused. The true optimum is distance 0; under the
        # assumed chain alive(new_2) would drag alive(new_1) along and
        # cost 2.
        cf2_mm = base["cf2"].metamodel
        evolved = dict(base)
        evolved["cf2"] = Model(
            cf2_mm,
            (
                ModelObject.create(
                    fresh_oid("Feature", 2), "Feature", {"name": "core"}
                ),
            ),
            "cf2",
        )
        assert checker.is_consistent(evolved)
        before = Grounder.translations
        _, shared_cost = enforce_sat(checker, evolved, targets, scope=_SCOPE)
        assert Grounder.translations - before == 0  # really the cached path
        assert shared_cost == 0


class TestUnanchorableTuples:
    def test_undeclared_feature_falls_back_to_standalone(self):
        """A tuple whose target carries an undeclared attribute cannot
        anchor a shared grounding; the shared entry points must
        serve it standalone (and never pollute the shared context),
        matching the historical per-call behaviour — in particular the
        search engine's oracle still works, declining the problematic
        states per query."""
        from repro.metamodel.model import Model, ModelObject

        transformation = paper_transformation(2)
        models = {
            "fm": feature_model({"core": True}),
            "cf1": configuration(["core"], name="cf1"),
            "cf2": configuration([], name="cf2"),
        }
        bad = ModelObject.create(
            "f1", "Feature", {"name": "other", "bogus": "x"}
        )
        models["cf2"] = Model(models["cf2"].metamodel, (bad,), "cf2")
        targets = TargetSelection(["cf1", "cf2"])
        clear_shared_sessions()
        repair = enforce(transformation, models, targets, engine="search")
        assert repair.distance == 5
        oracle = ConsistencyOracle.try_build(
            Checker(transformation), models, targets, _SCOPE
        )
        assert oracle is not None
        assert oracle.query(models) is None  # declined, checker decides
        assert oracle.query(repair.models) is True  # repaired state served


class TestLockstepDeclines:
    def _session(self):
        transformation = paper_transformation(2)
        models = {
            "fm": feature_model({"core": True}),
            "cf1": configuration(["core"], name="cf1"),
            "cf2": configuration([], name="cf2"),
        }
        session = EnforcementSession(
            transformation, TargetSelection(["cf1", "cf2"]), scope=_SCOPE
        )
        session.enforce(models)
        return session, models

    def test_oracle_and_origin_walk_agree(self):
        """Both ride encode_state: they accept and decline together."""
        session, models = self._session()
        grounding = session._active.grounding
        oracle = session._active.oracle
        assert oracle is not None

        def cf_with(objects):
            return Model(models["cf2"].metamodel, tuple(objects), "cf2")

        in_universe = dict(models)
        in_universe["cf2"] = cf_with(
            (ModelObject.create("new_feature_1", "Feature", {"name": "core"}),)
        )
        out_of_universe = dict(models)
        out_of_universe["cf2"] = cf_with(
            (ModelObject.create("alien", "Feature", {"name": "core"}),)
        )
        out_of_pool = dict(models)
        out_of_pool["cf2"] = cf_with(
            (ModelObject.create("new_feature_1", "Feature", {"name": "???"}),)
        )
        for state, expected in (
            (models, True),
            (in_universe, True),
            (out_of_universe, False),
            (out_of_pool, False),
        ):
            origin = grounding.origin_assumptions(state)
            atoms = oracle._assumptions_for(state)
            assert (origin is not None) is expected, state
            assert (atoms is not None) is expected, state


class TestBinaryMinimisation:
    def test_crafted_conflict_shrinks_to_unit(self):
        """Deterministic firing case. Decisions go var1=False then
        var2=False (lowest index, saved phase False), so ``(1|2|3)``
        propagates 3 and ``(1|2|-3)`` conflicts; first-UIP learns
        ``[2, 1]``. Literal 1 is a decision (reason-based minimisation
        cannot touch it), but the database binary ``(2|-1)`` resolves it
        away — the learnt clause must shrink to the unit ``[2]``."""
        cnf = CNF(3)
        cnf.add_clause([1, 2, 3])
        cnf.add_clause([1, 2, -3])
        cnf.add_clause([2, -1])
        solver = IncrementalSolver(cnf)
        result = solver.solve()
        assert result.satisfiable
        assert result.value(2) is True
        assert solver.stats.minimised_literals == 1

    def test_answers_match_brute_on_binary_rich_instances(self):
        """Minimisation must never change an answer."""
        import random

        from repro.solver.brute import check_assignment

        rng = random.Random(7)
        for seed in range(20):
            num_vars = 12
            cnf = CNF(num_vars)
            for _ in range(2 * num_vars):
                a, b = rng.sample(range(1, num_vars + 1), 2)
                cnf.add_clause(
                    [a if rng.random() < 0.5 else -a, b if rng.random() < 0.5 else -b]
                )
            for _ in range(2 * num_vars):
                chosen = rng.sample(range(1, num_vars + 1), 3)
                cnf.add_clause([v if rng.random() < 0.5 else -v for v in chosen])
            result = IncrementalSolver(cnf).solve()
            assert result.satisfiable == brute_solve(cnf).satisfiable
            if result.assignment is not None:
                assert check_assignment(cnf, result.assignment)


_CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"


class TestEncodingSize:
    """Clause counts of the frozen benchmark corpora, served inline in
    file order from cleared caches (one perfbench pass).

    The hard-clause bounds are the counts of one clause per binding with
    one-directional definitions and no distance wiring; the comments give
    the counts with the four ``diff <-> atom XOR origin`` clauses per
    distance atom a session grounding used to emit, and those of the
    two-way Tseitin encoding before that. The binding counts are pinned
    exactly: the pruning gate above reads the same counter, so the
    encoder must not lower it through early exits.
    """

    @staticmethod
    def _groundings(name, monkeypatch):
        """``(request index, hard clauses, bindings)`` per grounding."""
        document = json.loads(gzip.decompress((_CORPUS / f"{name}.json.gz").read_bytes()))
        requests = [
            request
            for scenario in document.get("scenarios") or [document]
            for request in scenario["requests"]
        ]
        records, index = [], [None]
        ground = Grounder.ground

        def counted(grounder):
            clauses, bindings = len(grounder.cnf), Grounder.bindings_enumerated
            result = ground(grounder)
            records.append((
                index[0],
                len(grounder.cnf) - clauses,
                Grounder.bindings_enumerated - bindings,
            ))
            return result

        monkeypatch.setattr(Grounder, "ground", counted)
        clear_shared_sessions()
        reset_worker_state()
        try:
            if document.get("warmup"):
                index[0] = "warmup"
                serve_request(request_from_dict(document["warmup"]))
            for index[0], request in enumerate(requests):
                serve_request(request_from_dict(request))
        finally:
            clear_shared_sessions()
            reset_worker_state()
        return records

    def test_paper_fm_question(self, monkeypatch):
        (record,) = self._groundings("paper-fm", monkeypatch)
        assert record[0] == "warmup"
        assert record[1] <= 2425  # origin wiring: 3,505; Tseitin: 8,352
        assert record[2] == 2135

    def test_gen_pass_and_its_largest_shape(self, monkeypatch):
        records = self._groundings("gen", monkeypatch)
        assert len(records) == 92
        assert sum(bindings for _, _, bindings in records) == 5376
        assert sum(clauses for _, clauses, _ in records) <= 16759  # 34,259; 61,354
        (largest,) = [r for r in records if r[0] == 49]
        assert largest[1] == max(clauses for _, clauses, _ in records)
        assert largest[1] <= 1026  # origin wiring: 1,434; Tseitin: 8,418
        assert largest[2] == 588
