"""Persistent enforcement sessions: one grounding per *evolving* tuple.

The paper's tool scenario is a loop: the user edits a model, the tool
repairs the tuple, the user edits again. Each :func:`repro.enforce.enforce`
call answers one question from scratch — it re-grounds the transformation
constraints over the bounded universe every time, even though consecutive
questions differ only in the model tuple's *current state*. Incremental
transformation engines (Barkowsky & Giese's multi-version TGGs) show that
persisting the transformation state across the model's evolution is where
the order-of-magnitude wins live.

:class:`EnforcementSession` is that persistence for the SAT engine. It
grounds once and keeps the :class:`~repro.solver.bounded.GroundingResult`, the
:class:`~repro.solver.maxsat.MaxSatSession` and a
:class:`~repro.enforce.satengine.ConsistencyOracle` alive, all three
sharing one incremental solver. Each :meth:`EnforcementSession.enforce`
call then *re-validates* the cached grounding against the edited tuple
and *patches* the query instead of re-grounding: the edited state's own
atom literals become the MaxSAT objective, one unit soft literal per
distance atom
(:meth:`~repro.solver.bounded.GroundingResult.origin_assumptions`), so
the grounding holds no state-specific clause or variable;
only edits that escape the grounding — a new attribute value outside
the candidate pools, a drifted frozen model, an object id renaming
cannot place — trigger a fresh grounding. Learnt clauses and heuristic
state accumulated by earlier repairs keep accelerating later ones, and
so do two bounded memories: a cached session answers a state it has
already answered under the same cap from memory, without grounding or
solving (:meth:`EnforcementSession.enforce`, ``hits``), and each MaxSAT
session frees the cores its earlier searches proved without proving
them again (:meth:`~repro.solver.maxsat.MaxSatSession._disjoint_cores`).

Object ids are anchored by *renaming*: graph-edit distance is keyed by
object id, so a bijective renaming of a state and of its repair keeps
every distance. Target-model ids the grounding lacks (a configuration
selecting a feature the shape never grounded) are renamed onto absent
ids of the same class (:meth:`EnforcementSession._renaming`); frozen
models never are. Every solve assumes the state's creation budget
(:meth:`~repro.solver.bounded.GroundingResult.origin_assumptions`): per
class, at most the state's own ``scope.extra_objects`` absent ids stay
creatable (an adaptive scope shrinks with the state, below the scope
the grounding was built for), so a session repairs exactly what
per-call enforcement repairs within scope — a renamed state under the
certificate of
:meth:`EnforcementSession._optimum`, re-grounding where it fails.

Since the grounding fast path (PR 3) the session is also the *shared*
grounding behind every SAT-fragment entry point:

* it grounds onto a persistent
  :class:`~repro.solver.bounded.GroundingContext` (``cache=True``), so
  even the re-grounds forced by out-of-universe edits reuse the atoms,
  conjunction and disjunction definitions and totalizer builds of
  earlier generations and only encode genuinely new ones;
* :func:`shared_session` keys live sessions by question shape
  (transformation identity, targets, semantics, metric weights, scope,
  mode) in a small LRU cache, and ``enforce_sat`` /
  ``enumerate_repairs`` / ``ConsistencyOracle.try_build`` resolve to it
  — so mixing verbs over one evolving tuple grounds exactly once;
* :meth:`solve_tuple` / :meth:`enumerate_tuple` / :meth:`oracle_for`
  are those entry points' primitives, each asking the *active*
  generation (the session reads it only through ``_active``): the
  optimum solve and the enumeration assume the symmetry-breaking
  selector whenever sound (matching the historical hard-clause
  behaviour), oracle queries never do. Enumeration is
  :meth:`~repro.solver.maxsat.MaxSatSession.enumerate_optimal` with
  ``retract=True``, so its blocking clauses are guarded by a per-run
  selector and never outlive their enumeration; a generation's MaxSAT
  session and oracle come from one attach step
  (:meth:`~repro.enforce.satengine.ConsistencyOracle.attach`, ``None``
  when the grounding cannot tabulate its atoms).

A session holds one generation at a time: an edit that escapes it
re-grounds onto the persistent context, and the new generation replaces
the old one. A cached session answers a return to an earlier state from
its answer memory instead.

Semantic note: every SAT-engine optimum — this session's :meth:`enforce`
and :meth:`solve_tuple`, and the per-call ``enforce_sat(share=False)`` —
is found and decoded by the one step ``satengine._solve_optimum``; only
the symmetry policy differs. The session's own :meth:`enforce` verb
solves *without* the symmetry assumption, and that solve doubles as its
hippocratic check (:meth:`EnforcementSession._hippocratic_fold`): a
cost-0 optimum is the state itself, consistent with conformant targets,
and is returned unrepaired at distance 0. Where a cost-0 optimum cannot
prove that (a weight-0 target, a non-conformant target, or a tuple that
escaped the active grounding) the real checker decides first, exactly
like :func:`~repro.enforce.enforce`. Optimal repair
distances are identical to :func:`~repro.enforce.satengine.enforce_sat`;
the chosen optimum may be a different member of the same minimum-distance
set.
"""

from __future__ import annotations

import gc
import math
from collections import OrderedDict
from collections.abc import Iterable, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, replace

from repro.check.engine import CheckConfig, Checker, EXTENDED
from repro.enforce.api import (
    SAT_ENGINE,
    Repair,
    adaptive_scope,
    refuse_nonconformant,
    verify_repair,
)
from repro.enforce.metrics import TupleMetric
from repro.enforce.satengine import (
    ConsistencyOracle,
    _distinct_repairs,
    _ground,
    _solve_optimum,
    enforce_sat,
    enumerate_repairs,
)
from repro.enforce.targets import TargetSelection
from repro.errors import EnforcementError, NoRepairFound, SatFragmentError
from repro.metamodel.conformance import is_conformant
from repro.metamodel.model import Model, ModelObject
from repro.metamodel.types import EnumType, PrimitiveType
from repro.solver.bounded import GroundingContext, Scope, _same_value
from repro.solver.maxsat import INCREASING


def _same_types(model: Model, twin: Model) -> bool:
    """Whether every attribute value of two equal models has the same
    type: ``Model`` equality reads ``True == 1``, the checker and the
    grounding keep them apart."""
    for obj, twin_obj in zip(model.objects, twin.objects):
        for (_s, value), (_t, twin_value) in zip(obj.attrs, twin_obj.attrs):
            if type(value) is not type(twin_value):
                return False
    return True


def _value_in_pool_domain(value, attr_type) -> bool:
    """Whether a fresh grounding's candidate pools can express ``value``.

    Mirrors :class:`~repro.solver.bounded.ValuePools` for a pool built
    from the tuple itself: enum values must be literals, primitives must
    be of the declared primitive type (any such value is collected into
    the active domain)."""
    if isinstance(attr_type, EnumType):
        return any(_same_value(value, literal) for literal in attr_type.literals)
    if attr_type is PrimitiveType.BOOLEAN:
        return isinstance(value, bool)
    if attr_type is PrimitiveType.INTEGER:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, str)


def _rename_ids(model: Model, mapping: Mapping[str, str]) -> Model:
    """``model`` with object ids, and references to them, renamed by ``mapping``."""

    def rename(oid: str) -> str:
        return mapping.get(oid, oid)

    return Model(
        model.metamodel,
        tuple(
            ModelObject(rename(o.oid), o.cls, o.attrs, tuple(
                (ref, tuple(map(rename, targets))) for ref, targets in o.refs
            ))
            for o in model.objects
        ),
        model.name,
    )


@contextmanager
def _out_of_collector_reach():
    """Build long-lived shape state where the cyclic collector won't walk it.

    A generation's grounding, solver and tables live as long as their
    shape, and the request path allocates no reference cycles (the
    tier-1 gate ``tests/test_enforce_session.py::TestNoCyclicGarbage``),
    so a collection that walks them reclaims nothing: a full one can
    outlast a request. The body runs with the collector paused, like a
    solve (:meth:`~repro.solver.sat.IncrementalSolver.solve`), and the
    heap is frozen (``gc.freeze``) once it returns. Frozen objects are
    still freed by reference counting the moment they die, so a freeze
    never pins an evicted session. Only a cycle made elsewhere stays
    frozen, until :meth:`EnforcementSession.close` or
    :func:`clear_shared_sessions` unfreezes the heap; a forked worker
    clears first, so it never keeps its parent's frozen heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
    gc.freeze()


@dataclass
class _Generation:
    """One grounding generation: encoding, MaxSAT session, oracle, anchor."""

    grounder: object
    grounding: object
    frozen: dict[str, Model]
    maxsat: object = None
    oracle: ConsistencyOracle | None = None
    #: Dead (selector-retired) enumeration blocking clauses accumulated
    #: on this generation's solver; bounded by a rebuild in
    #: :meth:`EnforcementSession.enumerate_tuple`.
    enum_clauses: int = 0

    def attach(self, targets: frozenset[str]) -> None:
        """(Re)build the MaxSAT session and the oracle on its solver.

        The grounding itself is untouched; a rebuild drops every retired
        enumeration blocking clause with the old solver."""
        self.maxsat = self.grounding.session()
        self.oracle = ConsistencyOracle.attach(
            self.grounding, targets, self.maxsat.solver
        )
        self.enum_clauses = 0


class EnforcementSession:
    """Least-change SAT enforcement over one evolving model tuple.

    Construct it once per (transformation, targets, metric, scope, mode)
    — or let :func:`shared_session` do it — and call :meth:`enforce`
    after every edit; the Echo tool keeps one per transformation
    binding. ``scope=None`` re-derives the adaptive scope whenever a
    (re-)grounding happens.

    ``prune``/``cache`` toggle the grounding fast path (binding-space
    pruning, cross-grounding translation caching); both default on and
    exist as the naive arms of the equivalence tests in
    ``tests/test_grounding_fastpath.py``.

    Counters: ``calls`` (enforce calls), ``groundings`` (full grounding
    builds), ``reuses`` (queries served warm: by patching the cached
    grounding, or from memory), ``renames`` (the reuses that renamed
    object ids), ``hits`` (the reuses answered from memory).

    >>> from repro.featuremodels import (paper_transformation,
    ...     feature_model, configuration)
    >>> session = EnforcementSession(paper_transformation(k=2),
    ...                              ["cf1", "cf2"])
    >>> models = {"fm": feature_model({"core": True, "log": True,
    ...                                "net": False}),
    ...           "cf1": configuration(["core", "log"], name="cf1"),
    ...           "cf2": configuration(["core"], name="cf2")}
    >>> session.enforce(models).distance        # grounds once, repairs
    2
    >>> drifted = dict(models,
    ...     cf1=configuration(["core"], name="cf1"))
    >>> session.enforce(drifted).distance       # patched, not re-ground
    4
    >>> session.groundings, session.reuses
    (1, 1)

    A never-grounded object id (``s_net``) is renamed onto an absent
    ``Feature`` id, and the repair comes back under its own id:

    >>> repair = session.enforce(dict(models,
    ...     cf1=configuration(["core", "net"], name="cf1")))
    >>> repair.distance, repair.models["cf1"].object_ids()
    (4, ['s_core', 's_net'])
    >>> session.groundings, session.reuses, session.renames
    (1, 2, 1)
    """

    def __init__(
        self,
        transformation,
        targets: TargetSelection | Iterable[str],
        semantics: str = EXTENDED,
        metric: TupleMetric = TupleMetric(),
        scope: Scope | None = None,
        mode: str = INCREASING,
        prune: bool = True,
        cache: bool = True,
    ) -> None:
        self.transformation = transformation
        self.targets = (
            targets
            if isinstance(targets, TargetSelection)
            else TargetSelection(targets)
        )
        self.targets.validate(transformation)
        self.semantics = semantics
        self.checker = Checker(
            transformation, config=CheckConfig(semantics=semantics)
        )
        self.metric = metric
        self.scope = scope
        self.mode = mode
        self.prune = prune
        self._context = GroundingContext() if cache else None
        self._params = transformation.param_names()
        # The one grounding generation; a tuple that escapes it re-grounds.
        self._active: _Generation | None = None
        self._fragment_error: Exception | None = None
        # Answers of :meth:`enforce`, least-recently-used first: bound
        # state and cap -> the state as asked and the verified repair, or
        # a no-repair verdict as data. The uncached reference arm
        # remembers nothing.
        self._answers: OrderedDict | None = OrderedDict() if cache else None
        self.calls = 0
        self.groundings = 0
        self.reuses = 0
        self.renames = 0
        self.hits = 0
        self.closes = 0

    #: How many :meth:`enforce` answers a cached session remembers. An
    #: answer keeps its state's and its repair's models alive: measured
    #: ~12 KB on the paper's feature models (three models, 20 objects)
    #: and ~6 KB on the generated stream, so a worker's
    #: ``SHARED_SESSION_LIMIT`` shapes hold at most 2,048 answers, about
    #: 24 MB at the paper's model sizes; the bytes grow with the models.
    ANSWER_LIMIT = 64

    #: Retired enumeration blocking clauses tolerated on one generation's
    #: solver before :meth:`enumerate_tuple` rebuilds its MaxSAT session.
    ENUM_CLAUSE_LIMIT = 512

    def counters(self) -> dict:
        """The session's work counters, as one JSON-ready dict.

        The metrics surface of the enforcement daemon
        (:mod:`repro.serve.daemon`) aggregates these per worker process;
        tests use them to pin cross-batch session reuse (a warm shape
        answers a whole second batch with ``groundings`` unchanged).
        """
        return {
            "calls": self.calls,
            "groundings": self.groundings,
            "reuses": self.reuses,
            "renames": self.renames,
            "hits": self.hits,
            "closes": self.closes,
        }

    def close(self) -> None:
        """Release the grounding, its solver and the translation table.

        The disposal hook of the :func:`shared_session` LRU: eviction
        must actually *free* the evicted shape's memory — the generation,
        its MaxSAT session, solver and oracle, and the shared
        :class:`~repro.solver.bounded.GroundingContext` all become
        garbage here, not when the last external reference
        happens to die. The session itself stays **usable**: a caller
        that retained it (the Echo tool does) transparently re-grounds
        on its next call, onto a fresh context — the documented cost of
        holding an evicted shape, instead of a silent memory leak.

        Reference counting frees all of it here, frozen or not; the heap
        is then unfrozen so that any cycle a re-ground froze
        (:func:`_out_of_collector_reach`) is collectable again.
        """
        self._active = None
        if self._context is not None:
            self._context = GroundingContext()
        if self._answers is not None:
            self._answers.clear()
        self.closes += 1
        gc.unfreeze()

    def compatible(
        self,
        semantics: str,
        metric: TupleMetric,
        scope: Scope | None,
        mode: str,
    ) -> bool:
        """Whether this session answers questions with these settings."""
        return (
            self.semantics == semantics
            and self.metric == metric
            and self.scope == scope
            and self.mode == mode
        )

    # ------------------------------------------------------------------
    # The session verb
    # ------------------------------------------------------------------
    def enforce(
        self,
        models: Mapping[str, Model],
        max_distance: int | None = None,
    ) -> Repair:
        """Repair ``models`` (the tuple's current state), least change first.

        Hippocratic: a consistent state comes back untouched at distance
        0 (engine ``"none"``), decided by a cost-0 optimum or, where that
        proves nothing, by the checker (:meth:`_hippocratic_fold`).
        Raises :class:`~repro.errors.NoRepairFound` when no consistent
        tuple exists within the scope (or the distance cap).

        A cached session answers a state it has already answered under
        the same cap, with the same attribute value types (``True`` is
        not ``1``), from memory (``hits``, also counted as ``reuses``):
        the first answer's repair, in a fresh ``models`` dict, or its
        no-repair verdict raised anew. A verdict is kept as its message
        and explored distance, never as the exception, whose traceback
        would pin the frames of the solve that raised it; a fresh
        exception carries it, on the first answer too.
        """
        self.calls += 1
        original = self._bound(models)
        if self._answers is None:
            return self._answer(original, max_distance)
        state = tuple((p, m, m.name) for p, m in original.items())
        key = (state, max_distance)
        entry = self._answers.get(key)
        if entry is not None and all(
            _same_types(asked, model)
            for (_p, asked, _n), (_q, model, _m) in zip(entry[0], state)
        ):
            self._answers.move_to_end(key)
            self.hits += 1
            self.reuses += 1
            answer = entry[1]
        else:
            try:
                answer = self._answer(original, max_distance)
            except NoRepairFound as exc:
                answer = (str(exc), exc.explored_distance)
            self._answers[key] = (state, answer)
            if entry is not None:  # the same state with other value types
                self._answers.move_to_end(key)
            if len(self._answers) > self.ANSWER_LIMIT:
                self._answers.popitem(last=False)
        if isinstance(answer, Repair):
            return replace(answer, models=dict(answer.models))
        raise NoRepairFound(*answer)

    def _answer(
        self, original: dict[str, Model], max_distance: int | None
    ) -> Repair:
        """:meth:`enforce`, solved."""
        anchor = self._activate(original) or self._activate(original, True)
        fold = anchor is not None and self._hippocratic_fold(original)
        if not fold:
            if self.checker.is_consistent(original):
                return self._untouched(original)
            refuse_nonconformant(original, self.targets, self.metric)
        repaired, cost = self._optimum(
            original, anchor, max_distance, symmetry=False
        )
        if fold and cost == 0:
            return self._untouched(original)
        return verify_repair(
            self.checker,
            SAT_ENGINE,
            original,
            repaired,
            cost,
            self.targets,
            self.metric,
        )

    # ------------------------------------------------------------------
    # Shared-grounding primitives (the enforce_sat / enumerate_repairs /
    # oracle entry points ride these)
    # ------------------------------------------------------------------
    def solve_tuple(
        self,
        models: Mapping[str, Model],
        max_distance: int | None = None,
    ) -> tuple[dict[str, Model], int]:
        """The :func:`~repro.enforce.satengine.enforce_sat` primitive.

        One optimum solve over the shared grounding — no hippocratic
        shortcut, symmetry breaking assumed whenever sound (matching the
        historical per-call grounding). Returns ``(repaired tuple,
        weighted distance)`` or raises :class:`NoRepairFound`.
        """
        original = self._bound(models)
        anchor = self._activate(original) or self._activate(original, True)
        return self._optimum(original, anchor, max_distance, symmetry=True)

    def enumerate_tuple(
        self,
        models: Mapping[str, Model],
        limit: int = 64,
    ) -> tuple[int, list[dict[str, Model]]]:
        """The :func:`~repro.enforce.satengine.enumerate_repairs` primitive.

        Enumerates the optimum set on the shared grounding. Blocking
        clauses are guarded by a fresh per-run selector variable, so
        they bind only this enumeration's solves and the grounding stays
        reusable for every later query.
        """
        original = self._bound(models)
        origin = self._ensure(original)
        if origin is None:
            return enumerate_repairs(
                self.checker,
                original,
                self.targets,
                metric=self.metric,
                scope=self._scope_for(original),
                limit=limit,
                share=False,
            )
        active = self._active
        if active.enum_clauses >= self.ENUM_CLAUSE_LIMIT:
            # Retired blocking clauses from earlier enumerations are
            # inert but still cost watch-list traffic; rebuild the
            # MaxSAT session so a long-lived shared session stays bounded.
            active.attach(frozenset(self.targets.params))
        tables = active.grounding.atom_tables()
        assert tables is not None, "shared groundings tabulate their atoms"
        project: list[int] = []
        for param in sorted(tables):
            for entry in tables[param].entries:
                project.append(entry.alive)
                for _attr, pairs in entry.attrs:
                    project.extend(var for _value, var in pairs)
                for _ref, ref_pairs, _targets in entry.refs:
                    project.extend(var for _target, var in ref_pairs)
        project.sort()
        symmetry = self._symmetry_ok(original)
        objective, budget = origin
        cost, assignments = active.maxsat.enumerate_optimal(
            project,
            mode=self.mode,
            limit=limit,
            assumptions=active.grounding.base_assumptions(symmetry=symmetry)
            + budget,
            retract=True,
            objective=objective,
        )
        active.enum_clauses += len(assignments)
        return cost, _distinct_repairs(active.grounder, assignments)

    def oracle_for(
        self, models: Mapping[str, Model]
    ) -> ConsistencyOracle | None:
        """The shared grounding's consistency oracle, anchored at ``models``.

        Ensures the cached grounding can express ``models`` (re-grounding
        if the tuple escaped it), then hands out the oracle attached to
        the shared solver — or ``None`` when the grounding cannot
        tabulate its atoms. An unanchorable tuple gets a standalone
        distance-free oracle (the historical ``try_build`` grounding),
        which declines the problematic states per query as before.
        """
        original = self._bound(models)
        if self._ensure(original) is None:
            return ConsistencyOracle.try_build(
                self.checker,
                original,
                self.targets,
                self._scope_for(original),
                share=False,
            )
        return self._active.oracle

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _bound(self, models: Mapping[str, Model]) -> dict[str, Model]:
        missing = set(self._params) - set(models)
        if missing:
            raise EnforcementError(
                f"no models bound to parameters {sorted(missing)}"
            )
        return {param: models[param] for param in self._params}

    def _ensure(self, original: Mapping[str, Model]):
        """``original``'s objective and creation budget
        (:meth:`~repro.solver.bounded.GroundingResult.origin_assumptions`),
        re-grounding if needed.

        ``None`` means the tuple cannot anchor a shared grounding at
        all — an undeclared feature, a dangling reference, a value
        outside its attribute's type domain on a weighted target — and
        the caller must serve the question standalone (the historical
        per-call path repairs such tuples just fine; only the atom
        tables cannot express them). The anchorability pre-check runs
        *before* re-grounding so unanchorable tuples never pollute the
        shared context.
        """
        anchor = self._activate(original)
        return self._ground_fresh(original) if anchor is None else anchor[1]

    def _ground_fresh(self, original: Mapping[str, Model]):
        """Ground a new generation for ``original`` (the active one does
        not fit — callers already probed) and return :meth:`_ensure`'s
        answer; ``None`` when the tuple is unanchorable."""
        if not self._anchorable(original):
            return None
        self._reground(original)
        origin = self._active.grounding.origin_assumptions(
            original, self._scope_for(original).extra_objects
        )
        if origin is None:
            raise EnforcementError(
                "model tuple cannot anchor its own grounding; this is a bug"
            )
        return origin

    def _anchorable(self, original: Mapping[str, Model]) -> bool:
        """Whether every weighted target can anchor a fresh grounding of
        itself — the :func:`~repro.solver.bounded.encode_state` decline
        rules, decided from the models alone."""
        for param in sorted(self.targets.params):
            if self.metric.weight(param) == 0:
                continue
            model = original[param]
            mm = model.metamodel
            ids = {o.oid for o in model.objects}
            classes = {o.oid: o.cls for o in model.objects}
            for obj in model.objects:
                if not mm.has_class(obj.cls):
                    return False
                attrs = mm.all_attributes(obj.cls)
                refs = mm.all_references(obj.cls)
                for name, value in obj.attrs:
                    attr = attrs.get(name)
                    if attr is None or not _value_in_pool_domain(
                        value, attr.type
                    ):
                        return False
                for name, _targets in obj.refs:
                    ref = refs.get(name)
                    if ref is None:
                        return False
                    for target in obj.targets(name):
                        if target not in ids or not mm.is_subclass(
                            classes[target], ref.target
                        ):
                            return False
        return True

    def _scope_for(self, original: Mapping[str, Model]) -> Scope:
        return self.scope if self.scope is not None else adaptive_scope(original)

    def _solve(
        self,
        original: Mapping[str, Model],
        origin,
        max_distance: int | None,
        symmetry: bool,
    ) -> tuple[dict[str, Model], int]:
        """The session's optimum -> decode step on the active generation.

        ``origin`` is the state's objective and creation budget
        (:meth:`_ensure`). ``symmetry`` assumes the symmetry chain where
        :meth:`_symmetry_ok` allows it. The generation selector leads
        the assumptions: one propagation pass activates the whole
        generation before the budget and the state's soft literals are
        assumed. An unanchorable tuple (``origin`` is ``None``) takes the
        historical per-call path — same guarantees, no shared-context
        pollution."""
        if origin is None:
            return enforce_sat(
                self.checker,
                original,
                self.targets,
                metric=self.metric,
                scope=self._scope_for(original),
                mode=self.mode,
                max_distance=max_distance,
                share=False,
            )
        active = self._active
        symmetry = symmetry and self._symmetry_ok(original)
        objective, budget = origin
        return _solve_optimum(
            active.grounder,
            active.maxsat,
            active.grounding.base_assumptions(symmetry=symmetry) + budget,
            self.mode,
            max_distance,
            self.scope if self.scope is not None else "adaptive scope",
            self.targets,
            objective,
        )

    def _activate(self, original: Mapping[str, Model], rename: bool = False):
        """``(state, objective and budget, inverse renaming)`` when the
        active generation can express ``original`` — its frozen models
        match, and the state anchors as is or, if ``rename``, renamed onto
        its universe (:meth:`_renaming`) — else ``None``."""
        active = self._active
        if active is None or not self._frozen_matches(active.frozen, original):
            return None
        renamed = self._renaming(active, original) if rename else (original, {})
        if renamed is None:
            return None
        origin = active.grounding.origin_assumptions(
            renamed[0], self._scope_for(original).extra_objects
        )
        if origin is None:
            return None
        if not rename:
            self.reuses += 1  # a renamed state counts once certified
        return renamed[0], origin, renamed[1]

    def _renaming(self, generation: _Generation, original: Mapping[str, Model]):
        """``(original renamed, inverse maps per target)``: each target
        object id the generation's universe lacks moves onto an absent id
        of its class — fresh slots from the chain's end first, then ids
        the state dropped, in universe order. ``None`` when no id needs
        renaming or a class runs out of absent ids."""
        state, inverse = dict(original), {}
        for param in sorted(self.targets.params):
            gm = generation.grounding.ground_models[param]
            present = set(original[param].object_ids())
            spare: dict[str, list[str]] = {}
            mapping = {}
            for obj in original[param].objects:
                if obj.oid in gm.universe:
                    continue
                if obj.cls not in spare:
                    order = gm.fresh_slots.get(obj.cls, ())[::-1] + gm.universe
                    spare[obj.cls] = [
                        oid
                        for oid in dict.fromkeys(order)
                        if gm.class_of(oid) == obj.cls and oid not in present
                    ]
                if not spare[obj.cls]:
                    return None
                mapping[obj.oid] = spare[obj.cls].pop(0)
            if mapping:
                state[param] = _rename_ids(original[param], mapping)
                inverse[param] = {new: old for old, new in mapping.items()}
        return (state, inverse) if inverse else None

    def _optimum(
        self,
        original: Mapping[str, Model],
        anchor,
        max_distance: int | None,
        symmetry: bool,
    ) -> tuple[dict[str, Model], int]:
        """The optimum -> decode step of :meth:`enforce` and
        :meth:`solve_tuple` on ``anchor`` (:meth:`_activate`), or on a
        fresh generation when it is ``None``.

        A renamed state's repair is mapped back, and kept only when
        certified exact. A per-call grounding may create ``E`` objects
        per class (``original``'s own scope), the renamed state ``k``
        (:meth:`~repro.solver.bounded.GroundingResult.creatable`). Where
        ``k < E``, a repair the renamed universe cannot express creates
        ``k + 1`` objects, each flipping its alive atom, so it costs at
        least ``bound``, the least ``(k + 1) * weight``. An optimum
        costing at most ``bound``, or a no-repair answer capped below
        it, is the per-call answer; any other re-grounds."""
        # No anchor: the edit escaped the active generation, if any.
        state, origin, inverse = anchor or (
            original, self._ground_fresh(original), {}
        )
        if not inverse:
            return self._solve(state, origin, max_distance, symmetry)
        extra = self._scope_for(original).extra_objects
        creatable = self._active.grounding.creatable(state, extra).items()
        bound = min(
            ((k + 1) * self.metric.weight(p) for (p, _), k in creatable if k < extra),
            default=math.inf,
        )
        try:
            repaired, cost = self._solve(state, origin, max_distance, symmetry)
        except NoRepairFound:
            cap = math.inf if max_distance is None else max_distance
            if bound < math.inf and cap >= bound:
                return self._optimum(original, None, max_distance, symmetry)
            self.reuses += 1
            self.renames += 1
            raise
        if cost > bound:
            return self._optimum(original, None, max_distance, symmetry)
        self.reuses += 1
        self.renames += 1
        return {
            param: _rename_ids(model, inverse.get(param, {}))
            for param, model in repaired.items()
        }, cost

    def _symmetry_ok(self, original: Mapping[str, Model]) -> bool:
        """Whether the active generation may assume its symmetry chain.

        Sound only while ``original`` leaves every fresh slot empty:
        fresh slots are then interchangeable, so the canonical
        representative costs the same as any isomorph. A state that
        *occupies* one (an accepted repair evolved further, or a new id
        renamed onto it) must solve unchained."""
        return not any(
            original[param].has(oid)
            for param, gm in self._active.grounding.ground_models.items()
            for slots in gm.fresh_slots.values()
            for oid in slots
        )

    def _untouched(self, original: Mapping[str, Model]) -> Repair:
        return Repair(
            models=dict(original),
            distance=0,
            changed=frozenset(),
            engine="none",
            targets=frozenset(self.targets.params),
        )

    def _hippocratic_fold(self, original: Mapping[str, Model]) -> bool:
        """Whether the optimum solve may decide hippocraticness itself.

        A cost-0 optimum keeps every distance atom at its origin, so it
        proves the state itself consistent with conformant targets — the
        question :func:`~repro.enforce.api.enforce` asks before it
        repairs, and the first solve of the increasing search. That
        holds only when every target has distance atoms (weight > 0).
        A non-conformant target can never cost 0, yet
        :func:`~repro.enforce.api.enforce` leaves a *consistent* state
        untouched, conformant or not; there the checker decides first.
        """
        return all(
            self.metric.weight(param) > 0 and is_conformant(original[param])
            for param in sorted(self.targets.params)
        )

    def _frozen_matches(
        self, frozen: Mapping[str, Model], original: Mapping[str, Model]
    ) -> bool:
        for param, grounded in frozen.items():
            current = original[param]
            if current is not grounded and (
                current != grounded or not _same_types(current, grounded)
            ):
                return False
        return True

    def _reground(self, models: Mapping[str, Model]) -> None:
        """Build grounding, MaxSAT session and oracle on one solver.

        With ``cache=True`` the grounder writes onto this session's
        persistent :class:`~repro.solver.bounded.GroundingContext`:
        re-grounds reuse every previously emitted definition and
        totalizer, and symmetry-breaking chains are emitted
        selector-guarded so optimum solves can assume them while oracle
        queries must not. Without a context the historical standalone
        grounding (no symmetry, plain assertions) is built.

        The generation is long-lived shape state, so it is built out of
        the collector's reach (:func:`_out_of_collector_reach`): no
        collection runs while it is built, and none walks it afterwards
        until :meth:`close` unfreezes the heap.
        """
        if self._fragment_error is not None:
            # This question shape can never ground; don't rebuild (and,
            # on a shared context, re-leak) anything per call.
            raise self._fragment_error
        with _out_of_collector_reach():
            self._active = self._generation(models)
        self.groundings += 1

    def _generation(self, models: Mapping[str, Model]) -> _Generation:
        """Ground ``models`` and attach a MaxSAT session and oracle."""
        scope = self._scope_for(models)
        grounder = _ground(
            self.checker,
            models,
            self.targets,
            self.metric,
            scope,
            symmetry_breaking=self._context is not None,
            prune=self.prune,
            context=self._context,
        )
        try:
            grounding = grounder.ground()
        except SatFragmentError as error:
            self._fragment_error = error
            raise
        generation = _Generation(
            grounder=grounder,
            grounding=grounding,
            frozen={
                param: gm.model
                for param, gm in grounding.ground_models.items()
                if not gm.symbolic
            },
        )
        generation.attach(frozenset(self.targets.params))
        return generation


#: The small grounding cache of the session/tool layer: live sessions
#: keyed by question shape, LRU-evicted. Sized so a workspace's
#: realistic mix of transformations x target directions x modes stays
#: resident — an evicted shape is not wrong, but a caller that retained
#: the old session (Echo does) and a fresh cache entry would each hold a
#: full grounding, quietly doubling work for that shape.
SHARED_SESSION_LIMIT = 32

#: Least-recently-used first. A plain dict: iterating an ``OrderedDict``
#: re-hashes every key (each holds a ``Scope``), and the daemon walks
#: this one on every reply (:func:`repro.serve.worker.worker_counters`).
_shared_sessions: dict[tuple, tuple[object, EnforcementSession]] = {}


def shared_session(
    transformation,
    targets: TargetSelection | Iterable[str],
    semantics: str = EXTENDED,
    metric: TupleMetric = TupleMetric(),
    scope: Scope | None = None,
    mode: str = INCREASING,
) -> EnforcementSession:
    """The cached :class:`EnforcementSession` for this question shape.

    Keyed by (transformation identity, targets, semantics, metric
    weights, scope, mode): every SAT-fragment entry point —
    :func:`~repro.enforce.satengine.enforce_sat`,
    :func:`~repro.enforce.satengine.enumerate_repairs`,
    :meth:`~repro.enforce.satengine.ConsistencyOracle.try_build`, the
    Echo tool — resolves the same shape to the same session, and with it
    to one shared grounding and one incremental solver.
    Transformation identity (not equality) keys the cache so tests and
    benchmarks that build a fresh transformation get a deterministic
    fresh session; the cached session keeps the transformation alive, so
    ids cannot be recycled while an entry lives.
    """
    selection = (
        targets if isinstance(targets, TargetSelection) else TargetSelection(targets)
    )
    key = (
        id(transformation),
        frozenset(selection.params),
        semantics,
        tuple(sorted(metric.weights.items())),
        scope,
        mode,
    )
    entry = _shared_sessions.pop(key, None)
    if entry is not None and entry[0] is transformation:
        _shared_sessions[key] = entry
        return entry[1]
    session = EnforcementSession(
        transformation,
        selection,
        semantics=semantics,
        metric=metric,
        scope=scope,
        mode=mode,
    )
    _shared_sessions[key] = (transformation, session)
    while len(_shared_sessions) > SHARED_SESSION_LIMIT:
        # Dispose, don't just drop: an evicted entry's generation,
        # solver and translation context must become garbage now, even
        # if a caller retained the session object itself (it re-grounds
        # on next use — see :meth:`EnforcementSession.close`).
        _t, evicted = _shared_sessions.pop(next(iter(_shared_sessions)))
        evicted.close()
    return session


def shared_sessions() -> list[EnforcementSession]:
    """Every live shared session, least-recently-used first."""
    return [session for _t, session in _shared_sessions.values()]


def shared_session_counters() -> list[dict]:
    """Counters of every live shared session, least-recently-used first.

    One :meth:`EnforcementSession.counters` dict per cached shape — the
    per-process slice of the daemon's ``metrics`` snapshot (grounding
    builds and patch reuses per shape live in the worker processes, so
    the worker reports them up with every reply).
    """
    return [session.counters() for session in shared_sessions()]


def clear_shared_sessions() -> None:
    """Drop every cached shared session (test isolation hook).

    Also unfreezes the heap (see :func:`_out_of_collector_reach`): the
    dropped sessions die by reference counting, and a forked worker,
    which clears first, does not keep a frozen copy of its parent's heap
    that it could never release.
    """
    _shared_sessions.clear()
    gc.unfreeze()
