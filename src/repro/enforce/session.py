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
grounds once — *retargetably*: the distance-to-original soft clauses run
through origin variables selected by assumptions
(:meth:`~repro.solver.bounded.GroundingResult.origin_assumptions`) — and
keeps the :class:`~repro.solver.bounded.GroundingResult`, the
:class:`~repro.solver.maxsat.MaxSatSession` and a
:class:`~repro.enforce.satengine.ConsistencyOracle` alive, all three
sharing one incremental solver. Each :meth:`EnforcementSession.enforce`
call then *re-validates* the cached grounding against the edited tuple
and *patches* the query (new origin assumptions) instead of re-grounding;
only edits that escape the grounding — an object outside the bounded
universe, a new attribute value outside the candidate pools, a drifted
frozen model — trigger a fresh grounding. Learnt clauses and heuristic
state accumulated by earlier repairs keep accelerating later ones.

A shape's universe is *monotone*: a re-ground keeps, as empty **ghost**
objects, the object ids the replaced generation grounded that the new
state lacks (at most ``scope.extra_objects`` per class, see
:meth:`EnforcementSession._ghosts`), next to the usual fresh slots. An
edit stream that toggles objects in and out — a configuration
re-selecting a feature it dropped three edits ago — then escapes the
universe once per object id, not once per toggle. A session grounding's
universe is therefore a superset of a per-call grounding's, and it can
hold more ids a state lacks than the state's fresh slots (ghosts, or
objects dropped since the grounding). Every solve assumes the state's
creation budget
(:meth:`~repro.solver.bounded.GroundingResult.origin_assumptions`): per
class, only ``scope.extra_objects`` absent ids stay creatable, so a
session repairs exactly what per-call enforcement repairs within scope.

Since the grounding fast path (PR 3) the session is also the *shared*
grounding behind every SAT-fragment entry point:

* it grounds onto a persistent
  :class:`~repro.solver.bounded.GroundingContext` (``cache=True``), so
  even the re-grounds forced by out-of-universe edits reuse the Tseitin
  structural-hash table and totalizer builds of earlier generations and
  only encode genuinely new sub-formulas;
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
  when the grounding cannot tabulate its atoms);
* a cached session retains up to :attr:`EnforcementSession.GENERATION_LIMIT`
  grounding *generations*: an edit that escapes the active grounding
  but still anchors an older one — oscillating frozen drifts are the
  common case — switches generations instead of re-grounding at all.

Semantic note: every SAT-engine optimum — this session's :meth:`enforce`
and :meth:`solve_tuple`, and the per-call ``enforce_sat(share=False)`` —
is found and decoded by the one step ``satengine._solve_optimum``; only
the symmetry policy differs. The session's own :meth:`enforce` verb
solves *without* the symmetry assumption and uses the oracle as a
hippocratic fast *accept* — a state the oracle accepts is consistent and
returned unrepaired at distance 0; any other verdict defers to the real
checker, exactly like :func:`~repro.enforce.enforce`. Optimal repair
distances are identical to :func:`~repro.enforce.satengine.enforce_sat`;
the chosen optimum may be a different member of the same minimum-distance
set.
"""

from __future__ import annotations

import gc
from collections import Counter, OrderedDict
from collections.abc import Iterable, Mapping
from contextlib import contextmanager
from dataclasses import dataclass

from repro.check.engine import CheckConfig, Checker, EXTENDED
from repro.enforce.api import (
    SAT_ENGINE,
    Repair,
    adaptive_scope,
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
from repro.errors import EnforcementError, SatFragmentError
from repro.metamodel.conformance import is_conformant
from repro.metamodel.model import Model
from repro.metamodel.types import EnumType, PrimitiveType
from repro.solver.bounded import GroundingContext, Scope, _same_value
from repro.solver.cnf import Lit
from repro.solver.maxsat import INCREASING


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
    #: Allocated fresh-slot object ids per target parameter — ghosts
    #: excluded. Symmetry breaking is only sound while the anchoring
    #: state leaves every fresh slot empty — fresh slots are then
    #: interchangeable, so the canonical representative costs the same
    #: as any isomorph. A state that *occupies* a fresh slot (a
    #: previously accepted repair evolved further) breaks the
    #: interchangeability and must solve unchained. Ghosts sit outside
    #: the chain, so a state reviving one keeps it.
    fresh: dict[str, frozenset]
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
    builds), ``reuses`` (queries served by patching the cached
    grounding).

    >>> from repro.featuremodels import (paper_transformation,
    ...     feature_model, configuration)
    >>> session = EnforcementSession(paper_transformation(k=2),
    ...                              ["cf1", "cf2"])
    >>> models = {"fm": feature_model({"core": True, "log": True}),
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

    A never-seen object (``s_net``) escapes the universe and re-grounds;
    the new generation keeps ``s_log`` as a ghost, so re-selecting it
    next to ``s_net`` is patched again:

    >>> session.enforce(dict(models,
    ...     cf1=configuration(["core", "net"], name="cf1"))).distance
    4
    >>> session.enforce(dict(models,
    ...     cf1=configuration(["core", "log", "net"], name="cf1"))).distance
    4
    >>> session.groundings, session.reuses
    (2, 2)
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
        # Retained grounding generations, least-recently-used first. A
        # tuple that escapes the active grounding may still anchor an
        # older one (oscillating frozen drifts), in which case the
        # session switches back instead of re-grounding. Without a
        # translation context only the latest generation is kept (the
        # historical behaviour, and the ``cache=False`` ablation arm).
        self._generations: list[_Generation] = []
        self._active: _Generation | None = None
        self._fragment_error: Exception | None = None
        self.calls = 0
        self.groundings = 0
        self.reuses = 0
        self.closes = 0

    #: How many grounding generations a cached session retains.
    GENERATION_LIMIT = 4

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
            "generations": len(self._generations),
            "closes": self.closes,
        }

    def close(self) -> None:
        """Release every retained grounding, solver and translation table.

        The disposal hook of the :func:`shared_session` LRU: eviction
        must actually *free* the evicted shape's memory — generations,
        MaxSAT sessions, solvers, oracles and the shared
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
        self._generations.clear()
        self._active = None
        if self._context is not None:
            self._context = GroundingContext()
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
        0 (engine ``"none"``). Raises
        :class:`~repro.errors.NoRepairFound` when no consistent tuple
        exists within the scope (or the distance cap).
        """
        self.calls += 1
        original = self._bound(models)

        assumptions = self._activate(original)
        if assumptions is not None:
            if self._consistent_fast(original):
                return self._untouched(original)
        else:
            # The edit escaped every retained grounding (or none exists yet).
            if self.checker.is_consistent(original):
                return self._untouched(original)
            assumptions = self._ground_fresh(original)
        repaired, cost = self._solve(
            original, assumptions, max_distance, symmetry=False
        )
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
        assumptions = self._ensure(original)
        return self._solve(original, assumptions, max_distance, symmetry=True)

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
        assumptions = self._ensure(original)
        if assumptions is None:
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
        cost, assignments = active.maxsat.enumerate_optimal(
            project,
            mode=self.mode,
            limit=limit,
            assumptions=active.grounding.base_assumptions(symmetry=symmetry)
            + assumptions,
            retract=True,
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

    def _ensure(self, original: Mapping[str, Model]) -> list[Lit] | None:
        """Origin assumptions for ``original``, re-grounding if needed.

        ``None`` means the tuple cannot anchor a retargetable grounding
        at all — an undeclared feature, a dangling reference, a value
        outside its attribute's type domain on a weighted target — and
        the caller must serve the question standalone (the historical
        per-call path repairs such tuples just fine; only the
        origin-variable representation cannot express them). The
        anchorability pre-check runs *before* re-grounding so
        unanchorable tuples never pollute the shared context.
        """
        assumptions = self._activate(original)
        if assumptions is not None:
            return assumptions
        return self._ground_fresh(original)

    def _ground_fresh(self, original: Mapping[str, Model]) -> list[Lit] | None:
        """Ground a new generation for ``original`` (no retained
        generation fits — callers already probed); ``None`` when the
        tuple is unanchorable."""
        if not self._anchorable(original):
            return None
        self._reground(original)
        assumptions = self._active.grounding.origin_assumptions(original)
        if assumptions is None:
            raise EnforcementError(
                "model tuple cannot anchor its own grounding; this is a bug"
            )
        return assumptions

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
        origin: list[Lit] | None,
        max_distance: int | None,
        symmetry: bool,
    ) -> tuple[dict[str, Model], int]:
        """The session's optimum -> decode step on the active generation.

        ``symmetry`` assumes the symmetry chain where :meth:`_symmetry_ok`
        allows it. The generation selector leads the assumptions: one
        propagation pass activates the whole generation before the
        origin literals pin the distance. An unanchorable tuple
        (``origin`` is ``None``) takes the historical per-call path —
        same guarantees, no shared-context pollution."""
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
        return _solve_optimum(
            active.grounder,
            active.maxsat,
            active.grounding.base_assumptions(symmetry=symmetry) + origin,
            self.mode,
            max_distance,
            self.scope if self.scope is not None else "adaptive scope",
            self.targets,
        )

    def _activate(self, original: Mapping[str, Model]) -> list[Lit] | None:
        """Origin assumptions from the first retained generation able to
        express ``original`` (most recent first), or ``None``.

        A hit makes that generation the active one — oscillating frozen
        drifts switch between retained groundings instead of paying a
        re-ground per flip."""
        for generation in reversed(self._generations):
            if not self._frozen_matches(generation.frozen, original):
                continue
            assumptions = generation.grounding.origin_assumptions(original)
            if assumptions is None:
                continue
            self.reuses += 1
            if generation is not self._generations[-1]:
                self._generations.remove(generation)
                self._generations.append(generation)
            self._active = generation
            return assumptions
        return None

    def _symmetry_ok(self, original: Mapping[str, Model]) -> bool:
        """Whether the active generation may assume its symmetry chain.

        Sound only while ``original`` leaves every fresh slot empty —
        see :class:`_Generation.fresh`."""
        for param, fresh in self._active.fresh.items():
            if fresh and not fresh.isdisjoint(original[param].object_ids()):
                return False
        return True

    def _untouched(self, original: Mapping[str, Model]) -> Repair:
        return Repair(
            models=dict(original),
            distance=0,
            changed=frozenset(),
            engine="none",
            targets=frozenset(self.targets.params),
        )

    def _consistent_fast(self, original: Mapping[str, Model]) -> bool:
        """Hippocratic pre-check, oracle-accelerated when possible.

        The oracle decides "consistent AND conformant targets", the
        checker decides "consistent" — and
        :func:`~repro.enforce.api.enforce` leaves *consistent* states
        untouched, conformant or not. So: oracle ``True`` is trusted
        (implies the checker's verdict); oracle ``False`` is exact
        exactly when every target is conformant, because then the
        structure constraints are satisfied by the state itself and only
        consistency can have failed; otherwise — nonconformant target,
        or oracle ``None`` — the real checker decides, so answers never
        depend on whether a grounding happens to be cached.
        """
        oracle = self._active.oracle
        if oracle is not None:
            verdict = oracle.query(original)
            if verdict:
                return True
            if verdict is False and all(
                is_conformant(original[param])
                for param in sorted(self.targets.params)
            ):
                return False
        return self.checker.is_consistent(original)

    def _frozen_matches(
        self, frozen: Mapping[str, Model], original: Mapping[str, Model]
    ) -> bool:
        for param, grounded in frozen.items():
            current = original[param]
            if current is not grounded and current != grounded:
                return False
        return True

    def _reground(self, models: Mapping[str, Model]) -> None:
        """Build grounding, MaxSAT session and oracle on one solver.

        With ``cache=True`` the grounder writes onto this session's
        persistent :class:`~repro.solver.bounded.GroundingContext`:
        re-grounds reuse every previously translated sub-formula and
        totalizer, and symmetry-breaking chains are emitted
        selector-guarded so optimum solves can assume them while oracle
        queries must not. Without a context the historical standalone
        grounding (no symmetry, plain assertions) is built.

        Either way the new generation is grounded over ``models`` plus
        the replaced generation's ghosts (:meth:`_ghosts`), so an object
        id this shape has grounded before anchors the newest generation.

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
            generation = self._generation(models)
        limit = self.GENERATION_LIMIT if self._context is not None else 1
        self._generations.append(generation)
        del self._generations[:-limit]
        self._active = generation
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
            retarget=True,
            prune=self.prune,
            context=self._context,
            ghosts=self._ghosts(models, scope),
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
            fresh={
                param: frozenset(
                    oid for slots in gm.fresh_slots.values() for oid in slots
                )
                for param, gm in grounding.ground_models.items()
                if gm.symbolic
            },
        )
        generation.attach(frozenset(self.targets.params))
        return generation

    def _ghosts(
        self, models: Mapping[str, Model], scope: Scope
    ) -> dict[str, dict[str, str]]:
        """The ghost objects a re-ground of ``models`` carries over.

        Per target parameter: every object id the active (about to be
        replaced) generation grounded outside its fresh slots that
        ``models`` lacks, with its class, at most
        ``scope.extra_objects`` per class in id order. Fresh slots need
        no carrying: every grounding allocates its own.
        """
        active = self._active
        if active is None:
            return {}
        ghosts: dict[str, dict[str, str]] = {}
        for param, fresh in active.fresh.items():
            gm = active.grounding.ground_models[param]
            present = set(models[param].object_ids())
            concrete = set(models[param].metamodel.concrete_classes())
            per_class: Counter[str] = Counter()
            carried: dict[str, str] = {}
            for oid in gm.universe:
                cls = gm.class_of(oid)
                if oid in fresh or oid in present or cls not in concrete:
                    continue
                if per_class[cls] < scope.extra_objects:
                    per_class[cls] += 1
                    carried[oid] = cls
            ghosts[param] = carried
        return ghosts


#: The small grounding cache of the session/tool layer: live sessions
#: keyed by question shape, LRU-evicted. Sized so a workspace's
#: realistic mix of transformations x target directions x modes stays
#: resident — an evicted shape is not wrong, but a caller that retained
#: the old session (Echo does) and a fresh cache entry would each hold a
#: full grounding, quietly doubling work for that shape.
SHARED_SESSION_LIMIT = 32

_shared_sessions: "OrderedDict[tuple, tuple[object, EnforcementSession]]" = (
    OrderedDict()
)


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
    to one shared retargetable grounding and one incremental solver.
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
    entry = _shared_sessions.get(key)
    if entry is not None and entry[0] is transformation:
        _shared_sessions.move_to_end(key)
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
    _shared_sessions.move_to_end(key)
    while len(_shared_sessions) > SHARED_SESSION_LIMIT:
        # Dispose, don't just drop: an evicted entry's generations,
        # solvers and translation context must become garbage now, even
        # if a caller retained the session object itself (it re-grounds
        # on next use — see :meth:`EnforcementSession.close`).
        _, (_t, evicted) = _shared_sessions.popitem(last=False)
        evicted.close()
    return session


def shared_session_counters() -> list[dict]:
    """Counters of every live shared session, least-recently-used first.

    One :meth:`EnforcementSession.counters` dict per cached shape — the
    per-process slice of the daemon's ``metrics`` snapshot (grounding
    builds and patch reuses per shape live in the worker processes, so
    the worker reports them up with every reply).
    """
    return [session.counters() for _t, session in _shared_sessions.values()]


def clear_shared_sessions() -> None:
    """Drop every cached shared session (test isolation hook).

    Also unfreezes the heap (see :func:`_out_of_collector_reach`): the
    dropped sessions die by reference counting, and a forked worker,
    which clears first, does not keep a frozen copy of its parent's heap
    that it could never release.
    """
    _shared_sessions.clear()
    gc.unfreeze()
