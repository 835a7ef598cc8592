"""Engine B: Echo-style bounded SAT enforcement.

The checking semantics is grounded over a bounded universe
(:mod:`repro.solver.bounded`), distance-to-original becomes soft clauses,
and the optimum is found either by

* ``increasing`` — the FASE'13 Echo loop (*"an iterative process of
  searching for all consistent models at increasing distance from the
  original"*), core-boosted (see :mod:`repro.solver.maxsat`), or
* ``decreasing`` — PMax-SAT-style linear search from a first solution
  downwards (the FASE'14 target-oriented model finding realisation).

Both return the same optimum; experiment E7 compares their runtime.

Since the grounding fast path (PR 3), every entry point of this module
rides **one shared grounding** per question shape:
:func:`enforce_sat`, :func:`enumerate_repairs` and
:meth:`ConsistencyOracle.try_build` all resolve to the
:func:`repro.enforce.session.shared_session` cache, so an edit/enforce
loop that mixes verbs (repair, enumerate, screen candidates) grounds its
transformation constraints exactly once and every solve profits from the
same learnt-clause-laden incremental solver. Each call's state is
injected as its MaxSAT objective: its own atom literals, weighted per
target, plus its creation budget as assumptions
(:meth:`~repro.solver.bounded.GroundingResult.origin_assumptions`),
symmetry breaking is an opt-in assumption, and enumeration blocking
clauses are guarded by a per-enumeration selector so they never outlive
their run. ``share=False`` restores the historical
one-grounding-per-call behaviour — the baseline arm of
``tests/test_grounding_fastpath.py::TestSharedGrounding``.

:class:`ConsistencyOracle` exports the machinery to the other engines:
candidate repair states become assumption sets over the atom variables,
so a consistency-plus-conformance verdict costs one propagation-heavy
incremental solve instead of a full checker pass.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from repro.check.engine import Checker
from repro.deps.dependency import Dependency
from repro.enforce.metrics import TupleMetric
from repro.enforce.targets import TargetSelection
from repro.errors import NoRepairFound, SatFragmentError, SolverError
from repro.metamodel.model import Model
from repro.metamodel.serialize import canonical_text
from repro.qvtr.ast import Relation
from repro.solver.bounded import (
    Grounder,
    GroundingContext,
    GroundingResult,
    Scope,
    StateTable,
    encode_state,
)
from repro.solver.cnf import Lit
from repro.solver.maxsat import INCREASING, MaxSatSession, enumerate_optimal
from repro.solver.sat import IncrementalSolver


def _directions(checker: Checker) -> list[tuple[Relation, Dependency]]:
    return [
        (relation, dependency)
        for relation in checker.transformation.top_relations()
        for dependency in checker.directions_of(relation)
    ]


def _ground(
    checker: Checker,
    models: Mapping[str, Model],
    targets: TargetSelection,
    metric: TupleMetric | None,
    scope: Scope,
    symmetry_breaking: bool = True,
    prune: bool = True,
    context: GroundingContext | None = None,
) -> Grounder:
    """The shared grounding preamble of every SAT-engine entry point.

    ``metric=None`` grounds without distance soft clauses (consistency
    and conformance only). A standalone oracle turns
    ``symmetry_breaking`` off: its candidates fix every atom, so
    symmetry clauses would wrongly veto consistent states whose fresh
    objects are not in canonical id order.
    :class:`~repro.enforce.session.EnforcementSession` instead grounds
    onto a :class:`~repro.solver.bounded.GroundingContext` with
    *guarded* symmetry clauses — optimum solves assume them, oracle
    queries do not — and passes each state's own atom literals as the
    objective of its solve (see
    :meth:`~repro.solver.bounded.GroundingResult.origin_assumptions`).
    """
    transformation = checker.transformation
    targets.validate(transformation)
    if metric is None:
        weights = {param: 0 for param in transformation.param_names()}
    else:
        weights = {
            param: metric.weight(param) for param in transformation.param_names()
        }
    return Grounder(
        transformation,
        models,
        frozenset(targets.params),
        _directions(checker),
        scope=scope,
        weights=weights,
        symmetry_breaking=symmetry_breaking,
        prune=prune,
        context=context,
    )


def enforce_sat(
    checker: Checker,
    models: Mapping[str, Model],
    targets: TargetSelection,
    metric: TupleMetric = TupleMetric(),
    scope: Scope = Scope(),
    mode: str = INCREASING,
    max_distance: int | None = None,
    share: bool = True,
) -> tuple[dict[str, Model], int]:
    """Find a distance-minimal consistent tuple with the SAT engine.

    Returns ``(repaired tuple, weighted distance)``; raises
    :class:`NoRepairFound` when no consistent tuple exists within the
    scope (or the distance cap). By default the call is served by the
    shared grounding of its question shape
    (:func:`repro.enforce.session.shared_session`): the constraints are
    encoded at most once per shape, the concrete tuple is injected as
    the objective of the solve, and the optimum search runs under assumptions
    on one persistent solver. ``share=False`` grounds
    per call (the baseline arm of the shared-grounding tests).
    """
    if share:
        session = _shared(checker, targets, metric, scope, mode)
        return session.solve_tuple(models, max_distance=max_distance)
    grounder = _ground(checker, models, targets, metric, scope)
    grounding = grounder.ground()
    return _solve_optimum(
        grounder, grounding.session(), (), mode, max_distance, scope, targets
    )


def _shared(
    checker: Checker,
    targets: TargetSelection,
    metric: TupleMetric,
    scope: Scope,
    mode: str = INCREASING,
):
    """The shared session of this question shape (see ``share=True``)."""
    from repro.enforce.session import shared_session

    return shared_session(
        checker.transformation,
        targets,
        semantics=checker.config.semantics,
        metric=metric,
        scope=scope,
        mode=mode,
    )


def _solve_optimum(
    grounder: Grounder,
    maxsat: MaxSatSession,
    assumptions: Sequence[Lit],
    mode: str,
    max_distance: int | None,
    scope: Scope | str,
    targets: TargetSelection,
    objective: Mapping[Lit, int] | None = None,
) -> tuple[dict[str, Model], int]:
    """The one optimum -> decode step of every SAT-engine repair.

    ``assumptions`` are the base assumptions plus the state's creation
    budget and ``objective`` its soft literals (both empty per call);
    ``scope`` and ``targets`` only word the :class:`NoRepairFound`.
    """
    result = maxsat.solve_optimal(
        mode=mode,
        max_cost=max_distance,
        assumptions=assumptions,
        objective=objective,
    )
    if not result.satisfiable:
        raise NoRepairFound(
            f"no consistent tuple within scope {scope} "
            f"for targets {targets}"
            + (f" and distance cap {max_distance}" if max_distance is not None else ""),
            explored_distance=max_distance,
        )
    assert result.assignment is not None
    return grounder.decode(result.assignment), result.cost


def enumerate_repairs(
    checker: Checker,
    models: Mapping[str, Model],
    targets: TargetSelection,
    metric: TupleMetric = TupleMetric(),
    scope: Scope = Scope(),
    limit: int = 64,
    share: bool = True,
) -> tuple[int, list[dict[str, Model]]]:
    """All distance-minimal repairs (up to ``limit``), canonically ordered.

    The paper's least-change principle picks *a* closest consistent
    tuple; this enumerates the whole optimum set — the tool-level answer
    to the observation (README claim table, E6) that minimality alone may
    not determine the "natural" repair. Same fragment restrictions as
    :func:`enforce_sat`. The enumeration is fully incremental — one
    grounding, one encoding, one solver; each found repair adds one
    blocking clause — and by default it rides the *shared* grounding of
    its question shape, with the blocking clauses guarded by a
    per-enumeration selector so later repairs on the same grounding are
    unaffected.
    """
    if share:
        session = _shared(checker, targets, metric, scope)
        return session.enumerate_tuple(models, limit=limit)
    grounder = _ground(checker, models, targets, metric, scope)
    grounding = grounder.ground()
    project = sorted(
        grounding.pool.var(name)
        for name in grounding.pool.names()
        if isinstance(name, tuple) and name[0] in ("obj", "attr", "ref")
    )
    cost, assignments = enumerate_optimal(
        grounding.cnf,
        list(grounding.soft),
        project,
        limit=limit,
    )
    return cost, _distinct_repairs(grounder, assignments)


def _distinct_repairs(
    grounder: Grounder, assignments: Iterable[Mapping[int, bool]]
) -> list[dict[str, Model]]:
    """Decoded repairs, one per canonical text, in canonical-text order."""
    decoded: dict[str, dict[str, Model]] = {}
    for assignment in assignments:
        tuple_ = grounder.decode(assignment)
        key = "|".join(canonical_text(tuple_[p]) for p in sorted(tuple_))
        decoded.setdefault(key, tuple_)
    return [decoded[key] for key in sorted(decoded)]


class ConsistencyOracle:
    """Assumption-based consistency + conformance oracle for candidates.

    Built once per enforcement run over a grounding of the *original*
    tuple's bounded universe, with one persistent
    :class:`IncrementalSolver` attached; answers, per candidate state,
    whether every target model is metamodel-conformant *and* the tuple
    satisfies every directional check — by fixing each atom variable of
    the universe with an assumption literal and asking for
    satisfiability. The atom tables come precomputed from
    :meth:`~repro.solver.bounded.GroundingResult.atom_tables` and the
    state walk is the shared :func:`~repro.solver.bounded.encode_state`,
    so the decline rules stay in lockstep with
    :meth:`~repro.solver.bounded.GroundingResult.origin_assumptions` by
    construction. On context-backed (shared) groundings every query
    assumes the generation selector — and never the symmetry selector,
    since candidates may place fresh objects at non-canonical ids.

    The answer is exact on the SAT fragment because the assumptions
    determine every atom of the grounding: the solve degenerates into
    unit propagation over constraints learnt-clause-accelerated across
    the thousands of candidates an exploration visits. :meth:`query`
    returns ``None`` (caller must fall back to the real checker) whenever
    a candidate strays outside the bounded universe or the value pools —
    soundness is never traded for speed.
    """

    def __init__(
        self,
        grounding: GroundingResult,
        targets: frozenset[str],
        solver: IncrementalSolver,
        tables: dict[str, StateTable],
    ) -> None:
        self._targets = tuple(sorted(targets))
        self._tables = tables
        self._solver = solver
        self._base = grounding.base_assumptions(symmetry=False)
        self.queries = 0
        self.fallbacks = 0
        # Non-target models are baked into the grounding as constants; a
        # query against a tuple whose frozen side drifted must decline.
        self._frozen = {
            param: gm.model
            for param, gm in grounding.ground_models.items()
            if not gm.symbolic
        }

    @classmethod
    def attach(
        cls,
        grounding: GroundingResult,
        targets: frozenset[str],
        solver: IncrementalSolver,
    ) -> "ConsistencyOracle | None":
        """The oracle over ``grounding`` querying ``solver``, or ``None``
        when the grounding cannot tabulate every target's atoms."""
        tables = grounding.atom_tables()
        if tables is None or not all(param in tables for param in targets):
            return None
        return cls(grounding, targets, solver, tables)

    @classmethod
    def try_build(
        cls,
        checker: Checker,
        models: Mapping[str, Model],
        targets: TargetSelection,
        scope: Scope,
        metric: TupleMetric | None = None,
        share: bool = True,
    ) -> "ConsistencyOracle | None":
        """An oracle for this enforcement run, or None outside the fragment.

        By default the oracle rides the shared grounding of
        its question shape, so candidate screening (search/guided
        engines) and SAT enforcement accumulate learnt clauses on the
        same solver. ``share=False`` builds a standalone
        distance-free grounding (the historical behaviour).
        """
        try:
            if share:
                session = _shared(checker, targets, metric or TupleMetric(), scope)
                return session.oracle_for(models)
            grounder = _ground(
                checker, models, targets, None, scope, symmetry_breaking=False
            )
            grounding = grounder.ground()
        except (SatFragmentError, SolverError):
            return None
        return cls.attach(
            grounding, frozenset(targets.params), IncrementalSolver(grounding.cnf)
        )

    def query(self, state: Mapping[str, Model]) -> bool | None:
        """Whether ``state`` is consistent with conformant targets.

        ``None`` means the oracle cannot encode this candidate (object,
        attribute value or reference target outside the bounded universe)
        and the caller must decide with the real checker.
        """
        self.queries += 1
        assumptions = self._assumptions_for(state)
        if assumptions is None:
            self.fallbacks += 1
            return None
        return self._solver.solve(
            self._base + assumptions, model=False
        ).satisfiable

    def _assumptions_for(
        self, state: Mapping[str, Model]
    ) -> list[Lit] | None:
        for param, original in self._frozen.items():
            current = state.get(param)
            if current is not original and current != original:
                return None  # frozen side drifted from the grounding
        return encode_state(self._tables, self._targets, state)
