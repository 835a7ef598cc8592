"""The public enforcement API.

:func:`enforce` is the one entry point: pick the models to repair, pick
an engine, get back a :class:`Repair` that is guaranteed *correct* (the
result is consistent — verified with the actual checker, not trusted
from the engine) and *hippocratic* (a consistent input comes back
untouched at distance 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping

from repro.check.engine import CheckConfig, Checker, EXTENDED
from repro.enforce.guided import enforce_guided
from repro.enforce.metrics import TupleMetric
from repro.metamodel.conformance import ill_typed, is_conformant
from repro.enforce.satengine import enforce_sat
from repro.enforce.search import enforce_search
from repro.enforce.targets import TargetSelection
from repro.errors import EnforcementError, NonConformantTarget
from repro.metamodel.model import Model
from repro.qvtr.ast import Transformation
from repro.solver.bounded import Scope
from repro.solver.maxsat import INCREASING

SEARCH_ENGINE = "search"
SAT_ENGINE = "sat"
GUIDED_ENGINE = "guided"


@dataclass(frozen=True)
class Repair:
    """The outcome of an enforcement run.

    ``models`` is the full repaired tuple (non-targets unchanged),
    ``distance`` the weighted tuple distance actually paid, ``changed``
    the parameters that differ from the input, and ``engine`` the
    engine that produced the repair — ``"none"`` for the hippocratic
    case (the input was already consistent and came back untouched).
    """

    models: dict[str, Model]
    distance: int
    changed: frozenset[str]
    engine: str
    targets: frozenset[str]

    def model(self, param: str) -> Model:
        """The repaired model bound to ``param``."""
        return self.models[param]

    def summary(self) -> str:
        """A one-line, human-readable account of the repair."""
        changed = ", ".join(sorted(self.changed)) if self.changed else "nothing"
        return (
            f"repair via {self.engine}: distance {self.distance}, "
            f"changed {changed} (targets {{{', '.join(sorted(self.targets))}}})"
        )


def adaptive_scope(models: Mapping[str, Model]) -> Scope:
    """A scope large enough for any repair that mirrors existing content.

    Fresh-object budget per class equals the largest model in the tuple —
    enough to clone any one model's population into another (the worst
    case the paper's scenarios need). Echo inherits the same bounded-scope
    caveat from Alloy; callers with bigger repairs pass an explicit
    :class:`Scope`.
    """
    largest = max((m.size() for m in models.values()), default=1)
    return Scope(extra_objects=max(1, largest), extra_strings=1)


def enforce(
    transformation: Transformation,
    models: Mapping[str, Model],
    targets: TargetSelection,
    engine: str = SAT_ENGINE,
    semantics: str = EXTENDED,
    metric: TupleMetric = TupleMetric(),
    scope: Scope | None = None,
    mode: str = INCREASING,
    max_distance: int | None = None,
    max_states: int = 200_000,
    share: bool = True,
) -> Repair:
    """Restore consistency by rewriting only the ``targets`` models.

    Parameters mirror the paper's ingredients: the *consistency relation*
    (``transformation`` + ``semantics``), the *direction* (``targets``),
    and the *distance* (``metric``). ``engine``/``mode``/``scope`` select
    and bound the solving machinery; ``share=False`` makes the SAT
    engine ground this call standalone instead of riding the shared
    grounding of its question shape (the re-grounding
    arm ``tests/test_enforce_session.py`` compares sessions against).
    Raises
    :class:`~repro.errors.NoRepairFound` when the chosen direction cannot
    restore consistency within bounds — the paper's closing caveat that
    *"not all update directions are able to restore the consistency of
    the system"* — and :class:`~repro.errors.NonConformantTarget` for an
    inconsistent tuple whose weighted target holds an ill-typed value
    (:func:`refuse_nonconformant`).

    >>> from repro.featuremodels import (paper_transformation,
    ...     feature_model, configuration)
    >>> models = {"fm": feature_model({"core": True, "log": True}),
    ...           "cf1": configuration(["core", "log"], name="cf1"),
    ...           "cf2": configuration(["core"], name="cf2")}
    >>> repair = enforce(paper_transformation(k=2), models,
    ...                  TargetSelection(["cf1", "cf2"]), share=False)
    >>> repair.distance, sorted(repair.changed)
    (2, ['cf2'])
    >>> enforce(paper_transformation(k=2), repair.models,
    ...         TargetSelection(["cf1", "cf2"]), share=False).engine
    'none'
    """
    if engine not in (SEARCH_ENGINE, SAT_ENGINE, GUIDED_ENGINE):
        raise EnforcementError(f"unknown engine {engine!r}")
    checker = Checker(transformation, config=CheckConfig(semantics=semantics))
    targets.validate(transformation)
    missing = set(transformation.param_names()) - set(models)
    if missing:
        raise EnforcementError(f"no models bound to parameters {sorted(missing)}")

    original = {param: models[param] for param in transformation.param_names()}
    if scope is None:
        scope = adaptive_scope(original)
    if checker.is_consistent(original):
        # Hippocraticness: never touch an already-consistent environment.
        return Repair(
            models=dict(original),
            distance=0,
            changed=frozenset(),
            engine="none",
            targets=frozenset(targets.params),
        )
    refuse_nonconformant(original, targets, metric)

    if engine == SEARCH_ENGINE:
        repaired, cost, _stats = enforce_search(
            checker,
            original,
            targets,
            metric=metric,
            scope=scope,
            max_distance=max_distance,
            max_states=max_states,
            share_oracle=share,
        )
    elif engine == GUIDED_ENGINE:
        repaired, cost = enforce_guided(
            checker,
            original,
            targets,
            metric=metric,
            scope=scope,
            share_oracle=share,
        )
    else:
        repaired, cost = enforce_sat(
            checker,
            original,
            targets,
            metric=metric,
            scope=scope,
            mode=mode,
            max_distance=max_distance,
            share=share,
        )

    return verify_repair(checker, engine, original, repaired, cost, targets, metric)


def refuse_nonconformant(
    original: Mapping[str, Model], targets: TargetSelection, metric: TupleMetric
) -> None:
    """Refuse (:class:`~repro.errors.NonConformantTarget`) an
    inconsistent tuple whose weighted target holds a value outside its
    attribute's type (:func:`~repro.metamodel.conformance.ill_typed`):
    the SAT grounding counts an edit across types once, the metric
    twice, so no engine runs. A consistent tuple is left untouched
    first, conformant or not."""
    for param in sorted(targets.params):
        bad = ill_typed(original[param]) if metric.weight(param) else []
        if bad:
            raise NonConformantTarget(
                f"target {param!r} does not conform to its metamodel "
                f"({'; '.join(map(str, bad))}); only a conformant target "
                "can be repaired"
            )


def verify_repair(
    checker: Checker,
    engine: str,
    original: Mapping[str, Model],
    repaired: dict[str, Model],
    cost: int,
    targets: TargetSelection,
    metric: TupleMetric,
) -> Repair:
    """Validate an engine's answer and package it as a :class:`Repair`.

    Guards the API guarantees independently of the engine: the repair is
    consistent (re-checked with the actual checker), target models are
    conformant, the reported distance matches the metric, and no
    non-target model was touched. Shared by :func:`enforce` and the
    persistent :class:`~repro.enforce.session.EnforcementSession`.
    """
    if not checker.is_consistent(repaired):
        raise EnforcementError(
            f"engine {engine!r} returned an inconsistent repair; this is a bug"
        )
    for param in sorted(targets.params):
        if not is_conformant(repaired[param]):
            raise EnforcementError(
                f"engine {engine!r} returned a non-conformant {param!r}; "
                "this is a bug"
            )
    recomputed = metric.distance(original, repaired)
    if recomputed != cost:
        raise EnforcementError(
            f"engine {engine!r} reported distance {cost} but the metric "
            f"measures {recomputed}; this is a bug"
        )
    changed = frozenset(
        param
        for param in original
        if original[param].objects != repaired[param].objects
    )
    untouchable = changed - targets.params
    if untouchable:
        raise EnforcementError(
            f"engine {engine!r} modified non-target models {sorted(untouchable)}; "
            "this is a bug"
        )
    return Repair(
        models=repaired,
        distance=cost,
        changed=changed,
        engine=engine,
        targets=frozenset(targets.params),
    )
