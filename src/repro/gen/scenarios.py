"""Seeded end-to-end enforcement scenarios over generated universes.

One :func:`random_scenario` call composes the whole stack: random
metamodels, a well-typed random transformation over them, a conformant
base tuple, a *consistent* starting state (checker-verified), a short
random perturbation, and a question shape (targets, metric, semantics,
scope, distance cap). The result is exactly the input every enforcement
engine takes, so the differential oracle (:mod:`repro.gen.oracle`) can
replay one scenario through all of them.

Determinism: the scenario is a pure function of its seed. All
randomness flows through :func:`repro.util.seeding.rng_from_seed`;
nothing reads clocks, ids or global state.

The distance cap matters: the explicit-search engines prove
"no repair within the cap" by exhausting the bounded edit space below
it, which is exponential in the cap. Scenarios therefore cap at
``MAX_CAP`` — enough to cover every 1–2-edit perturbation's inverse —
keeping the brute arm tractable while the SAT arms answer the same
capped question.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.check.engine import EXTENDED, STANDARD, CheckConfig, Checker
from repro.enforce.metrics import TupleMetric
from repro.enforce.satengine import enumerate_repairs
from repro.enforce.targets import TargetSelection
from repro.errors import GenerationError, SatFragmentError, SolverError
from repro.gen.edits import perturb
from repro.gen.instances import INT_POOL, STRING_POOL, random_model
from repro.gen.metamodels import random_metamodel
from repro.gen.transformations import random_transformation
from repro.metamodel.model import Model, ModelObject
from repro.qvtr.ast import Transformation
from repro.solver.bounded import Scope
from repro.util.seeding import rng_from_seed, spawn

#: Upper bound on every scenario's distance cap (see module docstring).
MAX_CAP = 3

#: The scenario scope: one fresh object per class, one fresh string.
SCENARIO_SCOPE = Scope(extra_objects=1, extra_strings=1)

#: Optimal base repairs enumerated at most (A8's 200 seeds need <= 22).
REPAIR_LIMIT = 256


@dataclass(frozen=True)
class GeneratedScenario:
    """One generated enforcement question, ready for any engine."""

    seed: int
    transformation: Transformation
    semantics: str
    #: The consistent state the user started from (checker-verified).
    before: dict[str, Model] = field(compare=False)
    #: The state after the user's edits — the enforcement question.
    models: dict[str, Model] = field(compare=False)
    targets: TargetSelection
    metric: TupleMetric
    scope: Scope
    #: Engines answer "optimal repair within this weighted distance".
    max_distance: int
    #: Which parameters the perturbation actually touched.
    edited: frozenset[str]

    def checker(self) -> Checker:
        return Checker(
            self.transformation, config=CheckConfig(semantics=self.semantics)
        )

    def params(self) -> tuple[str, ...]:
        return self.transformation.param_names()


def _release_fresh_ids(model: Model) -> Model:
    """Rename repair-introduced ``new_*`` objects to plain generator ids.

    Enforcement materialises fresh objects under the grounder's reserved
    ``new_<class>_<i>`` ids; a model carrying those cannot be ground
    again (the next grounding's fresh slots would collide). Consistency
    and conformance only depend on classes, attribute values and link
    structure — never on ids — so renaming is free.
    """
    stale = [o for o in model.objects if o.oid.startswith("new_")]
    if not stale:
        return model
    taken = set(model.object_ids())
    mapping: dict[str, str] = {}
    for obj in stale:
        fresh = next(
            f"{obj.cls.lower()}{i}"
            for i in itertools.count()
            if f"{obj.cls.lower()}{i}" not in taken
        )
        mapping[obj.oid] = fresh
        taken.add(fresh)
    renamed = tuple(
        ModelObject(
            mapping.get(obj.oid, obj.oid),
            obj.cls,
            obj.attrs,
            tuple(
                (ref, tuple(mapping.get(t, t) for t in targets))
                for ref, targets in obj.refs
            ),
        )
        for obj in model.objects
    )
    return Model(model.metamodel, renamed, model.name)


def _consistent_base(
    transformation: Transformation,
    semantics: str,
    models: dict[str, Model],
) -> dict[str, Model]:
    """A consistent, checker-verified starting tuple.

    An inconsistent random tuple is repaired towards all parameters:
    of every distance-minimal repair within the scope, the first in
    canonical-text order (:func:`~repro.enforce.satengine.enumerate_repairs`
    orders them), so the corpus does not depend on which optimum a
    search happens to meet first. If no repair exists within the scope,
    the empty tuple — vacuously consistent for the template fragment —
    is the fallback. Fresh objects the repair created are renamed off
    the grounder's reserved id namespace.
    """
    checker = Checker(transformation, config=CheckConfig(semantics=semantics))
    if checker.is_consistent(models):
        return models
    try:
        _cost, repairs = enumerate_repairs(
            checker,
            models,
            TargetSelection(transformation.param_names()),
            scope=SCENARIO_SCOPE,
            limit=REPAIR_LIMIT,
            share=False,
        )
    except SatFragmentError:
        raise
    except SolverError:  # the hard clauses are UNSAT: no repair in scope
        empty = {
            param: Model(models[param].metamodel, (), name=param)
            for param in models
        }
        assert checker.is_consistent(empty), "empty tuple must be consistent"
        return empty
    if len(repairs) >= REPAIR_LIMIT:
        raise GenerationError(f"{REPAIR_LIMIT} or more optimal base repairs")
    consistent = {
        param: _release_fresh_ids(model) for param, model in repairs[0].items()
    }
    assert checker.is_consistent(consistent), "renaming must preserve consistency"
    return consistent


def random_scenario(
    seed: int,
    *,
    max_classes: int = 2,
    max_objects_per_class: int = 2,
) -> GeneratedScenario:
    """The scenario for ``seed``; see the module docstring."""
    rng = rng_from_seed(seed)
    mm_rng, t_rng, model_rng, edit_rng, shape_rng = (
        spawn(rng) for _ in range(5)
    )

    k = mm_rng.choice((2, 2, 2, 3))
    n_metamodels = mm_rng.choice((1, 2))
    metamodels = [
        random_metamodel(mm_rng, name=f"MM{i}", max_classes=max_classes)
        for i in range(1, n_metamodels + 1)
    ]
    params = tuple(f"m{i}" for i in range(1, k + 1))
    by_param = {param: mm_rng.choice(metamodels) for param in params}

    transformation = random_transformation(t_rng, by_param)
    semantics = EXTENDED if shape_rng.random() < 0.75 else STANDARD

    base = {
        param: random_model(
            by_param[param],
            model_rng,
            name=param,
            max_objects_per_class=max_objects_per_class,
            min_objects_total=1,
        )
        for param in params
    }
    before = _consistent_base(transformation, semantics, base)

    n_edits = 1 if edit_rng.random() < 0.65 else 2
    models, edited = perturb(edit_rng, before, n_edits)

    subsets = [
        frozenset(combo)
        for size in range(1, k + 1)
        for combo in itertools.combinations(params, size)
    ]
    if edited and shape_rng.random() < 0.6:
        covering = [s for s in subsets if edited <= s]
        targets = TargetSelection(shape_rng.choice(covering))
    else:
        targets = TargetSelection(shape_rng.choice(subsets))

    if shape_rng.random() < 0.2:
        metric = TupleMetric(
            {param: shape_rng.choice((1, 2)) for param in params}
        )
    else:
        metric = TupleMetric()

    inversion_cost = metric.distance(before, models)
    max_distance = max(1, min(MAX_CAP, inversion_cost))

    return GeneratedScenario(
        seed=seed,
        transformation=transformation,
        semantics=semantics,
        before=before,
        models=models,
        targets=targets,
        metric=metric,
        scope=SCENARIO_SCOPE,
        max_distance=max_distance,
        edited=edited,
    )


def scenario_requests(
    scenario: GeneratedScenario,
    rounds: int = 4,
    prefer_inconsistent: bool = True,
) -> list:
    """Same-shape batch requests for ``scenario`` (the A9 workload).

    The first request asks the scenario's own question; each following
    one drifts the target models strictly inside the grounding universe
    (:func:`repro.gen.edits.in_universe_stream`), so the whole list maps
    to **one** shard of the batch service and a worker answering it
    grounds at most once. With ``prefer_inconsistent`` (default) the
    drifts are biased towards checker-verified *repair* questions —
    already-consistent tuples are answered hippocratically for near
    nothing by every engine, so a batch of them measures nothing; the
    first tuple is always kept as-is for hippocratic coverage.
    Deterministic per scenario seed.
    """
    from repro.gen.edits import in_universe_stream
    from repro.serve import EnforceRequest

    stream = in_universe_stream(
        scenario.seed,
        scenario.models,
        sorted(scenario.targets.params),
        rounds * 4 if prefer_inconsistent else rounds,
    )
    if prefer_inconsistent and len(stream) > 1:
        checker = scenario.checker()
        drifts = stream[1:]
        taken = {
            id(tuple_)
            for tuple_ in [
                t for t in drifts if not checker.is_consistent(t)
            ][: rounds - 1]
        }
        for tuple_ in drifts:  # pad when repair drifts are scarce
            if len(taken) >= rounds - 1:
                break
            taken.add(id(tuple_))
        # Keep drift order for reproducibility of the shard's session
        # walk; expressibility does not depend on it (the stream's
        # object sets and active domain are invariant, so any tuple
        # anchors for all the others).
        stream = [stream[0]] + [t for t in drifts if id(t) in taken]
    return [
        EnforceRequest.build(
            scenario.transformation,
            tuple_,
            scenario.targets.params,
            semantics=scenario.semantics,
            weights=scenario.metric.weights,
            scope=scenario.scope,
            max_distance=scenario.max_distance,
        )
        for tuple_ in stream
    ]
