"""Generative workloads: seeded random universes for tests and benches.

This package turns the repo's correctness story from "equivalent on the
cases we wrote" into "equivalent on any scenario we can generate". It
provides deterministic, seeded generators for every layer of an
enforcement question:

* :mod:`repro.gen.metamodels` — random metamodels (classes, typed and
  optional attributes, bounded references) with a guaranteed
  ``name : String`` anchor attribute;
* :mod:`repro.gen.instances` — conformant random instances over any
  metamodel, drawing ids and values from small overlapping pools;
* :mod:`repro.gen.transformations` — well-typed random QVT-R
  transformations inside the SAT-groundable template fragment, filtered
  through the repo's own static analyser (which folds in the
  direction-typing rules of :mod:`repro.deps.typecheck`);
* :mod:`repro.gen.edits` — applicable random edit streams (drifts,
  renames, deletions, frozen-model oscillations) that drive
  :class:`~repro.enforce.session.EnforcementSession` reuse, re-grounds
  and answer memory;
* :mod:`repro.gen.scenarios` — full enforcement scenarios: consistent
  base state, perturbation, targets, metric, semantics, distance cap;
* :mod:`repro.gen.oracle` — the cross-engine differential oracle that
  replays one scenario through the brute, search, SAT
  (shared/unshared/unpruned) and guided engines and demands verdict and
  optimal-cost agreement;
* :mod:`repro.gen.workloads` — solver-level workloads (random CNFs,
  assumptions, dependency sets) shared by the property tests and the
  metamorphic solver regressions.

When to use what
----------------

**Pinned universes for regressions, generated universes for
differential and fuzz runs.** A regression test should pin its universe
(``tests.strategies.GRAPH_MM``, the paper's feature-model scenarios) so
a failure reproduces forever and git history explains it. A
differential or fuzz run should generate its universe from a seed —
coverage comes from seed diversity, reproduction comes from the seed
(`rng_from_seed` makes every generator bit-for-bit deterministic per
seed). The hypothesis strategies in ``tests/strategies.py`` bridge the
two: they draw a seed and delegate to these generators, so shrinking a
failing property test shrinks to a reproducible seed.

Determinism contract: generators take ``seed: int | random.Random``
and route all randomness through
:func:`repro.util.seeding.rng_from_seed` / ``spawn``. They never read
clocks, object ids, hash order or global state, so
``random_scenario(s)`` is a pure function of ``s`` across processes
and platforms.
"""

from repro.gen.edits import (
    anchor_rename,
    in_universe_stream,
    oscillating_tuples,
    perturb,
    random_edit,
    random_edits,
)
from repro.gen.instances import INT_POOL, STRING_POOL, random_model, random_value
from repro.gen.metamodels import random_metamodel
from repro.gen.oracle import (
    BUDGET,
    CONSISTENT,
    EXACT_ENGINES,
    NO_REPAIR,
    REPAIRED,
    DifferentialReport,
    EngineVerdict,
    differential,
    run_engine,
    session_differential,
)
from repro.gen.scenarios import (
    MAX_CAP,
    SCENARIO_SCOPE,
    GeneratedScenario,
    random_scenario,
    scenario_requests,
)
from repro.gen.transformations import random_dependencies, random_transformation
from repro.gen.workloads import (
    DOMAINS,
    random_assumptions,
    random_cnf,
    random_dependency,
    random_dependency_set,
    random_hard_cnf,
)

__all__ = [
    "BUDGET",
    "CONSISTENT",
    "DOMAINS",
    "EXACT_ENGINES",
    "INT_POOL",
    "MAX_CAP",
    "NO_REPAIR",
    "REPAIRED",
    "SCENARIO_SCOPE",
    "STRING_POOL",
    "DifferentialReport",
    "EngineVerdict",
    "GeneratedScenario",
    "anchor_rename",
    "differential",
    "in_universe_stream",
    "oscillating_tuples",
    "perturb",
    "random_assumptions",
    "random_cnf",
    "random_dependencies",
    "random_dependency",
    "random_dependency_set",
    "random_edit",
    "random_edits",
    "random_hard_cnf",
    "random_metamodel",
    "random_model",
    "random_scenario",
    "random_transformation",
    "scenario_requests",
    "random_value",
    "run_engine",
    "session_differential",
]
