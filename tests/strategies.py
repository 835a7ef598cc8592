"""Shared hypothesis strategies and seeded streams for tests.

Since PR 4 these strategies are thin bridges into the seeded generators
of :mod:`repro.gen`: each strategy draws one integer seed and delegates,
so a failing property test shrinks to a reproducible seed and the exact
same generator code serves hypothesis runs, the differential oracle and
the A8 benchmark. The *universes* stay pinned here (``GRAPH_MM``, the
feature/dependency/CNF pools) — regression tests need a universe that
never drifts; generated universes belong to the differential and fuzz
runs (see the :mod:`repro.gen` package docstring).
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from repro.errors import NoRepairFound
from repro.featuremodels.instances import configuration, feature_model
from repro.gen.instances import random_model
from repro.gen.workloads import (
    DOMAINS,
    random_cnf,
    random_dependency,
    random_dependency_set,
)
from repro.metamodel.meta import Attribute, Class, Metamodel, Reference
from repro.metamodel.types import BOOLEAN, INTEGER, STRING
from repro.util.seeding import rng_from_seed

#: A small, fixed metamodel rich enough to exercise diff/distance:
#: nodes with three attribute types and a many-valued self reference.
#: Pinned forever — the regression universe of the metamodel layer.
GRAPH_MM = Metamodel(
    "Graph",
    (
        Class(
            "Node",
            attributes=(
                Attribute("label", STRING),
                Attribute("weight", INTEGER),
                Attribute("active", BOOLEAN, optional=True),
            ),
            references=(Reference("next", "Node"),),
        ),
    ),
)

_LABELS = ("a", "b", "c")
_WEIGHTS = (0, 1, 2)
_NODE_IDS = ("n1", "n2", "n3", "n4")

#: Seeds drawn by the delegating strategies. Hypothesis shrinks towards
#: 0, so failures report small reproducible seeds.
_seeds = st.integers(0, 2**48 - 1)


@st.composite
def graph_models(draw):
    """Random small Graph models over the fixed ``GRAPH_MM`` universe."""
    return random_model(
        GRAPH_MM,
        rng_from_seed(draw(_seeds)),
        name="g",
        oids={"Node": _NODE_IDS},
        string_pool=_LABELS,
        int_pool=_WEIGHTS,
        p_link=0.125,
    )


_FEATURES = ("core", "log", "ui", "net")


@st.composite
def feature_models(draw):
    """Random feature models over a fixed feature universe."""
    rng = rng_from_seed(draw(_seeds))
    chosen = {
        feature: rng.random() < 0.5
        for feature in _FEATURES
        if rng.random() < 0.6
    }
    return feature_model(chosen)


@st.composite
def configurations(draw, name: str = "cf"):
    """Random configurations over the same feature universe."""
    rng = rng_from_seed(draw(_seeds))
    selected = [feature for feature in _FEATURES if rng.random() < 0.4]
    return configuration(selected, name=name)


@st.composite
def model_tuples(draw, k: int = 2):
    """Random (possibly inconsistent) k-configuration environments."""
    models = {"fm": draw(feature_models())}
    for i in range(1, k + 1):
        models[f"cf{i}"] = draw(configurations(name=f"cf{i}"))
    return models


@st.composite
def cnfs(draw, max_vars: int = 6, max_clauses: int = 12):
    """Random small CNFs (including empty clauses occasionally)."""
    return random_cnf(
        draw(_seeds), max_vars=max_vars, max_clauses=max_clauses
    )


#: The pinned dependency-domain universe (now owned by repro.gen).
_DOMAINS = DOMAINS


@st.composite
def dependency_sets(draw, max_size: int = 6):
    """Random dependency sets over a fixed domain universe."""
    return random_dependency_set(draw(_seeds), _DOMAINS, max_size=max_size)


@st.composite
def dependencies(draw):
    """A single random dependency."""
    return random_dependency(draw(_seeds), _DOMAINS)


def enforce_answer(run):
    """``(outcome, distance)`` of one enforcement call."""
    try:
        repair = run()
    except NoRepairFound:
        return ("no-repair", None)
    return ("consistent" if repair.engine == "none" else "repaired", repair.distance)


def toggle_stream(features, requests, seed=2014):
    """The paper's feature-model edit stream: a consistent base tuple
    (half the features mandatory, the optional ones split between the
    two configurations) plus 1-2 random selection toggles per request."""
    names = [f"f{i}" for i in range(features)]
    mandatory = {name: i < features // 2 for i, name in enumerate(names)}
    optional = [name for name in names if not mandatory[name]]
    core = [name for name in names if mandatory[name]]
    half = len(optional) // 2
    base = {"cf1": core + optional[:half], "cf2": core + optional[half:]}
    fm = feature_model(mandatory)
    positions = [(cf, name) for cf in ("cf1", "cf2") for name in names]
    rng = random.Random(seed)
    stream = []
    for _ in range(requests):
        selected = {cf: set(chosen) for cf, chosen in base.items()}
        for cf, name in rng.sample(positions, rng.choice((1, 2))):
            selected[cf] ^= {name}
        stream.append(
            {
                "fm": fm,
                **{
                    cf: configuration(sorted(selected[cf]), name=cf)
                    for cf in ("cf1", "cf2")
                },
            }
        )
    return stream


def probe_stream(rng, model, clause, unit):
    """A solve stream shaped like MaxSAT bound probes, with ops between.

    Steps are assumption tuples (one solve each), ``("add", clause)`` or
    ``("new_var",)``. Consecutive solves share assumption prefixes the
    way bound probes do: a fixed base of six ``model`` literals plus one
    varying tail literal of either sign, a repeated call, a strict
    prefix, an extension, a call that fails on its last assumption
    (``x`` then ``-x``) and its repeat, and solves after adding
    ``clause``, a fresh variable and the unit ``unit``. ``model`` holds
    one literal per variable ``1..len(model)``.
    """

    def lit(var):
        return var if rng.random() < 0.5 else -var

    variables = range(1, len(model) + 1)
    base = tuple(rng.sample(model, 6))
    t1, t2, t3 = ((lit(rng.choice(variables)),) for _ in range(3))
    x = lit(rng.choice(variables))
    fresh = len(model) + 1
    return [
        base + t1,
        base + t2,
        base + t2,
        base[:3],
        base + t1 + t3,
        base + (x, -x),
        base + (x, -x),
        ("add", clause),
        base + t1,
        ("new_var",),
        base + (fresh,),
        base + (-fresh,),
        ("add", unit),
        base + t2,
        base[:-1] + t1,
    ]
