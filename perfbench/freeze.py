"""Regenerate the benchmark's frozen inputs (``perfbench/inputs/``).

The benchmark never generates its requests at run time: the generated
scenarios repair their own starting tuples with the SAT engine, so an
engine change that picked a different equal-cost optimum would silently
change the workload itself. This script generates each workload's
requests once, in wire form (``request_to_dict``), together with each
request's reference answer ``(outcome, distance)`` from the per-call
path (``enforce(..., share=False)``: a fresh grounding per request, no
shared session), and writes them as gzipped JSON.

Run it from the repository root only when the workload definition
changes::

    python3 perfbench/freeze.py

Every benchmark run prints the digest of the files it loaded, so two
revisions measured with the same files provably served the same bytes.
"""

from __future__ import annotations

import gzip
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INPUTS = HERE / "inputs"

#: The A9 stream: scenario seeds and requests per scenario.
GEN_SEEDS = range(120)
GEN_ROUNDS = 6

#: The paper's feature-model workload: feature count (half mandatory).
#: Cost climbs steeply with the count (10 features: ~35 s and ~400 MB
#: per 100 requests), so it is fixed here.
PAPER_FEATURES = 8

#: Requests of the paper workload, each the base plus 1-2 toggles drawn
#: from a generator seeded with ``PAPER_SEED``.
PAPER_REQUESTS = 48
PAPER_SEED = 2014


def reference(request) -> list:
    """``[outcome, distance]`` of one request on the per-call SAT path."""
    from repro.enforce.api import enforce
    from repro.enforce.targets import TargetSelection
    from repro.errors import NoRepairFound, ReproError
    from repro.qvtr.syntax.parser import parse_transformation

    try:
        repair = enforce(
            parse_transformation(request.transformation),
            request.models,
            TargetSelection(request.targets),
            engine="sat",
            semantics=request.semantics,
            metric=request.metric(),
            scope=request.scope,
            mode=request.mode,
            max_distance=request.max_distance,
            share=False,
        )
    except NoRepairFound:
        return ["no-repair", None]
    except ReproError:
        return ["error", None]
    return ["consistent" if repair.engine == "none" else "repaired", repair.distance]


def freeze_gen() -> dict:
    from repro.gen import random_scenario, scenario_requests
    from repro.serve.requests import request_to_dict

    scenarios = []
    for seed in GEN_SEEDS:
        requests = scenario_requests(random_scenario(seed), rounds=GEN_ROUNDS)
        scenarios.append(
            {
                "seed": seed,
                "requests": [request_to_dict(r) for r in requests],
                "reference": [reference(r) for r in requests],
            }
        )
    return {
        "format": 1,
        "workload": "gen",
        "generator": (
            f"scenario_requests(random_scenario(seed), rounds={GEN_ROUNDS}) "
            f"for seed in range({len(GEN_SEEDS)})"
        ),
        "scenarios": scenarios,
    }


def paper_base(features: int) -> tuple[list[str], dict[str, bool], dict[str, list[str]]]:
    """A consistent feature-model tuple: half the features mandatory.

    Both configurations select every mandatory feature; the optional
    ones are split between them, so none is selected by both (which the
    ``MF`` relation would require to be mandatory).
    """
    names = [f"f{i}" for i in range(features)]
    mandatory = {name: i < features // 2 for i, name in enumerate(names)}
    optional = [name for name in names if not mandatory[name]]
    half = len(optional) // 2
    core = [name for name in names if mandatory[name]]
    selections = {"cf1": core + optional[:half], "cf2": core + optional[half:]}
    return names, mandatory, selections


def freeze_paper() -> dict:
    from repro.check.engine import CheckConfig, Checker
    from repro.featuremodels import configuration, feature_model, paper_transformation
    from repro.serve.requests import EnforceRequest, request_to_dict

    names, mandatory, selections = paper_base(PAPER_FEATURES)
    transformation = paper_transformation(2)
    fm = feature_model(mandatory)

    def build(toggles) -> EnforceRequest:
        selected = {cf: set(chosen) for cf, chosen in selections.items()}
        for cf, name in toggles:
            selected[cf] ^= {name}
        models = {"fm": fm}
        for cf in ("cf1", "cf2"):
            models[cf] = configuration(sorted(selected[cf]), name=cf)
        return EnforceRequest.build(
            transformation, models, targets=["cf1", "cf2"], semantics="extended"
        )

    base = build(())
    checker = Checker(transformation, config=CheckConfig(semantics="extended"))
    if not checker.is_consistent(base.models):
        raise SystemExit("the paper-fm base tuple must be consistent")
    positions = [(cf, name) for cf in ("cf1", "cf2") for name in names]
    rng = random.Random(PAPER_SEED)
    toggle_sets = [
        rng.sample(positions, rng.choice((1, 2))) for _ in range(PAPER_REQUESTS)
    ]
    requests = [build(toggles) for toggles in toggle_sets]
    # Warm-up question: grounds the shape before timing starts.
    warmup = build([("cf1", names[0])])
    return {
        "format": 1,
        "workload": "paper-fm",
        "generator": (
            f"paper_transformation(2), {PAPER_FEATURES} features "
            f"({PAPER_FEATURES // 2} mandatory), targets cf1+cf2, extended, "
            f"uncapped; the consistent base plus 1-2 toggles drawn with "
            f"random.Random({PAPER_SEED}), {PAPER_REQUESTS} requests"
        ),
        "warmup": request_to_dict(warmup),
        "toggles": [[list(p) for p in toggles] for toggles in toggle_sets],
        "requests": [request_to_dict(r) for r in requests],
        "reference": [reference(r) for r in requests],
    }


def write(name: str, document: dict) -> None:
    INPUTS.mkdir(parents=True, exist_ok=True)
    data = json.dumps(document, sort_keys=True, separators=(",", ":")).encode()
    # mtime=0: the same document always gzips to the same bytes.
    with open(INPUTS / f"{name}.json.gz", "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as out:
            out.write(data)


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    write("gen", freeze_gen())
    write("paper-fm", freeze_paper())


if __name__ == "__main__":
    main()
