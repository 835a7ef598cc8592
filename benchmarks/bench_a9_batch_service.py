"""A9 (service) — sharded batch enforcement vs sequential per-call SAT.

Two arms over batches built from A8's generated scenarios (each
scenario contributes a same-shape request stream via
:func:`repro.gen.scenario_requests`, so shards carry several requests):

* **equivalence + throughput** — the whole batch is answered (a) one
  request at a time by per-call SAT (``enforce(share=False)``, a fresh
  grounding per request — the pre-service baseline), (b) by the batch
  service with 1 worker (pure sharding amortisation), and (c) with 4
  workers. Acceptance: verdicts and optimal costs identical request for
  request; every shard grounds **at most once** on its worker; and on
  the full sweep the 4-worker arm clears **>= 2x** the sequential
  throughput (the smoke batch is too small to amortise pool start-up,
  so the smoke gate is equivalence + grounding only).
* **determinism** — the same batch at workers 1/2/4 must merge to
  bit-for-bit identical response lists (canonical model serialisations
  included), whatever the worker interleaving.

(A historical third arm raced ``luby`` vs ``geometric`` restart
schedules per shard; it was retired with the portfolio mode after luby
won 19 of 23 shards — see CHANGES.md.)

The full run sweeps the A8 seed list; ``--smoke`` runs the fixed CI
seeds in a few seconds (see ``scripts/ci.sh``).
"""

import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _p in (str(_ROOT), str(_ROOT / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from repro.enforce.api import enforce
from repro.enforce.targets import TargetSelection
from repro.errors import NoRepairFound, ReproError
from repro.gen import random_scenario, scenario_requests
from repro.metamodel.serialize import canonical_text
from repro.qvtr.syntax.parser import parse_transformation
from repro.serve import CONSISTENT, NO_REPAIR, REPAIRED, serve_batch
from repro.util.text import render_table

from benchmarks._common import bench_cli, record

#: Seed lists shared with A8 (the generated-workload sweeps).
SMOKE_SEEDS = tuple(range(25))
FULL_SEEDS = tuple(range(120))

#: Requests per scenario (one shard): the scenario's own question plus
#: in-universe drifts of its target models.
ROUNDS = 6


def build_requests(seeds):
    requests = []
    for seed in seeds:
        requests.extend(scenario_requests(random_scenario(seed), rounds=ROUNDS))
    return requests


def sequential_verdict(request):
    """Per-call SAT (fresh grounding) on one request — the baseline."""
    transformation = parse_transformation(request.transformation)
    try:
        repair = enforce(
            transformation,
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
        return (NO_REPAIR, None)
    except ReproError:  # pragma: no cover - generated tuples all ground
        return ("error", None)
    return (
        CONSISTENT if repair.engine == "none" else REPAIRED,
        repair.distance,
    )


def response_fingerprint(result):
    """Bit-for-bit view of a batch result (verdicts, costs, repairs)."""
    return [
        (
            response.outcome,
            response.distance,
            tuple(sorted(response.changed)),
            tuple(
                (param, canonical_text(model))
                for param, model in sorted(response.models.items())
            ),
        )
        for response in result.responses
    ]


def bench_equivalence(requests, rows: list) -> dict:
    start = time.perf_counter()
    sequential = [sequential_verdict(request) for request in requests]
    sequential_time = time.perf_counter() - start

    start = time.perf_counter()
    batch1 = serve_batch(requests, workers=1)
    batch1_time = time.perf_counter() - start
    start = time.perf_counter()
    batch4 = serve_batch(requests, workers=4)
    batch4_time = time.perf_counter() - start

    mismatches = []
    for index, (request, expected) in enumerate(zip(requests, sequential)):
        got = batch4.responses[index]
        got_cost = got.distance if got.ok else None
        if (got.outcome, got_cost) != expected:
            mismatches.append(
                f"request {index}: batch {got.outcome}/{got_cost}, "
                f"sequential {expected[0]}/{expected[1]}"
            )
    regrounds = [
        (stats.shard, stats.groundings)
        for stats in batch4.shards
        if stats.groundings > 1
    ]
    n = len(requests)
    for arm, elapsed in (
        ("sequential per-call", sequential_time),
        ("batch 1 worker", batch1_time),
        ("batch 4 workers", batch4_time),
    ):
        rows.append(
            [
                "equivalence",
                arm,
                f"{n} requests / {len(batch4.shards)} shards",
                f"{n / elapsed:.0f} req/s",
                f"{elapsed * 1e3:.0f} ms",
            ]
        )
    rows.append(
        [
            "equivalence: TOTAL",
            f"{len(mismatches)} mismatches",
            f"{len(regrounds)} re-grounding shards",
            f"speedup x{sequential_time / batch4_time:.2f}",
            "",
        ]
    )
    return {
        "requests": n,
        "shards": len(batch4.shards),
        "mismatches": mismatches,
        "regrounding_shards": regrounds,
        "sequential_s": round(sequential_time, 4),
        "batch1_s": round(batch1_time, 4),
        "batch4_s": round(batch4_time, 4),
        "speedup_batch4": round(sequential_time / batch4_time, 3),
        "outcomes": batch4.outcomes(),
    }


def bench_determinism(requests, rows: list) -> dict:
    fingerprints = {}
    start = time.perf_counter()
    for workers in (1, 2, 4):
        fingerprints[workers] = response_fingerprint(
            serve_batch(requests, workers=workers)
        )
    elapsed = time.perf_counter() - start
    stable = fingerprints[1] == fingerprints[2] == fingerprints[4]
    rows.append(
        [
            "determinism",
            "workers 1 vs 2 vs 4",
            f"{len(requests)} responses",
            "bit-for-bit" if stable else "DRIFTED",
            f"{elapsed * 1e3:.0f} ms",
        ]
    )
    return {"responses": len(requests), "stable": stable}


def run(smoke: bool = False) -> dict:
    seeds = SMOKE_SEEDS if smoke else FULL_SEEDS
    requests = build_requests(seeds)
    rows: list = []
    metrics = {"equivalence": bench_equivalence(requests, rows)}
    sample = requests[: max(8, len(requests) // 5)]
    metrics["determinism"] = bench_determinism(sample, rows)
    table = render_table(
        ["workload", "arm", "work", "detail", "time"],
        rows,
        title="A9: sharded batch enforcement vs sequential per-call SAT"
        + (" [smoke]" if smoke else ""),
    )
    record(
        "a9_batch_service" + ("_smoke" if smoke else ""),
        table,
        metrics=metrics,
    )
    # Gates (the CI smoke contract):
    equivalence = metrics["equivalence"]
    assert not equivalence["mismatches"], equivalence["mismatches"]
    assert not equivalence["regrounding_shards"], (
        "every shard must ground at most once on its worker: "
        f"{equivalence['regrounding_shards']}"
    )
    assert equivalence["outcomes"].get(REPAIRED, 0) > 0, (
        f"the batch must contain repair questions: {equivalence['outcomes']}"
    )
    assert metrics["determinism"]["stable"], "batch results drifted with workers"
    if not smoke:
        assert equivalence["speedup_batch4"] >= 2.0, (
            "the 4-worker batch arm must clear 2x sequential throughput, got "
            f"x{equivalence['speedup_batch4']}"
        )
    return metrics


if __name__ == "__main__":
    args = bench_cli(__doc__.splitlines()[0])
    start = time.perf_counter()
    run(smoke=args.smoke)
    print(f"\ntotal bench time: {time.perf_counter() - start:.2f} s")
