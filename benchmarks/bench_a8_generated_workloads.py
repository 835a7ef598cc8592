"""A8 (differential) — generated workloads across every engine.

Two arms over seeded generated scenarios (:mod:`repro.gen`):

* **differential** — every scenario is replayed through the exact
  engines (brute checker-only search, oracle-accelerated search, shared
  SAT, per-call SAT, naive-session SAT) plus the guided heuristic.
  Acceptance: **zero disagreements** on verdicts and optimal costs
  (guided: never beats the optimum, never touches a consistent state),
  with all three consensus outcomes represented.
* **determinism** — a sample of scenarios is regenerated and compared
  bit-for-bit (canonical model serialisations, transformation
  equality): the seed is the reproduction token, so any drift here
  would silently detach failures from their seeds.

The run sweeps 200 seeds (the PR-4 acceptance bar). The first 25 seeds
are the tier-1 differential test (``tests/test_differential_engines.py``),
so this script runs only by hand.
"""

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _p in (str(_ROOT), str(_ROOT / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from repro.gen import (
    CONSISTENT,
    EXACT_ENGINES,
    NO_REPAIR,
    REPAIRED,
    DifferentialReport,
    EngineVerdict,
    random_scenario,
    run_engine,
)
from repro.metamodel.serialize import canonical_text
from repro.util.text import render_table

from benchmarks._common import record

SEEDS = tuple(range(200))


def bench_differential(seeds, rows: list) -> dict:
    engines = EXACT_ENGINES + ("guided",)
    time_per_engine = {engine: 0.0 for engine in engines}
    outcomes: Counter = Counter()
    disagreements: list[str] = []
    generate_time = 0.0
    for seed in seeds:
        start = time.perf_counter()
        scenario = random_scenario(seed)
        generate_time += time.perf_counter() - start
        verdicts: dict[str, EngineVerdict] = {}
        for engine in engines:
            start = time.perf_counter()
            verdicts[engine] = run_engine(engine, scenario)
            time_per_engine[engine] += time.perf_counter() - start
        report = DifferentialReport(
            seed,
            tuple(verdicts[engine] for engine in EXACT_ENGINES),
            verdicts["guided"],
        )
        outcomes[report.consensus.outcome] += 1
        for problem in report.disagreements():
            disagreements.append(f"seed {seed}: {problem}")
    for engine in engines:
        rows.append(
            ["differential", engine, f"{len(seeds)} scenarios",
             "exact" if engine in EXACT_ENGINES else "heuristic",
             f"{time_per_engine[engine] * 1e3:.0f} ms"]
        )
    rows.append(
        ["differential: TOTAL",
         f"{len(disagreements)} disagreements",
         " ".join(f"{k}={v}" for k, v in sorted(outcomes.items())),
         f"gen {generate_time * 1e3:.0f} ms", ""]
    )
    return {
        "scenarios": len(seeds),
        "disagreements": disagreements,
        "outcomes": dict(outcomes),
        "generate_time_s": generate_time,
        "engine_time_s": {k: round(v, 4) for k, v in time_per_engine.items()},
    }


def bench_determinism(seeds, rows: list) -> dict:
    mismatches = []
    start = time.perf_counter()
    for seed in seeds:
        a = random_scenario(seed)
        b = random_scenario(seed)
        same = (
            a.transformation == b.transformation
            and a.targets == b.targets
            and a.max_distance == b.max_distance
            and all(
                canonical_text(a.models[p]) == canonical_text(b.models[p])
                and canonical_text(a.before[p]) == canonical_text(b.before[p])
                for p in a.params()
            )
        )
        if not same:
            mismatches.append(seed)
    elapsed = time.perf_counter() - start
    rows.append(
        ["determinism", f"{len(seeds)} regenerated",
         f"{len(mismatches)} mismatches", "", f"{elapsed * 1e3:.0f} ms"]
    )
    return {"checked": len(seeds), "mismatches": mismatches}


def run() -> dict:
    rows: list = []
    metrics = {
        "differential": bench_differential(SEEDS, rows),
        "determinism": bench_determinism(SEEDS[::20], rows),
    }
    table = render_table(
        ["workload", "arm", "work", "detail", "time"],
        rows,
        title="A8: generated workloads — cross-engine differential oracle",
    )
    record("a8_generated_workloads", table, metrics=metrics)
    # Gates:
    diff = metrics["differential"]
    assert not diff["disagreements"], diff["disagreements"]
    assert diff["outcomes"].get(REPAIRED, 0) > 0, (
        f"seed list must contain repair questions: {diff['outcomes']}"
    )
    assert diff["outcomes"].get(CONSISTENT, 0) > 0, (
        f"seed list must contain hippocratic questions: {diff['outcomes']}"
    )
    assert diff["outcomes"].get(NO_REPAIR, 0) > 0, (
        f"seed list must contain unrepairable questions: {diff['outcomes']}"
    )
    assert not metrics["determinism"]["mismatches"], metrics["determinism"]
    return metrics


if __name__ == "__main__":
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    start = time.perf_counter()
    run()
    print(f"\ntotal bench time: {time.perf_counter() - start:.2f} s")
