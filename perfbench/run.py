"""End-to-end enforcement benchmark with per-layer attribution.

Usage, from the repository root::

    python3 perfbench/run.py --workload gen-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20   # one table

One request is one enforcement question: a modeller edited one model of
a tuple and waits for a least-change repair. Four closed-loop workloads
(one client each, see ``workloads.py``) serve frozen requests
(``inputs/``, written by ``freeze.py``); ``--seed`` shuffles their order.

``--trace 0`` measures the end-to-end metrics with tracing off:
``setup_s`` (imports once, plus the median over passes of loading the
inputs, resetting caches, starting the pool/daemon and opening delta
sessions), ``req_ms_p50``, ``req_ms_tail`` (a fixed per-workload
percentile with at least ten samples beyond it at the default run
length), ``throughput_rps``, ``peak_rss_mb`` and, in the report only,
``failed_frac``. ``--trace 1`` mixes untraced and traced passes and
reports per-layer metrics (``tracing.py``): self time per request,
work counts per pass, ratios, plus ``trace.coverage`` and
``trace.overhead``; a layer a workload does not reach reports 0. Inline
workloads also write the last traced pass's spans to
``.perfbench_out/spans-<workload>-seed<n>.jsonl``.

Every run checks each answer's ``(outcome, distance)`` against the
frozen per-call reference and that every pass repeats the same work
counts, and prints the result as the last line of standard output::

    {"correct": true, "attempted": 1995, "failed": 0, "metrics": {...}}
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Answers that mean the request was served (anything else failed).
SERVED = ("consistent", "repaired", "no-repair")

END_TO_END = {
    "setup_s": "s",
    "req_ms_p50": "ms",
    "req_ms_tail": "ms",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> unit. Times are self time per request unless the
#: name says otherwise; counts are per pass.
PER_LAYER = {
    "requests.decode_ms": "ms",
    "requests.encode_ms": "ms",
    "parser.calls": "count",
    "parser.ms": "ms",
    "session.groundings": "count",
    "session.reuse_ratio": "ratio",
    "session.self_ms": "ms",
    "bounded.ground_ms": "ms",
    "bounded.bindings": "count",
    "bounded.hard_clauses": "count",
    "bounded.decode_ms": "ms",
    "card.totalizer_ms": "ms",
    "card.totalizer_clauses": "count",
    "maxsat.build_ms": "ms",
    "maxsat.session_clauses": "count",
    "maxsat.probes": "count",
    "maxsat.probe_ms": "ms",
    "maxsat.probe_sat_ratio": "ratio",
    "flat.load_ms": "ms",
    "flat.conflicts": "count",
    "flat.propagations": "count",
    "flat.decisions": "count",
    "flat.restarts": "count",
    "flat.reductions": "count",
    "satengine.oracle_queries": "count",
    "satengine.oracle_ms": "ms",
    "satengine.oracle_accept_ratio": "ratio",
    "check.verify_ms": "ms",
    "check.consistent_ms": "ms",
    "service.shard_ms": "ms",
    "service.groundings_per_shard": "count",
    "service.pool_busy_frac": "ratio",
    "protocol.edit_ms": "ms",
    "protocol.ask_ms": "ms",
    "protocol.bytes_sent_per_req": "bytes",
    "protocol.bytes_received_per_req": "bytes",
    "daemon.service_ms": "ms",
    "daemon.client_gap_ms": "ms",
    "daemon.hits": "count",
    "daemon.misses": "count",
    "daemon.delta_versions": "count",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

#: Span name -> the per-request self-time metric it feeds.
SPAN_METRICS = {
    "requests.decode": "requests.decode_ms",
    "requests.encode": "requests.encode_ms",
    "parser": "parser.ms",
    "session.enforce": "session.self_ms",
    "bounded.ground": "bounded.ground_ms",
    "bounded.decode": "bounded.decode_ms",
    "card.totalizer": "card.totalizer_ms",
    "maxsat.build": "maxsat.build_ms",
    "maxsat.probe": "maxsat.probe_ms",
    "flat.load": "flat.load_ms",
    "satengine.oracle": "satengine.oracle_ms",
    "check.verify": "check.verify_ms",
    "check.consistent": "check.consistent_ms",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def git_revision() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        path = ROOT / ".git" / ref
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def src_lines() -> int:
    return sum(
        len(path.read_bytes().splitlines()) for path in SRC.rglob("*.py")
    )


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def properties(corpus) -> dict:
    """What a gain that depends on the inputs can cite its share of."""
    reference, wires = corpus.reference, corpus.requests
    outcomes = Counter(outcome for outcome, _ in reference)
    distances = Counter(d for o, d in reference if o == "repaired")
    n = len(reference)
    return {
        "requests_per_pass": n,
        "shapes": len(corpus.groups),
        "outcome_mix": dict(sorted(outcomes.items())),
        "repair_distance_histogram": {str(d): c for d, c in sorted(distances.items())},
        "capped_share": sum(w["max_distance"] is not None for w in wires) / n,
        "max_cap": max((w["max_distance"] or 0) for w in wires),
        "already_consistent_share": outcomes["consistent"] / n,
    }


def refuse_bad_mix(reference: list) -> None:
    """A workload without repairs, or mostly errors, measures nothing."""
    outcomes = Counter(outcome for outcome, _ in reference)
    if not outcomes["repaired"]:
        fail(f"workload has no repair questions: {dict(outcomes)}")
    if outcomes["error"] * 2 > len(reference):
        fail(f"workload is mostly errors: {dict(outcomes)}")


class Pass(NamedTuple):
    traced: bool
    setup_s: float
    result: object  # workloads.PassResult
    #: The benchmark process's own trace totals (traced passes only).
    totals: dict | None


def run_passes(workload, seed: int, seconds: float, trace: bool) -> list[Pass]:
    """Passes until ``seconds`` of timed work (at least two).

    Traced runs order passes untraced, traced, traced, untraced, ... in
    blocks of four, so drift across a run (warming caches, neighbours'
    load) weighs on both sides of ``trace.overhead`` alike.
    """
    import tracing
    from workloads import OUT

    passes = []
    timed = 0.0
    while True:
        traced = trace and len(passes) % 4 in (1, 2)
        with tracing.installed() if traced else nullcontext():
            begin = time.perf_counter()
            state = workload.setup(seed, len(passes))
            # The previous pass's sessions are garbage now; collect them
            # here rather than at some request of this pass.
            gc.collect()
            setup_s = time.perf_counter() - begin
            if traced:
                tracing.TRACER.reset()
            try:
                result = workload.run(state)
                totals = tracing.TRACER.totals() if traced else None
            finally:
                workload.teardown(state)
        passes.append(Pass(traced, setup_s, result, totals))
        timed += result.wall_s
        if timed >= seconds and len(passes) >= 2 and not (trace and len(passes) % 4):
            if tracing.TRACER.spans:
                # The spans of the last traced pass (inline workloads).
                tracing.TRACER.write(OUT / f"spans-{workload.name}-seed{seed}.jsonl")
            return passes


def layer_metrics(passes: list[Pass], requests_per_pass: int) -> dict:
    """Per-layer metrics from the traced passes (see ``PER_LAYER``)."""
    import tracing

    traced = [p for p in passes if p.traced]
    totals: dict = {}
    for p in traced:
        tracing.merge(totals, p.totals)
        tracing.merge(totals, p.result.worker_trace)
    spans = totals.get("spans", {})
    counts = totals.get("counts", {})
    k = len(traced)
    requests = k * requests_per_pass

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {name: 0.0 for name in PER_LAYER}
    for span, metric in SPAN_METRICS.items():
        metrics[metric] = 1e3 * spans.get(span, [0, 0.0, 0.0])[2] / requests
    groundings = counts.get("session.groundings", 0)
    reuses = counts.get("session.reuses", 0)
    probes = calls("maxsat.probe")
    oracle = calls("satengine.oracle")
    metrics.update(
        {
            "parser.calls": calls("parser") / k,
            "session.groundings": groundings / k,
            "session.reuse_ratio": ratio(reuses, reuses + groundings),
            "bounded.bindings": counts.get("bounded.bindings", 0) / k,
            "bounded.hard_clauses": counts.get("bounded.hard_clauses", 0) / k,
            "card.totalizer_clauses": counts.get("card.totalizer_clauses", 0) / k,
            "maxsat.session_clauses": counts.get("maxsat.session_clauses", 0) / k,
            "maxsat.probes": probes / k,
            "maxsat.probe_sat_ratio": ratio(counts.get("maxsat.probes_sat", 0), probes),
            "satengine.oracle_queries": oracle / k,
            "satengine.oracle_accept_ratio": ratio(
                counts.get("satengine.oracle_accepts", 0), oracle
            ),
        }
    )
    # Solver work per request: counted by the pass itself (inline and
    # daemon workloads) or by the pool workers' trace (batch).
    work = traced[0].result.work
    solver, base = (work, requests_per_pass) if "conflicts" in work else (
        totals.get("solver", {}), requests
    )
    for name in ("conflicts", "propagations", "decisions", "restarts", "reductions"):
        metrics[f"flat.{name}"] = solver.get(name, 0) / base
    for name in traced[0].result.layers:
        metrics[name] = statistics.fmean(p.result.layers[name] for p in traced)
    serve = spans.get("serve_request", [0, 0.0, 0.0])
    metrics["trace.coverage"] = ratio(serve[1] - serve[2], serve[1])
    metrics["trace.overhead"] = ratio(
        sum(p.result.wall_s for p in traced),
        sum(p.result.wall_s for p in passes if not p.traced),
    ) - 1.0
    return metrics


def run_workload(args) -> int:
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import repro.gen.edits  # noqa: F401  (every module a workload uses)
    import repro.metamodel.diff  # noqa: F401
    import repro.serve.daemon  # noqa: F401
    import repro.serve.worker  # noqa: F401
    import_s = time.perf_counter() - started

    from workloads import WORKLOADS, Corpus

    workload = WORKLOADS[args.workload]()
    corpus = Corpus(workload.corpus)
    reference = corpus.reference
    refuse_bad_mix(reference)

    passes = run_passes(workload, args.seed, args.seconds, bool(args.trace))

    n = len(reference)
    mismatches, failed, attempted = [], 0, 0
    for index, result in enumerate(p.result for p in passes):
        attempted += len(result.answers)
        failed += sum(answer[0] not in SERVED for answer in result.answers)
        if sorted(result.order) != list(range(n)) or len(result.answers) != n:
            mismatches.append(f"pass {index}: {len(result.answers)} answers for {n} requests")
        for i, got in zip(result.order, result.answers):
            if tuple(got) != reference[i]:
                mismatches.append(
                    f"pass {index}, request {i}: got {got}, reference {reference[i]}"
                )
    works = [p.result.work for p in passes]
    drift = [f"pass {i}: {w}" for i, w in enumerate(works) if w != works[0]]
    correct = not mismatches and not drift

    plain = [p for p in passes if not p.traced]
    latencies = [s for p in plain for s in p.result.latencies_s]
    rss = resource.getrusage(
        resource.RUSAGE_SELF if workload.inline else resource.RUSAGE_CHILDREN
    ).ru_maxrss
    beyond = len(latencies) - math.ceil(workload.tail_pct / 100 * len(latencies))
    end_to_end = {
        "setup_s": import_s + statistics.median(p.setup_s for p in passes),
        "req_ms_p50": 1e3 * statistics.median(latencies),
        "req_ms_tail": 1e3 * percentile(latencies, workload.tail_pct),
        "throughput_rps": len(latencies) / sum(p.result.wall_s for p in plain),
        "peak_rss_mb": rss / 1024,
    }
    samples = {
        "setup_s": f"median of {len(passes)} set-ups + imports",
        "req_ms_p50": f"{len(latencies)} requests",
        "req_ms_tail": f"p{workload.tail_pct:g} of {len(latencies)}, {beyond} beyond",
        "throughput_rps": f"{len(latencies)} requests / {len(plain)} passes",
        "peak_rss_mb": "benchmark process" if workload.inline else "largest worker",
    }

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print(f"  revision {git_revision()}  src/ lines {src_lines()}")
    print(f"  inputs {corpus.path.name} sha256 {file_digest(corpus.path)}")
    print(f"  properties {json.dumps(properties(corpus))}")
    groundings = works[0].get("groundings", 0)
    print(f"  groundings/request {groundings / n:.4f}  work/pass {json.dumps(works[0])}")
    print(
        f"  passes {len(passes)} ({sum(p[0] for p in passes)} traced), "
        f"requests {attempted}, failed {failed}, failed_frac {failed / attempted:.4f}, "
        f"reference mismatches {len(mismatches)}, work drift {len(drift)}"
    )
    print("  pass walls (s) " + " ".join(
        f"{p.result.wall_s:.3f}{'t' if p.traced else ''}" for p in passes
    ) + "  set-ups (s) " + " ".join(f"{p.setup_s:.3f}" for p in passes))
    for line in (mismatches + drift)[:10]:
        print(f"  ! {line}")
    if args.trace:
        metrics, units = layer_metrics(passes, n), PER_LAYER
    else:
        metrics, units = end_to_end, END_TO_END
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.4f} {units[name]:6s} {samples.get(name, '')}")
    print(f"  imports {import_s:.3f} s, wall {time.perf_counter() - started:.1f} s")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; one table of all results."""
    from workloads import WORKLOADS

    rows, correct, attempted, failed, merged = [], True, 0, 0, {}
    for name in WORKLOADS:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(command, capture_output=True, text=True, timeout=600)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            fail(f"workload {name} exited {done.returncode}")
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            merged[f"{name}.{metric}"] = entry
        rows.append((name, result))
    print()
    metric_names = list(rows[0][1]["metrics"])
    print(f"{'metric':34s}" + "".join(f"{name:>14s}" for name, _ in rows))
    for metric in metric_names:
        unit = rows[0][1]["metrics"][metric]["unit"]
        print(
            f"{metric + ' [' + unit + ']':34s}"
            + "".join(f"{r['metrics'][metric]['value']:14.4f}" for _, r in rows)
        )
    print(f"{'failed_frac':34s}" + "".join(
        f"{r['failed'] / r['attempted']:14.4f}" for _, r in rows
    ))
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": merged}
    ))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no program to measure: {SRC / 'repro'} is missing")
    os.chdir(ROOT)
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)}, all)")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
