"""A12 (delta sessions) — the daemon's delta wire protocol vs full tuples.

Two arms, each against its own freshly started daemon (warm state must
not leak between arms — repaired-model naming depends on the per-shape
session's solve history, so every arm walks its stream from cold):

* **fidelity** — generated scenario streams (the A9/A10 workload:
  :func:`repro.gen.scenario_requests` drifting inside one grounding
  universe per shape) answered three ways: :func:`repro.serve.serve_batch`,
  the daemon's full-tuple ``enforce`` verb, and
  :func:`repro.serve.delta_enforce_many` (one session per shape, full
  tuple shipped once, then only edit scripts). Acceptance: all three
  response lists bit-for-bit identical — verdicts, optimal costs,
  changed sets, canonical repaired-model texts.
* **wire** — the protocol's reason to exist: an editor-style drift
  stream over the paper's feature-model transformation (one selection
  toggled per round, every request one edit from its predecessor).
  Acceptance: no ``error`` replies, answers bit-identical between arms,
  and the delta arm's
  **wire bytes per request** come in at **<= 1/10** of the full-tuple
  arm's (the full arm re-ships transformation text + metamodels +
  models with every question; the delta arm ships them once).

The full run sweeps more seeds and a longer drift; ``--smoke`` finishes
in seconds (see ``scripts/ci.sh``).
"""

import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _p in (str(_ROOT), str(_ROOT / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from repro.featuremodels import (
    configuration,
    feature_model,
    paper_transformation,
)
from repro.gen import random_scenario, scenario_requests
from repro.metamodel.serialize import canonical_text
from repro.serve import (
    DaemonClient,
    DaemonConfig,
    EnforceRequest,
    delta_enforce_many,
    serve_batch,
)
from repro.serve.daemon import run_in_thread
from repro.util.text import render_table

from benchmarks._common import bench_cli, record

#: Fidelity-arm scenario seeds (scenario_requests streams, one shape each).
SMOKE_SEEDS = tuple(range(6))
FULL_SEEDS = tuple(range(20))

#: Requests per fidelity scenario.
SMOKE_ROUNDS = 5
FULL_ROUNDS = 8

#: Wire-arm drift stream: k features, one selection toggle per round.
#: The stream stays consistent (only ``core`` is mandatory), so each
#: answer is a cheap consistency check and the smoke run stays fast.
SMOKE_DRIFT = (16, 24)
FULL_DRIFT = (24, 48)

#: The wire gate: delta bytes/request at most 1/10 of full-tuple.
WIRE_RATIO_FLOOR = 10.0


def fidelity_requests(seeds, rounds):
    requests = []
    for seed in seeds:
        requests.extend(scenario_requests(random_scenario(seed), rounds=rounds))
    return requests


def drift_requests(k: int, rounds: int):
    """An editor-style stream: every request one selection toggle away.

    One fixed shape (the paper's transformation over ``fm``, ``cf1``,
    ``cf2``), a frozen k-feature model, and a configuration drifting one
    feature per round — the access pattern the delta protocol exists
    for.
    """
    names = ["core"] + [f"f{i}" for i in range(1, k)]
    fm = feature_model({name: (name == "core") for name in names})
    selected = ["core"]
    requests = []
    for round_ in range(rounds):
        models = {
            "fm": fm,
            "cf1": configuration(list(selected), name="cf1"),
            "cf2": configuration(["core"], name="cf2"),
        }
        requests.append(
            EnforceRequest.build(
                paper_transformation(2),
                models,
                targets=["cf1", "cf2"],
                semantics="extended",
            )
        )
        toggle = names[1 + round_ % (k - 1)]
        if toggle in selected:
            selected.remove(toggle)
        else:
            selected.append(toggle)
    return requests


def response_fingerprints(responses):
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
        for response in responses
    ]


def run_arm(requests, sockdir: str, name: str, delta: bool):
    """One cold daemon answering ``requests`` one way; bytes + time."""
    handle = run_in_thread(
        DaemonConfig(
            socket_path=str(Path(sockdir) / f"{name}.sock"),
            workers=2,
            deadline=600.0,
        )
    )
    try:
        with DaemonClient.connect(
            path=handle.daemon.config.socket_path
        ) as client:
            start = time.perf_counter()
            if delta:
                responses = delta_enforce_many(client, requests, prefix=name)
            else:
                responses = client.enforce_many(requests)
            elapsed = time.perf_counter() - start
            sent = client.bytes_sent
            received = client.bytes_received
        final = handle.drain()
    finally:
        if not handle.daemon._drained.is_set():  # pragma: no cover
            handle.drain()
    return {
        "responses": responses,
        "elapsed_s": elapsed,
        "bytes_sent": sent,
        "bytes_received": received,
        "sessions": final.get("delta", {}),
    }


def bench_fidelity(seeds, rounds, sockdir, rows: list) -> dict:
    requests = fidelity_requests(seeds, rounds)
    start = time.perf_counter()
    batch = serve_batch(requests, workers=2)
    batch_time = time.perf_counter() - start
    full = run_arm(requests, sockdir, "fid-full", delta=False)
    delta = run_arm(requests, sockdir, "fid-delta", delta=True)

    want = response_fingerprints(batch.responses)
    mismatches = []
    for arm, got in (
        ("daemon full", response_fingerprints(full["responses"])),
        ("daemon delta", response_fingerprints(delta["responses"])),
    ):
        mismatches.extend(
            f"{arm}, request {index}: {g[0]}/{g[1]} vs batch {w[0]}/{w[1]}"
            for index, (g, w) in enumerate(zip(got, want))
            if g != w
        )
    n = len(requests)
    for arm, elapsed in (
        ("serve_batch 2 workers", batch_time),
        ("daemon full tuples", full["elapsed_s"]),
        ("daemon delta sessions", delta["elapsed_s"]),
    ):
        rows.append(
            [
                "fidelity",
                arm,
                f"{n} requests / {len(batch.shards)} shards",
                f"{n / elapsed:.0f} req/s",
                f"{elapsed * 1e3:.0f} ms",
            ]
        )
    rows.append(
        [
            "fidelity: TOTAL",
            f"{len(mismatches)} mismatches",
            "bit-for-bit" if not mismatches else "DRIFTED",
            f"delta sent {delta['bytes_sent']} B "
            f"vs full {full['bytes_sent']} B",
            "",
        ]
    )
    return {
        "requests": n,
        "shards": len(batch.shards),
        "outcomes": batch.outcomes(),
        "mismatches": mismatches,
        "batch_s": round(batch_time, 4),
        "full_s": round(full["elapsed_s"], 4),
        "delta_s": round(delta["elapsed_s"], 4),
        "full_bytes_sent": full["bytes_sent"],
        "delta_bytes_sent": delta["bytes_sent"],
    }


def bench_wire(k: int, rounds: int, sockdir, rows: list) -> dict:
    requests = drift_requests(k, rounds)
    full = run_arm(requests, sockdir, "wire-full", delta=False)
    delta = run_arm(requests, sockdir, "wire-delta", delta=True)
    mismatched = sum(
        1
        for g, w in zip(
            response_fingerprints(delta["responses"]),
            response_fingerprints(full["responses"]),
        )
        if g != w
    )
    errors = sum(
        1
        for stats in (full, delta)
        for response in stats["responses"]
        if response.outcome == "error"
    )
    n = len(requests)
    full_per = full["bytes_sent"] / n
    delta_per = delta["bytes_sent"] / n
    ratio = full_per / delta_per if delta_per else float("inf")
    for arm, stats in (("full tuples", full), ("delta sessions", delta)):
        rows.append(
            [
                "wire",
                arm,
                f"{n} requests, {k} features",
                f"{stats['bytes_sent'] / n:.0f} B/req sent",
                f"{stats['elapsed_s'] * 1e3:.0f} ms",
            ]
        )
    rows.append(
        [
            "wire: TOTAL",
            f"x{ratio:.1f} fewer bytes/request",
            f"{mismatched} mismatches, {errors} errors",
            f"delta opened {delta['sessions'].get('opened')} "
            f"session(s), {delta['sessions'].get('edits')} edits",
            "",
        ]
    )
    return {
        "requests": n,
        "features": k,
        "mismatches": mismatched,
        "errors": errors,
        "outcomes": dict(Counter(r.outcome for r in full["responses"])),
        "full_wire_bytes_per_request": round(full_per, 1),
        "delta_wire_bytes_per_request": round(delta_per, 1),
        "wire_ratio": round(ratio, 2),
        "full_s": round(full["elapsed_s"], 4),
        "delta_s": round(delta["elapsed_s"], 4),
        "delta_sessions": delta["sessions"],
    }


def run(smoke: bool = False) -> dict:
    seeds = SMOKE_SEEDS if smoke else FULL_SEEDS
    rounds = SMOKE_ROUNDS if smoke else FULL_ROUNDS
    k, drift_rounds = SMOKE_DRIFT if smoke else FULL_DRIFT
    rows: list = []
    with tempfile.TemporaryDirectory(prefix="a12-") as sockdir:
        fidelity = bench_fidelity(seeds, rounds, sockdir, rows)
        wire = bench_wire(k, drift_rounds, sockdir, rows)
    metrics = {"fidelity": fidelity, "wire": wire}
    table = render_table(
        ["workload", "arm", "work", "detail", "time"],
        rows,
        title="A12: delta wire protocol (multi-version sessions) vs full tuples"
        + (" [smoke]" if smoke else ""),
    )
    record(
        "a12_delta_sessions" + ("_smoke" if smoke else ""),
        table,
        metrics=metrics,
    )
    # Gates (the CI smoke contract):
    assert not fidelity["mismatches"], fidelity["mismatches"][:5]
    assert fidelity["outcomes"].get("repaired", 0) > 0, (
        f"the sweep must contain repair questions: {fidelity['outcomes']}"
    )
    assert wire["errors"] == 0, (
        f"the wire arm must measure answers, not {wire['errors']} error replies"
    )
    assert wire["mismatches"] == 0, (
        f"wire arms disagreed on {wire['mismatches']} requests"
    )
    assert wire["wire_ratio"] >= WIRE_RATIO_FLOOR, (
        f"delta sessions must cut wire bytes/request by at least "
        f"x{WIRE_RATIO_FLOOR:g} on drift streams, got x{wire['wire_ratio']}"
    )
    # The fidelity streams are short per shape, yet delta must still
    # never cost *more* wire than shipping every tuple.
    assert fidelity["delta_bytes_sent"] < fidelity["full_bytes_sent"], (
        fidelity
    )
    return metrics


if __name__ == "__main__":
    args = bench_cli(__doc__.splitlines()[0])
    start = time.perf_counter()
    run(smoke=args.smoke)
    print(f"\ntotal bench time: {time.perf_counter() - start:.2f} s")
