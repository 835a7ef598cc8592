"""A11 (chaos) — the enforcement daemon under deterministic fault injection.

Replays the generated request streams against a real daemon while
:mod:`repro.serve.faults` injects one fault class per arm, and gates the
robustness contract of the serve stack:

* **baseline** — a fault-free daemon answers the stream; its responses
  are the reference fingerprints and its grounding count the reference
  work budget.
* **crash** — worker crashes before and after solving, pinned by
  digest ``match`` to the *first* request of two shape queues, so the
  respawned worker replays an identical session prefix and the retry
  machinery deterministically wins. Acceptance: every request still
  gets exactly one typed reply, all replies bit-identical to baseline,
  and the daemon ends healthy.
* **slow** — ``slow-solve`` + ``queue-stall`` delays under a generous
  deadline. Acceptance: replies bit-identical to baseline, zero extra
  groundings (delays must not change answers or duplicate work).
* **corrupt** — reply envelopes truncated on the wire. The
  :class:`~repro.serve.protocol.RetryingClient` must detect the garbage,
  reconnect, and recover every answer as an idempotent replay.
  Acceptance: bit-identical replies, **zero** extra groundings.
* **drop** — connections aborted instead of replies written. Same
  acceptance as corrupt: recovery is replays, never re-solves.
* **poison** — a targeted request (digest ``match``) crashes its worker
  on every attempt. Acceptance: it is answered ``poisoned`` within the
  restart budget, its resubmission is rejected at the door, and every
  *other* request is answered bit-identically to baseline while the
  daemon stays healthy.

The full run sweeps more scenario seeds; ``--smoke`` runs a small fixed
sweep in a few seconds (see ``scripts/ci.sh``).
"""

import sys
import tempfile
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _p in (str(_ROOT), str(_ROOT / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from repro.gen import random_scenario, scenario_requests
from repro.metamodel.serialize import canonical_text
from repro.serve import POISONED, request_digest, request_to_dict
from repro.serve.daemon import DaemonConfig, run_in_thread
from repro.serve.protocol import DaemonClient, RetryingClient
from repro.util.text import render_table

from benchmarks._common import bench_cli, record

#: Scenario seeds, a prefix of the A8 and perfbench generated corpora.
SMOKE_SEEDS = tuple(range(6))
FULL_SEEDS = tuple(range(16))

#: Requests per scenario (one daemon shape queue each).
ROUNDS = 4

def fault_arms(requests):
    """The fault arms: (name, spec, daemon-config overrides).

    The crash faults are pinned by digest ``match`` to the *first*
    request of two shape queues and capped at one fire each: crashing a
    queue's opening request means the respawned worker re-answers it on
    the same (empty) session prefix, so bit-identity with the fault-free
    run is guaranteed regardless of dispatch interleaving — an unpinned
    crash could land mid-queue on a different request every run and
    re-solve on a colder session than baseline saw. One retry absorbs
    each crash, and a single consecutive crash stays below the default
    poison budget — injected crashes must exercise the retry path, not
    the quarantine.
    """
    first = request_digest(request_to_dict(requests[0]))
    second = request_digest(request_to_dict(requests[ROUNDS]))
    return (
        (
            "crash",
            f"crash-before:rate=1,max=1,match={first};"
            f"crash-after:rate=1,max=1,match={second}",
            {},
        ),
        (
            "slow",
            "seed=12;slow-solve:rate=0.5,delay=0.02;"
            "queue-stall:rate=0.3,delay=0.02",
            {},
        ),
        ("corrupt", "seed=13;corrupt-reply:rate=0.3,max=5", {}),
        ("drop", "seed=14;conn-drop:rate=0.25,max=5", {}),
    )

#: Arms whose faults never touch a worker: answers must cost zero extra
#: groundings over baseline (crash arms necessarily re-ground on the
#: respawned worker).
NO_EXTRA_WORK_ARMS = ("slow", "corrupt", "drop")


def build_requests(seeds):
    requests = []
    for seed in seeds:
        requests.extend(scenario_requests(random_scenario(seed), rounds=ROUNDS))
    return requests


def response_fingerprint(responses):
    """Bit-for-bit view of a response list (verdicts, costs, repairs)."""
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


def run_stream(requests, sockdir, name, faults=None, **overrides):
    """Answer the stream on a fresh daemon; returns the arm's telemetry."""
    config = DaemonConfig(
        socket_path=str(Path(sockdir) / f"a11-{name}.sock"),
        workers=2,
        deadline=600.0,
        faults=faults,
        **overrides,
    )
    handle = run_in_thread(config)
    try:
        with RetryingClient(
            path=config.socket_path, retries=12, backoff=0.01, seed=0
        ) as client:
            start = time.perf_counter()
            responses = client.enforce_many(requests)
            elapsed = time.perf_counter() - start
            health = client.health()
            metrics = client.metrics()
            reconnects = client.reconnects
    finally:
        final = handle.drain()
    return {
        "responses": responses,
        "elapsed": elapsed,
        "health": health["status"],
        "groundings": metrics["sessions"]["groundings"],
        "faults": metrics["faults"],
        "totals": metrics["totals"],
        "quarantine": metrics["quarantine"],
        "reconnects": reconnects,
        "drained": final["draining"],
    }


def bench_fault_arm(name, spec, overrides, requests, baseline, sockdir, rows):
    arm = run_stream(requests, sockdir, name, faults=spec, **overrides)
    fired = {
        site: report["fired"]
        for site, report in arm["faults"].items()
        if report["fired"]
    }
    got = response_fingerprint(arm["responses"])
    want = response_fingerprint(baseline["responses"])
    mismatches = [
        index for index, (g, w) in enumerate(zip(got, want)) if g != w
    ]
    extra_groundings = arm["groundings"] - baseline["groundings"]
    n = len(requests)
    rows.append(
        [
            name,
            " ".join(f"{site}x{count}" for site, count in sorted(fired.items()))
            or "no fires",
            f"{len(mismatches)} mismatches",
            f"{extra_groundings:+d} groundings, "
            f"{arm['reconnects']} reconnects",
            f"{arm['elapsed'] * 1e3:.0f} ms",
        ]
    )
    # Gates — the chaos contract, per arm:
    assert len(arm["responses"]) == n, (
        f"{name}: {len(arm['responses'])} replies for {n} requests"
    )
    assert all(r is not None for r in arm["responses"]), name
    assert sum(fired.values()) >= 1, (
        f"{name}: the arm's faults never fired — the run proved nothing"
    )
    assert not mismatches, (
        f"{name}: replies drifted from the fault-free run at "
        f"requests {mismatches[:5]}"
    )
    assert arm["health"] == "ok", f"{name}: daemon unhealthy after the stream"
    assert arm["drained"], f"{name}: daemon failed to drain"
    if name in NO_EXTRA_WORK_ARMS:
        assert extra_groundings == 0, (
            f"{name}: recovery must replay cached answers, never re-solve "
            f"({extra_groundings:+d} groundings vs baseline)"
        )
        assert arm["totals"]["idempotent_replays"] >= (
            1 if name in ("corrupt", "drop") else 0
        ), f"{name}: lost answers must come back as idempotent replays"
    return {
        "fired": fired,
        "mismatches": len(mismatches),
        "extra_groundings": extra_groundings,
        "reconnects": arm["reconnects"],
        "replays": arm["totals"]["idempotent_replays"],
        "retries": arm["totals"]["retries"],
        "worker_restarts": arm["totals"]["worker_restarts"],
        "elapsed_s": round(arm["elapsed"], 4),
    }


def bench_poison_arm(requests, baseline, sockdir, rows):
    """A targeted poison request is quarantined; siblings keep answering."""
    target = request_digest(request_to_dict(requests[0]))
    targeted = [
        index
        for index, request in enumerate(requests)
        if request_digest(request_to_dict(request)) == target
    ]
    config = DaemonConfig(
        socket_path=str(Path(sockdir) / "a11-poison.sock"),
        workers=2,
        deadline=600.0,
        faults=f"crash-before:rate=1,match={target}",
        poison_budget=2,
        retries=1,
    )
    handle = run_in_thread(config)
    try:
        with DaemonClient.connect(path=config.socket_path) as client:
            start = time.perf_counter()
            responses = client.enforce_many(requests)
            # The quarantined digest is rejected at the door on resubmit.
            resubmitted = client.enforce(requests[0])
            elapsed = time.perf_counter() - start
            health = client.health()["status"]
            metrics = client.metrics()
    finally:
        handle.drain()
    record_for_target = metrics["quarantine"].get(target, {})
    got = response_fingerprint(responses)
    want = response_fingerprint(baseline["responses"])
    sibling_mismatches = [
        index
        for index, (g, w) in enumerate(zip(got, want))
        if index not in targeted and g != w
    ]
    rows.append(
        [
            "poison",
            f"target {target[:8]}… ({len(targeted)} requests)",
            f"{len(sibling_mismatches)} sibling mismatches",
            f"{record_for_target.get('crashes', 0)} crashes, "
            f"{record_for_target.get('rejected', 0)} rejected",
            f"{elapsed * 1e3:.0f} ms",
        ]
    )
    assert all(responses[index].outcome == POISONED for index in targeted), (
        "the targeted request must be answered 'poisoned': "
        f"{[responses[i].outcome for i in targeted]}"
    )
    assert record_for_target.get("crashes") == config.poison_budget, (
        f"quarantine must trip exactly at the budget: {record_for_target}"
    )
    assert resubmitted.outcome == POISONED, resubmitted.outcome
    assert "quarantined" in (resubmitted.error or ""), resubmitted.error
    assert record_for_target.get("rejected", 0) >= 1, record_for_target
    assert not sibling_mismatches, (
        f"siblings drifted from baseline at {sibling_mismatches[:5]}"
    )
    assert health == "ok", "daemon unhealthy after quarantining the target"
    return {
        "target": target,
        "targeted_requests": len(targeted),
        "crashes": record_for_target.get("crashes"),
        "rejected": record_for_target.get("rejected"),
        "sibling_mismatches": len(sibling_mismatches),
        "elapsed_s": round(elapsed, 4),
    }


def run(smoke: bool = False) -> dict:
    seeds = SMOKE_SEEDS if smoke else FULL_SEEDS
    requests = build_requests(seeds)
    rows: list = []
    metrics: dict = {}
    with tempfile.TemporaryDirectory(prefix="a11-") as sockdir:
        baseline = run_stream(requests, sockdir, "baseline")
        rows.append(
            [
                "baseline",
                "no faults",
                f"{len(requests)} requests",
                f"{baseline['groundings']} groundings",
                f"{baseline['elapsed'] * 1e3:.0f} ms",
            ]
        )
        assert baseline["health"] == "ok"
        assert baseline["reconnects"] == 0
        metrics["baseline"] = {
            "requests": len(requests),
            "groundings": baseline["groundings"],
            "elapsed_s": round(baseline["elapsed"], 4),
        }
        for name, spec, overrides in fault_arms(requests):
            metrics[name] = bench_fault_arm(
                name, spec, overrides, requests, baseline, sockdir, rows
            )
        metrics["poison"] = bench_poison_arm(
            requests, baseline, sockdir, rows
        )
    table = render_table(
        ["arm", "faults fired", "fidelity", "detail", "time"],
        rows,
        title="A11: enforcement daemon under deterministic fault injection"
        + (" [smoke]" if smoke else ""),
    )
    record("a11_chaos" + ("_smoke" if smoke else ""), table, metrics=metrics)
    return metrics


if __name__ == "__main__":
    args = bench_cli(__doc__.splitlines()[0])
    start = time.perf_counter()
    run(smoke=args.smoke)
    print(f"\ntotal bench time: {time.perf_counter() - start:.2f} s")
