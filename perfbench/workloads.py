"""The four closed-loop workloads: one client each, at most two workers.

Every workload is a sequence of *passes*. A pass sets up (timed as
``setup_s``), serves every frozen request of its corpus once (the timed
window) and tears down. Each pass starts from the same state, so its
work counts (solver conflicts, groundings, ...) must come out identical
pass after pass; ``run.py`` checks that.

Request order comes from ``--seed``. A corpus is a set of independent
scenarios, each one question shape whose requests form an edit history
and keep their order. Every pass serves the scenarios in its own seeded
order, so one run averages over several schedules while the work stays
the same. The paper corpus is a single scenario: one warm shape whose
solver history is part of the workload, so the seed leaves it as is.

Request latency runs from the request's wire dict to its reply dict:

* ``gen-cold``/``paper-fm`` (inline): ``request_from_dict`` ->
  ``serve.worker.serve_request`` -> ``response_to_dict``;
* ``gen-batch``: the request's shard's ``ShardStats.elapsed`` in
  ``serve_batch(workers=2)`` (submission to answer);
* ``gen-delta``: one ``edit`` round trip (when the request differs from
  its predecessor) plus one ``ask`` round trip to a warm daemon.
"""

from __future__ import annotations

import gzip
import json
import os
import random
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from tracing import POOL_TOTALS, TRACER, merge

INPUTS = Path(__file__).resolve().parent / "inputs"

#: Pool and daemon size: the machine this benchmark targets has 2 cores.
WORKERS = 2

#: Where runs leave sockets and span files (inside the checkout).
OUT = Path(".perfbench_out")

SOLVER_COUNTS = (
    "conflicts", "propagations", "decisions", "restarts", "reductions",
    "solves", "solver_builds",
)


class Corpus:
    """One frozen input file (see ``freeze.py``), flattened.

    ``requests`` and ``reference`` are in file order; ``groups`` lists
    the request indices of each question shape's edit history.
    """

    def __init__(self, name: str) -> None:
        self.path = INPUTS / f"{name}.json.gz"
        document = json.loads(gzip.decompress(self.path.read_bytes()))
        self.requests: list[dict] = []
        self.reference: list[tuple] = []
        self.groups: list[list[int]] = []
        for scenario in document.get("scenarios") or [document]:
            start = len(self.requests)
            self.requests += scenario["requests"]
            self.reference += [tuple(r) for r in scenario["reference"]]
            self.groups.append(list(range(start, len(self.requests))))
        self.warmup = document.get("warmup")


@dataclass
class PassResult:
    """What one timed pass measured, in serving order."""

    order: list[int]
    wall_s: float
    latencies_s: list[float]
    answers: list[tuple]
    #: Exact work counts; every pass of a run must repeat them.
    work: dict
    #: Layer numbers from the program's public counters.
    layers: dict = field(default_factory=dict)
    #: Trace totals gathered from worker processes (traced passes only).
    worker_trace: dict | None = None


def _flat(groups: list[list[int]]) -> list[int]:
    return [i for group in groups for i in group]


class GenCold:
    """The generated stream served inline, every shape grounding cold."""

    name = "gen-cold"
    corpus = "gen"
    tail_pct = 99.0
    #: Served in the benchmark process (else by its worker children).
    inline = True

    def order(self, corpus: Corpus, seed: int, pass_index: int) -> list[list[int]]:
        groups = list(corpus.groups)
        random.Random(f"{seed}/{pass_index}").shuffle(groups)
        return groups

    def setup(self, seed: int, pass_index: int):
        from repro.enforce.session import clear_shared_sessions
        from repro.serve.worker import reset_worker_state

        corpus = Corpus(self.corpus)
        clear_shared_sessions()
        reset_worker_state()
        self._warm = self._warm_up(corpus)
        groups = self.order(corpus, seed, pass_index)
        return groups, [[corpus.requests[i] for i in g] for g in groups]

    def _warm_up(self, corpus: Corpus) -> dict:
        """Serve the corpus's warm-up question; its session counters."""
        return {}

    def run(self, state) -> PassResult:
        from repro.enforce.session import shared_session_counters
        from repro.serve import worker
        from repro.solver.bounded import Grounder
        from repro.solver.sat import global_stats

        groups, wires = state
        # Looked up per pass: a traced pass sees the patched functions.
        decode = worker.request_from_dict
        serve = worker.serve_request
        encode = worker.response_to_dict
        tracer = TRACER if TRACER.enabled else None
        warm = self._warm
        latencies, answers = [], []
        shapes = {"groundings": 0, "reuses": 0}
        stats0, bindings0 = global_stats(), Grounder.bindings_enumerated
        start = time.perf_counter()
        for group in wires:
            for wire in group:
                if tracer is not None:
                    tracer.request_id = len(latencies)
                begin = time.perf_counter()
                reply = encode(serve(decode(wire)))
                latencies.append(time.perf_counter() - begin)
                answers.append((reply["outcome"], reply["distance"]))
            # This shape's session is the most recently used one.
            counters = shared_session_counters()[-1]
            for name in shapes:
                shapes[name] += counters[name] - warm.get(name, 0)
        wall = time.perf_counter() - start
        delta = asdict(global_stats() - stats0)
        work = {name: delta[name] for name in SOLVER_COUNTS}
        work["bindings"] = Grounder.bindings_enumerated - bindings0
        work.update(shapes)
        return PassResult(_flat(groups), wall, latencies, answers, work)

    def teardown(self, state) -> None:
        pass


class PaperFm(GenCold):
    """The paper's feature-model edits on one warm shape, inline."""

    name = "paper-fm"
    corpus = "paper-fm"
    tail_pct = 90.0

    def _warm_up(self, corpus: Corpus) -> dict:
        from repro.enforce.session import shared_session_counters
        from repro.serve.worker import request_from_dict, serve_request

        serve_request(request_from_dict(corpus.warmup))
        return shared_session_counters()[-1]


class GenBatch:
    """The generated stream through the sharded process-pool service."""

    name = "gen-batch"
    corpus = "gen"
    tail_pct = 99.0
    inline = False
    order = GenCold.order

    def setup(self, seed: int, pass_index: int):
        from repro.serve.requests import request_from_dict

        corpus = Corpus(self.corpus)
        order = _flat(self.order(corpus, seed, pass_index))
        return order, [request_from_dict(corpus.requests[i]) for i in order]

    def run(self, state) -> PassResult:
        from repro.serve import serve_batch

        order, requests = state
        POOL_TOTALS.clear()
        start = time.perf_counter()
        result = serve_batch(requests, workers=WORKERS)
        wall = time.perf_counter() - start
        elapsed = {stats.shard: stats.elapsed for stats in result.shards}
        latencies = [elapsed[result.shard_of(i)] for i in range(len(requests))]
        answers = [(r.outcome, r.distance) for r in result.responses]
        shards = result.shards
        groundings = sum(stats.groundings for stats in shards)
        busy = sum(stats.elapsed for stats in shards)
        layers = {
            "service.shard_ms": 1e3 * busy / len(shards),
            "service.groundings_per_shard": groundings / len(shards),
            # Shard elapsed includes queue wait, so this can exceed 1.
            "service.pool_busy_frac": busy / (WORKERS * wall),
        }
        work = {"groundings": groundings, "shards": len(shards)}
        trace = json.loads(json.dumps(POOL_TOTALS)) if POOL_TOTALS else None
        return PassResult(order, wall, latencies, answers, work, layers, trace)

    def teardown(self, state) -> None:
        pass


class GenDelta:
    """A warm daemon serving delta sessions: ``edit`` + ``ask`` per request."""

    name = "gen-delta"
    corpus = "gen"
    tail_pct = 99.0
    inline = False
    order = GenCold.order

    def setup(self, seed: int, pass_index: int):
        from repro.gen.edits import edits_to_wire
        from repro.metamodel.diff import diff
        from repro.serve import DaemonClient, DaemonConfig
        from repro.serve.daemon import run_in_thread
        from repro.serve.requests import request_from_dict

        corpus = Corpus(self.corpus)
        groups = self.order(corpus, seed, pass_index)
        plan = []
        for group in groups:
            wires = [corpus.requests[i] for i in group]
            models = [request_from_dict(w).models for w in wires]
            steps = []
            for j, wire in enumerate(wires):
                edits = {}
                for param in sorted(models[j]) if j else ():
                    script = diff(models[j - 1][param], models[j][param])
                    if script:
                        edits[param] = script
                steps.append(
                    (edits_to_wire(edits) if edits else None, wire["max_distance"])
                )
            plan.append((f"s{group[0]}", wires[0], steps))
        OUT.mkdir(exist_ok=True)
        socket_path = OUT / f"daemon-{os.getpid()}.sock"
        handle = run_in_thread(
            DaemonConfig(socket_path=str(socket_path), workers=WORKERS)
        )
        try:
            client = DaemonClient.connect(path=str(socket_path))
            for name, first, _steps in plan:
                reply = client.call(
                    {"verb": "open", "session": name, "request": first}
                )
                if reply.get("outcome") != "ok":
                    raise RuntimeError(f"open {name} failed: {reply}")
        except BaseException:
            handle.drain()
            raise
        return _flat(groups), handle, client, plan

    def run(self, state) -> PassResult:
        order, handle, client, plan = state
        # The workers' trace totals so far (opens) are setup, not work.
        base = json.loads(json.dumps(handle.daemon.metrics.worker_counters))
        before = client.metrics()
        sent0, received0 = client.bytes_sent, client.bytes_received
        latencies, answers = [], []
        edit_s, ask_s = [], []
        start = time.perf_counter()
        for name, _first, steps in plan:
            version = 0
            for edits, cap in steps:
                begin = time.perf_counter()
                if edits is not None:
                    reply = client.call(
                        {"verb": "edit", "session": name, "parent": version,
                         "edits": edits}
                    )
                    edit_s.append(time.perf_counter() - begin)
                    version = reply.get("version", version)
                asked = time.perf_counter()
                reply = client.call(
                    {"verb": "ask", "session": name, "version": version,
                     "max_distance": cap}
                )
                end = time.perf_counter()
                ask_s.append(end - asked)
                latencies.append(end - begin)
                body = reply.get("response") or {}
                answers.append(
                    (body.get("outcome", reply.get("outcome")), body.get("distance"))
                )
        wall = time.perf_counter() - start
        sent = client.bytes_sent - sent0
        received = client.bytes_received - received0
        after = client.metrics()
        n = len(latencies)
        envelopes = after["latency"]["count"] - before["latency"]["count"]
        service = (after["latency"]["sum_s"] - before["latency"]["sum_s"]) / envelopes

        def shape_total(key):
            return sum(s[key] for s in after["shapes"].values()) - sum(
                s[key] for s in before["shapes"].values()
            )

        layers = {
            "protocol.edit_ms": 1e3 * sum(edit_s) / max(1, len(edit_s)),
            "protocol.ask_ms": 1e3 * sum(ask_s) / len(ask_s),
            "protocol.bytes_sent_per_req": sent / n,
            "protocol.bytes_received_per_req": received / n,
            # Both over every timed envelope (edits and asks alike).
            "daemon.service_ms": 1e3 * service,
            "daemon.client_gap_ms": 1e3 * ((sum(edit_s) + sum(ask_s)) / envelopes - service),
            "daemon.hits": shape_total("hits"),
            "daemon.misses": shape_total("misses"),
            "daemon.delta_versions": after["delta"]["versions"],
        }
        work = {name: after["solver"].get(name, 0) for name in SOLVER_COUNTS}
        work["bindings"] = after["bindings_enumerated"]
        # Asks that had to ground (the daemon's per-shape misses); the
        # workers' session totals cover only sessions still cached.
        work["groundings"] = layers["daemon.misses"]
        work["edits"] = after["delta"]["edits"] - before["delta"]["edits"]
        trace = None
        counters = handle.daemon.metrics.worker_counters
        if any("trace" in c for c in counters.values()):
            trace = {}
            for c in counters.values():
                merge(trace, c.get("trace"))
            for c in base.values():
                merge(trace, c.get("trace"), sign=-1)
        return PassResult(order, wall, latencies, answers, work, layers, trace)

    def teardown(self, state) -> None:
        _order, handle, client, _plan = state
        client.close()
        handle.drain()


WORKLOADS = {w.name: w for w in (GenCold, PaperFm, GenBatch, GenDelta)}
