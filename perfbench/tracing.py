"""Per-layer spans recorded from outside the program.

The benchmark does not edit ``src/``: it patches each layer's entry
point *where its caller looks it up* (``repro.serve.worker.serve_request``,
``repro.enforce.session.verify_repair``, ``repro.solver.maxsat.Totalizer``,
class attributes such as ``Grounder.ground``) with a wrapper that records
one span per call: name, start, end, parent span and request id. Patches
are installed only around traced passes and removed afterwards, so the
untraced passes run the program's own functions.

Self time of a span is its duration minus the time its child spans
cover. It is aggregated online per span name (calls, total, self), next
to a few work counts read at the same boundaries (clauses added, sat
probes, oracle accepts, session groundings/reuses).

Worker processes of the batch pool and the daemon are forked from the
benchmark process after the patches are installed, so they inherit
them. A forked worker starts with an empty record (see
:meth:`Tracer._own`) and hands its aggregates back through the program's
own channels: the pool's shard result dict (``process_shard`` is wrapped)
and the daemon worker's counters snapshot (``worker_counters`` is
wrapped), which the daemon keeps per worker slot.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path


def _add(into: dict, name: str, values) -> None:
    row = into.setdefault(name, [0] * len(values))
    for i, value in enumerate(values):
        row[i] += value


def merge(into: dict, totals: dict | None, sign: int = 1) -> None:
    """Add (``sign=1``) or subtract (``-1``) one totals snapshot."""
    if not totals:
        return
    for name, row in totals["spans"].items():
        _add(into.setdefault("spans", {}), name, [sign * v for v in row])
    for name, value in totals["counts"].items():
        counts = into.setdefault("counts", {})
        counts[name] = counts.get(name, 0) + sign * value
    for name, value in (totals.get("solver") or {}).items():
        solver = into.setdefault("solver", {})
        solver[name] = solver.get(name, 0) + sign * value


class Tracer:
    """An in-memory span recorder; a no-op while ``enabled`` is false."""

    def __init__(self) -> None:
        self.enabled = False
        self.request_id = None
        self._pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        """Forget every span and aggregate (start of a timed window)."""
        self.spans: list = []
        self._stack: list = []
        self.agg: dict[str, list] = {}
        self.counts: dict[str, int] = {}

    def _own(self) -> None:
        # A forked worker inherits the parent's record; start it empty.
        if os.getpid() != self._pid:
            self._pid = os.getpid()
            self.reset()

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` recording a span per call while enabled.

        ``before(args)`` returns a token handed to ``after(token, result,
        args)``, which records work counts for the call.
        """
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._own()
            token = before(args) if before is not None else None
            index = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else None
            tracer.spans.append(None)
            frame = [index, 0.0]
            tracer._stack.append(frame)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.spans[index] = (name, start, end, parent, tracer.request_id)
                _add(tracer.agg, name, (1, duration, duration - frame[1]))
                if after is not None:
                    after(token, result, args)

        return traced

    def totals(self, solver: dict | None = None) -> dict:
        """This process's aggregates as one JSON-ready snapshot."""
        self._own()
        return {
            "spans": {name: list(row) for name, row in self.agg.items()},
            "counts": dict(self.counts),
            "solver": solver or {},
        }

    def write(self, path: Path) -> None:
        """Write the recorded spans, one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                if span is not None:
                    out.write(json.dumps(span) + "\n")


TRACER = Tracer()

#: Totals handed back by pool workers during the current traced pass.
POOL_TOTALS: dict = {}

_ORIGINALS: dict = {}


def _solver_now() -> dict:
    from repro.solver.sat import global_stats

    return asdict(global_stats())


def traced_process_shard(payload):
    """Pool task body: the shard answer plus this shard's trace totals."""
    before = _solver_now()
    TRACER._own()
    TRACER.reset()
    result = _ORIGINALS["process_shard"](payload)
    after = _solver_now()
    result["trace"] = TRACER.totals(
        {name: after[name] - before[name] for name in after}
    )
    return result


def _traced_run_pool(*args, **kwargs):
    outcomes, interrupted = _ORIGINALS["_run_pool"](*args, **kwargs)
    for outcome in outcomes:
        if isinstance(outcome, tuple):
            merge(POOL_TOTALS, outcome[0].pop("trace", None))
    return outcomes, interrupted


def _traced_worker_counters():
    counters = _ORIGINALS["worker_counters"]()
    counters["trace"] = TRACER.totals(counters.get("solver"))
    return counters


def _patch_plan():
    """``(owner, attribute, span name, hooks)`` for every traced layer,
    and ``(owner, attribute, replacement)`` for the worker channels."""
    from repro.check.engine import Checker
    from repro.enforce.satengine import ConsistencyOracle
    from repro.enforce.session import EnforcementSession
    from repro.solver.bounded import Grounder
    from repro.solver.maxsat import MaxSatSession

    import repro.enforce.session as session_mod
    import repro.serve.service as service
    import repro.serve.worker as worker
    import repro.solver.maxsat as maxsat

    t = TRACER

    def session_before(args):
        return args[0].groundings, args[0].reuses

    def session_after(token, _result, args):
        t.count("session.groundings", args[0].groundings - token[0])
        t.count("session.reuses", args[0].reuses - token[1])

    def ground_before(args):
        return len(args[0].cnf), Grounder.bindings_enumerated

    def ground_after(token, _result, args):
        t.count("bounded.hard_clauses", len(args[0].cnf) - token[0])
        t.count("bounded.bindings", Grounder.bindings_enumerated - token[1])

    def build_after(_token, _result, args):
        t.count("maxsat.session_clauses", len(args[0]._working))

    def totalizer_before(args):
        return len(args[0])

    def totalizer_after(token, _result, args):
        t.count("card.totalizer_clauses", len(args[0]) - token)

    def probe_after(_token, result, _args):
        t.count("maxsat.probes_sat", int(bool(result and result.satisfiable)))

    def oracle_after(_token, result, _args):
        t.count("satengine.oracle_accepts", int(result is True))

    spans = [
        (worker, "serve_request", "serve_request", {}),
        (worker, "request_from_dict", "requests.decode", {}),
        (worker, "response_to_dict", "requests.encode", {}),
        (worker, "parse_transformation", "parser", {}),
        (EnforcementSession, "enforce", "session.enforce",
         dict(before=session_before, after=session_after)),
        (Grounder, "ground", "bounded.ground",
         dict(before=ground_before, after=ground_after)),
        (Grounder, "decode", "bounded.decode", {}),
        (MaxSatSession, "__init__", "maxsat.build", dict(after=build_after)),
        (maxsat, "Totalizer", "card.totalizer",
         dict(before=totalizer_before, after=totalizer_after)),
        (maxsat, "IncrementalSolver", "flat.load", {}),
        (MaxSatSession, "solve", "maxsat.probe", dict(after=probe_after)),
        (ConsistencyOracle, "query", "satengine.oracle", dict(after=oracle_after)),
        (session_mod, "verify_repair", "check.verify", {}),
        (Checker, "is_consistent", "check.consistent", {}),
    ]
    channels = [
        (service, "process_shard", traced_process_shard),
        (service, "_run_pool", _traced_run_pool),
        (worker, "worker_counters", _traced_worker_counters),
    ]
    return spans, channels


@contextmanager
def installed():
    """Patch every traced layer for the duration of the block."""
    spans, channels = _patch_plan()
    applied = []
    try:
        for owner, attribute, name, hooks in spans:
            original = owner.__dict__[attribute]
            setattr(owner, attribute, TRACER.wrap(name, original, **hooks))
            applied.append((owner, attribute, original))
        for owner, attribute, replacement in channels:
            original = owner.__dict__[attribute]
            _ORIGINALS[attribute] = original
            setattr(owner, attribute, replacement)
            applied.append((owner, attribute, original))
        TRACER.enabled = True
        yield TRACER
    finally:
        TRACER.enabled = False
        for owner, attribute, original in reversed(applied):
            setattr(owner, attribute, original)
