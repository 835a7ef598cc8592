"""The daemon's observability surface: histograms and counters.

Everything here is plain in-process bookkeeping — no locks (mutated only
from the daemon's event loop), no wall-clock reads beyond what callers
pass in — rendered to one JSON-ready dict by
:meth:`DaemonMetrics.snapshot`, which is what the ``metrics`` protocol
verb returns and what the daemon emits once more on drain.

Three layers of counters:

* **per shape** (:class:`ShapeMetrics`) — requests, warm hits vs
  grounding misses (a *miss* is a request whose answer paid a grounding
  build; repeated same-shape traffic across batches must converge to
  all-hits, which ``tests/test_daemon.py`` gates), typed rejections, and
  a latency histogram;
* **per worker slot** — the last :func:`~repro.serve.worker.worker_counters`
  snapshot each worker reported (solver work, bindings enumerated,
  session counters live *in* the worker processes; replies carry them
  up, the daemon just remembers the latest);
* **daemon totals** (:class:`DaemonMetrics`) — accepted/completed/
  rejected, deadline kills, worker restarts, retries, and the bounded
  dead-letter record.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

#: Upper bucket bounds of the latency histograms, in seconds. The last
#: bucket is unbounded. Log-spaced: enforcement answers span warm
#: sub-millisecond patches to multi-second cold groundings.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    30.0,
)

#: How many dead-letter records the daemon retains (oldest dropped).
DEAD_LETTER_LIMIT = 256


class LatencyHistogram:
    """Fixed-bucket latency histogram (seconds), JSON-renderable."""

    def __init__(self) -> None:
        self.counts = [0] * (len(LATENCY_BUCKETS) + 1)
        self.total = 0
        self.sum = 0.0
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        for index, bound in enumerate(LATENCY_BUCKETS):
            if seconds <= bound:
                break
        else:
            index = len(LATENCY_BUCKETS)
        self.counts[index] += 1
        self.total += 1
        self.sum += seconds
        self.max = max(self.max, seconds)

    def to_dict(self) -> dict[str, Any]:
        buckets = {
            f"le_{bound:g}s": count
            for bound, count in zip(LATENCY_BUCKETS, self.counts)
        }
        buckets["inf"] = self.counts[-1]
        return {
            "buckets": buckets,
            "count": self.total,
            "sum_s": round(self.sum, 6),
            "max_s": round(self.max, 6),
            "mean_s": round(self.sum / self.total, 6) if self.total else 0.0,
        }


@dataclass
class ShapeMetrics:
    """One question shape's counters on the daemon."""

    digest: str
    slot: int
    requests: int = 0
    hits: int = 0
    misses: int = 0
    errors: int = 0
    overloaded: int = 0
    deadline_exceeded: int = 0
    poisoned: int = 0
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)

    def to_dict(self) -> dict[str, Any]:
        return {
            "slot": self.slot,
            "requests": self.requests,
            "hits": self.hits,
            "misses": self.misses,
            "errors": self.errors,
            "overloaded": self.overloaded,
            "deadline_exceeded": self.deadline_exceeded,
            "poisoned": self.poisoned,
            "latency": self.latency.to_dict(),
        }


@dataclass
class DaemonMetrics:
    """The whole daemon's counters; ``snapshot()`` is the wire form."""

    workers: int
    accepted: int = 0
    completed: int = 0
    errors: int = 0
    overloaded: int = 0
    deadline_exceeded: int = 0
    dead_lettered: int = 0
    retries: int = 0
    worker_restarts: int = 0
    #: Unreadable envelopes (oversized or undecodable lines) answered
    #: with a typed ``malformed`` rejection on a surviving connection.
    malformed: int = 0
    #: Requests answered (or rejected) as :data:`~repro.serve.protocol.POISONED`.
    poisoned: int = 0
    #: Idempotent resubmissions replayed from the bounded reply cache.
    idempotent_replays: int = 0
    #: Idempotent resubmissions attached to a still-in-flight original.
    idempotent_attached: int = 0
    #: Delta sessions opened (``open`` verb answered ok).
    sessions_opened: int = 0
    #: Delta sessions closed by their client (``close`` verb).
    sessions_closed: int = 0
    #: Delta sessions invalidated — worker restart, worker-side LRU
    #: eviction, or a verb naming a session nobody opened.
    sessions_lost: int = 0
    #: ``edit`` envelopes that materialised a new version.
    delta_edits: int = 0
    #: ``ask`` envelopes answered (any outcome).
    delta_asks: int = 0
    draining: bool = False
    shapes: dict[str, ShapeMetrics] = field(default_factory=dict)
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    #: index -> the worker's last reported counters snapshot.
    worker_counters: dict[int, dict] = field(default_factory=dict)
    #: request digest -> quarantine record for poison requests (shape,
    #: crash count, rejected-resubmission count, last crash error).
    quarantined: dict[str, dict] = field(default_factory=dict)
    dead_letters: deque = field(
        default_factory=lambda: deque(maxlen=DEAD_LETTER_LIMIT)
    )

    def shape(self, digest: str, slot: int) -> ShapeMetrics:
        """The (created-on-first-use) metrics row for one shape."""
        metrics = self.shapes.get(digest)
        if metrics is None:
            metrics = self.shapes[digest] = ShapeMetrics(digest, slot)
        return metrics

    def observe_reply(
        self, shape: ShapeMetrics, elapsed: float, grounded: bool, ok: bool
    ) -> None:
        """Record one answered request (hit/miss + latency)."""
        self.completed += 1
        shape.requests += 1
        if grounded:
            shape.misses += 1
        else:
            shape.hits += 1
        if not ok:
            self.errors += 1
            shape.errors += 1
        shape.latency.observe(elapsed)
        self.latency.observe(elapsed)

    def dead_letter(
        self,
        shape: str,
        envelope_id: Any,
        reason: str,
        error: str,
        elapsed: float,
        attempts: int,
    ) -> None:
        """Append one bounded dead-letter record."""
        self.dead_lettered += 1
        self.dead_letters.append(
            {
                "shape": shape,
                "id": envelope_id,
                "reason": reason,
                "error": error,
                "elapsed_s": round(elapsed, 4),
                "attempts": attempts,
            }
        )

    def quarantine(
        self, digest: str, shape: str, crashes: int, error: str
    ) -> dict:
        """Open (or update) the quarantine record for a poison request."""
        record = self.quarantined.setdefault(
            digest,
            {"shape": shape, "crashes": 0, "rejected": 0, "error": error},
        )
        record["crashes"] = crashes
        record["error"] = error
        return record

    def snapshot(
        self,
        uptime_s: float,
        queued: int,
        inflight: int,
        faults: dict | None = None,
        open_sessions: int = 0,
    ) -> dict:
        """The JSON-ready metrics document (the ``metrics`` verb body).

        ``faults`` is the fault injector's per-site report when the
        daemon runs with injection enabled (``{}`` when it does not) —
        chaos harnesses assert their faults actually fired from here.
        """
        solver: dict[str, int] = {}
        bindings = 0
        sessions = groundings = reuses = 0
        delta_versions = 0
        for counters in self.worker_counters.values():
            for name, value in (counters.get("solver") or {}).items():
                solver[name] = solver.get(name, 0) + value
            bindings += counters.get("bindings_enumerated", 0)
            sessions += counters.get("sessions", 0)
            groundings += counters.get("groundings", 0)
            reuses += counters.get("reuses", 0)
            delta_versions += counters.get("delta_versions", 0)
        return {
            "uptime_s": round(uptime_s, 3),
            "draining": self.draining,
            "workers": self.workers,
            "queued": queued,
            "inflight": inflight,
            "totals": {
                "accepted": self.accepted,
                "completed": self.completed,
                "errors": self.errors,
                "overloaded": self.overloaded,
                "deadline_exceeded": self.deadline_exceeded,
                "dead_lettered": self.dead_lettered,
                "retries": self.retries,
                "worker_restarts": self.worker_restarts,
                "malformed": self.malformed,
                "poisoned": self.poisoned,
                "idempotent_replays": self.idempotent_replays,
                "idempotent_attached": self.idempotent_attached,
            },
            "quarantine": {
                digest: dict(record)
                for digest, record in sorted(self.quarantined.items())
            },
            "faults": faults or {},
            "shapes": {
                digest: metrics.to_dict()
                for digest, metrics in sorted(self.shapes.items())
            },
            "latency": self.latency.to_dict(),
            "sessions": {
                "alive": sessions,
                "groundings": groundings,
                "reuses": reuses,
            },
            "delta": {
                "open": open_sessions,
                "opened": self.sessions_opened,
                "closed": self.sessions_closed,
                "lost": self.sessions_lost,
                "edits": self.delta_edits,
                "asks": self.delta_asks,
                "versions": delta_versions,
            },
            "solver": solver,
            "bindings_enumerated": bindings,
            "dead_letters": list(self.dead_letters),
        }
