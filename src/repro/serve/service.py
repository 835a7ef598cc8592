"""The batch scheduler: shard by shape, dispatch, merge deterministically.

:func:`serve_batch` is the entry point. It takes a *stream* of
enforcement requests (any mix of transformations, tuples and question
shapes), groups them into **shards** — all requests of one
:func:`~repro.serve.requests.shape_key`, in submission order — and
dispatches whole shards to ``workers`` supervised worker processes
(:class:`~repro.serve.supervisor.WorkerSlot`, the daemon's primitive).
A shard is never split: the requests of one shape are answered back
to back on one worker's warm session, which is where the batch win
comes from (the transformation constraints ground once per shape per
worker; every following request of the shard is an origin-assumption
patch on the same incremental solver, exactly like an interactive
:class:`~repro.enforce.session.EnforcementSession` across edits).

Determinism contract
--------------------

Responses merge **in submission order**, whatever the worker
interleaving. Shard membership and within-shard order are pure
functions of the request list; each shard is answered by exactly one
worker in that order; and every worker starts from a *clean* slate
(it drops any session state inherited from the parent on fork) — so
a pooled batch's full response list (verdicts, costs, *and* chosen
repairs) is bit-for-bit reproducible and independent of
``workers`` and of whatever the parent process solved before.

Worker counts: ``workers >= 1`` runs that many worker slots;
``workers = 0`` answers every shard inline in the calling process (no
workers, *sharing* the caller's warm ``shared_session`` LRU — the
debugging and single-question mode; verdicts and costs are identical
to the pooled arms, but the chosen optimum may reflect the caller's
accumulated solver state).

Deadlines: each shard is watched from *dispatch to answer*. A shard
over its deadline, or whose worker dies, gets typed ``error``
responses; a wedged worker is killed and respawned, siblings continue.
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from multiprocessing.connection import wait

from repro.errors import ServeError
from repro.serve.requests import (
    ERROR,
    EnforceRequest,
    EnforceResponse,
    _is_count,
    _is_seconds,
    request_to_dict,
    response_from_dict,
    shape_key,
    shard_digest,
)
from repro.serve.supervisor import TaskFailed, WorkerCrash, WorkerSlot
from repro.serve.worker import process_shard

#: Default worker count.
DEFAULT_WORKERS = 4

#: Default per-shard deadline for pooled batches, in seconds. Generous
#: on purpose — its job is to bound a *wedged* worker (a pathological
#: instance, a livelocked solver), not to police slow-but-progressing
#: shards. ``serve_batch(deadline=...)`` tightens or (``None``) lifts it.
DEFAULT_SHARD_DEADLINE = 300.0


@dataclass(frozen=True)
class _Unanswered:
    """A shard no worker answered (deadline, interrupt, crash).

    ``error`` is the per-request error text (prefixed with the shard
    digest at merge time); ``elapsed`` is what the shard's stats report
    (the full deadline for a timeout, ~0 for never-started shards).
    """

    error: str
    elapsed: float = 0.0


@dataclass(frozen=True)
class ShardStats:
    """What happened to one shard (one question shape)."""

    shard: str
    requests: int
    worker: int
    groundings: int
    elapsed: float


@dataclass(frozen=True)
class BatchResult:
    """Every response, submission-ordered, plus scheduler stats."""

    responses: tuple[EnforceResponse, ...]
    shards: tuple[ShardStats, ...] = ()
    workers: int = 0
    elapsed: float = 0.0
    #: True when the batch was cut short (Ctrl-C):
    #: completed shards carry real responses, the rest carry typed
    #: ``error`` responses saying they were never answered.
    interrupted: bool = False
    _by_request: tuple = field(default=(), repr=False, compare=False)

    def outcomes(self) -> dict[str, int]:
        """Outcome -> count over the whole batch."""
        return dict(Counter(r.outcome for r in self.responses))

    def shard_of(self, index: int) -> str:
        """The shard digest request ``index`` was routed to."""
        return self._by_request[index]


def shard_requests(
    requests: Sequence[EnforceRequest],
) -> list[tuple[str, list[int]]]:
    """Group request indices by question shape, submission-ordered.

    Returns ``[(shard digest, [indices])]``; shards are ordered by their
    first submission index and indices inside a shard keep submission
    order — both facts the merge step and the determinism tests rely on.
    """
    by_key: dict[tuple, list[int]] = {}
    for index, request in enumerate(requests):
        by_key.setdefault(shape_key(request), []).append(index)
    shards = sorted(by_key.items(), key=lambda item: item[1][0])
    return [(shard_digest(key), indices) for key, indices in shards]


def serve_batch(
    requests: Sequence[EnforceRequest],
    workers: int = DEFAULT_WORKERS,
    deadline: float | None = DEFAULT_SHARD_DEADLINE,
) -> BatchResult:
    """Answer ``requests`` sharded by question shape (module docstring).

    ``deadline`` bounds each shard's time on a worker, *dispatch to
    answer* (default :data:`DEFAULT_SHARD_DEADLINE`; ``None`` lifts it).
    A shard that blows it has every one of its requests answered with a
    typed ``error`` response; the wedged worker is killed and respawned,
    and its siblings continue. Pooled-only: inline mode (``workers=0``)
    runs in the caller's process, where killing a computation isn't
    possible one-sidedly.
    """
    if not _is_count(workers):
        raise ServeError(f"workers must be an integer >= 0, got {workers!r}")
    if deadline is not None and not _is_seconds(deadline, positive=True):
        raise ServeError(
            f"deadline must be a finite number > 0 or None, got {deadline!r}"
        )
    started = time.perf_counter()
    shards = shard_requests(requests)

    def payload(shard_index: int) -> dict:
        # Built lazily, per shard, at dispatch time: the wire form
        # duplicates every model, so at most one payload per worker
        # exists at once.
        digest, indices = shards[shard_index]
        wire = [[index, request_to_dict(requests[index])] for index in indices]
        return {"shard": digest, "requests": wire}

    interrupted = False
    if workers == 0:
        outcomes: list = []
        try:
            for i in range(len(shards)):
                outcomes.append(_timed(process_shard, payload(i)))
        except KeyboardInterrupt:
            interrupted = True
            outcomes.extend(
                [_Unanswered("batch interrupted before an answer arrived")]
                * (len(shards) - len(outcomes))
            )
    else:
        outcomes, interrupted = _run_pool(
            payload, len(shards), workers, deadline
        )

    responses: list[EnforceResponse | None] = [None] * len(requests)
    by_request: list[str | None] = [None] * len(requests)
    stats = []
    for (digest, indices), outcome in zip(shards, outcomes):
        if isinstance(outcome, _Unanswered):
            stats.append(
                ShardStats(
                    shard=digest,
                    requests=len(indices),
                    worker=-1,
                    groundings=0,
                    elapsed=outcome.elapsed,
                )
            )
            error = f"shard {digest}: {outcome.error}"
            for index in indices:
                responses[index] = EnforceResponse(outcome=ERROR, error=error)
                by_request[index] = digest
            continue
        result, elapsed = outcome
        stats.append(
            ShardStats(
                shard=digest,
                requests=len(indices),
                worker=result["worker"],
                groundings=result["groundings"],
                elapsed=elapsed,
            )
        )
        for index, data in result["responses"]:
            responses[index] = response_from_dict(
                data, requests[index].metamodels
            )
            by_request[index] = digest
    missing = [i for i, r in enumerate(responses) if r is None]
    if missing:  # pragma: no cover - scheduler invariant
        raise ServeError(f"requests {missing} received no response")
    return BatchResult(
        responses=tuple(responses),
        shards=tuple(stats),
        workers=workers,
        elapsed=time.perf_counter() - started,
        interrupted=interrupted,
        _by_request=tuple(by_request),
    )


def _timed(fn, payload):
    start = time.perf_counter()
    result = fn(payload)
    return result, time.perf_counter() - start


def _run_pool(
    payload, shard_count: int, workers: int, deadline: float | None
) -> tuple[list, bool]:
    """Run shard tasks on ``workers`` supervised worker slots.

    An idle slot takes the next shard: ``payload(i)`` is built then, and
    the task is the module-level :func:`process_shard` as looked up at
    that moment (pickled by name). Every busy slot is watched against
    ``deadline``, measured from dispatch. A shard over its deadline, or
    whose worker dies, becomes an :class:`_Unanswered` marker and only
    that slot is killed and respawned; a task that raises fails only
    its own shard. A ``KeyboardInterrupt`` stops every slot and marks
    every unanswered shard rather than surfacing a raw traceback.

    Returns ``(outcomes, interrupted)`` where ``outcomes[i]`` is either
    ``(shard result dict, elapsed)`` or an :class:`_Unanswered` marker.
    """
    results: list = [None] * shard_count
    interrupted = False
    slots: list[WorkerSlot] = []
    busy: dict = {}  # pipe -> (slot, shard index, dispatched at)
    next_shard = 0
    try:
        slots.extend(WorkerSlot(i) for i in range(min(workers, shard_count)))
        idle = list(slots)
        while True:
            while idle and next_shard < shard_count:
                slot = idle.pop()
                busy[slot.conn] = (slot, next_shard, time.perf_counter())
                try:
                    slot.send(process_shard, payload(next_shard))
                except WorkerCrash:
                    pass  # the dead worker's pipe reads EOF: handled below
                next_shard += 1
            if not busy:
                break
            timeout = None
            if deadline is not None:
                first = min(started for _s, _i, started in busy.values())
                timeout = max(0.0, first + deadline - time.perf_counter())
            ready = wait(list(busy), timeout)
            now = time.perf_counter()
            for conn in ready:
                slot, index, started = busy.pop(conn)
                try:
                    results[index] = (slot.recv(), now - started)
                except (TaskFailed, WorkerCrash) as exc:
                    # A crashed task fails *its shard*, not the batch.
                    if isinstance(exc, WorkerCrash):
                        slot.restart()
                    results[index] = _Unanswered(
                        f"shard task crashed: {exc}", elapsed=now - started
                    )
                idle.append(slot)
            for conn, (slot, index, started) in list(busy.items()):
                if deadline is not None and now - started >= deadline:
                    del busy[conn]
                    slot.restart()  # possibly wedged for good
                    results[index] = _Unanswered(
                        f"exceeded its deadline of {deadline:g}s",
                        elapsed=deadline,
                    )
                    idle.append(slot)
    except KeyboardInterrupt:
        interrupted = True
        marker = _Unanswered("batch interrupted before an answer arrived")
        results = [marker if r is None else r for r in results]
    finally:
        # Never wait on a wedged worker: busy slots are killed outright.
        working = {slot for slot, _index, _started in busy.values()}
        for slot in slots:
            if slot in working:
                slot.kill()
            else:
                slot.stop()
    return results, interrupted
