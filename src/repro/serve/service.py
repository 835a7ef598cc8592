"""The batch scheduler: shard by shape, dispatch, merge deterministically.

:func:`serve_batch` is the entry point. It takes a *stream* of
enforcement requests (any mix of transformations, tuples and question
shapes), groups them into **shards** — all requests of one
:func:`~repro.serve.requests.shape_key`, in submission order — and
dispatches whole shards to a bounded process pool. A shard is never
split: the requests of one shape are answered back to back on one
worker's warm session, which is where the batch win comes from (the
transformation constraints ground once per shape per worker; every
following request of the shard is an origin-assumption patch on the
same incremental solver, exactly like an interactive
:class:`~repro.enforce.session.EnforcementSession` across edits).

Determinism contract
--------------------

Responses merge **in submission order**, whatever the worker
interleaving. Shard membership and within-shard order are pure
functions of the request list; each shard is answered by exactly one
worker in that order; and every pool worker starts from a *clean* slate
(an initializer drops any session state inherited from the parent on
fork) — so a pooled batch's full response list (verdicts, costs, *and*
chosen repairs) is bit-for-bit reproducible and independent of
``workers`` and of whatever the parent process solved before.

Worker counts: ``workers >= 1`` uses a process pool of that size;
``workers = 0`` answers every shard inline in the calling process (no
pool, *sharing* the caller's warm ``shared_session`` LRU — the
debugging and single-question mode; verdicts and costs are identical
to the pooled arms, but the chosen optimum may reflect the caller's
accumulated solver state).
"""

from __future__ import annotations

import time
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.errors import ServeError
from repro.serve.requests import (
    ERROR,
    EnforceRequest,
    EnforceResponse,
    request_to_dict,
    response_from_dict,
    shape_key,
    shard_digest,
)
from repro.serve.worker import process_shard


def _fresh_worker() -> None:
    """Pool initializer: forget any state inherited from the parent.

    With the ``fork`` start method a worker is born with the parent's
    warm ``shared_session`` LRU and parse caches; answers computed on
    those inherited solvers would depend on everything the parent
    happened to solve earlier — byte-level nondeterminism across runs.
    Starting clean makes a pooled batch a pure function of its request
    list (and matches the ``spawn`` start method, which is clean by
    construction).
    """
    from repro.enforce.session import clear_shared_sessions
    from repro.serve.worker import reset_worker_state

    clear_shared_sessions()
    reset_worker_state()

#: Default worker-pool size; also the A9 benchmark's batch arm.
DEFAULT_WORKERS = 4

#: Default per-shard deadline for pooled batches, in seconds. Generous
#: on purpose — its job is to bound a *wedged* worker (a pathological
#: instance, a livelocked solver), not to police slow-but-progressing
#: shards. ``serve_batch(deadline=...)`` tightens or (``None``) lifts it.
DEFAULT_SHARD_DEADLINE = 300.0


@dataclass(frozen=True)
class _Unanswered:
    """A shard the pool never answered (deadline, interrupt, crash).

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
    #: True when the batch was cut short (Ctrl-C, worker pool breakage):
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
    max_inflight: int | None = None,
    deadline: float | None = DEFAULT_SHARD_DEADLINE,
) -> BatchResult:
    """Answer ``requests`` sharded by question shape (module docstring).

    ``max_inflight`` bounds how many shards are queued on the pool at
    once (default ``2 * workers``) — the back-pressure that keeps a
    million-request batch from materialising a million futures.

    ``deadline`` bounds each shard's time on the pool, *submission to
    answer* (default :data:`DEFAULT_SHARD_DEADLINE`; ``None`` lifts it).
    A shard that blows it has its work abandoned and every one of its
    requests answered with a typed ``error`` response — the rest of the
    batch completes instead of hanging behind one wedged worker.
    Pooled-only: inline mode (``workers=0``) runs in the caller's
    process, where abandoning a computation isn't possible one-sidedly.
    """
    if workers < 0:
        raise ServeError(f"workers must be >= 0, got {workers}")
    if deadline is not None and deadline <= 0:
        raise ServeError(f"deadline must be > 0 (or None), got {deadline}")
    started = time.perf_counter()
    shards = shard_requests(requests)

    def payload(shard_index: int) -> dict:
        # Built lazily, per shard, at submission time: the wire form
        # duplicates every model, and materialising a whole million-
        # request batch up front would defeat the in-flight bound.
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
            payload, len(shards), workers, max_inflight or 2 * workers,
            deadline,
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
    payload, shard_count: int, workers: int, max_inflight: int,
    deadline: float | None,
) -> tuple[list, bool]:
    """Run shard tasks on a bounded process pool.

    ``payload(i)`` builds shard ``i``'s task payload — called lazily at
    submission time. At most ``max_inflight`` shards are on the pool at
    any time; each answered shard frees its slot for the next one.

    Every in-flight shard is watched against ``deadline`` (measured
    from submission, queue wait included). An overdue shard's future
    is abandoned and its slot in the result list becomes an
    :class:`_Unanswered` marker — the wait below *never* blocks without
    a timeout while a deadline is set, so one wedged worker cannot hang
    the whole batch. A crashed task fails only its own shard. A
    ``KeyboardInterrupt`` or a broken worker pool stops dispatch and
    marks every unanswered shard rather than surfacing a raw traceback.

    Returns ``(outcomes, interrupted)`` where ``outcomes[i]`` is either
    ``(shard result dict, elapsed)`` or an :class:`_Unanswered` marker.
    """
    results: list = [None] * shard_count
    interrupted = False
    abandon = False
    futures: dict = {}
    next_shard = 0
    pool = ProcessPoolExecutor(max_workers=workers, initializer=_fresh_worker)

    def submit_next() -> None:
        nonlocal next_shard
        future = pool.submit(process_shard, payload(next_shard))
        futures[future] = (next_shard, time.perf_counter())
        next_shard += 1

    def finish(shard_index: int, outcome) -> None:
        results[shard_index] = outcome
        if next_shard < shard_count:
            submit_next()

    def expire_overdue() -> None:
        nonlocal abandon
        now = time.perf_counter()
        for future, (shard_index, submitted) in list(futures.items()):
            if now - submitted < deadline:
                continue
            if not future.cancel():
                # Already running: the task cannot be stopped from here
                # and its worker may be wedged for good, so the whole
                # pool is torn down (not awaited) once the remaining
                # shards are answered.
                abandon = True
            del futures[future]
            finish(
                shard_index,
                _Unanswered(
                    f"exceeded its deadline of {deadline:g}s", elapsed=deadline
                ),
            )

    try:
        while next_shard < shard_count and next_shard < max_inflight:
            submit_next()
        while futures:
            timeout = None
            if deadline is not None:
                now = time.perf_counter()
                timeout = max(
                    0.0,
                    min(
                        submitted + deadline - now
                        for _index, submitted in futures.values()
                    ),
                )
            done, _pending = wait(
                set(futures), timeout=timeout, return_when=FIRST_COMPLETED
            )
            if not done:
                expire_overdue()
                continue
            for future in done:
                shard_index, submitted = futures.pop(future)
                elapsed = time.perf_counter() - submitted
                try:
                    outcome = (future.result(), elapsed)
                except BrokenProcessPool:
                    raise  # the pool is gone; handled below for all shards
                except Exception as exc:
                    # A crashed task fails *its shard*, not the batch:
                    # every other shard keeps flowing regardless.
                    outcome = _Unanswered(
                        f"shard task crashed: {exc!r}", elapsed=elapsed
                    )
                finish(shard_index, outcome)
    except KeyboardInterrupt:
        interrupted = True
        abandon = True
        _fill_unanswered(results, "batch interrupted before an answer arrived")
    except BrokenProcessPool as exc:
        interrupted = True
        abandon = True
        _fill_unanswered(
            results,
            "worker pool broke before an answer arrived"
            + (f": {exc}" if str(exc) else ""),
        )
    finally:
        if abandon or futures:
            # Never wait on a wedged (or dead) worker: drop queued work
            # and terminate the processes outright. Outstanding futures
            # here mean an exception is propagating — a blocking
            # shutdown could then hang on a sibling shard forever.
            # Snapshot the workers first: shutdown() drops the pool's
            # reference to them even with wait=False.
            processes = list((getattr(pool, "_processes", None) or {}).values())
            pool.shutdown(wait=False, cancel_futures=True)
            for process in processes:
                process.terminate()
        else:
            pool.shutdown(wait=True)
    assert all(outcome is not None for outcome in results)
    return results, interrupted


def _fill_unanswered(results: list, error: str) -> None:
    marker = _Unanswered(error)
    for index, outcome in enumerate(results):
        if outcome is None:
            results[index] = marker
