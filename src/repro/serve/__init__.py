"""Sharded batch enforcement: the engine turned into a service.

Every entry point below this package answers *one* question at a time;
realistic workloads (the GMF migration case, a tool serving many users)
arrive as **batches** of heterogeneous model tuples. This package is the
first service layer: :func:`serve_batch` takes a stream of
:class:`EnforceRequest`\\ s, shards them by **question shape** (the
:func:`~repro.enforce.session.shared_session` cache key, made
content-addressable by :func:`shape_key`), and dispatches whole shards
across a process pool whose workers each keep a warm ``shared_session``
LRU — so the transformation constraints of a shape are ground once per
worker and every request of the shard is an assumption-patch on the
same incremental solver.

Results merge in submission order and are bit-for-bit reproducible
regardless of worker count (see :mod:`repro.serve.service` for the
exact contract).

When to use what: one question → call
:func:`~repro.enforce.api.enforce`; an interactive edit/enforce loop →
hold an :class:`~repro.enforce.session.EnforcementSession` (or let the
Echo tool do it); **many independent questions at once** → build
requests and call :func:`serve_batch` (or ``repro-echo batch`` /
:meth:`~repro.echo.workspace.Workspace.serve` from a workspace).
``tests/test_serve.py`` guards the service: verdicts and costs
identical to sequential per-call SAT, one grounding per shape per
worker, responses independent of the worker count; the ``perfbench
gen-batch`` stage of ``scripts/ci.sh`` checks the verdicts and costs on
the whole generated corpus.

For traffic that *keeps arriving* — many batches over hours, the same
question shapes recurring — run the engine resident instead:
:mod:`repro.serve.daemon` keeps the warm worker sessions alive across
batches behind a JSON-lines socket (``repro-echo daemon``), with typed
backpressure, per-request deadlines and dead-letter metrics.
``tests/test_daemon.py`` guards it: daemon answers bit-identical to
:func:`serve_batch`, zero re-grounding on repeated same-shape traffic
via cross-batch reuse, wedged requests dead-lettered on deadline while
the rest of the traffic completes.

For clients whose models *evolve* between questions — an editor asking
after every edit — the daemon also speaks a **delta wire protocol**:
open a named session with one full tuple, then send only serialised
edit scripts and ask the consistency/enforcement question at any
retained version (:class:`SessionClient`, :func:`delta_enforce_many`).
O(edit) wire bytes per request instead of O(model), answered on the
same warm sessions, bit-identical to full-tuple traffic.
``tests/test_delta_protocol.py`` guards both.
"""

from repro.serve.requests import (
    CONSISTENT,
    ERROR,
    NO_REPAIR,
    REPAIRED,
    EnforceRequest,
    EnforceResponse,
    request_from_dict,
    request_to_dict,
    request_to_json,
    response_from_dict,
    response_to_dict,
    request_digest,
    shape_key,
    shard_digest,
)
from repro.serve.daemon import (
    DaemonConfig,
    DaemonHandle,
    EnforcementDaemon,
    run_daemon,
    run_in_thread,
)
from repro.serve.faults import (
    FAULTS_ENV,
    SITES,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.serve.metrics import DaemonMetrics
from repro.serve.protocol import (
    DEADLINE_EXCEEDED,
    MALFORMED,
    OVERLOADED,
    POISONED,
    SESSION_LOST,
    SESSION_VERBS,
    DaemonClient,
    RetryingClient,
    SessionClient,
    decode_enforce_reply,
    delta_enforce_many,
    wire_shape_key,
)
from repro.serve.service import (
    DEFAULT_SHARD_DEADLINE,
    DEFAULT_WORKERS,
    BatchResult,
    ShardStats,
    serve_batch,
    shard_requests,
)
from repro.serve.worker import (
    process_shard,
    reset_worker_state,
    serve_request,
    serve_session,
    serve_wire,
    worker_counters,
)

__all__ = [
    "CONSISTENT",
    "DEADLINE_EXCEEDED",
    "DEFAULT_SHARD_DEADLINE",
    "DEFAULT_WORKERS",
    "ERROR",
    "FAULTS_ENV",
    "MALFORMED",
    "NO_REPAIR",
    "OVERLOADED",
    "POISONED",
    "REPAIRED",
    "SESSION_LOST",
    "SESSION_VERBS",
    "SITES",
    "BatchResult",
    "DaemonClient",
    "DaemonConfig",
    "DaemonHandle",
    "DaemonMetrics",
    "EnforceRequest",
    "EnforceResponse",
    "EnforcementDaemon",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "RetryingClient",
    "SessionClient",
    "ShardStats",
    "decode_enforce_reply",
    "delta_enforce_many",
    "process_shard",
    "request_digest",
    "request_from_dict",
    "request_to_dict",
    "request_to_json",
    "reset_worker_state",
    "response_from_dict",
    "response_to_dict",
    "run_daemon",
    "run_in_thread",
    "serve_batch",
    "serve_request",
    "serve_session",
    "serve_wire",
    "shape_key",
    "shard_digest",
    "shard_requests",
    "wire_shape_key",
    "worker_counters",
]
