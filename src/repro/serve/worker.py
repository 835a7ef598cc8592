"""Worker-side shard processing for the batch service.

A worker is a long-lived process (one slot of the scheduler's pool, or
the caller's own process in inline mode) that answers whole *shards* —
all requests of one question shape, in submission order. Per process it
keeps two warm layers:

* a parse cache mapping canonical QVT-R text to one
  :class:`~repro.qvtr.ast.Transformation` instance, so every shard of a
  shape resolves to the *same* transformation object — which is what
  makes the process-wide :func:`~repro.enforce.session.shared_session`
  LRU (keyed by transformation identity) hit across shards and batches;
* through that LRU, one warm :class:`~repro.enforce.session.EnforcementSession`
  per shape — the retargetable grounding, MaxSAT session and incremental
  solver that amortise across every request of the shard exactly like a
  long-lived interactive session does across edits.

Everything crossing the process boundary is the plain-JSON wire format
of :mod:`repro.serve.requests` — workers never receive live objects, so
fork/spawn differences and unpicklable state cannot bite.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import Any

from repro.enforce.session import (
    SHARED_SESSION_LIMIT,
    EnforcementSession,
    shared_session,
)
from repro.enforce.targets import TargetSelection
from repro.errors import EditError, NoRepairFound, ReproError
from repro.gen.edits import edits_from_wire
from repro.metamodel.edits import apply_edits
from repro.metamodel.model import Model
from repro.qvtr.ast import Transformation
from repro.qvtr.syntax.parser import parse_transformation
from repro.serve.requests import (
    CONSISTENT,
    ERROR,
    NO_REPAIR,
    REPAIRED,
    EnforceRequest,
    EnforceResponse,
    check_max_distance,
    request_from_dict,
    response_to_dict,
)

#: Canonical text -> parsed transformation, least-recently-used last.
#: Sized like the shared-session LRU: a transformation evicted here
#: would re-parse to a *new* identity and miss the session cache.
_PARSE_CACHE: "OrderedDict[str, Transformation]" = OrderedDict()

#: How many model-tuple versions one delta session retains. Asking an
#: evicted version is a typed error naming the bound; the *DAG* (parent
#: links) is kept whole, only the materialised tuples are bounded.
VERSION_LIMIT = 32

#: How many delta sessions one worker process retains (LRU). The daemon
#: routes a session's verbs to one slot for its whole life, so this
#: bounds per-process memory, not correctness; an evicted session
#: answers ``session-lost`` and the client reopens.
DELTA_SESSION_LIMIT = 64


@dataclass
class _DeltaStore:
    """One delta session's worker-side state: base request + version DAG.

    ``versions`` materialises the model tuple of each retained version
    (bounded FIFO, oldest evicted); ``parents`` keeps the full DAG shape
    (ints only, unbounded is fine). ``latest`` is the default parent for
    the next ``edit`` and the default version for ``ask``.
    """

    request: EnforceRequest
    versions: "OrderedDict[int, dict[str, Model]]"
    parents: dict[int, int | None] = field(default_factory=dict)
    latest: int = 0
    next_id: int = 1


#: session name -> its store, least-recently-used last.
_DELTA_SESSIONS: "OrderedDict[str, _DeltaStore]" = OrderedDict()

def _transformation_for(text: str) -> Transformation:
    cached = _PARSE_CACHE.get(text)
    if cached is not None:
        _PARSE_CACHE.move_to_end(text)
        return cached
    transformation = parse_transformation(text)
    _PARSE_CACHE[text] = transformation
    while len(_PARSE_CACHE) > SHARED_SESSION_LIMIT:
        _PARSE_CACHE.popitem(last=False)
    return transformation


def _session_for(request: EnforceRequest) -> EnforcementSession:
    """The warm session answering this request's shape in this process."""
    return shared_session(
        _transformation_for(request.transformation),
        TargetSelection(request.targets),
        semantics=request.semantics,
        metric=request.metric(),
        scope=request.scope,
        mode=request.mode,
    )


def serve_request(request: EnforceRequest) -> EnforceResponse:
    """Answer one request on its shape's warm session.

    Never raises for per-request problems: an unanswerable request
    (fragment error, bad binding, no repair within the cap) becomes a
    :data:`NO_REPAIR` or :data:`ERROR` response so the rest of the batch
    keeps flowing.
    """
    try:
        session = _session_for(request)
        repair = session.enforce(
            request.models, max_distance=request.max_distance
        )
    except NoRepairFound as exc:
        return EnforceResponse(outcome=NO_REPAIR, error=str(exc))
    except ReproError as exc:
        return EnforceResponse(outcome=ERROR, error=str(exc))
    outcome = CONSISTENT if repair.engine == "none" else REPAIRED
    return EnforceResponse(
        outcome=outcome,
        distance=repair.distance,
        models={param: repair.models[param] for param in repair.changed},
        changed=repair.changed,
        engine=repair.engine,
    )


def process_shard(payload: dict[str, Any]) -> dict[str, Any]:
    """Answer one shard (the pool task body; also the inline-mode path).

    ``payload``: ``{"shard": digest,
    "requests": [[submission index, request wire dict], ...]}``.
    Requests are answered strictly in payload (= submission) order, so
    the session state any request sees is a pure function of the shard's
    prefix — the scheduler's determinism contract.

    Returns the responses (wire form, paired with their indices) plus
    shard-level stats: worker pid, grounding delta, session counters.
    """
    responses: list[list[Any]] = []
    session: EnforcementSession | None = None
    groundings_before = 0
    reuses_before = 0
    for index, data in payload["requests"]:
        try:
            request = request_from_dict(data)
        except ReproError as exc:
            responses.append(
                [index, response_to_dict(EnforceResponse(ERROR, error=str(exc)))]
            )
            continue
        if session is None:
            try:
                session = _session_for(request)
                groundings_before = session.groundings
                reuses_before = session.reuses
            except ReproError as exc:
                responses.append(
                    [
                        index,
                        response_to_dict(EnforceResponse(ERROR, error=str(exc))),
                    ]
                )
                continue
        responses.append(
            [index, response_to_dict(serve_request(request))]
        )
    return {
        "shard": payload.get("shard"),
        "worker": os.getpid(),
        "groundings": (
            session.groundings - groundings_before if session is not None else 0
        ),
        "reuses": (
            session.reuses - reuses_before if session is not None else 0
        ),
        "responses": responses,
    }


def worker_counters() -> dict:
    """This process's warm-state counters, as one JSON-ready dict.

    The daemon's per-request replies carry this snapshot up to the
    parent so the ``metrics`` verb can aggregate solver work
    (:func:`~repro.solver.sat.global_stats`), grounding work
    (``Grounder.bindings_enumerated``) and session reuse across worker
    processes without a separate control channel.
    """
    from dataclasses import asdict

    from repro.enforce.session import shared_session_counters
    from repro.solver.bounded import Grounder
    from repro.solver.sat import global_stats

    sessions = shared_session_counters()
    return {
        "sessions": len(sessions),
        "groundings": sum(s["groundings"] for s in sessions),
        "reuses": sum(s["reuses"] for s in sessions),
        "calls": sum(s["calls"] for s in sessions),
        "delta_sessions": len(_DELTA_SESSIONS),
        "delta_versions": sum(
            len(store.versions) for store in _DELTA_SESSIONS.values()
        ),
        "bindings_enumerated": Grounder.bindings_enumerated,
        "solver": asdict(global_stats()),
    }


def serve_wire(
    data: Any, fault: str | None = None, stall: float = 0.0
) -> dict[str, Any]:
    """Answer one wire-form request: the daemon worker's unit of work.

    Like :func:`process_shard` this never raises for per-request
    problems — malformed wire data, fragment errors and repair failures
    all come back as typed ``error``/``no-repair`` responses. The reply
    additionally carries the serving session's counters (``grounded``
    says whether *this* request paid a grounding — the daemon's
    per-shape hit/miss metric) and the whole process's
    :func:`worker_counters` snapshot.

    ``fault`` and ``stall`` are injected-fault *directives* from the
    daemon's seeded :class:`~repro.serve.faults.FaultInjector` (workers
    obey; they never draw — a respawned worker must not replay the dead
    one's draw sequence). ``stall`` sleeps before solving
    (``slow-solve``); ``"crash-before"`` exits the process before
    solving, ``"crash-after"`` computes the full reply and exits before
    it can be sent — the daemon sees both as a mid-request worker death.
    """
    if stall:
        time.sleep(stall)
    if fault == "crash-before":
        os._exit(86)

    def reply(response: EnforceResponse, session=None, grounded=False) -> dict:
        return {
            "response": response_to_dict(response),
            "session": None if session is None else dict(
                session.counters(), grounded=grounded
            ),
            "counters": worker_counters(),
        }

    try:
        request = request_from_dict(data)
        session = _session_for(request)
    except ReproError as exc:
        if fault == "crash-after":
            os._exit(86)
        return reply(EnforceResponse(ERROR, error=str(exc)))
    groundings_before = session.groundings
    response = serve_request(request)
    if fault == "crash-after":
        os._exit(86)
    return reply(
        response, session, grounded=session.groundings > groundings_before
    )


def serve_message(message: Mapping[str, Any]) -> dict[str, Any]:
    """One daemon worker message: an enforce request or a session op.

    The task the daemon runs on its worker slots
    (:mod:`repro.serve.supervisor`). The ``wedge`` field is the
    protocol's test hook: sleep before
    answering, simulating a livelocked request. ``fault``/``stall`` are
    the injected-fault directives :func:`serve_wire` obeys.
    """
    wedge = message.get("wedge") or 0
    if wedge:
        time.sleep(wedge)
    if message.get("op") == "enforce":
        return serve_wire(
            message.get("request"),
            fault=message.get("fault"),
            stall=message.get("stall") or 0.0,
        )
    return serve_session(message)


def _control_reply(
    op: Any,
    session: Any,
    *,
    error: str | None = None,
    code: str = "error",
    **fields: Any,
) -> dict[str, Any]:
    """A session-op worker reply (the daemon wraps it as a session-reply)."""
    body: dict[str, Any] = {"op": op, "session": session, **fields}
    if error is not None:
        body["error"] = error
        body["code"] = code
    return {"control": body, "counters": worker_counters()}


def serve_session(message: Mapping[str, Any]) -> dict[str, Any]:
    """One delta-session op (``open``/``edit``/``ask``/``close``) in this
    worker process.

    The daemon never deserialises models, so the version DAG lives here:
    ``open`` parses a full request wire dict and stores its tuple as
    version 0; ``edit`` applies a strict-parsed
    :func:`~repro.gen.edits.edits_from_wire` payload to a retained
    parent version, materialising a new version; ``ask`` rebuilds the
    request at any retained version and answers it on the shape's warm
    :func:`~repro.enforce.session.shared_session` — generation retention
    is what makes asking *historic* versions cheap. Per-op problems
    (unknown version, inapplicable edit, malformed payload) come back as
    typed control errors, never exceptions; an unknown session name is
    ``code="session-lost"`` so the client knows to reopen.

    ``ask`` replies look exactly like :func:`serve_wire` replies (an
    enforce response + session counters), so the daemon's reply path and
    metrics treat delta asks and full-tuple enforces identically.
    """
    op = message.get("op")
    name = message.get("session")
    if not isinstance(name, str) or not name:
        return _control_reply(
            op, name, error=f"session name must be a non-empty string, got {name!r}"
        )
    if op == "open":
        try:
            request = request_from_dict(message.get("request"))
        except ReproError as exc:
            return _control_reply(op, name, error=str(exc))
        store = _DeltaStore(
            request=request,
            versions=OrderedDict({0: dict(request.models)}),
            parents={0: None},
        )
        _DELTA_SESSIONS[name] = store
        _DELTA_SESSIONS.move_to_end(name)
        while len(_DELTA_SESSIONS) > DELTA_SESSION_LIMIT:
            _DELTA_SESSIONS.popitem(last=False)
        return _control_reply(op, name, version=0, versions=1)
    store = _DELTA_SESSIONS.get(name)
    if store is None:
        return _control_reply(
            op, name,
            error=f"no delta session {name!r} in this worker (reopen it)",
            code="session-lost",
        )
    _DELTA_SESSIONS.move_to_end(name)
    if op == "close":
        del _DELTA_SESSIONS[name]
        return _control_reply(op, name, versions=0)
    if op == "edit":
        parent = message.get("parent")
        if parent is None:
            parent = store.latest
        if not isinstance(parent, int) or parent not in store.parents:
            return _control_reply(
                op, name,
                error=f"session {name!r} has no version {parent!r} to edit",
            )
        base = store.versions.get(parent)
        if base is None:
            return _control_reply(
                op, name,
                error=(
                    f"version {parent} of session {name!r} is no longer "
                    f"retained (the session keeps {VERSION_LIMIT} versions)"
                ),
            )
        try:
            edits = edits_from_wire(message.get("edits"))
        except ReproError as exc:
            return _control_reply(op, name, error=str(exc))
        unknown = sorted(set(edits) - set(base))
        if unknown:
            return _control_reply(
                op, name,
                error=(
                    f"edit names parameter {unknown[0]!r}, which the "
                    f"session's tuple does not have"
                ),
            )
        tuple_ = dict(base)
        try:
            for param, script in edits.items():
                tuple_[param] = apply_edits(tuple_[param], script)
        except EditError as exc:
            return _control_reply(
                op, name, error=f"edit does not apply: {exc}"
            )
        version = store.next_id
        store.next_id += 1
        store.versions[version] = tuple_
        store.parents[version] = parent
        store.latest = version
        while len(store.versions) > VERSION_LIMIT:
            store.versions.popitem(last=False)
        return _control_reply(
            op, name,
            version=version, parent=parent, versions=len(store.versions),
        )
    if op == "ask":
        version = message.get("version")
        if version is None:
            version = store.latest
        if not isinstance(version, int) or version not in store.parents:
            return _control_reply(
                op, name,
                error=f"session {name!r} has no version {version!r}",
            )
        tuple_ = store.versions.get(version)
        if tuple_ is None:
            return _control_reply(
                op, name,
                error=(
                    f"version {version} of session {name!r} is no longer "
                    f"retained (the session keeps {VERSION_LIMIT} versions)"
                ),
            )
        request = replace(store.request, models=tuple_)
        try:
            if "max_distance" in message:
                request = replace(
                    request,
                    max_distance=check_max_distance(message["max_distance"]),
                )
            session = _session_for(request)
        except ReproError as exc:
            return {
                "response": response_to_dict(
                    EnforceResponse(ERROR, error=str(exc))
                ),
                "session": None,
                "counters": worker_counters(),
            }
        groundings_before = session.groundings
        response = serve_request(request)
        return {
            "response": response_to_dict(response),
            "session": dict(
                session.counters(),
                grounded=session.groundings > groundings_before,
            ),
            "counters": worker_counters(),
        }
    return _control_reply(op, name, error=f"unknown session op {op!r}")


def reset_worker_state() -> None:
    """Drop the worker-local caches (test isolation hook)."""
    _PARSE_CACHE.clear()
    _DELTA_SESSIONS.clear()
