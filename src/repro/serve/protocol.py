"""The daemon's JSON-lines wire protocol, and a blocking client.

One connection carries any number of **envelopes**, one JSON object per
``\\n``-terminated line, in either direction. Client-to-daemon envelopes
name a ``verb``:

* ``{"verb": "enforce", "id": ..., "request": <request wire dict>,
  "deadline": seconds-or-null}`` — one enforcement question, riding the
  batch service's request format (:func:`repro.serve.request_to_dict`).
  ``deadline`` caps the *end-to-end* time (queue wait included); omitted
  means the daemon's configured default. ``wedge`` (seconds, optional)
  is a test hook: the worker sleeps that long before answering, which is
  how the deadline/dead-letter path is exercised deterministically.
  Any ``deadline`` but a finite number > 0 or null, and any ``wedge``
  but a finite number >= 0 or null, is answered with a typed ``error``.
* ``{"verb": "health", "id": ...}`` — liveness and queue depths.
* ``{"verb": "metrics", "id": ...}`` — the full metrics snapshot
  (:meth:`repro.serve.metrics.DaemonMetrics.snapshot`).

Daemon-to-client envelopes name a ``kind`` (``enforce-reply``,
``health-reply``, ``metrics-reply``, or ``protocol-error`` for an
unreadable envelope) and echo the request's ``id`` — replies may arrive
out of submission order (requests of different shapes proceed on
different workers), so the ``id`` is the correlation key. An
``enforce-reply`` embeds the full response wire dict under
``"response"`` and mirrors its ``outcome`` at the top level for cheap
scripting. Beyond the batch service's four outcomes the daemon adds two
**typed rejections**: :data:`OVERLOADED` (the shape's bounded queue is
full, or the daemon is draining — resubmit later) and
:data:`DEADLINE_EXCEEDED` (the request's deadline elapsed before an
answer; the request is dead-lettered, see the daemon docs).

Four **delta-session verbs** carry multi-version model sessions (see
:class:`SessionClient`): ``{"verb": "open", "session": name,
"request": ...}`` binds a named session to the request's shape (and so
its worker) and stores the full tuple as version 0; ``{"verb": "edit",
"session": name, "parent": version-or-null, "edits": {param: [edit
dicts]}}`` applies a serialised edit script to a retained version and
materialises a new one (``parent`` null means the latest); ``{"verb":
"ask", "session": name, "version": version-or-null, "max_distance":
optional}`` answers the consistency/enforcement question at any
retained version (the reply is a plain ``enforce-reply``); ``{"verb":
"close", "session": name}`` drops the session. Session verbs answer
``session-reply`` envelopes (``outcome`` of ``ok``, ``error``, a typed
rejection, or :data:`SESSION_LOST` — the session's worker restarted or
its bounded cache evicted it; reopen with a full tuple). Session state
is *not* replayable, so these verbs get none of the idempotency/retry
machinery below.

An ``enforce`` envelope may also carry an ``idem`` string — a
client-supplied **idempotency key**. The daemon remembers the reply it
computed for each key (bounded cache): resubmitting a key whose answer
exists replays the *original* reply (marked ``"replayed": true``)
without touching a worker, and resubmitting one that is still in flight
attaches the new connection to the pending answer instead of enqueueing
the work twice. That is what makes retry-after-connection-loss safe —
a retried ``enforce`` never double-solves.

:class:`DaemonClient` is the blocking client used by the CLI's client
mode, the tests and the benchmarks — deliberately plain ``socket`` code
so scripting against the daemon needs nothing from asyncio. Every
connection-level failure it hits surfaces as a typed
:class:`~repro.errors.DaemonConnectionError` carrying the ids still
owed. :class:`RetryingClient` builds self-healing on top: reconnect
with exponential backoff + jitter, idempotency keys on every request,
and resubmission of exactly the unanswered remainder — so a client
survives daemon restarts, dropped connections and corrupted envelopes
while each request still gets exactly one answer.
"""

from __future__ import annotations

import json
import socket
import time
import uuid
from collections.abc import Mapping, Sequence
from random import Random
from typing import Any

from repro.errors import (
    DaemonConnectionError,
    SerializationError,
    ServeError,
    SessionLostError,
)
from repro.gen.edits import edits_to_wire
from repro.serve.requests import (  # noqa: F401 - wire_shape_key re-exported
    EnforceRequest,
    EnforceResponse,
    _is_count,
    _is_seconds,
    request_to_dict,
    response_from_dict,
    shape_key,
    wire_shape_key,
)

#: Typed daemon rejections, extending the batch service's outcomes.
#: ``MALFORMED`` marks an unreadable/oversized envelope (the connection
#: survives); ``POISONED`` marks a request quarantined after repeatedly
#: killing its worker (see :mod:`repro.serve.daemon`).
OVERLOADED = "overloaded"
DEADLINE_EXCEEDED = "deadline-exceeded"
MALFORMED = "malformed"
POISONED = "poisoned"
#: A delta-session verb named a session the daemon no longer has — never
#: opened, worker restarted (version DAGs die with their worker), or
#: evicted by the worker's bounded session cache. Reopen and resend.
SESSION_LOST = "session-lost"

#: Envelope verbs a client may send.
VERBS = ("enforce", "health", "metrics", "open", "edit", "ask", "close")

#: The delta-session subset of :data:`VERBS` (stateful; never retried).
SESSION_VERBS = ("open", "edit", "ask", "close")


def encode_envelope(envelope: Mapping[str, Any]) -> bytes:
    """One protocol envelope as a ``\\n``-terminated JSON line."""
    return (json.dumps(envelope, separators=(",", ":")) + "\n").encode()


def decode_envelope(line: bytes | str) -> dict[str, Any]:
    """Parse one received line; raises :class:`SerializationError`."""
    try:
        data = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SerializationError(f"undecodable protocol line: {exc}") from exc
    if not isinstance(data, dict):
        raise SerializationError(
            f"protocol envelope must be a JSON object, got {type(data).__name__}"
        )
    return data


class DaemonClient:
    """A blocking JSON-lines client for the enforcement daemon.

    Connect over a UNIX socket (``DaemonClient.connect(path)``) or TCP
    (``DaemonClient.connect(host=..., port=...)``); use as a context
    manager or call :meth:`close`. One client drives one connection and
    is not thread-safe.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._file = sock.makefile("rb")
        self._next_id = 0
        #: Wire bytes written/read by this client (envelope framing
        #: included) — what the delta protocol's bytes-per-request test
        #: (``tests/test_delta_protocol.py::TestWireBytes``) reads.
        self.bytes_sent = 0
        self.bytes_received = 0

    @classmethod
    def connect(
        cls,
        path: str | None = None,
        host: str | None = None,
        port: int | None = None,
        timeout: float | None = 60.0,
    ) -> "DaemonClient":
        """Open a connection to a daemon on a UNIX socket or TCP port.

        A dead, absent or refusing endpoint raises a typed
        :class:`~repro.errors.DaemonConnectionError` (never a raw
        ``OSError`` traceback).
        """
        try:
            if path is not None:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(timeout)
                sock.connect(str(path))
            elif host is not None and port is not None:
                sock = socket.create_connection((host, port), timeout=timeout)
            else:
                raise ServeError(
                    "DaemonClient.connect needs a path or host+port"
                )
        except OSError as exc:
            where = path if path is not None else f"{host}:{port}"
            raise DaemonConnectionError(
                f"cannot connect to daemon at {where}: {exc}"
            ) from exc
        return cls(sock)

    def __enter__(self) -> "DaemonClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    # ------------------------------------------------------------------
    # Envelope primitives
    # ------------------------------------------------------------------
    def send(self, envelope: Mapping[str, Any]) -> Any:
        """Send one envelope (auto-assigning ``id``); returns the id."""
        envelope = dict(envelope)
        if "id" not in envelope:
            self._next_id += 1
            envelope["id"] = self._next_id
        data = encode_envelope(envelope)
        try:
            self._sock.sendall(data)
            self.bytes_sent += len(data)
        except OSError as exc:
            raise DaemonConnectionError(
                f"connection to the daemon lost while sending: {exc}"
            ) from exc
        return envelope["id"]

    def recv(self) -> dict[str, Any]:
        """Read the next reply envelope.

        Every connection-level failure — the daemon hanging up, a
        socket error/timeout, or a corrupt (undecodable) envelope that
        desynchronises the line stream — raises a typed
        :class:`~repro.errors.DaemonConnectionError`.
        """
        try:
            line = self._file.readline()
        except OSError as exc:
            raise DaemonConnectionError(
                f"connection to the daemon lost while reading: {exc}"
            ) from exc
        if not line:
            raise DaemonConnectionError("daemon closed the connection")
        self.bytes_received += len(line)
        try:
            return decode_envelope(line)
        except SerializationError as exc:
            # A corrupt line leaves the stream unsynchronised; the only
            # safe recovery is reconnect-and-retry (RetryingClient's).
            raise DaemonConnectionError(
                f"corrupt reply envelope from the daemon: {exc}"
            ) from exc

    def call(self, envelope: Mapping[str, Any]) -> dict[str, Any]:
        """Send one envelope and wait for its (id-matched) reply."""
        sent = self.send(envelope)
        while True:
            reply = self.recv()
            if reply.get("id") == sent:
                return reply

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    def health(self) -> dict[str, Any]:
        """The daemon's health report (status, uptime, queue depths)."""
        return self.call({"verb": "health"})

    def metrics(self) -> dict[str, Any]:
        """The daemon's full metrics snapshot."""
        return self.call({"verb": "metrics"})["metrics"]

    def enforce(
        self,
        request: EnforceRequest,
        deadline: float | None = None,
        wedge: float | None = None,
    ) -> EnforceResponse:
        """Answer one request; blocks until the reply arrives.

        ``wedge`` is the test hook documented in the module docstring.
        """
        responses = self.enforce_many([request], deadline=deadline, wedge=wedge)
        return responses[0]

    def enforce_many(
        self,
        requests: Sequence[EnforceRequest],
        deadline: float | None = None,
        wedge: float | None = None,
    ) -> list[EnforceResponse]:
        """Pipeline a request stream; responses in submission order.

        All requests are written before any reply is read, so same-shape
        requests queue back to back on their worker — the daemon
        equivalent of one :func:`~repro.serve.serve_batch` shard.

        Mid-pipeline connection loss raises a typed
        :class:`~repro.errors.DaemonConnectionError` whose ``pending``
        names the ids still owed an answer — never a raw
        ``ConnectionError`` or ``JSONDecodeError``.
        """
        ids = []
        try:
            for request in requests:
                envelope: dict[str, Any] = {
                    "verb": "enforce",
                    "request": request_to_dict(request),
                }
                if deadline is not None:
                    envelope["deadline"] = deadline
                if wedge is not None:
                    envelope["wedge"] = wedge
                ids.append(self.send(envelope))
        except DaemonConnectionError as exc:
            raise DaemonConnectionError(
                f"{exc} ({len(requests)} of {len(requests)} requests owed)",
                pending=ids + [None] * (len(requests) - len(ids)),
            ) from exc
        pending = {id_: index for index, id_ in enumerate(ids)}
        responses: list[EnforceResponse | None] = [None] * len(ids)
        while pending:
            try:
                reply = self.recv()
            except DaemonConnectionError as exc:
                owed = [ids[index] for index in sorted(pending.values())]
                raise DaemonConnectionError(
                    f"{exc} ({len(owed)} of {len(requests)} requests owed)",
                    pending=owed,
                ) from exc
            index = pending.pop(reply.get("id"), None)
            if index is None:
                continue
            responses[index] = decode_enforce_reply(reply, requests[index])
        assert all(response is not None for response in responses)
        return responses  # type: ignore[return-value]


class RetryingClient:
    """A self-healing daemon client: reconnect, back off, never double-solve.

    Construction records the endpoint; the connection is opened lazily
    and re-opened after any :class:`~repro.errors.DaemonConnectionError`
    (daemon restart, dropped connection, corrupted envelope), with
    exponential backoff plus jitter between attempts. Every ``enforce``
    carries a client-unique **idempotency key** that survives
    reconnects, so a retried request whose answer was already computed
    is *replayed* from the daemon's reply cache — the original answer,
    bit for bit, with zero extra solver or grounding work — and a
    request that was lost before reaching a worker is simply solved
    once. ``retries`` bounds reconnect attempts per call; exhausting it
    raises :class:`~repro.errors.DaemonConnectionError` carrying the
    idempotency keys still owed.

    Deterministic tests pass ``seed`` to pin the jitter; operators
    leave it ``None``.
    """

    def __init__(
        self,
        path: str | None = None,
        host: str | None = None,
        port: int | None = None,
        timeout: float | None = 60.0,
        retries: int = 5,
        backoff: float = 0.05,
        backoff_max: float = 2.0,
        jitter: float = 0.25,
        seed: int | None = None,
    ) -> None:
        if path is None and (host is None or port is None):
            raise ServeError("RetryingClient needs a path or host+port")
        if not _is_count(retries):
            raise ServeError(f"retries must be an integer >= 0, got {retries!r}")
        for name, value in (
            ("backoff", backoff),
            ("backoff_max", backoff_max),
            ("jitter", jitter),
        ):
            if not _is_seconds(value, positive=False):
                raise ServeError(
                    f"{name} must be a finite number >= 0, got {value!r}"
                )
        self._endpoint = dict(path=path, host=host, port=port, timeout=timeout)
        self.retries = retries
        self.backoff = backoff
        self.backoff_max = backoff_max
        self.jitter = jitter
        self._rng = Random(seed)
        self._client: DaemonClient | None = None
        #: Client-unique idempotency-key prefix; keys are `prefix:seq`.
        self._token = uuid.uuid4().hex[:12]
        self._seq = 0
        self.reconnects = 0

    def __enter__(self) -> "RetryingClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None

    def _connected(self) -> DaemonClient:
        if self._client is None:
            self._client = DaemonClient.connect(**self._endpoint)
        return self._client

    def _disconnect(self) -> None:
        if self._client is not None:
            try:
                self._client.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            self._client = None

    def _pause(self, attempt: int, budget: float | None = None) -> None:
        """Exponential backoff with jitter before reconnect ``attempt``.

        ``budget`` is the seconds left of the caller's deadline: the
        pause never sleeps past it, so total retry time honours the
        end-to-end deadline instead of only the per-attempt cap.
        """
        delay = min(self.backoff_max, self.backoff * (2 ** (attempt - 1)))
        delay += delay * self.jitter * self._rng.random()
        if budget is not None:
            delay = min(delay, max(0.0, budget))
        if delay > 0:
            time.sleep(delay)

    def _with_retry(self, call):
        attempt = 0
        while True:
            try:
                return call(self._connected())
            except DaemonConnectionError:
                self._disconnect()
                attempt += 1
                if attempt > self.retries:
                    raise
                self.reconnects += 1
                self._pause(attempt)

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    def health(self) -> dict[str, Any]:
        """The daemon's health report, retried across reconnects."""
        return self._with_retry(lambda client: client.health())

    def metrics(self) -> dict[str, Any]:
        """The daemon's metrics snapshot, retried across reconnects."""
        return self._with_retry(lambda client: client.metrics())

    def enforce(
        self, request: EnforceRequest, deadline: float | None = None
    ) -> EnforceResponse:
        """Answer one request; survives connection loss mid-call."""
        return self.enforce_many([request], deadline=deadline)[0]

    def enforce_many(
        self,
        requests: Sequence[EnforceRequest],
        deadline: float | None = None,
    ) -> list[EnforceResponse]:
        """Pipeline a request stream; exactly one answer per request.

        Requests are serialised once and tagged with idempotency keys
        up front. After a connection failure only the *unanswered*
        remainder is resubmitted (same keys), so answers that were
        computed but lost on the wire come back as replays of the
        original reply and nothing is ever solved twice.
        """
        wires = [request_to_dict(request) for request in requests]
        keys = [f"{self._token}:{self._seq + i}" for i in range(len(requests))]
        self._seq += len(requests)
        responses: list[EnforceResponse | None] = [None] * len(requests)
        attempt = 0
        # The caller's deadline bounds *total* retry time, not just each
        # attempt: a 2 s deadline must not spend 10 s reconnecting.
        give_up_at = (
            None if deadline is None else time.monotonic() + float(deadline)
        )
        while True:
            remaining = [i for i in range(len(requests)) if responses[i] is None]
            if not remaining:
                break
            try:
                client = self._connected()
                pending: dict[Any, int] = {}
                for index in remaining:
                    envelope: dict[str, Any] = {
                        "verb": "enforce",
                        "request": wires[index],
                        "idem": keys[index],
                    }
                    if deadline is not None:
                        envelope["deadline"] = deadline
                    pending[client.send(envelope)] = index
                while pending:
                    reply = client.recv()
                    index = pending.pop(reply.get("id"), None)
                    if index is None:
                        continue
                    responses[index] = decode_enforce_reply(
                        reply, requests[index]
                    )
            except DaemonConnectionError as exc:
                self._disconnect()
                attempt += 1
                now = time.monotonic()
                out_of_time = give_up_at is not None and now >= give_up_at
                if attempt > self.retries or out_of_time:
                    owed = [
                        keys[i] for i in range(len(requests))
                        if responses[i] is None
                    ]
                    reason = (
                        f"deadline ({deadline:g}s) spent after "
                        f"{attempt} attempts"
                        if out_of_time
                        else f"gave up after {attempt} attempts"
                    )
                    raise DaemonConnectionError(
                        f"{exc} — {reason} with "
                        f"{len(owed)} of {len(requests)} requests owed",
                        pending=owed,
                    ) from exc
                self.reconnects += 1
                self._pause(
                    attempt,
                    None if give_up_at is None else give_up_at - now,
                )
        return responses  # type: ignore[return-value]


def decode_enforce_reply(
    reply: Mapping[str, Any], request: EnforceRequest
) -> EnforceResponse:
    """An ``enforce-reply`` envelope as an :class:`EnforceResponse`.

    Typed rejections (:data:`OVERLOADED`, :data:`DEADLINE_EXCEEDED`) and
    protocol errors decode to error-shaped responses carrying the typed
    outcome, so callers handle every case through one type.
    """
    kind = reply.get("kind")
    if kind == "protocol-error":
        return EnforceResponse(outcome="error", error=reply.get("error"))
    if kind != "enforce-reply":
        raise SerializationError(f"expected an enforce-reply, got {kind!r}")
    body = reply.get("response")
    if isinstance(body, Mapping):
        return response_from_dict(body, request.metamodels)
    return EnforceResponse(
        outcome=reply.get("outcome", "error"), error=reply.get("error")
    )


#: Sentinel for "the ask carries no max_distance of its own" — the
#: worker then answers with the opened request's cap, which is distinct
#: from explicitly sending ``None`` (= uncapped).
_UNSET: Any = object()


class SessionClient:
    """One delta session on a :class:`DaemonClient` connection.

    The wire-traffic inversion of :meth:`DaemonClient.enforce_many`:
    instead of shipping the full model tuple with every question, the
    client ships it **once** (:meth:`open`), then sends only
    :mod:`repro.metamodel.edits` scripts (:meth:`edit`, serialised by
    :func:`repro.gen.edits.edits_to_wire`) — O(edit) bytes per request
    instead of O(model). The daemon keeps a bounded per-session version
    DAG in the session's worker process; :meth:`ask` answers the
    enforcement question at any retained version, on the same warm
    shared session that full-tuple traffic of the shape uses — so the
    answers are bit-identical to :func:`~repro.serve.serve_batch`.

    Session state lives in one worker process and is *not* replayable:
    if that worker is restarted (crash, deadline kill) or its bounded
    session cache evicts the session, every verb raises a typed
    :class:`~repro.errors.SessionLostError` and the client must
    :meth:`open` again with a full tuple. Other per-op failures —
    editing an evicted version, an edit that does not apply, asking an
    unknown version — raise :class:`~repro.errors.ServeError` with the
    daemon's typed message.
    """

    def __init__(self, client: DaemonClient, name: str) -> None:
        self._client = client
        self.name = name
        self._request: EnforceRequest | None = None
        #: The newest version this client created (0 after ``open``).
        self.version = 0

    def _call(self, envelope: dict[str, Any], op: str) -> dict[str, Any]:
        reply = self._client.call(envelope)
        kind = reply.get("kind")
        if kind == "protocol-error":
            raise ServeError(
                f"session {op} on {self.name!r} failed: {reply.get('error')}"
            )
        if kind != "session-reply":
            raise SerializationError(f"expected a session-reply, got {kind!r}")
        outcome = reply.get("outcome")
        if outcome == SESSION_LOST:
            raise SessionLostError(
                f"session {self.name!r} lost on {op}: {reply.get('error')}"
            )
        if outcome != "ok":
            raise ServeError(
                f"session {op} on {self.name!r} answered "
                f"{outcome!r}: {reply.get('error')}"
            )
        return reply

    def open(
        self, request: EnforceRequest, deadline: float | None = None
    ) -> int:
        """Open the session with a full model tuple; returns version 0."""
        envelope: dict[str, Any] = {
            "verb": "open",
            "session": self.name,
            "request": request_to_dict(request),
        }
        if deadline is not None:
            envelope["deadline"] = deadline
        reply = self._call(envelope, "open")
        self._request = request
        self.version = int(reply.get("version", 0))
        return self.version

    def edit(
        self,
        edits: Mapping[str, Sequence],
        parent: int | None = None,
        deadline: float | None = None,
    ) -> int:
        """Materialise a new version by editing a retained one.

        ``edits`` maps parameter names to :mod:`repro.metamodel.edits`
        scripts; ``parent`` picks the base version (``None`` = the
        session's latest). Returns the new version id — branching is
        just editing a non-latest parent.
        """
        envelope: dict[str, Any] = {
            "verb": "edit",
            "session": self.name,
            "parent": parent,
            "edits": edits_to_wire(edits),
        }
        if deadline is not None:
            envelope["deadline"] = deadline
        reply = self._call(envelope, "edit")
        self.version = int(reply["version"])
        return self.version

    def ask(
        self,
        version: int | None = None,
        max_distance: int | None = _UNSET,
        deadline: float | None = None,
    ) -> EnforceResponse:
        """The enforcement answer at a retained version (``None`` = latest).

        ``max_distance`` overrides the opened request's cap for this ask
        (explicitly passing ``None`` means *uncapped*; omitting the
        argument keeps the opened request's). The reply is decoded
        exactly like a full-tuple enforce reply.
        """
        if self._request is None:
            raise ServeError(
                f"session {self.name!r} was never opened by this client"
            )
        envelope: dict[str, Any] = {
            "verb": "ask",
            "session": self.name,
            "version": version,
        }
        if max_distance is not _UNSET:
            envelope["max_distance"] = max_distance
        if deadline is not None:
            envelope["deadline"] = deadline
        reply = self._client.call(envelope)
        if reply.get("kind") == "session-reply":
            outcome = reply.get("outcome")
            if outcome == SESSION_LOST:
                raise SessionLostError(
                    f"session {self.name!r} lost on ask: {reply.get('error')}"
                )
            raise ServeError(
                f"session ask on {self.name!r} answered "
                f"{outcome!r}: {reply.get('error')}"
            )
        return decode_enforce_reply(reply, self._request)

    def close(self, deadline: float | None = None) -> None:
        """Drop the session (its versions die in the worker)."""
        envelope: dict[str, Any] = {"verb": "close", "session": self.name}
        if deadline is not None:
            envelope["deadline"] = deadline
        self._call(envelope, "close")


def delta_enforce_many(
    client: DaemonClient,
    requests: Sequence[EnforceRequest],
    deadline: float | None = None,
    prefix: str = "delta",
) -> list[EnforceResponse]:
    """Answer a request stream over delta sessions; responses in order.

    The drop-in delta counterpart of :meth:`DaemonClient.enforce_many`:
    requests are grouped by question shape (first-appearance order); each
    group opens one session (``{prefix}:{group index}``) with its first
    request's full tuple, then ships only the per-parameter
    :func:`repro.metamodel.diff.diff` between consecutive requests —
    O(edit) wire bytes per request on drift-style streams. Every request
    is asked at the version holding exactly its tuple (a request
    identical to its predecessor re-asks the same version), and each
    request's own ``max_distance`` rides its ask, so the answers are
    bit-identical to :meth:`~DaemonClient.enforce_many` and
    :func:`~repro.serve.serve_batch` on the same stream. Sessions are
    closed before returning.

    Grouping by shape assumes a shape's requests share a parameter set
    (the transformation fixes it); a stream violating that raises
    :class:`~repro.errors.ServeError` rather than shipping a wrong diff.
    """
    from repro.metamodel.diff import diff

    groups: dict[tuple, list[int]] = {}
    for index, request in enumerate(requests):
        groups.setdefault(shape_key(request), []).append(index)
    responses: list[EnforceResponse | None] = [None] * len(requests)
    for group_index, indices in enumerate(groups.values()):
        session = SessionClient(client, f"{prefix}:{group_index}")
        previous = requests[indices[0]]
        session.open(previous, deadline=deadline)
        version = 0
        responses[indices[0]] = session.ask(
            version=version,
            max_distance=previous.max_distance,
            deadline=deadline,
        )
        for index in indices[1:]:
            request = requests[index]
            if set(request.models) != set(previous.models):
                raise ServeError(
                    f"delta grouping needs a stable parameter set per "
                    f"shape; request {index} changed it"
                )
            edits = {}
            for param in sorted(request.models):
                script = diff(previous.models[param], request.models[param])
                if script:
                    edits[param] = script
            if edits:
                version = session.edit(
                    edits, parent=version, deadline=deadline
                )
            responses[index] = session.ask(
                version=version,
                max_distance=request.max_distance,
                deadline=deadline,
            )
            previous = request
        session.close(deadline=deadline)
    assert all(response is not None for response in responses)
    return responses  # type: ignore[return-value]
