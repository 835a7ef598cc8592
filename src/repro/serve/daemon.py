"""The long-lived enforcement daemon: `repro.serve` as a resident server.

:func:`~repro.serve.serve_batch` answers one batch per process
invocation — its warm worker sessions die with the pool. The daemon is
the same engine kept *resident*: an asyncio front-end speaking the
JSON-lines protocol of :mod:`repro.serve.protocol` over a UNIX or TCP
socket, routing every request by question shape onto a small pool of
long-lived worker **processes**, each of which keeps the per-process
warm layers of :mod:`repro.serve.worker` (parse cache +
``shared_session`` LRU) alive *across* batches — so repeated same-shape
traffic grounds once, ever, not once per batch.

Design, front to back:

* **Connections** are handled entirely on the event loop; the daemon
  never deserialises models there. Routing needs only the question
  shape, which :func:`~repro.serve.protocol.wire_shape_key` reads
  straight off the wire dict.
* **Admission** is one path for every enforce and session verb
  (:meth:`EnforcementDaemon._accept`). Its gates run in a fixed order:
  an idempotent replay/attach first (so a retrying client gets its
  original answer even from a draining or full daemon), then the
  envelope's ``deadline``/``wedge`` fields, the per-verb step (shape,
  worker payload, session name), the poison quarantine, and last the
  drain and ``queue_limit`` gates. Each rejection is one typed reply.
* **Shapes** map to worker slots by stable digest hash (same shape →
  same slot → same warm session, across connections and batches). Each
  slot has one FIFO of accepted items; each shape a **load count**
  (queued + in-flight requests) bounded by ``queue_limit``. A request
  arriving over the bound is rejected immediately with a typed
  :data:`~repro.serve.protocol.OVERLOADED` reply — backpressure, not
  unbounded growth.
* **Workers** are :class:`~repro.serve.supervisor.WorkerSlot`\\ s — the
  same supervised processes pooled ``serve_batch`` runs on — joined to
  the loop by a pipe (requests dispatched one at a time in slot FIFO
  order, so a shape's requests land on its warm session in submission
  order — the batch service's determinism contract, kept). Worker
  processes start from a clean slate.
* **Deadlines** are enforced end to end: a request carries its budget
  from acceptance, queue wait included. A request that expires in the
  queue is answered :data:`~repro.serve.protocol.DEADLINE_EXCEEDED`
  without touching a worker; one that expires *on* a worker gets the
  same typed reply and the worker — possibly wedged on a pathological
  instance — is killed and respawned, so the next request of the slot
  proceeds. Either way the request is **dead-lettered**: a bounded
  in-memory record (shape, reason, elapsed, attempts) surfaced by the
  ``metrics`` verb.
* **Crashes**: a worker that dies mid-request is respawned and the
  request retried (``retries`` budget, default 1); exhausted retries
  dead-letter the request and answer a typed ``error``.
* **Delta sessions**: the ``open``/``edit``/``ask``/``close`` verbs
  carry multi-version model sessions — a client ships its tuple once,
  then only edit scripts. ``open`` binds the session to its shape's
  worker slot for life (per-session worker affinity: the version DAG
  lives in that worker process, see :mod:`repro.serve.worker`); the
  daemon keeps only a routing record (shape, slot, the slot's restart
  epoch).
  Session state is stateful and *not* replayable, so session verbs get
  no idempotency, retries or fault targeting: a worker death or cache
  eviction answers a typed ``session-lost`` and the client reopens
  with a full tuple.
* **Drain** (SIGTERM/SIGINT, or :meth:`EnforcementDaemon.drain`): stop
  accepting — the listener closes, new enforce envelopes on live
  connections get typed ``overloaded`` rejections — flush every queued
  and in-flight request, emit one final metrics snapshot, stop the
  workers.

The gates are in ``tests/test_daemon.py``: daemon answers
bit-identical to ``serve_batch`` on the same stream, zero re-grounding
on repeated same-shape traffic via cross-batch session reuse, and a
deliberately wedged request dead-lettered within its deadline while the
rest of the batch completes.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import signal
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro.errors import ReproError, ServeError
from repro.serve.faults import FaultInjector, FaultPlan
from repro.serve.metrics import DaemonMetrics
from repro.serve.protocol import (
    DEADLINE_EXCEEDED,
    MALFORMED,
    OVERLOADED,
    POISONED,
    SESSION_LOST,
    SESSION_VERBS,
    decode_envelope,
    encode_envelope,
    wire_shape_key,
)
from repro.serve.requests import (
    EnforceResponse,
    _is_count,
    request_digest,
    response_to_dict,
    shard_digest,
)
from repro.serve.supervisor import TaskFailed, WorkerCrash, WorkerSlot
from repro.serve.worker import serve_message

#: How many crash-counting digests the poison tracker retains (LRU).
CRASH_TRACK_LIMIT = 1024

#: Socket read chunk for the bounded envelope reader.
READ_CHUNK = 64 * 1024

#: :class:`DaemonConfig`'s integer fields and the least value each takes.
_COUNT_FIELDS = (
    ("port", 0),
    ("workers", 1),
    ("queue_limit", 1),
    ("retries", 0),
    ("max_envelope_bytes", 1024),
    ("poison_budget", 1),
    ("reply_cache", 1),
)


def _is_seconds(value: Any, positive: bool) -> bool:
    """Whether ``value`` is a finite number of seconds (``bool``
    excluded), > 0 when ``positive`` and >= 0 otherwise."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and (value > 0 if positive else value >= 0)
    )


@dataclass(frozen=True)
class DaemonConfig:
    """How to run one :class:`EnforcementDaemon`.

    Exactly one of ``socket_path`` (UNIX socket) or ``host`` (TCP; with
    ``port``, 0 = ephemeral) must be set. ``queue_limit`` bounds each
    *shape's* queued + in-flight requests; ``deadline`` is the default
    per-request end-to-end budget (a request envelope may override it);
    ``retries`` is how often a request is resubmitted after a worker
    crash before it is dead-lettered.

    Robustness knobs: ``max_envelope_bytes`` bounds one incoming wire
    line (an oversized line is answered with a typed ``malformed``
    rejection and the connection survives); ``poison_budget`` is the
    restart-budget circuit breaker — a request whose digest kills that
    many workers is answered :data:`~repro.serve.protocol.POISONED` and
    quarantined instead of respawn-looping; ``reply_cache`` bounds the
    idempotency reply cache (entries are evicted oldest-first);
    ``faults`` is a :mod:`repro.serve.faults` spec string enabling
    seeded fault injection (``None`` falls back to the ``REPRO_FAULTS``
    environment variable; empty disables).
    """

    socket_path: str | None = None
    host: str | None = None
    port: int = 0
    workers: int = 2
    queue_limit: int = 64
    deadline: float = 60.0
    retries: int = 1
    max_envelope_bytes: int = 8 * 2**20
    poison_budget: int = 2
    reply_cache: int = 1024
    faults: str | None = None

    def validate(self) -> None:
        if (self.socket_path is None) == (self.host is None):
            raise ServeError(
                "daemon needs exactly one of socket_path or host"
            )
        for name, least in _COUNT_FIELDS:
            value = getattr(self, name)
            if not (_is_count(value) and value >= least):
                raise ServeError(
                    f"{name} must be an integer >= {least}, got {value!r}"
                )
        if not _is_seconds(self.deadline, positive=True):
            raise ServeError(f"deadline must be > 0, got {self.deadline}")
        FaultPlan.parse(self.faults)  # typo'd specs fail at config time


class _Rejected(Exception):
    """A typed admission rejection: ``outcome`` plus the error text."""

    def __init__(self, outcome: str, error: str) -> None:
        super().__init__(error)
        self.outcome = outcome


def _rejection(
    envelope_id, op: str, session, outcome: str, error: str
) -> dict:
    """The typed rejection reply to one envelope: an ``enforce-reply``
    for ``enforce``, a ``session-reply`` echoing op and session name for
    the session verbs."""
    if op == "enforce":
        reply = {"kind": "enforce-reply", "id": envelope_id}
    else:
        reply = {
            "kind": "session-reply",
            "id": envelope_id,
            "op": op,
            "session": session,
        }
    reply["outcome"] = outcome
    reply["error"] = error
    return reply


@dataclass
class _Item:
    """One accepted envelope (enforce or session verb), queued on its
    shape's worker slot."""

    envelope_id: Any
    #: The envelope's verb (= the payload's ``op``).
    op: str
    #: The worker message body: ``{"op": "enforce", "request": ...}`` or
    #: a session-op payload (``open``/``edit``/``ask``/``close``).
    payload: dict
    shape: str
    deadline_at: float
    accepted_at: float
    wedge: float | None
    future: asyncio.Future
    #: The delta-session name, for session verbs.
    session: str | None
    #: :func:`~repro.serve.requests.request_digest` — the request's
    #: cross-connection identity (poison tracking, fault targeting).
    #: Empty for session verbs (never poison-tracked, never faulted).
    digest: str
    #: The client's idempotency key, if the envelope carried one.
    idem: str | None
    attempts: int = 0


@dataclass
class _SessionRecord:
    """The daemon-side routing record of one delta session.

    The models (and the version DAG) live in the worker process; the
    daemon keeps only what routing needs: which shape (and so which
    worker slot) owns the session, and the slot's restart epoch at
    open time — a restarted worker loses every session it held, so a
    stale epoch means ``session-lost``.
    """

    name: str
    shape: str
    slot: int
    epoch: int


class EnforcementDaemon:
    """The resident enforcement server (module docstring has the map).

    Lifecycle: construct with a :class:`DaemonConfig`, ``await start()``,
    then either ``await wait_drained()`` (the server runs until
    :meth:`drain` — typically wired to SIGTERM via :func:`run_daemon`)
    or drive it from tests with a client and call :meth:`drain`
    directly. After drain, :attr:`final_metrics` holds the last
    snapshot.
    """

    def __init__(self, config: DaemonConfig) -> None:
        config.validate()
        self.config = config
        self.metrics = DaemonMetrics(workers=config.workers)
        # Fault injection: an explicit config spec wins; an unset config
        # falls back to the REPRO_FAULTS environment variable.
        plan = (
            FaultPlan.parse(config.faults)
            if config.faults is not None
            else FaultPlan.from_env()
        )
        self._injector = FaultInjector(plan) if plan is not None else None
        #: idempotency key -> final reply envelope (bounded, oldest out).
        self._replies: "OrderedDict[str, dict]" = OrderedDict()
        #: idempotency key -> the in-flight item a duplicate attaches to.
        self._pending_idem: dict[str, _Item] = {}
        #: request digest -> worker crashes it caused (bounded LRU).
        self._crashes: "OrderedDict[str, int]" = OrderedDict()
        self.address: str | tuple[str, int] | None = None
        self.final_metrics: dict | None = None
        self._started_at = 0.0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._slots: list[WorkerSlot] = []
        self._drainers: list[asyncio.Task] = []
        #: One FIFO of accepted items per worker slot (``None`` stops it).
        self._queues: list[asyncio.Queue] = []
        #: shape digest -> queued + in-flight items (the queue_limit gate).
        self._load: dict[str, int] = {}
        #: delta-session name -> routing record (models live in workers).
        self._sessions: dict[str, _SessionRecord] = {}
        self._connections: dict[asyncio.Task, Any] = {}
        self._pending = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._last_activity = time.monotonic()
        self._draining = False
        self._drained = asyncio.Event()
        self._drain_task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the socket and spawn workers + drainer tasks."""
        self._started_at = time.monotonic()
        self._loop = asyncio.get_running_loop()
        self._slots = [
            WorkerSlot(index)
            for index in range(self.config.workers)
        ]
        self._queues = [asyncio.Queue() for _ in self._slots]
        self._drainers = [
            asyncio.create_task(self._drain_slot(slot)) for slot in self._slots
        ]
        if self.config.socket_path is not None:
            path = str(self.config.socket_path)
            if os.path.exists(path):
                os.unlink(path)
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=path
            )
            self.address = path
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.config.host,
                port=self.config.port,
            )
            sockname = self._server.sockets[0].getsockname()
            self.address = (sockname[0], sockname[1])

    def request_drain(self) -> None:
        """Begin a graceful drain (idempotent; signal-handler safe).

        Must run on the daemon's loop thread — from another thread use
        ``loop.call_soon_threadsafe(daemon.request_drain)`` (which is
        what :meth:`DaemonHandle.drain` does).
        """
        if self._drain_task is None:
            assert self._loop is not None, "daemon not started"
            self._drain_task = self._loop.create_task(self.drain())

    async def drain(self) -> dict:
        """Stop accepting, flush in-flight work, emit final metrics."""
        if self._drained.is_set():
            return self.final_metrics or {}
        self._draining = True
        self.metrics.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Envelopes a client wrote before the drain began may still sit
        # unread in connection buffers, invisible to the pending count —
        # hanging up on the bare idle signal would drop them silently
        # (the request would get neither its answer nor a typed
        # rejection). Wait for queued + in-flight requests to flush AND
        # a quiet period with no socket reads; bounded, so a client
        # streaming envelopes at a draining daemon cannot stall the
        # shutdown forever.
        for _ in range(20):
            await self._idle.wait()
            await asyncio.sleep(0.05)
            if self._idle.is_set() and (
                time.monotonic() - self._last_activity >= 0.05
            ):
                break
        # Hang up lingering connections (their enforce work is done;
        # new envelopes would be rejected anyway) and wait for their
        # handlers, so loop teardown never cancels one mid-write.
        for writer in list(self._connections.values()):
            writer.close()
        if self._connections:
            await asyncio.gather(
                *list(self._connections), return_exceptions=True
            )
        for queue in self._queues:
            queue.put_nowait(None)  # drainer shutdown sentinel
        for task in self._drainers:
            await task
        for slot in self._slots:
            slot.stop()
        self.final_metrics = self._snapshot()
        self._drained.set()
        if (
            isinstance(self.address, str)
            and os.path.exists(self.address)
        ):  # pragma: no cover - fs cleanup
            try:
                os.unlink(self.address)
            except OSError:
                pass
        return self.final_metrics

    async def wait_drained(self) -> None:
        """Block until a drain (signal or :meth:`drain` call) completes."""
        await self._drained.wait()

    # ------------------------------------------------------------------
    # Connections (event-loop side; never touches model payloads)
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        lock = asyncio.Lock()  # replies interleave across request tasks
        tasks: set[asyncio.Task] = set()
        me = asyncio.current_task()
        assert me is not None
        self._connections[me] = writer
        self._last_activity = time.monotonic()
        # Explicit line framing (not reader.readline()): an envelope over
        # max_envelope_bytes must become one typed `malformed` reply on a
        # *surviving* connection, which asyncio's stream limit cannot do.
        limit = self.config.max_envelope_bytes
        oversized = f"envelope exceeds max_envelope_bytes ({limit})"
        buffer = bytearray()
        skipping = False  # discarding an oversized line's tail
        try:
            while True:
                chunk = await reader.read(READ_CHUNK)
                if not chunk:
                    break
                self._last_activity = time.monotonic()
                buffer.extend(chunk)
                while True:
                    newline = buffer.find(b"\n")
                    if newline < 0:
                        break
                    line = bytes(buffer[: newline + 1])
                    del buffer[: newline + 1]
                    if skipping:  # the oversized line ends here
                        skipping = False
                        continue
                    if len(line) > limit:
                        await self._malformed(writer, lock, oversized)
                        continue
                    await self._handle_envelope(line, writer, lock, tasks)
                if len(buffer) > limit and not skipping:
                    buffer.clear()
                    skipping = True
                    await self._malformed(writer, lock, oversized)
                elif skipping:
                    buffer.clear()  # still inside the oversized line
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            self._connections.pop(me, None)
            if tasks:  # replies for this connection's in-flight requests
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _malformed(self, writer, lock, error: str) -> None:
        """Answer an unreadable envelope with a typed ``malformed``."""
        self.metrics.malformed += 1
        await self._write(
            writer, lock,
            {"kind": "protocol-error", "id": None, "outcome": MALFORMED,
             "error": error},
        )

    async def _handle_envelope(self, line, writer, lock, tasks) -> None:
        try:
            envelope = decode_envelope(line)
        except ReproError as exc:
            await self._malformed(writer, lock, str(exc))
            return
        verb = envelope.get("verb")
        envelope_id = envelope.get("id")
        if verb == "health":
            await self._write(writer, lock, self._health_reply(envelope_id))
            return
        if verb == "metrics":
            await self._write(
                writer, lock,
                {"kind": "metrics-reply", "id": envelope_id,
                 "metrics": self._snapshot()},
            )
            return
        if verb != "enforce" and verb not in SESSION_VERBS:
            await self._write(
                writer, lock,
                {"kind": "protocol-error", "id": envelope_id,
                 "error": f"unknown verb {verb!r}"},
            )
            return
        accepted = self._accept(envelope, verb)
        if isinstance(accepted, dict):  # typed rejection or idem replay
            await self._write(writer, lock, accepted)
            return
        item, attached = accepted
        task = asyncio.create_task(
            self._reply_when_done(item, writer, lock, envelope_id, attached)
        )
        tasks.add(task)
        task.add_done_callback(tasks.discard)

    def _accept(self, envelope: dict, verb: str) -> dict | tuple[_Item, bool]:
        """Admit one enforce or session envelope onto its worker slot.

        Returns a reply dict (typed rejection or idempotent replay,
        answered inline), or ``(item, attached)`` — ``attached`` marks
        an idempotent duplicate riding an in-flight original's future,
        whose eventual reply must be restamped as a replay.

        The order of the gates matters. An idempotent resubmission is
        answered from the reply cache (or attached to its in-flight
        original) *before* any rejection gate, so a client retrying
        after a dropped connection gets the original answer even while
        the daemon drains or the shape is full. Quarantined digests are
        rejected before queue admission — a poison request never reaches
        a worker twice past its budget. Session verbs are stateful, so
        they get no idempotency (nor, later, retries, faults or poison
        tracking), and an ``open`` registers its session only once every
        gate has passed.
        """
        envelope_id = envelope.get("id")
        name = None if verb == "enforce" else envelope.get("session")
        idem = envelope.get("idem") if verb == "enforce" else None
        try:
            if idem is not None:
                if not isinstance(idem, str):
                    raise _Rejected("error", "idem key must be a string")
                cached = self._replies.get(idem)
                if cached is not None:
                    self._replies.move_to_end(idem)
                    self.metrics.idempotent_replays += 1
                    return dict(cached, id=envelope_id, replayed=True)
                original = self._pending_idem.get(idem)
                if original is not None:
                    self.metrics.idempotent_attached += 1
                    self._pending += 1
                    self._idle.clear()
                    return original, True  # a second waiter on its future
            for field, bound in (("deadline", ">"), ("wedge", ">=")):
                value = envelope.get(field)
                if value is not None and not _is_seconds(value, bound == ">"):
                    raise _Rejected(
                        "error",
                        f"field {field!r} must be a finite number {bound} 0 "
                        f"or null, got {value!r}",
                    )
            shape, payload = self._route(envelope, verb, name)
            slot = int(shape, 16) % len(self._slots)
            digest = ""
            if verb == "enforce":
                digest = request_digest(payload["request"])
                record = self.metrics.quarantined.get(digest)
                if record is not None:
                    record["rejected"] += 1
                    self.metrics.poisoned += 1
                    self.metrics.shape(shape, slot).poisoned += 1
                    raise _Rejected(
                        POISONED,
                        f"request {digest} is quarantined after "
                        f"{record['crashes']} worker crashes",
                    )
            if self._draining or (
                self._load.get(shape, 0) >= self.config.queue_limit
            ):
                self.metrics.overloaded += 1
                self.metrics.shape(shape, slot).overloaded += 1
                raise _Rejected(
                    OVERLOADED,
                    "daemon is draining" if self._draining else
                    f"shape {shape} queue is full "
                    f"({self.config.queue_limit} queued or in flight)",
                )
        except _Rejected as rejected:
            return _rejection(
                envelope_id, verb, name, rejected.outcome, str(rejected)
            )
        if verb == "open":
            self._sessions[name] = _SessionRecord(
                name=name, shape=shape, slot=slot,
                epoch=self._slots[slot].restarts,
            )
        now = time.monotonic()
        item = _Item(
            envelope_id=envelope_id,
            op=verb,
            payload=payload,
            shape=shape,
            deadline_at=now + (envelope.get("deadline") or self.config.deadline),
            accepted_at=now,
            wedge=envelope.get("wedge"),
            future=asyncio.get_running_loop().create_future(),
            session=name,
            digest=digest,
            idem=idem,
        )
        if idem is not None:
            self._pending_idem[idem] = item
        self.metrics.accepted += 1
        self._pending += 1
        self._idle.clear()
        self._load[shape] = self._load.get(shape, 0) + 1
        self._queues[slot].put_nowait(item)
        return item, False

    def _route(self, envelope: dict, verb: str, name) -> tuple[str, dict]:
        """The per-verb admission step: the shape digest and the worker
        payload (raises :class:`_Rejected`).

        ``enforce`` and ``open`` route by the shape of the carried
        request; ``open`` binds the session to that shape's slot for
        life, and every later verb of the session rides the *same* slot
        — per-session worker affinity, because the version DAG lives in
        that worker process. A session whose worker restarted since its
        ``open`` is gone: a typed
        :data:`~repro.serve.protocol.SESSION_LOST`, never a silent replay.
        """
        if verb == "enforce":
            request = envelope.get("request")
            return self._shape_of(request), {"op": verb, "request": request}
        if not isinstance(name, str) or not name:
            raise _Rejected(
                "error", "session verbs need a non-empty 'session' name"
            )
        record = self._sessions.get(name)
        if record is not None and (
            self._slots[record.slot].restarts != record.epoch
        ):
            del self._sessions[name]  # stale: its worker restarted
            self.metrics.sessions_lost += 1
            record = None
        if verb == "open":
            if record is not None:
                raise _Rejected(
                    "error", f"session {name!r} is already open; close it first"
                )
            request = envelope.get("request")
            return self._shape_of(request), {
                "op": verb, "session": name, "request": request,
            }
        if record is None:
            raise _Rejected(
                SESSION_LOST,
                f"no open session {name!r} (its worker may have "
                "restarted; reopen with a full tuple)",
            )
        payload = {"op": verb, "session": name}
        if verb == "edit":
            payload["parent"] = envelope.get("parent")
            payload["edits"] = envelope.get("edits")
        elif verb == "ask":
            payload["version"] = envelope.get("version")
            if "max_distance" in envelope:
                payload["max_distance"] = envelope["max_distance"]
        return record.shape, payload

    @staticmethod
    def _shape_of(request) -> str:
        try:
            return shard_digest(wire_shape_key(request))
        except ReproError as exc:
            raise _Rejected("error", str(exc)) from None

    async def _reply_when_done(
        self, item: _Item, writer, lock, envelope_id, attached: bool = False
    ) -> None:
        reply = await item.future
        if attached:
            # An idempotent duplicate attached to an in-flight original:
            # the shared future carries the original's id; restamp ours.
            reply = dict(reply, id=envelope_id, replayed=True)
        try:
            await self._write(writer, lock, reply, digest=item.digest)
        finally:
            # A request counts as pending until its reply is *written*
            # (not merely computed) — drain must not hang up a
            # connection that still owes the client an answer.
            self._pending -= 1
            if self._pending == 0:
                self._idle.set()

    async def _write(
        self, writer, lock, envelope: dict, digest: str | None = None
    ) -> None:
        # Wire-level fault sites fire only for enforce replies (callers
        # pass the request digest); health/metrics/protocol replies are
        # never fault-eligible, so a chaos daemon stays observable.
        injector = self._injector if digest else None
        async with lock:
            try:
                if writer.transport.is_closing():
                    return  # the client went away; the work is already done
                if injector is not None and injector.fires("conn-drop", digest):
                    writer.transport.abort()  # reply lost mid-pipeline
                    return
                data = encode_envelope(envelope)
                if injector is not None and injector.fires(
                    "corrupt-reply", digest
                ):
                    data = injector.corrupt(data)
                writer.write(data)
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass  # the client went away; the work is already done

    def _restart_slot(self, slot: WorkerSlot) -> None:
        """Kill + respawn one worker, invalidating its delta sessions.

        A worker's version DAGs die with the process: every session
        routed to this slot is dropped from the registry, so later verbs
        answer :data:`~repro.serve.protocol.SESSION_LOST` instead of
        landing on a fresh worker that has never heard of them.
        """
        slot.restart()
        self.metrics.worker_restarts += 1
        lost = [
            name
            for name, record in self._sessions.items()
            if record.slot == slot.index
        ]
        for name in lost:
            del self._sessions[name]
        self.metrics.sessions_lost += len(lost)

    def _health_reply(self, envelope_id) -> dict:
        queued, inflight = self._depths()
        return {
            "kind": "health-reply",
            "id": envelope_id,
            "status": "draining" if self._draining else "ok",
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "workers": len(self._slots),
            "queued": queued,
            "inflight": inflight,
            "sessions": len(self._sessions),
        }

    def _depths(self) -> tuple[int, int]:
        queued = sum(queue.qsize() for queue in self._queues)
        return queued, sum(self._load.values()) - queued

    def _snapshot(self) -> dict:
        queued, inflight = self._depths()
        return self.metrics.snapshot(
            uptime_s=time.monotonic() - self._started_at,
            queued=queued,
            inflight=inflight,
            faults=(
                self._injector.report() if self._injector is not None else None
            ),
            open_sessions=len(self._sessions),
        )

    # ------------------------------------------------------------------
    # Dispatch (one drainer task per worker slot)
    # ------------------------------------------------------------------
    async def _drain_slot(self, slot: WorkerSlot) -> None:
        queue = self._queues[slot.index]
        while True:
            item = await queue.get()
            if item is None:  # drain sentinel
                break
            try:
                if self._injector is not None:
                    delay = self._injector.stall("queue-stall", item.digest)
                    if delay:
                        await asyncio.sleep(delay)
                await self._dispatch(slot, item)
            finally:
                self._load[item.shape] -= 1
                if not self._load[item.shape]:
                    del self._load[item.shape]

    async def _dispatch(self, slot: WorkerSlot, item: _Item) -> None:
        metrics = self.metrics.shape(item.shape, slot.index)
        while True:
            now = time.monotonic()
            if now >= item.deadline_at:
                # Expired while queued: never reaches a worker.
                self._finish_deadline(item, metrics, "queue")
                return
            item.attempts += 1
            message = dict(item.payload)
            message["wedge"] = item.wedge
            if self._injector is not None and item.op == "enforce":
                # Draws happen here (the daemon's loop), never in workers —
                # a retry on a respawned worker must get a fresh roll.
                # Session verbs are never fault-targeted: they carry no
                # request digest and their state is not replayable.
                if self._injector.fires("crash-before", item.digest):
                    message["fault"] = "crash-before"
                elif self._injector.fires("crash-after", item.digest):
                    message["fault"] = "crash-after"
                stall = self._injector.stall("slow-solve", item.digest)
                if stall:
                    message["stall"] = stall
            try:
                reply = await slot.call(
                    serve_message, message, item.deadline_at - now
                )
            except TaskFailed as exc:
                # The worker survives any one request (programming errors
                # included); the request gets a typed error reply.
                reply = {
                    "response": response_to_dict(
                        EnforceResponse("error", error=f"worker failure: {exc}")
                    ),
                    "session": None,
                    "counters": None,
                }
            except asyncio.TimeoutError:
                # The worker is wedged (or the instance pathological): kill
                # it so the slot's next request proceeds on a fresh process.
                self._restart_slot(slot)
                self._finish_deadline(item, metrics, "worker")
                return
            except WorkerCrash as crash:
                self._restart_slot(slot)
                if item.op != "enforce":
                    # A session verb died with its worker — and so did the
                    # session's version DAG. No retry (the op may have half
                    # happened; session state is not idempotent): answer
                    # the typed loss and let the client reopen.
                    self._dead_letter(
                        item, SESSION_LOST, str(crash), SESSION_LOST,
                        f"{crash}; session {item.session!r} lost "
                        "(reopen with a full tuple)",
                    )
                    return
                crashes = self._crashes.get(item.digest, 0) + 1
                self._crashes[item.digest] = crashes
                self._crashes.move_to_end(item.digest)
                while len(self._crashes) > CRASH_TRACK_LIMIT:
                    self._crashes.popitem(last=False)
                if crashes >= self.config.poison_budget:
                    # Restart-budget circuit breaker: this request is what
                    # kills workers. Quarantine its digest — resubmissions
                    # are rejected at accept, siblings keep answering.
                    self.metrics.quarantine(
                        item.digest, item.shape, crashes, str(crash)
                    )
                    self.metrics.poisoned += 1
                    metrics.poisoned += 1
                    self._dead_letter(
                        item, "poisoned", str(crash), POISONED,
                        f"poisoned: request {item.digest} killed its "
                        f"worker {crashes} times; quarantined",
                    )
                    return
                if item.attempts <= self.config.retries:
                    # Retry immediately on the respawned worker, before the
                    # slot moves on. Re-queueing at the back of the slot's
                    # FIFO would defer this item behind other shapes
                    # whose dispatch can restart the worker again — leaving
                    # it to re-ground on a cold session and (legitimately)
                    # pick a different equal-cost optimum than the warm
                    # queue prefix would have.
                    self.metrics.retries += 1
                    continue
                self._dead_letter(
                    item, "worker-crashed", str(crash), "error",
                    f"{crash} ({item.attempts} attempts)",
                )
                return
            break
        # An answered request clears its crash history: the poison
        # budget counts *consecutive* worker kills, so a transiently
        # unlucky digest does not accumulate toward quarantine forever.
        if item.digest:
            self._crashes.pop(item.digest, None)
        elapsed = time.monotonic() - item.accepted_at
        counters = reply.get("counters")
        if counters is not None:
            self.metrics.worker_counters[slot.index] = counters
        control = reply.get("control")
        if control is not None:
            self._finish_control(item, metrics, control, elapsed)
            return
        session = reply.get("session") or {}
        response = reply.get("response") or {}
        outcome = response.get("outcome", "error")
        self.metrics.observe_reply(
            metrics,
            elapsed,
            grounded=bool(session.get("grounded")),
            ok=outcome in ("consistent", "repaired", "no-repair"),
        )
        if item.op == "ask":
            self.metrics.delta_asks += 1
        self._resolve(
            item,
            {
                "kind": "enforce-reply",
                "id": item.envelope_id,
                "outcome": outcome,
                "elapsed_ms": round(elapsed * 1e3, 3),
                "response": response,
            },
        )

    def _finish_control(
        self, item: _Item, metrics, control: dict, elapsed: float
    ) -> None:
        """Turn a worker session-op control reply into a session-reply.

        Registry bookkeeping happens here, on the *confirmed* worker
        answer: a failed ``open`` rolls its record back, ``close`` and a
        worker-side ``session-lost`` drop the record.
        """
        error = control.get("error")
        if error is None:
            outcome = "ok"
        elif control.get("code") == SESSION_LOST:
            outcome = SESSION_LOST
        else:
            outcome = "error"
        record = self._sessions.get(item.session or "")
        if item.op == "open":
            if outcome == "ok":
                self.metrics.sessions_opened += 1
            elif record is not None:
                del self._sessions[item.session]
        elif item.op == "edit" and outcome == "ok":
            self.metrics.delta_edits += 1
        elif item.op == "close" and outcome == "ok":
            self.metrics.sessions_closed += 1
            if record is not None:
                del self._sessions[item.session]
        if outcome == SESSION_LOST and record is not None:
            # The worker's bounded cache evicted it (the registry thought
            # it was alive): drop the record so the client's reopen works.
            del self._sessions[item.session]
            self.metrics.sessions_lost += 1
        self.metrics.observe_reply(
            metrics, elapsed, grounded=False, ok=outcome == "ok"
        )
        envelope = {
            "kind": "session-reply",
            "id": item.envelope_id,
            "op": item.op,
            "session": item.session,
            "outcome": outcome,
            "elapsed_ms": round(elapsed * 1e3, 3),
        }
        for field in ("version", "parent", "versions"):
            if field in control:
                envelope[field] = control[field]
        if error is not None:
            envelope["error"] = error
        self._resolve(item, envelope)

    def _finish_deadline(self, item: _Item, metrics, where: str) -> None:
        elapsed = time.monotonic() - item.accepted_at
        self.metrics.deadline_exceeded += 1
        metrics.deadline_exceeded += 1
        error = (
            f"deadline exceeded after {elapsed:.3f}s "
            f"({'expired in queue' if where == 'queue' else 'worker killed'})"
        )
        self._dead_letter(
            item, f"deadline-{where}", error, DEADLINE_EXCEEDED, error
        )

    def _dead_letter(
        self, item: _Item, reason: str, detail: str, outcome: str, error: str
    ) -> None:
        """Record ``item`` in the bounded dead-letter log (``reason``,
        ``detail``) and answer it with a typed ``outcome`` rejection.

        A dead-lettered ``open`` leaves no session in any worker, so its
        routing record goes too.
        """
        if item.op == "open":
            self._sessions.pop(item.session, None)
        self.metrics.dead_letter(
            item.shape, item.envelope_id, reason, detail,
            time.monotonic() - item.accepted_at, item.attempts,
        )
        self._resolve(
            item,
            _rejection(item.envelope_id, item.op, item.session, outcome, error),
        )

    def _resolve(self, item: _Item, reply: dict) -> None:
        if item.idem is not None:
            # The reply is cached *before* it is written: a client whose
            # connection drops mid-reply can resubmit the same key and
            # get this answer back without a second solve.
            self._pending_idem.pop(item.idem, None)
            self._replies[item.idem] = reply
            while len(self._replies) > self.config.reply_cache:
                self._replies.popitem(last=False)
        if not item.future.done():  # pragma: no branch
            item.future.set_result(reply)


def run_daemon(config: DaemonConfig) -> dict:
    """Run a daemon until SIGTERM/SIGINT drains it; returns final metrics.

    The blocking entry point behind ``repro-echo daemon``: binds,
    prints one ``listening`` line (JSON, machine-readable) to stdout,
    installs signal handlers for graceful drain, serves, and on drain
    prints the final metrics snapshot to stdout before returning it.
    """

    async def _amain() -> dict:
        daemon = EnforcementDaemon(config)
        await daemon.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, daemon.request_drain)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-main thread or exotic platform: drain via API
        address = (
            daemon.address
            if isinstance(daemon.address, str)
            else list(daemon.address)
        )
        print(
            json.dumps(
                {"listening": address, "workers": config.workers, "pid": os.getpid()}
            ),
            flush=True,
        )
        await daemon.wait_drained()
        print(json.dumps({"final_metrics": daemon.final_metrics}), flush=True)
        return daemon.final_metrics or {}

    return asyncio.run(_amain())


class DaemonHandle:
    """A daemon running on a background thread's event loop.

    The harness behind the tests and benchmarks: the caller keeps
    its own (blocking) thread and talks to the daemon through a
    :class:`~repro.serve.protocol.DaemonClient` on :attr:`address`.
    :meth:`drain` is the graceful shutdown, returning final metrics.
    """

    def __init__(
        self,
        daemon: EnforcementDaemon,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.daemon = daemon
        self.loop = loop
        self.thread = thread

    @property
    def address(self) -> str | tuple[str, int]:
        assert self.daemon.address is not None
        return self.daemon.address

    def drain(self, timeout: float = 120.0) -> dict:
        """Drain the daemon, join its thread, return final metrics."""
        future = asyncio.run_coroutine_threadsafe(
            self.daemon.drain(), self.loop
        )
        metrics = future.result(timeout)
        self.thread.join(timeout=30)
        return metrics


def run_in_thread(
    config: DaemonConfig, startup_timeout: float = 30.0
) -> DaemonHandle:
    """Start a daemon on a background thread; returns once it listens.

    Signal handlers are *not* installed (they belong to the main
    thread's daemon, :func:`run_daemon`); drain through the handle.
    """
    started = threading.Event()
    box: dict = {}

    async def _amain() -> None:
        try:
            daemon = EnforcementDaemon(config)
            await daemon.start()
        except BaseException as exc:
            box["error"] = exc
            started.set()
            raise
        box["daemon"] = daemon
        box["loop"] = asyncio.get_running_loop()
        started.set()
        await daemon.wait_drained()

    def _thread_main() -> None:
        try:
            asyncio.run(_amain())
        except BaseException:  # surfaced via box["error"] if pre-start
            if not started.is_set():  # pragma: no cover - race backstop
                started.set()

    thread = threading.Thread(
        target=_thread_main, name="repro-daemon", daemon=True
    )
    thread.start()
    if not started.wait(startup_timeout):  # pragma: no cover
        raise ServeError("daemon did not start listening in time")
    error = box.get("error")
    if error is not None:
        thread.join(timeout=10)
        raise error
    return DaemonHandle(box["daemon"], box["loop"], thread)
