"""Tests for the long-lived enforcement daemon (:mod:`repro.serve.daemon`).

The full lifecycle, against a real daemon on a real UNIX socket (one
per test, via :func:`repro.serve.daemon.run_in_thread`):

* **health/metrics verbs** — liveness, queue depths, snapshot shape;
* **warm-shape reuse** — the daemon's whole point: a shape grounds once,
  *ever*, across batches and connections (the batch service grounds
  once per batch);
* **equivalence** — daemon answers bit-identical to
  :func:`~repro.serve.serve_batch` on the same request stream;
* **deadlines** — a wedged request gets a typed ``deadline-exceeded``
  reply within its budget, is dead-lettered, and the daemon keeps
  serving (worker killed and respawned);
* **backpressure** — requests over a shape's bounded queue get typed
  ``overloaded`` rejections instead of queueing without bound;
* **drain** — in-flight work completes and is delivered, new work is
  rejected, the final metrics snapshot survives.

The ``wedge`` protocol field (worker sleeps before answering) stands in
for a pathologically slow instance; it makes the deadline and
backpressure paths deterministic.
"""

import json
import socket
import threading
import time

import pytest

from repro.enforce.session import clear_shared_sessions
from repro.errors import (
    DaemonConnectionError,
    SerializationError,
    ServeError,
)
from repro.gen import random_scenario, scenario_requests
from repro.serve import (
    DEADLINE_EXCEEDED,
    MALFORMED,
    OVERLOADED,
    POISONED,
    REPAIRED,
    DaemonClient,
    DaemonConfig,
    DaemonMetrics,
    EnforceRequest,
    RetryingClient,
    request_digest,
    request_to_dict,
    reset_worker_state,
    serve_batch,
    shape_key,
)
from repro.serve.daemon import run_in_thread
from repro.serve.protocol import decode_envelope, wire_shape_key
from repro.featuremodels import (
    configuration,
    feature_model,
    paper_transformation,
)
from repro.metamodel.serialize import canonical_text


@pytest.fixture(autouse=True)
def _isolate_session_caches():
    clear_shared_sessions()
    reset_worker_state()
    yield
    clear_shared_sessions()
    reset_worker_state()


def paper_request(**overrides) -> EnforceRequest:
    """The paper's flipped-'log' repair question (one fixed shape)."""
    models = {
        "fm": feature_model({"core": True, "log": True}),
        "cf1": configuration(["core", "log"], name="cf1"),
        "cf2": configuration(["core"], name="cf2"),
    }
    settings = dict(targets=["cf1", "cf2"], semantics="extended")
    settings.update(overrides)
    return EnforceRequest.build(paper_transformation(2), models, **settings)


def paper_trio() -> list[EnforceRequest]:
    """Three paper questions on one shape: both directions and a weight."""
    return [
        paper_request(),
        paper_request(targets=["fm"]),
        paper_request(weights={"cf1": 2}),
    ]


def generated_stream() -> list[EnforceRequest]:
    """Generated scenarios 0-11, six same-shape requests each: twelve
    shapes sharing the daemon's two worker slots."""
    requests = []
    for seed in range(12):
        requests.extend(scenario_requests(random_scenario(seed), rounds=6))
    return requests


def response_fingerprint(response):
    return (
        response.outcome,
        response.distance,
        tuple(sorted(response.changed)),
        tuple(
            (param, canonical_text(model))
            for param, model in sorted(response.models.items())
        ),
    )


@pytest.fixture()
def daemon(tmp_path):
    """A running daemon on a UNIX socket; drained at teardown."""
    handle = run_in_thread(
        DaemonConfig(
            socket_path=str(tmp_path / "daemon.sock"),
            workers=2,
            queue_limit=8,
            deadline=60.0,
        )
    )
    yield handle
    if not handle.daemon._drained.is_set():
        handle.drain()


def connect(handle) -> DaemonClient:
    return DaemonClient.connect(path=handle.address)


def _wait_accepted(handle, count: int, timeout: float = 10.0) -> None:
    """Block until the daemon has accepted ``count`` requests."""
    import time as _time

    deadline = _time.monotonic() + timeout
    while handle.daemon.metrics.accepted < count:
        if _time.monotonic() >= deadline:  # pragma: no cover
            raise AssertionError(
                f"daemon accepted {handle.daemon.metrics.accepted} "
                f"requests, wanted {count}"
            )
        _time.sleep(0.005)


class TestVerbs:
    def test_health(self, daemon):
        with connect(daemon) as client:
            report = client.health()
        assert report["kind"] == "health-reply"
        assert report["status"] == "ok"
        assert report["workers"] == 2
        assert report["queued"] == 0 and report["inflight"] == 0
        assert report["uptime_s"] >= 0

    def test_metrics_shape(self, daemon):
        with connect(daemon) as client:
            snapshot = client.metrics()
        assert snapshot["workers"] == 2
        assert snapshot["totals"]["accepted"] == 0
        assert snapshot["shapes"] == {}
        assert snapshot["dead_letters"] == []
        assert snapshot["latency"]["count"] == 0

    def test_unknown_verb_is_protocol_error(self, daemon):
        with connect(daemon) as client:
            reply = client.call({"verb": "dance"})
        assert reply["kind"] == "protocol-error"
        assert "dance" in reply["error"]

    def test_undecodable_line_is_protocol_error(self, daemon):
        path = daemon.address
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(30)
            sock.connect(path)
            sock.sendall(b"this is not json\n")
            reply = decode_envelope(sock.makefile("rb").readline())
        assert reply["kind"] == "protocol-error"

    def test_malformed_enforce_request_is_typed_error(self, daemon):
        with connect(daemon) as client:
            reply = client.call({"verb": "enforce", "request": {"nope": 1}})
        assert reply["kind"] == "enforce-reply"
        assert reply["outcome"] == "error"


class TestEnforce:
    def test_single_request_repairs(self, daemon):
        with connect(daemon) as client:
            response = client.enforce(paper_request())
        assert response.outcome == "repaired"
        assert response.distance >= 1
        assert response.changed

    @pytest.mark.parametrize(
        "build", [paper_trio, generated_stream], ids=["paper", "generated"]
    )
    def test_matches_serve_batch_bit_for_bit(self, daemon, build):
        requests = build()
        baseline = serve_batch(requests, workers=2)
        # the stream must exercise repairs, not only hippocratic answers
        assert baseline.outcomes().get(REPAIRED, 0) > 0
        with connect(daemon) as client:
            responses = client.enforce_many(requests)
        assert [response_fingerprint(r) for r in responses] == [
            response_fingerprint(r) for r in baseline.responses
        ]

    def test_shape_grounds_once_across_batches(self, daemon):
        """The tentpole property: cross-batch session reuse.

        Two separate batches (even over two connections) of one shape
        must pay exactly one grounding — the second batch is all warm
        hits, where ``serve_batch`` would ground again in its fresh
        pool.
        """
        requests = [paper_request() for _ in range(3)]
        with connect(daemon) as client:
            client.enforce_many(requests)
        with connect(daemon) as client:
            client.enforce_many(requests)
            snapshot = client.metrics()
        (shape,) = snapshot["shapes"].values()
        assert shape["requests"] == 6
        assert shape["misses"] == 1
        assert shape["hits"] == 5
        assert snapshot["sessions"]["groundings"] == 1

    def test_two_shapes_sharing_one_slot_match_serve_batch(self, tmp_path):
        """Interleaved shapes A1 B1 A2 B2 A3 B3 on a one-worker daemon
        (so both shapes share its only slot) answer bit for bit like
        ``serve_batch`` on the same list."""
        fm = feature_model({"core": True, "log": True})
        selections = (["core"], [], ["core", "log"])
        requests = []
        for selection in selections:
            models = {
                "fm": fm,
                "cf1": configuration(["core", "log"], name="cf1"),
                "cf2": configuration(selection, name="cf2"),
            }
            for weights in ({}, {"cf1": 2}):
                requests.append(
                    EnforceRequest.build(
                        paper_transformation(2), models,
                        targets=["cf1", "cf2"], weights=weights,
                    )
                )
        assert len({shape_key(r) for r in requests}) == 2
        baseline = serve_batch(requests, workers=1)
        handle = run_in_thread(
            DaemonConfig(socket_path=str(tmp_path / "one.sock"), workers=1)
        )
        try:
            with connect(handle) as client:
                responses = client.enforce_many(requests)
        finally:
            handle.drain()
        assert [response_fingerprint(r) for r in responses] == [
            response_fingerprint(r) for r in baseline.responses
        ]

    def test_routing_agrees_with_live_shape_key(self):
        request = paper_request(weights={"cf1": 2})
        assert wire_shape_key(request_to_dict(request)) == shape_key(request)


class TestDeadlines:
    def test_wedged_request_gets_typed_reply_within_deadline(self, daemon):
        import time

        with connect(daemon) as client:
            started = time.monotonic()
            response = client.enforce(paper_request(), deadline=0.5, wedge=30.0)
            elapsed = time.monotonic() - started
        assert response.outcome == DEADLINE_EXCEEDED
        assert "deadline" in response.error
        assert elapsed < 10  # answered near the 0.5s budget, not the wedge

    def test_wedge_is_dead_lettered_and_daemon_recovers(self, daemon):
        with connect(daemon) as client:
            client.enforce(paper_request(), deadline=0.5, wedge=30.0)
            # The wedged worker was killed; the next same-shape request
            # must still be answered (fresh process, re-grounds).
            response = client.enforce(paper_request())
            snapshot = client.metrics()
        assert response.outcome == "repaired"
        assert snapshot["totals"]["deadline_exceeded"] == 1
        assert snapshot["totals"]["worker_restarts"] == 1
        (record,) = snapshot["dead_letters"]
        assert record["reason"] == "deadline-worker"
        assert record["attempts"] == 1

    def test_rest_of_batch_completes_around_a_wedge(self, daemon):
        """One wedged request must not take the batch down with it."""
        requests = [paper_request() for _ in range(3)]
        with connect(daemon) as client:
            ids = [
                client.send(
                    {
                        "verb": "enforce",
                        "request": request_to_dict(request),
                        "deadline": 0.5 if index == 1 else 60.0,
                        **({"wedge": 30.0} if index == 1 else {}),
                    }
                )
                for index, request in enumerate(requests)
            ]
            replies = {}
            while len(replies) < len(ids):
                reply = client.recv()
                replies[reply["id"]] = reply
        assert replies[ids[0]]["outcome"] == "repaired"
        assert replies[ids[1]]["outcome"] == DEADLINE_EXCEEDED
        assert replies[ids[2]]["outcome"] == "repaired"


class TestBackpressure:
    def test_over_limit_requests_are_rejected_typed(self, tmp_path):
        handle = run_in_thread(
            DaemonConfig(
                socket_path=str(tmp_path / "bp.sock"),
                workers=1,
                queue_limit=1,
                deadline=60.0,
            )
        )
        try:
            with connect(handle) as client:
                # Occupy the only worker (and the whole shape budget).
                wedged_id = client.send(
                    {
                        "verb": "enforce",
                        "request": request_to_dict(paper_request()),
                        "wedge": 3.0,
                    }
                )
                # Immediate typed rejection — no unbounded queueing.
                rejected = client.call(
                    {
                        "verb": "enforce",
                        "request": request_to_dict(paper_request()),
                    }
                )
                assert rejected["outcome"] == OVERLOADED
                assert "queue is full" in rejected["error"]
                # The occupant itself still completes.
                while True:
                    reply = client.recv()
                    if reply["id"] == wedged_id:
                        break
                assert reply["outcome"] == "repaired"
                snapshot = client.metrics()
            assert snapshot["totals"]["overloaded"] == 1
            (shape,) = snapshot["shapes"].values()
            assert shape["overloaded"] == 1
        finally:
            handle.drain()


class TestDrain:
    def test_drain_completes_inflight_and_rejects_new(self, tmp_path):
        import threading

        handle = run_in_thread(
            DaemonConfig(
                socket_path=str(tmp_path / "drain.sock"),
                workers=1,
                queue_limit=8,
                deadline=60.0,
            )
        )
        client = connect(handle)
        inflight_id = client.send(
            {
                "verb": "enforce",
                "request": request_to_dict(paper_request()),
                "wedge": 1.0,
            }
        )
        # Wait until the daemon has *accepted* the request before
        # draining: the guarantee under test is accepted-then-served.
        # An envelope still unread when the drain begins is typed-
        # rejected as draining instead — either way, never dropped.
        _wait_accepted(handle, 1)
        drained: dict = {}
        drainer = threading.Thread(
            target=lambda: drained.update(handle.drain())
        )
        drainer.start()
        # The in-flight request is delivered despite the drain.
        reply = client.recv()
        assert reply["id"] == inflight_id
        assert reply["outcome"] == "repaired"
        drainer.join(timeout=60)
        assert not drainer.is_alive()
        assert drained["totals"]["completed"] == 1
        assert drained["draining"] is True
        # The socket is gone: new connections fail.
        with pytest.raises((ServeError, OSError)):
            DaemonClient.connect(path=handle.address).health()

    def test_new_requests_rejected_while_draining(self, tmp_path):
        """An enforce envelope on a live connection during drain gets a
        typed ``overloaded`` rejection, not silence."""
        import threading

        handle = run_in_thread(
            DaemonConfig(
                socket_path=str(tmp_path / "drain2.sock"),
                workers=1,
                queue_limit=8,
                deadline=60.0,
            )
        )
        client = connect(handle)
        inflight_id = client.send(
            {
                "verb": "enforce",
                "request": request_to_dict(paper_request()),
                "wedge": 2.0,
            }
        )
        _wait_accepted(handle, 1)
        drainer = threading.Thread(target=handle.drain)
        drainer.start()
        # Wait for the drain to take effect, then submit on the still-
        # open connection.
        deadline_id = None
        import time

        for _ in range(100):
            time.sleep(0.05)
            if handle.daemon.metrics.draining:
                deadline_id = client.send(
                    {
                        "verb": "enforce",
                        "request": request_to_dict(paper_request()),
                    }
                )
                break
        assert deadline_id is not None
        replies = {}
        while len(replies) < 2:
            reply = client.recv()
            replies[reply["id"]] = reply
        assert replies[inflight_id]["outcome"] == "repaired"
        assert replies[deadline_id]["outcome"] == OVERLOADED
        assert "draining" in replies[deadline_id]["error"]
        drainer.join(timeout=60)
        assert not drainer.is_alive()


class TestConfig:
    def test_needs_exactly_one_endpoint(self):
        with pytest.raises(ServeError, match="exactly one"):
            DaemonConfig().validate()
        with pytest.raises(ServeError, match="exactly one"):
            DaemonConfig(socket_path="/tmp/x", host="127.0.0.1").validate()

    @pytest.mark.parametrize(
        "bad",
        [
            {"workers": 0},
            {"queue_limit": 0},
            {"deadline": 0},
            {"deadline": -1.0},
            {"deadline": float("nan")},
            {"deadline": True},
            {"retries": -1},
            {"workers": True},
            {"queue_limit": 2.5},
            {"poison_budget": 1.5},
            {"reply_cache": True},
            {"max_envelope_bytes": 4096.0},
            {"port": -1},
        ],
    )
    def test_rejects_bad_numbers(self, bad):
        (field,) = bad
        with pytest.raises(ServeError, match=field):
            DaemonConfig(socket_path="/tmp/x", **bad).validate()

    def test_tcp_endpoint(self):
        handle = run_in_thread(
            DaemonConfig(host="127.0.0.1", port=0, workers=1)
        )
        try:
            host, port = handle.address
            with DaemonClient.connect(host=host, port=port) as client:
                assert client.health()["status"] == "ok"
        finally:
            handle.drain()


def run_config(tmp_path, name="robust.sock", **overrides):
    """A daemon handle on a fresh socket with config overrides."""
    settings = dict(
        socket_path=str(tmp_path / name), workers=2, queue_limit=8,
        deadline=60.0,
    )
    settings.update(overrides)
    return run_in_thread(DaemonConfig(**settings))


class TestEnvelopeBounds:
    def test_oversized_line_is_typed_malformed_and_connection_survives(
        self, tmp_path
    ):
        handle = run_config(tmp_path, max_envelope_bytes=2048)
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.settimeout(30)
                sock.connect(handle.address)
                reader = sock.makefile("rb")
                sock.sendall(b"x" * 5000 + b"\n")
                reply = decode_envelope(reader.readline())
                assert reply["kind"] == "protocol-error"
                assert reply["outcome"] == MALFORMED
                assert "max_envelope_bytes" in reply["error"]
                # Same connection, next envelope: business as usual.
                sock.sendall(b'{"verb": "health", "id": 1}\n')
                health = decode_envelope(reader.readline())
                assert health["kind"] == "health-reply"
                assert health["status"] == "ok"
            metrics = handle.drain()
            assert metrics["totals"]["malformed"] == 1
        finally:
            if not handle.daemon._drained.is_set():
                handle.drain()

    def test_oversized_line_larger_than_read_chunks(self, tmp_path):
        """An envelope streamed in over many reads (no newline yet) is
        rejected as soon as the buffer exceeds the bound, and the tail
        is discarded without poisoning the next line."""
        handle = run_config(tmp_path, max_envelope_bytes=4096)
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.settimeout(30)
                sock.connect(handle.address)
                reader = sock.makefile("rb")
                sock.sendall(b"y" * 300_000)  # an unterminated monster
                reply = decode_envelope(reader.readline())
                assert reply["outcome"] == MALFORMED
                sock.sendall(b"z" * 100 + b"\n")  # the monster's tail ends
                sock.sendall(b'{"verb": "health", "id": 2}\n')
                health = decode_envelope(reader.readline())
                assert health["kind"] == "health-reply"
        finally:
            handle.drain()

    def test_undecodable_line_counts_as_malformed(self, daemon):
        path = daemon.address
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(30)
            sock.connect(path)
            sock.sendall(b"not json at all\n")
            reply = decode_envelope(sock.makefile("rb").readline())
        assert reply["outcome"] == MALFORMED
        with connect(daemon) as client:
            assert client.metrics()["totals"]["malformed"] == 1

    def test_config_rejects_tiny_bound(self):
        with pytest.raises(ServeError, match="max_envelope_bytes"):
            DaemonConfig(socket_path="/tmp/x", max_envelope_bytes=10).validate()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("deadline", "soon"),
            ("deadline", []),
            ("deadline", "5"),
            ("deadline", True),
            ("deadline", -1),
            ("deadline", 0),
            ("deadline", float("inf")),
            ("wedge", "soon"),
            ("wedge", -1),
            ("wedge", False),
            ("wedge", {}),
        ],
    )
    def test_bad_budget_field_is_typed_and_connection_survives(
        self, daemon, field, value
    ):
        with connect(daemon) as client:
            reply = client.call(
                {
                    "verb": "enforce",
                    "request": request_to_dict(paper_request()),
                    field: value,
                }
            )
            assert reply["kind"] == "enforce-reply"
            assert reply["outcome"] == "error"
            assert f"field {field!r}" in reply["error"]
            health = client.health()
        assert health["status"] == "ok"
        assert health["queued"] == 0 and health["inflight"] == 0
        assert daemon.daemon.metrics.accepted == 0

    def test_integer_deadline_and_zero_wedge_are_accepted(self, daemon):
        with connect(daemon) as client:
            reply = client.call(
                {
                    "verb": "enforce",
                    "request": request_to_dict(paper_request()),
                    "deadline": 30,
                    "wedge": 0,
                }
            )
        assert reply["outcome"] == "repaired"


class TestIdempotency:
    def test_resubmitted_key_replays_without_resolving(self, daemon):
        wire = request_to_dict(paper_request())
        with connect(daemon) as client:
            first = client.call(
                {"verb": "enforce", "request": wire, "idem": "k1"}
            )
            second = client.call(
                {"verb": "enforce", "request": wire, "idem": "k1"}
            )
            snapshot = client.metrics()
        assert first["outcome"] == "repaired"
        assert "replayed" not in first
        assert second["outcome"] == "repaired"
        assert second["replayed"] is True
        assert second["response"] == first["response"]
        assert snapshot["totals"]["accepted"] == 1
        assert snapshot["totals"]["completed"] == 1
        assert snapshot["totals"]["idempotent_replays"] == 1
        assert snapshot["sessions"]["groundings"] == 1

    def test_replay_survives_a_reconnect(self, daemon):
        wire = request_to_dict(paper_request())
        with connect(daemon) as client:
            first = client.call(
                {"verb": "enforce", "request": wire, "idem": "k2"}
            )
        with connect(daemon) as client:  # a brand-new connection
            second = client.call(
                {"verb": "enforce", "request": wire, "idem": "k2"}
            )
        assert second["replayed"] is True
        assert second["response"] == first["response"]

    def test_inflight_duplicate_attaches_instead_of_resolving(self, daemon):
        wire = request_to_dict(paper_request())
        first = connect(daemon)
        second = connect(daemon)
        try:
            id_a = first.send(
                {"verb": "enforce", "request": wire, "idem": "k3",
                 "wedge": 1.0}
            )
            time.sleep(0.2)  # let the daemon accept the original
            id_b = second.send(
                {"verb": "enforce", "request": wire, "idem": "k3"}
            )
            reply_a = first.recv()
            reply_b = second.recv()
            with connect(daemon) as observer:
                snapshot = observer.metrics()
        finally:
            first.close()
            second.close()
        assert reply_a["id"] == id_a and reply_a["outcome"] == "repaired"
        assert reply_b["id"] == id_b and reply_b["outcome"] == "repaired"
        assert reply_b["replayed"] is True
        assert reply_b["response"] == reply_a["response"]
        assert snapshot["totals"]["accepted"] == 1
        assert snapshot["totals"]["idempotent_attached"] == 1

    def test_non_string_key_is_typed_error(self, daemon):
        with connect(daemon) as client:
            reply = client.call(
                {"verb": "enforce",
                 "request": request_to_dict(paper_request()), "idem": 7}
            )
        assert reply["outcome"] == "error"
        assert "idem" in reply["error"]


class TestInjectedCrashes:
    def test_crash_before_is_retried_once_and_answered(self, tmp_path):
        handle = run_config(
            tmp_path, faults="seed=3;crash-before:rate=1,max=1"
        )
        try:
            with DaemonClient.connect(path=handle.address) as client:
                response = client.enforce(paper_request())
                snapshot = client.metrics()
            assert response.outcome == "repaired"
            assert snapshot["totals"]["worker_restarts"] == 1
            assert snapshot["totals"]["retries"] == 1
            assert snapshot["faults"]["crash-before"]["fired"] == 1
        finally:
            handle.drain()

    def test_crash_after_loses_the_computed_answer_then_recovers(
        self, tmp_path
    ):
        handle = run_config(
            tmp_path, faults="seed=3;crash-after:rate=1,max=1"
        )
        try:
            with DaemonClient.connect(path=handle.address) as client:
                response = client.enforce(paper_request())
                snapshot = client.metrics()
            assert response.outcome == "repaired"
            assert snapshot["totals"]["worker_restarts"] == 1
        finally:
            handle.drain()

    def test_crash_retry_under_concurrent_connections(self, tmp_path):
        """Two clients race while one injected crash hits; every request
        still gets exactly one answer and verdicts stay right."""
        handle = run_config(
            tmp_path, faults="seed=5;crash-before:rate=1,max=1"
        )
        results: dict[int, object] = {}

        def worker(slot: int) -> None:
            with DaemonClient.connect(path=handle.address) as client:
                results[slot] = client.enforce(paper_request())

        try:
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert sorted(results) == [0, 1]
            assert all(r.outcome == "repaired" for r in results.values())
            with DaemonClient.connect(path=handle.address) as client:
                snapshot = client.metrics()
            assert snapshot["totals"]["worker_restarts"] == 1
            assert snapshot["totals"]["completed"] == 2
        finally:
            handle.drain()

    def test_slow_solve_and_queue_stall_only_delay(self, tmp_path):
        handle = run_config(
            tmp_path,
            faults="slow-solve:rate=1,delay=0.01;queue-stall:rate=1,delay=0.01",
        )
        try:
            with DaemonClient.connect(path=handle.address) as client:
                response = client.enforce(paper_request())
                snapshot = client.metrics()
            assert response.outcome == "repaired"
            assert snapshot["faults"]["slow-solve"]["fired"] >= 1
            assert snapshot["faults"]["queue-stall"]["fired"] >= 1
        finally:
            handle.drain()


class TestPoisonQuarantine:
    def test_poison_request_is_quarantined_within_budget(self, tmp_path):
        request = paper_request()
        sibling = paper_request(targets=["fm"])
        digest = request_digest(request_to_dict(request))
        handle = run_config(
            tmp_path,
            faults=f"crash-before:rate=1,match={digest}",
            poison_budget=2,
            retries=1,
        )
        try:
            with DaemonClient.connect(path=handle.address) as client:
                poisoned = client.enforce(request)
                assert poisoned.outcome == POISONED
                assert digest in poisoned.error
                # Resubmission: rejected at the door, no worker touched.
                again = client.enforce(request)
                assert again.outcome == POISONED
                assert "quarantined" in again.error
                # A sibling shape keeps answering; the daemon is healthy.
                assert client.enforce(sibling).outcome == "repaired"
                assert client.health()["status"] == "ok"
                snapshot = client.metrics()
            record = snapshot["quarantine"][digest]
            assert record["crashes"] == 2
            assert record["rejected"] == 1
            assert snapshot["totals"]["poisoned"] == 2
            assert snapshot["totals"]["worker_restarts"] == 2
            reasons = [r["reason"] for r in snapshot["dead_letters"]]
            assert "poisoned" in reasons
        finally:
            handle.drain()

    def test_transient_crashes_do_not_accumulate_to_poison(self, tmp_path):
        """A digest that crashes, retries and *succeeds* clears its
        crash history — only consecutive kills trip the breaker."""
        handle = run_config(
            tmp_path,
            faults="seed=2;crash-before:rate=1,max=1",
            poison_budget=2,
            retries=1,
        )
        try:
            with DaemonClient.connect(path=handle.address) as client:
                # Crash #1 -> retry -> answered: history cleared, so a
                # later single crash of the same digest would start the
                # count from zero instead of tripping the breaker.
                assert client.enforce(paper_request()).outcome == "repaired"
                snapshot = client.metrics()
            assert dict(handle.daemon._crashes) == {}
            assert snapshot["quarantine"] == {}
            assert snapshot["totals"]["poisoned"] == 0
            assert snapshot["totals"]["worker_restarts"] == 1
        finally:
            handle.drain()

    def test_config_rejects_bad_budgets(self):
        with pytest.raises(ServeError, match="poison_budget"):
            DaemonConfig(socket_path="/tmp/x", poison_budget=0).validate()
        with pytest.raises(ServeError, match="reply_cache"):
            DaemonConfig(socket_path="/tmp/x", reply_cache=0).validate()
        with pytest.raises(ServeError, match="unknown fault site"):
            DaemonConfig(socket_path="/tmp/x", faults="warp-core").validate()


class TestDeadLetterRing:
    def test_overflow_evicts_oldest_and_count_stays_accurate(self):
        metrics = DaemonMetrics(workers=1)
        for index in range(300):
            metrics.dead_letter(
                "shape", index, "deadline-queue", "late", 0.1, 1
            )
        assert metrics.dead_lettered == 300
        assert len(metrics.dead_letters) == 256
        assert metrics.dead_letters[0]["id"] == 44  # oldest 44 evicted
        assert metrics.dead_letters[-1]["id"] == 299


class TestConnectionLoss:
    def test_enforce_many_surfaces_owed_ids(self, tmp_path):
        handle = run_config(tmp_path, faults="conn-drop:rate=1")
        try:
            requests = [paper_request() for _ in range(3)]
            with DaemonClient.connect(path=handle.address) as client:
                with pytest.raises(DaemonConnectionError) as err:
                    client.enforce_many(requests)
            assert len(err.value.pending) == 3
            assert "owed" in str(err.value)
        finally:
            handle.drain()

    def test_connect_to_dead_socket_is_typed(self, tmp_path):
        with pytest.raises(DaemonConnectionError, match="cannot connect"):
            DaemonClient.connect(path=str(tmp_path / "nobody-home.sock"))


class TestRetryingClient:
    def test_recovers_from_conn_drop_without_double_solving(self, tmp_path):
        handle = run_config(tmp_path, faults="conn-drop:rate=1,max=1")
        try:
            with RetryingClient(
                path=handle.address, retries=5, backoff=0.01, seed=0
            ) as client:
                response = client.enforce(paper_request())
                snapshot = client.metrics()
            assert response.outcome == "repaired"
            assert client.reconnects == 1
            # The dropped answer was replayed, not recomputed.
            assert snapshot["totals"]["idempotent_replays"] == 1
            assert snapshot["totals"]["completed"] == 1
            assert snapshot["sessions"]["groundings"] == 1
        finally:
            handle.drain()

    def test_recovers_from_corrupt_reply(self, tmp_path):
        handle = run_config(tmp_path, faults="corrupt-reply:rate=1,max=1")
        try:
            with RetryingClient(
                path=handle.address, retries=5, backoff=0.01, seed=0
            ) as client:
                response = client.enforce(paper_request())
                snapshot = client.metrics()
            assert response.outcome == "repaired"
            assert snapshot["totals"]["idempotent_replays"] == 1
            assert snapshot["faults"]["corrupt-reply"]["fired"] == 1
        finally:
            handle.drain()

    def test_replay_is_bit_identical_to_faultless_run(self, tmp_path):
        """The chaos gate in miniature: a dropped-and-replayed answer
        matches the answer a fault-free daemon computes."""
        clean = run_config(tmp_path, name="clean.sock")
        chaotic = run_config(
            tmp_path, name="chaos.sock", faults="conn-drop:rate=1,max=1"
        )
        try:
            with DaemonClient.connect(path=clean.address) as client:
                baseline = client.enforce(paper_request())
            with RetryingClient(
                path=chaotic.address, retries=5, backoff=0.01, seed=0
            ) as client:
                survived = client.enforce(paper_request())
            assert response_fingerprint(survived) == response_fingerprint(
                baseline
            )
        finally:
            clean.drain()
            chaotic.drain()

    def test_gives_up_with_owed_keys_against_dead_socket(self, tmp_path):
        client = RetryingClient(
            path=str(tmp_path / "void.sock"), retries=1, backoff=0.01, seed=0
        )
        with pytest.raises(DaemonConnectionError) as err:
            client.enforce_many([paper_request(), paper_request()])
        assert len(err.value.pending) == 2
        assert "gave up" in str(err.value)

    def test_health_retries_then_raises_typed(self, tmp_path):
        client = RetryingClient(
            path=str(tmp_path / "void.sock"), retries=2, backoff=0.01, seed=0
        )
        with pytest.raises(DaemonConnectionError, match="cannot connect"):
            client.health()

    def test_rejects_bad_arguments(self):
        with pytest.raises(ServeError, match="path or host"):
            RetryingClient()
        with pytest.raises(ServeError, match="retries"):
            RetryingClient(path="/tmp/x", retries=-1)
        with pytest.raises(ServeError, match="backoff"):
            RetryingClient(path="/tmp/x", backoff=-0.1)


class TestProtocol:
    def test_envelope_roundtrip(self):
        envelope = {"verb": "enforce", "id": 7, "deadline": 1.5}
        line = json.dumps(envelope).encode() + b"\n"
        assert decode_envelope(line) == envelope

    def test_decode_rejects_non_objects(self):
        with pytest.raises(SerializationError):
            decode_envelope(b"[1, 2]\n")
        with pytest.raises(SerializationError):
            decode_envelope(b"{bad\n")

    def test_wire_shape_key_rejects_malformed(self):
        with pytest.raises(SerializationError):
            wire_shape_key(None)
        with pytest.raises(SerializationError):
            wire_shape_key({"transformation": ""})
        with pytest.raises(SerializationError):
            wire_shape_key({"transformation": "t X {}", "targets": "cf1"})
