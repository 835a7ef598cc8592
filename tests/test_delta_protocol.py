"""Tests for the delta wire protocol: multi-version model sessions.

Three layers, innermost out:

* **edit codec** (:mod:`repro.gen.edits`) — every edit op round-trips
  ``edit -> dict -> edit`` bit-identically (hypothesis over the full
  vocabulary), and malformed wire edits are rejected with typed errors
  naming the offending op/field — never a bare ``KeyError``;
* **strict envelope parsing** (:mod:`repro.serve.requests`) — unknown
  fields on request/response/scope wire dicts are typed
  :class:`~repro.errors.SerializationError`\\ s naming the field;
* **worker sessions** (:func:`repro.serve.worker.serve_session`) — the
  version DAG: open/edit/ask/close, branching from historic parents,
  the bounded retention window, typed ``session-lost``;
* **daemon sessions** — the full stack over a real socket: lifecycle
  and metrics, bit-identity of :func:`~repro.serve.delta_enforce_many`
  against :func:`~repro.serve.serve_batch` on generated request
  streams, the >= 10x wire-byte cut on an editor-style drift stream,
  session loss across a worker restart, and the retrying client's
  total-deadline bound.
"""

import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.enforce.session import clear_shared_sessions
from repro.errors import (
    DaemonConnectionError,
    SerializationError,
    ServeError,
    SessionLostError,
)
from repro.gen import random_scenario, scenario_requests
from repro.gen.edits import (
    edit_from_dict,
    edit_to_dict,
    edits_from_wire,
    edits_to_wire,
    random_edits,
)
from repro.metamodel.diff import diff
from repro.metamodel.edits import (
    AddObject,
    AddRef,
    RemoveObject,
    RemoveRef,
    SetAttr,
    UnsetAttr,
    apply_edits,
)
from repro.serve import (
    DaemonClient,
    DaemonConfig,
    EnforceRequest,
    SessionClient,
    delta_enforce_many,
    request_to_dict,
    reset_worker_state,
    response_from_dict,
    serve_batch,
    serve_session,
    serve_wire,
)
from repro.serve.daemon import run_in_thread
from repro.serve.requests import scope_from_dict
from repro.serve.worker import VERSION_LIMIT
from repro.featuremodels import (
    configuration,
    feature_model,
    paper_transformation,
)
from repro.metamodel.serialize import canonical_text

from tests.strategies import graph_models

#: The six-op vocabulary, one hand-built instance each — the codec must
#: cover every op even if a random draw happens to skip one.
FULL_VOCABULARY = (
    AddObject("o9", "Node", (("label", "x"), ("weight", 3), ("active", True))),
    RemoveObject("o1"),
    SetAttr("o1", "label", "y"),
    UnsetAttr("o1", "active"),
    AddRef("o1", "next", "o2"),
    RemoveRef("o1", "next", "o2"),
)


@pytest.fixture(autouse=True)
def _isolate_session_caches():
    clear_shared_sessions()
    reset_worker_state()
    yield
    clear_shared_sessions()
    reset_worker_state()


def paper_request(**overrides) -> EnforceRequest:
    models = {
        "fm": feature_model({"core": True, "log": True}),
        "cf1": configuration(["core", "log"], name="cf1"),
        "cf2": configuration(["core"], name="cf2"),
    }
    settings_ = dict(targets=["cf1", "cf2"], semantics="extended")
    settings_.update(overrides)
    return EnforceRequest.build(paper_transformation(2), models, **settings_)


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


class TestEditWireCodec:
    def test_full_vocabulary_roundtrips(self):
        for edit in FULL_VOCABULARY:
            wire = edit_to_dict(edit)
            json.dumps(wire)  # every field is JSON-native
            assert edit_from_dict(wire) == edit

    @given(seed=st.integers(0, 2**32 - 1), model=graph_models())
    @settings(max_examples=60, deadline=None)
    def test_random_scripts_roundtrip(self, seed, model):
        script = random_edits(seed, model, 8)
        for edit in script:
            assert edit_from_dict(edit_to_dict(edit)) == edit
        # Wire form: the whole per-parameter payload survives JSON.
        wire = json.loads(json.dumps(edits_to_wire({"m": script})))
        assert edits_from_wire(wire) == {"m": tuple(script)}

    @given(seed=st.integers(0, 2**32 - 1), model=graph_models())
    @settings(max_examples=30, deadline=None)
    def test_roundtripped_script_applies_identically(self, seed, model):
        script = random_edits(seed, model, 6)
        wire = json.loads(json.dumps(edits_to_wire({"m": script})))
        direct = apply_edits(model, script)
        decoded = apply_edits(model, edits_from_wire(wire)["m"])
        assert canonical_text(direct) == canonical_text(decoded)

    def test_unknown_op_is_a_typed_error(self):
        with pytest.raises(SerializationError, match="unknown edit op 'mangle'"):
            edit_from_dict({"op": "mangle", "oid": "o1"})

    def test_missing_field_is_named(self):
        with pytest.raises(
            SerializationError, match="'set-attr' is missing field 'value'"
        ):
            edit_from_dict({"op": "set-attr", "oid": "o1", "name": "label"})

    def test_unknown_field_is_named(self):
        with pytest.raises(
            SerializationError, match="'remove-object' has unknown field 'cls'"
        ):
            edit_from_dict({"op": "remove-object", "oid": "o1", "cls": "Node"})

    def test_bad_attrs_payload_is_typed(self):
        with pytest.raises(SerializationError, match="attrs"):
            edit_from_dict(
                {"op": "add-object", "oid": "o9", "cls": "N", "attrs": [1]}
            )

    def test_wire_payload_must_be_a_mapping_of_lists(self):
        with pytest.raises(SerializationError):
            edits_from_wire(["not", "a", "mapping"])
        with pytest.raises(SerializationError):
            edits_from_wire({"m": {"op": "remove-object", "oid": "o1"}})


class TestStrictEnvelopeParsing:
    """Satellite: unknown wire fields are typed errors naming the field."""

    def test_request_rejects_unknown_field(self):
        wire = request_to_dict(paper_request())
        wire["surprise"] = 1
        from repro.serve import request_from_dict

        with pytest.raises(
            SerializationError, match="unknown field 'surprise'"
        ):
            request_from_dict(wire)

    def test_request_roundtrips_through_wire(self):
        from repro.serve import request_from_dict, shape_key

        request = paper_request(max_distance=3)
        again = request_from_dict(
            json.loads(json.dumps(request_to_dict(request)))
        )
        assert shape_key(again) == shape_key(request)
        assert again.max_distance == 3

    def test_response_rejects_unknown_field(self):
        request = paper_request()
        wire = {"kind": "enforce-response", "outcome": "error", "oops": True}
        with pytest.raises(SerializationError, match="unknown field 'oops'"):
            response_from_dict(wire, request.metamodels)

    def test_response_missing_outcome_is_typed(self):
        request = paper_request()
        with pytest.raises(SerializationError, match="missing field 'outcome'"):
            response_from_dict({"kind": "enforce-response"}, request.metamodels)

    def test_scope_rejects_unknown_field_but_defaults_missing(self):
        # Partial scopes are legal (the workspace passes user fragments);
        # unknown keys are not — a typo must not silently default.
        scope = scope_from_dict({"extra_objects": 2})
        assert scope.extra_objects == 2
        with pytest.raises(
            SerializationError, match="unknown field 'extra_object'"
        ):
            scope_from_dict({"extra_object": 2})


class TestWorkerSessions:
    """The version DAG inside one worker process, no daemon involved."""

    def _open(self, name="s", **overrides):
        reply = serve_session(
            {
                "op": "open",
                "session": name,
                "request": request_to_dict(paper_request(**overrides)),
            }
        )
        assert reply["control"].get("error") is None
        assert reply["control"]["version"] == 0
        return reply

    def test_ask_matches_full_tuple_serve_wire(self):
        request = paper_request()
        self._open()
        asked = serve_session({"op": "ask", "session": "s"})
        direct = serve_wire(request_to_dict(request))
        assert asked["response"] == direct["response"]

    def test_edit_then_ask_matches_edited_full_tuple(self):
        request = paper_request()
        self._open()
        # Flip cf1's 'log' selection off via a wire edit script.
        target = configuration(["core"], name="cf1")
        script = diff(request.models["cf1"], target)
        assert script
        edited = serve_session(
            {
                "op": "edit",
                "session": "s",
                "parent": None,
                "edits": edits_to_wire({"cf1": script}),
            }
        )
        assert edited["control"]["version"] == 1
        assert edited["control"]["parent"] == 0
        asked = serve_session({"op": "ask", "session": "s", "version": 1})
        edited_request = EnforceRequest.build(
            paper_transformation(2),
            dict(request.models, cf1=target),
            targets=["cf1", "cf2"],
            semantics="extended",
        )
        direct = serve_wire(request_to_dict(edited_request))
        assert asked["response"] == direct["response"]
        # Historic version 0 still answers, identically to pre-edit.
        historic = serve_session({"op": "ask", "session": "s", "version": 0})
        baseline = serve_wire(request_to_dict(request))
        assert historic["response"] == baseline["response"]

    def test_branching_from_a_historic_parent(self):
        request = paper_request()
        self._open()
        a = diff(request.models["cf1"], configuration(["core"], name="cf1"))
        b = diff(request.models["cf2"], configuration(["core", "log"], name="cf2"))
        left = serve_session(
            {"op": "edit", "session": "s", "parent": 0,
             "edits": edits_to_wire({"cf1": a})}
        )["control"]
        right = serve_session(
            {"op": "edit", "session": "s", "parent": 0,
             "edits": edits_to_wire({"cf2": b})}
        )["control"]
        assert {left["version"], right["version"]} == {1, 2}
        assert left["parent"] == right["parent"] == 0
        for version in (1, 2):
            reply = serve_session(
                {"op": "ask", "session": "s", "version": version}
            )
            assert "response" in reply

    def test_unknown_session_is_session_lost(self):
        reply = serve_session({"op": "ask", "session": "ghost"})
        control = reply["control"]
        assert control["code"] == "session-lost"
        assert "ghost" in control["error"]

    def test_unknown_version_and_parent_are_typed(self):
        self._open()
        asked = serve_session({"op": "ask", "session": "s", "version": 99})
        assert "no version 99" in asked["control"]["error"]
        edited = serve_session(
            {"op": "edit", "session": "s", "parent": 99, "edits": {}}
        )
        assert "no version 99" in edited["control"]["error"]

    def test_inapplicable_edit_is_typed(self):
        self._open()
        script = (RemoveObject("no-such-object"),)
        reply = serve_session(
            {"op": "edit", "session": "s", "parent": None,
             "edits": edits_to_wire({"cf1": script})}
        )
        assert "edit does not apply" in reply["control"]["error"]

    def test_unknown_parameter_is_typed(self):
        self._open()
        reply = serve_session(
            {"op": "edit", "session": "s", "parent": None,
             "edits": edits_to_wire({"zz": (RemoveObject("o1"),)})}
        )
        assert "parameter 'zz'" in reply["control"]["error"]

    def test_version_retention_is_bounded_and_named(self):
        request = paper_request()
        self._open()
        on = diff(request.models["cf1"], configuration(["core"], name="cf1"))
        off = diff(configuration(["core"], name="cf1"), request.models["cf1"])
        # Oscillate far past the retention window; edits are cheap.
        for index in range(VERSION_LIMIT + 4):
            script = on if index % 2 == 0 else off
            reply = serve_session(
                {"op": "edit", "session": "s", "parent": None,
                 "edits": edits_to_wire({"cf1": script})}
            )
            assert reply["control"].get("error") is None
            assert reply["control"]["versions"] <= VERSION_LIMIT
        # Version 0 fell out of the materialised window: typed error
        # naming the bound, and the DAG still knows the version existed.
        evicted = serve_session({"op": "ask", "session": "s", "version": 0})
        assert f"keeps {VERSION_LIMIT} versions" in evicted["control"]["error"]
        latest = serve_session({"op": "ask", "session": "s"})
        assert "response" in latest

    def test_close_then_ask_is_session_lost(self):
        self._open()
        closed = serve_session({"op": "close", "session": "s"})
        assert closed["control"]["versions"] == 0
        reply = serve_session({"op": "ask", "session": "s"})
        assert reply["control"]["code"] == "session-lost"


@pytest.fixture()
def daemon(tmp_path):
    handle = run_in_thread(
        DaemonConfig(
            socket_path=str(tmp_path / "daemon.sock"),
            workers=2,
            queue_limit=16,
            deadline=60.0,
        )
    )
    yield handle
    if not handle.daemon._drained.is_set():
        handle.drain()


class TestDaemonSessions:
    def test_session_lifecycle_and_metrics(self, daemon):
        request = paper_request()
        with DaemonClient.connect(path=daemon.address) as client:
            session = SessionClient(client, "life")
            assert session.open(request) == 0
            first = session.ask()
            script = diff(
                request.models["cf1"], configuration(["core"], name="cf1")
            )
            version = session.edit({"cf1": script})
            assert version == 1
            edited = session.ask(version=version)
            # Asking the historic version reproduces the verdict and
            # cost (fresh-object *names* may differ: equal-cost repair
            # naming depends on the warm session's solve history, for
            # full-tuple re-asks exactly as for delta ones).
            historic = session.ask(version=0)
            assert historic.outcome == first.outcome
            assert historic.distance == first.distance
            assert historic.changed == first.changed
            assert response_fingerprint(edited) != response_fingerprint(first)
            metrics = client.metrics()
            delta = metrics["delta"]
            assert delta["open"] == 1 and delta["opened"] == 1
            assert delta["edits"] == 1 and delta["asks"] == 3
            assert delta["versions"] == 2
            session.close()
            delta = client.metrics()["delta"]
            assert delta["open"] == 0 and delta["closed"] == 1

    def test_double_open_is_rejected_until_closed(self, daemon):
        request = paper_request()
        with DaemonClient.connect(path=daemon.address) as client:
            session = SessionClient(client, "dup")
            session.open(request)
            with pytest.raises(ServeError, match="already open"):
                SessionClient(client, "dup").open(request)
            session.close()
            assert SessionClient(client, "dup").open(request) == 0

    def test_bad_deadline_open_leaves_no_phantom_session(self, daemon):
        request = paper_request()
        with DaemonClient.connect(path=daemon.address) as client:
            reply = client.call(
                {
                    "verb": "open",
                    "session": "phantom",
                    "request": request_to_dict(request),
                    "deadline": "soon",
                }
            )
            assert reply["kind"] == "session-reply"
            assert reply["outcome"] == "error"
            assert "'deadline'" in reply["error"]
            assert client.health()["sessions"] == 0
            assert SessionClient(client, "phantom").open(request) == 0
            assert client.health()["sessions"] == 1

    def test_open_expiring_in_queue_leaves_no_session(self, tmp_path):
        """An ``open`` dead-lettered before any worker saw it drops its
        routing record, so the name can be opened again at once."""
        handle = run_in_thread(
            DaemonConfig(socket_path=str(tmp_path / "q.sock"), workers=1)
        )
        request = paper_request()
        try:
            with DaemonClient.connect(path=handle.address) as client:
                client.send(  # occupies the only worker for 1 s
                    {
                        "verb": "enforce",
                        "request": request_to_dict(request),
                        "wedge": 1.0,
                    }
                )
                expired = client.call(
                    {
                        "verb": "open",
                        "session": "late",
                        "request": request_to_dict(request),
                        "deadline": 0.2,
                    }
                )
                assert expired["outcome"] == "deadline-exceeded"
                assert client.health()["sessions"] == 0
                assert SessionClient(client, "late").open(request) == 0
        finally:
            handle.drain()

    def test_ask_with_malformed_max_distance_is_typed(self, daemon):
        with DaemonClient.connect(path=daemon.address) as client:
            session = SessionClient(client, "strict")
            session.open(paper_request())
            answer = session.ask(max_distance="3")
            assert answer.outcome == "error"
            assert "max_distance" in answer.error
            assert "TypeError" not in answer.error
            assert session.ask(max_distance=3).ok

    def test_verbs_on_unopened_session_raise_session_lost(self, daemon):
        with DaemonClient.connect(path=daemon.address) as client:
            session = SessionClient(client, "nobody")
            session._request = paper_request()  # skip open on purpose
            with pytest.raises(SessionLostError, match="nobody"):
                session.ask()
            with pytest.raises(SessionLostError):
                session.edit({})

    def test_worker_restart_loses_the_session(self, daemon):
        """A deadline kill restarts the worker; its sessions die with it,
        every later verb is a typed loss, and reopening works."""
        request = paper_request()
        with DaemonClient.connect(path=daemon.address) as client:
            session = SessionClient(client, "doomed")
            session.open(request)
            assert session.ask() is not None
            # Same shape -> same slot: wedging this request past its
            # deadline kills exactly the worker holding the session.
            killed = client.enforce(request, deadline=0.5, wedge=30.0)
            assert killed.outcome == "deadline-exceeded"
            with pytest.raises(SessionLostError, match="doomed"):
                session.edit(
                    {"cf1": diff(
                        request.models["cf1"],
                        configuration(["core"], name="cf1"),
                    )}
                )
            assert daemon.daemon.metrics.sessions_lost >= 1
            # Reopen under the same name: full tuple, fresh version DAG.
            reopened = SessionClient(client, "doomed")
            assert reopened.open(request) == 0
            assert reopened.ask() is not None
            reopened.close()

    @pytest.mark.parametrize("seed", [1, 3, 7])
    def test_delta_stream_bit_identical_to_serve_batch(self, daemon, seed):
        """The tentpole gate: a delta session answers a generated
        request stream bit-identically to the full-tuple batch service."""
        scenario = random_scenario(seed)
        requests = scenario_requests(scenario, rounds=5)
        expected = [
            response_fingerprint(r)
            for r in serve_batch(requests, workers=1).responses
        ]
        if seed != 1:  # seed 1 only asks consistent/no-repair questions
            # the check must cover repaired-model bytes, not only verdicts
            assert "repaired" in {outcome for outcome, *_ in expected}
        with DaemonClient.connect(path=daemon.address) as client:
            responses = delta_enforce_many(
                client, requests, prefix=f"seed{seed}"
            )
            assert [response_fingerprint(r) for r in responses] == expected
            # The whole point: the delta stream shipped the model tuple
            # once, not once per request.
            full_wire = sum(
                len(json.dumps(request_to_dict(r))) for r in requests
            )
            assert client.bytes_sent < full_wire


#: The wire gate: delta bytes/request at most 1/10 of full-tuple.
WIRE_RATIO_FLOOR = 10.0


def drift_requests(k: int, rounds: int):
    """An editor-style stream: every request one selection toggle away.

    One fixed shape (the paper's transformation over ``fm``, ``cf1``,
    ``cf2``), a frozen k-feature model, and a configuration drifting one
    feature per round — the access pattern the delta protocol exists
    for.
    """
    names = ["core"] + [f"f{i}" for i in range(1, k)]
    fm = feature_model({name: (name == "core") for name in names})
    selected = ["core"]
    requests = []
    for round_ in range(rounds):
        models = {
            "fm": fm,
            "cf1": configuration(list(selected), name="cf1"),
            "cf2": configuration(["core"], name="cf2"),
        }
        requests.append(
            EnforceRequest.build(
                paper_transformation(2),
                models,
                targets=["cf1", "cf2"],
                semantics="extended",
            )
        )
        toggle = names[1 + round_ % (k - 1)]
        if toggle in selected:
            selected.remove(toggle)
        else:
            selected.append(toggle)
    return requests


class TestWireBytes:
    def test_drift_stream_cuts_wire_bytes_tenfold(self, tmp_path):
        """The protocol's reason to exist: on an editor-style drift
        stream (16 features, 24 rounds) delta sessions send at most 1/10
        of the full-tuple wire bytes per request, with no ``error``
        replies and answers identical to the full-tuple arm. Each arm
        walks the stream on its own cold daemon."""
        requests = drift_requests(16, 24)
        arms = {}
        for name, answer in (
            ("full", DaemonClient.enforce_many),
            ("delta", delta_enforce_many),
        ):
            handle = run_in_thread(
                DaemonConfig(socket_path=str(tmp_path / f"{name}.sock"))
            )
            try:
                with DaemonClient.connect(path=handle.address) as client:
                    responses = answer(client, requests)
                    per_request = client.bytes_sent / len(requests)
            finally:
                handle.drain()
            arms[name] = (responses, per_request)
        (full, full_bytes), (delta, delta_bytes) = arms["full"], arms["delta"]
        assert [r for r in full + delta if r.outcome == "error"] == []
        assert [response_fingerprint(r) for r in delta] == [
            response_fingerprint(r) for r in full
        ]
        assert full_bytes >= WIRE_RATIO_FLOOR * delta_bytes, (
            f"delta sent {delta_bytes:.0f} B/request vs full "
            f"{full_bytes:.0f} B/request"
        )


class TestRetryingClientDeadline:
    def test_total_deadline_bounds_reconnect_time(self, tmp_path):
        """Satellite: a 0.6 s deadline must not spend retries*backoff
        seconds reconnecting — the give-up is total-time bounded and
        names the owed idempotency keys."""
        from repro.serve import RetryingClient

        client = RetryingClient(
            path=str(tmp_path / "absent.sock"),
            retries=100,
            backoff=0.5,
            backoff_max=2.0,
            seed=7,
        )
        started = time.monotonic()
        with pytest.raises(DaemonConnectionError) as info:
            client.enforce_many(
                [paper_request(), paper_request()], deadline=0.6
            )
        elapsed = time.monotonic() - started
        assert elapsed < 2.5, f"spent {elapsed:.1f}s against a 0.6s deadline"
        assert "deadline (0.6s) spent" in str(info.value)
        assert len(info.value.pending) == 2
        assert all(":" in key for key in info.value.pending)
