"""Tests for the sharded batch-enforcement service (:mod:`repro.serve`).

Four concerns, mirroring the service's contract:

* **wire format** — requests and responses survive a JSON round trip;
* **sharding** — the shape key agrees with the ``shared_session``
  grounding cache decision for decision (same shape => same live
  session; any differing shape component => a different one);
* **determinism** — merged batch results are bit-for-bit identical
  whatever the worker count (including inline mode), and shards ground
  at most once on their worker;
* **differential** — batch answers are verdict/cost-identical to
  sequential per-call SAT over >= 25 generated seeds.
"""

import json

import pytest

from repro.check.engine import STANDARD
from repro.enforce.api import enforce
from repro.enforce.metrics import TupleMetric
from repro.enforce.session import clear_shared_sessions, shared_session
from repro.enforce.targets import TargetSelection
from repro.errors import NoRepairFound, ServeError
from repro.featuremodels import (
    configuration,
    feature_model,
    paper_transformation,
)
from repro.gen import in_universe_stream, random_scenario, scenario_requests
from repro.metamodel.serialize import canonical_text
from repro.qvtr.syntax.parser import parse_transformation
from repro.serve import (
    CONSISTENT,
    NO_REPAIR,
    REPAIRED,
    EnforceRequest,
    request_from_dict,
    request_to_dict,
    reset_worker_state,
    response_from_dict,
    response_to_dict,
    serve_batch,
    serve_request,
    shape_key,
    shard_requests,
)
from repro.serve import worker as worker_module
from repro.solver.bounded import Scope

#: The differential sweep's seed list (>= 25 seeds, fixed like A8's).
DIFFERENTIAL_SEEDS = tuple(range(25))

#: Wire values the strict request codec must reject, naming the field.
MALFORMED_FIELDS = [
    ("max_distance", "3"),
    ("max_distance", 2.5),
    ("max_distance", [1]),
    ("max_distance", -1),
    ("max_distance", True),
    ("weights", {"cf1": "a"}),
    ("weights", {"cf1": -1}),
    ("weights", {"cf1": True}),
    ("weights", ["cf1"]),
    ("mode", "sideways"),
    ("mode", None),
]


@pytest.fixture(autouse=True)
def _isolate_session_caches():
    clear_shared_sessions()
    reset_worker_state()
    yield
    clear_shared_sessions()
    reset_worker_state()


def paper_request(**overrides) -> EnforceRequest:
    """The paper's flipped-'log' repair question as a batch request."""
    models = {
        "fm": feature_model({"core": True, "log": True}),
        "cf1": configuration(["core", "log"], name="cf1"),
        "cf2": configuration(["core"], name="cf2"),
    }
    settings = dict(
        targets=["cf1", "cf2"],
        semantics="extended",
        max_distance=None,
    )
    settings.update(overrides)
    return EnforceRequest.build(paper_transformation(2), models, **settings)


def fingerprint(result):
    return [
        (
            response.outcome,
            response.distance,
            tuple(sorted(response.changed)),
            tuple(
                (param, canonical_text(model))
                for param, model in sorted(response.models.items())
            ),
        )
        for response in result.responses
    ]


class TestWireFormat:
    def test_request_roundtrip(self):
        request = paper_request(weights={"cf1": 2}, scope=Scope(), max_distance=3)
        rebuilt = request_from_dict(request_to_dict(request))
        assert rebuilt.transformation == request.transformation
        assert rebuilt.targets == request.targets
        assert rebuilt.weights == request.weights
        assert rebuilt.scope == request.scope
        assert rebuilt.max_distance == 3
        assert shape_key(rebuilt) == shape_key(request)
        for param, model in request.models.items():
            assert canonical_text(rebuilt.models[param]) == canonical_text(model)

    def test_response_roundtrip(self):
        request = paper_request()
        response = serve_request(request)
        rebuilt = response_from_dict(
            response_to_dict(response), request.metamodels
        )
        assert rebuilt.outcome == response.outcome == REPAIRED
        assert rebuilt.distance == response.distance
        assert rebuilt.changed == response.changed
        for param in response.changed:
            assert canonical_text(rebuilt.models[param]) == canonical_text(
                response.models[param]
            )

    def test_malformed_request_rejected(self):
        from repro.errors import SerializationError

        with pytest.raises(SerializationError):
            request_from_dict({"kind": "enforce-request"})  # no transformation
        with pytest.raises(SerializationError):
            request_from_dict({"kind": "something-else"})
        data = request_to_dict(paper_request())
        data["models"]["fm"]["metamodel"] = "Ghost"
        with pytest.raises(SerializationError):
            request_from_dict(data)

    @pytest.mark.parametrize("field,value", MALFORMED_FIELDS)
    def test_malformed_field_is_typed_and_named(self, field, value):
        from repro.errors import SerializationError

        data = dict(request_to_dict(paper_request()), **{field: value})
        with pytest.raises(SerializationError, match=field):
            request_from_dict(data)

    @pytest.mark.parametrize("field,value", MALFORMED_FIELDS)
    def test_malformed_request_fails_alone_in_its_shard(self, field, value):
        """One bad request gets a typed error; its shard siblings are
        still answered (the shard must not crash as a whole)."""
        good = request_to_dict(paper_request())
        bad = dict(good, **{field: value})
        result = worker_module.process_shard(
            {"shard": "s", "requests": [[0, good], [1, bad], [2, good]]}
        )
        outcomes = {
            index: response_from_dict(data, paper_request().metamodels)
            for index, data in result["responses"]
        }
        assert outcomes[0].outcome == outcomes[2].outcome == REPAIRED
        assert outcomes[1].outcome == "error"
        assert field in outcomes[1].error

    def test_request_json_is_stable_text(self):
        from repro.serve import request_to_json

        a = request_to_json(paper_request())
        b = request_to_json(paper_request())
        assert a == b
        assert json.loads(a)["kind"] == "enforce-request"


class TestSharding:
    def test_same_shape_same_shard_and_same_session(self):
        base = paper_request()
        drifted = paper_request(
            # a different model tuple, same question shape
        )
        object.__setattr__(
            drifted,
            "models",
            {**dict(drifted.models), "cf2": configuration(["core", "log"], name="cf2")},
        )
        assert shape_key(base) == shape_key(drifted)
        shards = shard_requests([base, drifted])
        assert len(shards) == 1 and shards[0][1] == [0, 1]
        # ... and shared_session agrees: one live session for the shape.
        transformation = parse_transformation(base.transformation)
        first = shared_session(
            transformation, TargetSelection(base.targets)
        )
        second = shared_session(
            transformation, TargetSelection(drifted.targets)
        )
        assert first is second

    @pytest.mark.parametrize(
        "override",
        [
            {"targets": ["fm"]},
            {"semantics": STANDARD},
            {"weights": {"cf1": 2}},
            {"scope": Scope(extra_objects=2)},
            {"mode": "decreasing"},
        ],
    )
    def test_each_shape_component_splits_the_shard(self, override):
        base = paper_request()
        other = paper_request(**override)
        assert shape_key(base) != shape_key(other)
        assert len(shard_requests([base, other])) == 2
        # shared_session splits on the same component
        transformation = parse_transformation(base.transformation)

        def resolve(request):
            return shared_session(
                transformation,
                TargetSelection(request.targets),
                semantics=request.semantics,
                metric=request.metric(),
                scope=request.scope,
                mode=request.mode,
            )

        assert resolve(base) is not resolve(other)

    def test_max_distance_is_not_part_of_the_shape(self):
        assert shape_key(paper_request()) == shape_key(
            paper_request(max_distance=1)
        )

    def test_shards_ordered_by_first_submission(self):
        a = paper_request()
        b = paper_request(targets=["fm"])
        shards = shard_requests([b, a, b, a])
        assert [indices for _digest, indices in shards] == [[0, 2], [1, 3]]


class TestBatchService:
    def test_submission_order_and_outcomes(self):
        consistent = paper_request()
        object.__setattr__(
            consistent,
            "models",
            {
                "fm": feature_model({"core": True}),
                "cf1": configuration(["core"], name="cf1"),
                "cf2": configuration(["core"], name="cf2"),
            },
        )
        impossible = paper_request(targets=["cf1"], max_distance=0)
        batch = [paper_request(), consistent, impossible]
        result = serve_batch(batch, workers=0)
        assert [r.outcome for r in result.responses] == [
            REPAIRED,
            CONSISTENT,
            NO_REPAIR,
        ]
        assert result.responses[0].distance == 2
        assert result.responses[1].distance == 0
        assert result.responses[2].error is not None
        assert result.outcomes() == {REPAIRED: 1, CONSISTENT: 1, NO_REPAIR: 1}

    def test_error_response_keeps_batch_alive(self):
        bad = paper_request()
        object.__setattr__(bad, "transformation", "transformation Broken {")
        result = serve_batch([bad, paper_request()], workers=0)
        assert result.responses[0].outcome == "error"
        assert result.responses[1].outcome == REPAIRED

    def test_worker_count_validation(self):
        with pytest.raises(ServeError):
            serve_batch([paper_request()], workers=-1)

    def test_one_grounding_per_shard(self):
        scenario = random_scenario(1)
        requests = scenario_requests(scenario, rounds=5)
        result = serve_batch(requests, workers=0)
        assert len(result.shards) == 1
        assert result.shards[0].groundings <= 1
        assert result.shards[0].requests == len(requests)

    def test_determinism_across_worker_counts(self):
        requests = []
        for seed in (0, 2, 5, 7):
            requests.extend(scenario_requests(random_scenario(seed), rounds=4))
        # Warm the *parent* first (inline run): pooled batches must stay
        # reproducible even when the parent's session caches are dirty,
        # because every pool worker starts from a clean slate.
        inline = serve_batch(requests, workers=0)
        prints = {
            workers: fingerprint(serve_batch(requests, workers=workers))
            for workers in (1, 2, 4)
        }
        assert prints[1] == prints[2] == prints[4]
        # Inline mode shares the caller's solver state, so only verdicts
        # and costs are promised to match the pooled arms.
        assert [(r.outcome, r.distance) for r in inline.responses] == [
            (outcome, distance) for outcome, distance, _c, _m in prints[1]
        ]


class TestDifferentialSweep:
    def test_batch_matches_sequential_per_call_sat(self):
        """>= 25 seeds: the batch service vs per-call SAT, request by
        request. The ``perfbench gen-batch`` CI stage checks the same
        identity on the whole 120-seed generated corpus."""
        requests = []
        for seed in DIFFERENTIAL_SEEDS:
            requests.extend(
                scenario_requests(random_scenario(seed), rounds=3)
            )
        result = serve_batch(requests, workers=2)
        for index, request in enumerate(requests):
            transformation = parse_transformation(request.transformation)
            try:
                repair = enforce(
                    transformation,
                    request.models,
                    TargetSelection(request.targets),
                    engine="sat",
                    semantics=request.semantics,
                    metric=request.metric(),
                    scope=request.scope,
                    mode=request.mode,
                    max_distance=request.max_distance,
                    share=False,
                )
                expected = (
                    CONSISTENT if repair.engine == "none" else REPAIRED,
                    repair.distance,
                )
            except NoRepairFound:
                expected = (NO_REPAIR, None)
            response = result.responses[index]
            got = (
                response.outcome,
                response.distance if response.ok else None,
            )
            assert got == expected, f"request {index} (seed stream) diverged"
        # the sweep must exercise repairs, not only hippocratic answers
        assert result.outcomes().get(REPAIRED, 0) > 0


class TestInUniverseStream:
    @pytest.mark.parametrize("seed", range(12))
    def test_stream_preserves_objects_and_domain(self, seed):
        scenario = random_scenario(seed)
        stream = in_universe_stream(
            scenario.seed,
            scenario.models,
            sorted(scenario.targets.params),
            rounds=8,
        )
        assert stream[0] == scenario.models

        def universe(tuple_):
            objects = {
                param: frozenset(model.object_ids())
                for param, model in tuple_.items()
            }
            values = frozenset(
                value
                for model in tuple_.values()
                for obj in model.objects
                for _name, value in obj.attrs
                if not isinstance(value, bool)
            )
            return objects, values

        anchor = universe(stream[0])
        for tuple_ in stream[1:]:
            assert universe(tuple_) == anchor

    def test_stream_only_touches_target_params(self):
        scenario = random_scenario(4)
        params = sorted(scenario.targets.params)
        stream = in_universe_stream(
            scenario.seed, scenario.models, params, rounds=6
        )
        frozen = [p for p in scenario.params() if p not in params]
        for tuple_ in stream[1:]:
            for param in frozen:
                assert tuple_[param] == scenario.models[param]

    def test_stream_is_deterministic(self):
        scenario = random_scenario(9)
        args = (scenario.seed, scenario.models, sorted(scenario.targets.params))
        first = in_universe_stream(*args, rounds=5)
        second = in_universe_stream(*args, rounds=5)
        assert len(first) == len(second)
        for a, b in zip(first, second):
            for param in a:
                assert canonical_text(a[param]) == canonical_text(b[param])


# ---------------------------------------------------------------------------
# Shard deadlines and interrupts (the _run_pool hang/raw-traceback fixes)
# ---------------------------------------------------------------------------
# The stand-in shard tasks below are module top-level functions so they
# pickle by name; with the fork start method the worker processes
# inherit the monkeypatched module state that routes to them.

_WEDGE_WEIGHTS = {"cf1": 7}

# Captured at import, before any monkeypatching: looking process_shard up
# through the module at call time would find the wedging wrapper itself.
_REAL_PROCESS_SHARD = worker_module.process_shard


def _wedging_process_shard(payload):
    """Wedge (only) the shard marked by the sentinel weights."""
    import time

    first = payload["requests"][0][1]
    if first.get("weights") == _WEDGE_WEIGHTS:
        time.sleep(120)
    return _REAL_PROCESS_SHARD(payload)


_CRASH_WEIGHTS = {"cf1": 13}


def _crashing_process_shard(payload):
    """Crash (only) the shard task marked by the sentinel weights."""
    first = payload["requests"][0][1]
    if first.get("weights") == _CRASH_WEIGHTS:
        raise RuntimeError("simulated shard-task crash")
    return _REAL_PROCESS_SHARD(payload)


_EXIT_WEIGHTS = {"cf1": 17}


def _exiting_process_shard(payload):
    """Kill the worker process (only) on the shard marked by the weights."""
    import os

    first = payload["requests"][0][1]
    if first.get("weights") == _EXIT_WEIGHTS:
        os._exit(3)
    return _REAL_PROCESS_SHARD(payload)


def _route_pool_to(monkeypatch, fn):
    # service.py holds its own reference to process_shard; patch both it
    # and the defining module (pickle checks name->object identity).
    monkeypatch.setattr("repro.serve.worker.process_shard", fn)
    monkeypatch.setattr("repro.serve.service.process_shard", fn)


class TestShardDeadline:
    def test_rejects_non_positive_deadline(self):
        with pytest.raises(ServeError, match="deadline"):
            serve_batch([paper_request()], workers=0, deadline=0)

    def test_wedged_shard_times_out_rest_completes(self, monkeypatch):
        """One wedged shard -> typed error responses for it, real answers
        for everything else, and the call returns (no indefinite hang)."""
        import time as _time

        _route_pool_to(monkeypatch, _wedging_process_shard)
        requests = [
            paper_request(),
            paper_request(weights=_WEDGE_WEIGHTS),
            paper_request(targets=["fm"]),
        ]
        started = _time.perf_counter()
        result = serve_batch(requests, workers=2, deadline=1.0)
        assert _time.perf_counter() - started < 60
        assert not result.interrupted
        assert result.responses[0].outcome == REPAIRED
        assert result.responses[2].outcome == REPAIRED
        wedged = result.responses[1]
        assert wedged.outcome == "error"
        assert "deadline" in wedged.error
        (timed_out,) = [s for s in result.shards if s.worker == -1]
        assert timed_out.shard == result.shard_of(1)
        assert timed_out.groundings == 0

    def test_wedged_shard_on_one_worker_spares_its_siblings(
        self, monkeypatch, capfd
    ):
        """One worker, wedged shard first: only that worker is killed and
        respawned, so every later shard still gets a real answer."""
        import time as _time

        _route_pool_to(monkeypatch, _wedging_process_shard)
        requests = [
            paper_request(weights=_WEDGE_WEIGHTS),
            paper_request(),
            paper_request(targets=["fm"]),
            paper_request(weights={"cf1": 3}),
        ]
        started = _time.perf_counter()
        result = serve_batch(requests, workers=1, deadline=1.0)
        assert _time.perf_counter() - started < 60  # the wedge sleeps 120 s
        assert not result.interrupted
        assert "deadline" in result.responses[0].error
        for response in result.responses[1:]:
            assert response.outcome == REPAIRED
        (timed_out,) = [s for s in result.shards if s.worker == -1]
        assert timed_out.shard == result.shard_of(0)
        assert "Traceback" not in capfd.readouterr().err

    def test_crashed_shard_task_fails_only_its_shard(self, monkeypatch):
        """A shard task that raises answers *its* requests with typed
        errors; every other shard completes normally — one poisonous
        shard must not fail the whole batch."""
        _route_pool_to(monkeypatch, _crashing_process_shard)
        requests = [
            paper_request(),
            paper_request(weights=_CRASH_WEIGHTS),
            paper_request(targets=["fm"]),
        ]
        result = serve_batch(requests, workers=2, deadline=30.0)
        assert not result.interrupted
        assert result.responses[0].outcome == REPAIRED
        assert result.responses[2].outcome == REPAIRED
        crashed = result.responses[1]
        assert crashed.outcome == "error"
        assert "crashed" in crashed.error
        (failed,) = [s for s in result.shards if s.worker == -1]
        assert failed.shard == result.shard_of(1)

    def test_worker_death_fails_only_its_shard(self, monkeypatch):
        """A shard task that kills its worker process answers *its*
        requests with a typed error naming the crash; siblings are
        answered, and a later shard runs on the respawned worker."""
        _route_pool_to(monkeypatch, _exiting_process_shard)
        requests = [
            paper_request(),
            paper_request(weights=_EXIT_WEIGHTS),
            paper_request(targets=["fm"]),
        ]
        result = serve_batch(requests, workers=1, deadline=30.0)
        assert not result.interrupted
        assert result.responses[0].outcome == REPAIRED
        assert result.responses[2].outcome == REPAIRED
        died = result.responses[1]
        assert died.outcome == "error"
        assert "crashed" in died.error and "died" in died.error
        first, dead, later = result.shards
        assert dead.worker == -1
        assert later.worker not in (-1, first.worker)  # a fresh process

    def test_interrupt_yields_partial_results(self, monkeypatch):
        """Ctrl-C while the parent waits on its workers surfaces as
        partial results with ``interrupted=True``, not a raw traceback."""
        import signal
        import threading

        _route_pool_to(monkeypatch, _wedging_process_shard)
        requests = [paper_request(), paper_request(weights=_WEDGE_WEIGHTS)]
        ctrl_c = threading.Timer(
            2.0,
            signal.pthread_kill,
            (threading.main_thread().ident, signal.SIGINT),
        )
        ctrl_c.start()
        try:
            result = serve_batch(requests, workers=2, deadline=30.0)
        finally:
            ctrl_c.cancel()
        assert result.interrupted
        assert len(result.responses) == len(requests)
        wedged = result.responses[1]
        assert wedged.outcome == "error"
        assert "interrupted" in wedged.error
        for response in result.responses:
            assert response.outcome == REPAIRED or "interrupted" in (
                response.error
            )

    def test_inline_interrupt_yields_partial_results(self, monkeypatch):
        answered = {"count": 0}
        from repro.serve.worker import process_shard as real

        def interrupt_after_first(payload):
            if answered["count"] >= 1:
                raise KeyboardInterrupt
            answered["count"] += 1
            return real(payload)

        monkeypatch.setattr(
            "repro.serve.service.process_shard", interrupt_after_first
        )
        requests = [paper_request(), paper_request(targets=["fm"])]
        result = serve_batch(requests, workers=0)
        assert result.interrupted
        assert result.responses[0].outcome == REPAIRED
        assert result.responses[1].outcome == "error"
        assert "interrupted" in result.responses[1].error

    def test_default_deadline_leaves_results_identical(self):
        requests = [paper_request(), paper_request(targets=["fm"])]
        bounded = serve_batch(requests, workers=2, deadline=120.0)
        unbounded = serve_batch(requests, workers=2, deadline=None)
        assert fingerprint(bounded) == fingerprint(unbounded)
        assert not bounded.interrupted and not unbounded.interrupted
