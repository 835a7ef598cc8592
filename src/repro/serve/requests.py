"""Batch-service requests and responses, with a stable wire format.

One :class:`EnforceRequest` is one enforcement question, fully
self-contained: the transformation (as canonical QVT-R source text —
text, not object identity, is what can cross a process boundary), the
metamodels and model tuple (riding the JSON format of
:mod:`repro.metamodel.serialize`), the question shape (targets,
semantics, metric weights, scope, mode) and the per-call distance cap.

The **question shape** is the sharding key of the service
(:func:`shape_key`): two requests with the same shape are answered by
the same warm :func:`~repro.enforce.session.shared_session` in the same
worker, so the transformation constraints are ground once per shape per
worker and every request of the shard reuses the encoding. The key
mirrors the ``shared_session`` cache key field for field, with the
transformation's canonical text standing in for object identity (ids do
not survive serialisation; canonical text does — the pretty-printer and
parser round-trip, see ``tests/test_qvtr_pretty_roundtrip.py``).

:class:`EnforceResponse` carries the verdict (one of
:data:`CONSISTENT`, :data:`REPAIRED`, :data:`NO_REPAIR`,
:data:`ERROR`), the weighted distance, and the *changed* models only —
the caller already holds the unchanged ones.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.check.engine import EXTENDED
from repro.enforce.metrics import TupleMetric
from repro.errors import SerializationError
from repro.metamodel.meta import Metamodel
from repro.metamodel.model import Model
from repro.metamodel.serialize import (
    metamodel_from_dict,
    metamodel_to_dict,
    model_from_dict,
    model_to_dict,
)
from repro.qvtr.ast import Transformation
from repro.qvtr.pretty import pretty_transformation
from repro.solver.bounded import Scope
from repro.solver.maxsat import DECREASING, INCREASING

#: Batch verdicts. The first three mirror the differential oracle's
#: outcome vocabulary (:mod:`repro.gen.oracle`); ``ERROR`` is the
#: service-level catch-all that keeps one bad request from killing the
#: batch it arrived in.
CONSISTENT = "consistent"
REPAIRED = "repaired"
NO_REPAIR = "no-repair"
ERROR = "error"

REQUEST_FORMAT = 1


@dataclass(frozen=True)
class EnforceRequest:
    """One self-contained enforcement question.

    Build it with :meth:`build` (from live objects) or
    :func:`request_from_dict` (from the wire format). ``transformation``
    is QVT-R source text; ``metamodels`` must cover every model of the
    tuple.
    """

    transformation: str
    metamodels: tuple[Metamodel, ...]
    models: Mapping[str, Model] = field(compare=False)
    targets: frozenset[str] = frozenset()
    semantics: str = EXTENDED
    weights: Mapping[str, int] = field(default_factory=dict)
    scope: Scope | None = None
    mode: str = INCREASING
    max_distance: int | None = None

    @classmethod
    def build(
        cls,
        transformation: Transformation | str,
        models: Mapping[str, Model],
        targets: Iterable[str],
        semantics: str = EXTENDED,
        weights: Mapping[str, int] | None = None,
        scope: Scope | None = None,
        mode: str = INCREASING,
        max_distance: int | None = None,
    ) -> "EnforceRequest":
        """A request from live objects.

        A :class:`~repro.qvtr.ast.Transformation` is canonicalised
        through the pretty-printer; metamodels are collected from the
        models themselves.
        """
        if isinstance(transformation, Transformation):
            transformation = pretty_transformation(transformation)
        seen: dict[str, Metamodel] = {}
        for model in models.values():
            seen.setdefault(model.metamodel.name, model.metamodel)
        return cls(
            transformation=transformation,
            metamodels=tuple(seen[name] for name in sorted(seen)),
            models=dict(models),
            targets=frozenset(targets),
            semantics=semantics,
            weights=dict(weights or {}),
            scope=scope,
            mode=mode,
            max_distance=max_distance,
        )

    def metric(self) -> TupleMetric:
        """The request's distance metric."""
        return TupleMetric(dict(self.weights))


@dataclass(frozen=True)
class EnforceResponse:
    """One request's answer.

    ``models`` holds the *changed* models only (empty for
    :data:`CONSISTENT` and :data:`NO_REPAIR`); ``error`` carries the
    message for :data:`NO_REPAIR` and :data:`ERROR` outcomes.
    """

    outcome: str
    distance: int | None = None
    models: Mapping[str, Model] = field(default_factory=dict, compare=False)
    changed: frozenset[str] = frozenset()
    engine: str | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        """Whether the request was answered (consistent or repaired)."""
        return self.outcome in (CONSISTENT, REPAIRED)

    def summary(self) -> str:
        """A one-line, CLI-friendly rendering of the verdict."""
        if self.outcome == CONSISTENT:
            return "consistent (distance 0)"
        if self.outcome == REPAIRED:
            changed = ", ".join(sorted(self.changed)) or "nothing"
            return f"repaired: distance {self.distance}, changed {changed}"
        return f"{self.outcome}: {self.error}"


def _shape(transformation, targets, semantics, weights, scope, mode) -> tuple:
    """A question-shape key from its six fields (shared by both keys)."""
    return (
        transformation,
        frozenset(targets),
        semantics,
        tuple(sorted(weights.items())),
        scope,
        mode,
    )


def shape_key(request: EnforceRequest) -> tuple:
    """The request's question shape — the service's sharding key.

    Field for field the :func:`~repro.enforce.session.shared_session`
    cache key, with canonical transformation text in place of object
    identity: requests mapping to one shape resolve (per worker) to one
    shared session and therefore one shared grounding.
    """
    return _shape(
        request.transformation, request.targets, request.semantics,
        request.weights, request.scope, request.mode,
    )


def wire_shape_key(data: Any) -> tuple:
    """:func:`shape_key` from the raw wire dict, without decoding models.

    The daemon routes by question shape on its event loop; the model
    payloads are the worker processes' to deserialise. Validates just
    the shape fields it reads (:class:`~repro.errors.SerializationError`
    otherwise); a request round-tripped through :func:`request_from_dict`
    produces the same key.
    """
    if not isinstance(data, Mapping):
        raise SerializationError("enforce envelope needs a request object")
    transformation = data.get("transformation")
    if not isinstance(transformation, str) or not transformation.strip():
        raise SerializationError("request needs QVT-R transformation text")
    targets = data.get("targets", [])
    if not isinstance(targets, list) or not all(
        isinstance(t, str) for t in targets
    ):
        raise SerializationError("targets must be a list of parameter names")
    weights = data.get("weights", {})
    if not isinstance(weights, Mapping):
        raise SerializationError("weights must be a JSON object")
    return _shape(
        transformation,
        targets,
        data.get("semantics", EXTENDED),
        weights,
        scope_from_dict(data.get("scope")),
        data.get("mode", INCREASING),
    )


def shard_digest(key: tuple) -> str:
    """A short stable digest of a shape key, for logs and stats.

    Frozensets are sorted first — their ``repr`` order follows string
    hash randomisation, and the digest must name the same shape across
    runs and processes.
    """
    canonical = tuple(
        tuple(sorted(part)) if isinstance(part, frozenset) else part
        for part in key
    )
    return hashlib.sha1(repr(canonical).encode()).hexdigest()[:10]


def request_digest(data: Mapping[str, Any]) -> str:
    """A stable content digest of one *wire-form* request.

    Where :func:`shard_digest` names a question *shape* (many requests),
    this names one exact request — transformation, models, targets,
    everything. It is the daemon's identity for poison-request
    quarantine: a request that keeps killing its worker is recognised
    on resubmission by this digest, whatever envelope id or connection
    it arrives on. Computed from the canonical JSON text, so it is
    stable across processes and daemon restarts.
    """
    text = json.dumps(data, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha1(text.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------
def request_to_dict(request: EnforceRequest) -> dict[str, Any]:
    """The JSON-ready wire form of ``request`` (stable across PRs)."""
    return {
        "format": REQUEST_FORMAT,
        "kind": "enforce-request",
        "transformation": request.transformation,
        "metamodels": [metamodel_to_dict(mm) for mm in request.metamodels],
        "models": {
            param: model_to_dict(model)
            for param, model in sorted(request.models.items())
        },
        "targets": sorted(request.targets),
        "semantics": request.semantics,
        "weights": dict(request.weights),
        "scope": scope_to_dict(request.scope),
        "mode": request.mode,
        "max_distance": request.max_distance,
    }


#: The exact top-level fields of one wire-form request/response. Strict
#: parsing rejects anything else by name: a typo'd field ("wieghts")
#: must fail loudly, not silently fall back to a default.
_REQUEST_FIELDS = frozenset(
    (
        "format", "kind", "transformation", "metamodels", "models",
        "targets", "semantics", "weights", "scope", "mode", "max_distance",
    )
)
_RESPONSE_FIELDS = frozenset(
    ("format", "kind", "outcome", "distance", "models", "changed",
     "engine", "error")
)
_SCOPE_FIELDS = frozenset(("extra_objects", "extra_strings", "extra_ints"))


def _reject_unknown(
    data: Mapping[str, Any], allowed: frozenset, what: str
) -> None:
    unknown = sorted(str(name) for name in set(data) - allowed)
    if unknown:
        raise SerializationError(
            f"{what} has unknown field {unknown[0]!r} "
            f"(allowed: {', '.join(sorted(allowed))})"
        )


def request_from_dict(data: Mapping[str, Any]) -> EnforceRequest:
    """Rebuild a request from :func:`request_to_dict` output.

    Raises :class:`~repro.errors.SerializationError` on malformed input
    — the error path the batch CLI surfaces per request instead of
    aborting the whole batch file. Strict: an unknown top-level field is
    rejected by name (missing optional fields still default).
    """
    _expect(data, "enforce-request")
    _reject_unknown(data, _REQUEST_FIELDS, "enforce-request")
    metamodels = tuple(
        metamodel_from_dict(mm) for mm in data.get("metamodels", [])
    )
    by_name = {mm.name: mm for mm in metamodels}
    models: dict[str, Model] = {}
    for param, payload in data.get("models", {}).items():
        if not isinstance(payload, Mapping):
            raise SerializationError(
                f"model for parameter {param!r} must be a JSON object"
            )
        name = payload.get("metamodel", "")
        metamodel = by_name.get(name)
        if metamodel is None:
            raise SerializationError(
                f"model {param!r} references metamodel {name!r}, which the "
                "request does not carry"
            )
        models[param] = model_from_dict(dict(payload), metamodel)
    targets = data.get("targets", [])
    if not isinstance(targets, list) or not all(
        isinstance(t, str) for t in targets
    ):
        raise SerializationError("targets must be a list of parameter names")
    transformation = data.get("transformation")
    if not isinstance(transformation, str) or not transformation.strip():
        raise SerializationError("request needs QVT-R transformation text")
    return EnforceRequest(
        transformation=transformation,
        metamodels=metamodels,
        models=models,
        targets=frozenset(targets),
        semantics=data.get("semantics", EXTENDED),
        weights=check_weights(data.get("weights", {})),
        scope=scope_from_dict(data.get("scope")),
        mode=check_mode(data.get("mode", INCREASING)),
        max_distance=check_max_distance(data.get("max_distance")),
    )


def _is_count(value: Any) -> bool:
    """Whether ``value`` is a JSON integer >= 0 (``bool`` excluded)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _is_seconds(value: Any, positive: bool) -> bool:
    """Whether ``value`` is a finite number of seconds (``bool``
    excluded), > 0 when ``positive`` and >= 0 otherwise."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and (value > 0 if positive else value >= 0)
    )


def check_weights(value: Any) -> dict[str, int]:
    """``value`` as weights (names to integers >= 0), else a typed error."""
    if isinstance(value, Mapping) and all(
        isinstance(param, str) and _is_count(weight)
        for param, weight in value.items()
    ):
        return dict(value)
    raise SerializationError(
        "field 'weights' must map parameter names to integers >= 0, "
        f"got {value!r}"
    )


def check_mode(value: Any) -> str:
    """``value`` as a MaxSAT mode, else a typed error naming the field."""
    if value in (INCREASING, DECREASING):
        return value
    raise SerializationError(
        f"field 'mode' must be {INCREASING!r} or {DECREASING!r}, "
        f"got {value!r}"
    )


def check_max_distance(value: Any) -> int | None:
    """``value`` as a distance cap: an integer >= 0 or None.

    Raises :class:`~repro.errors.SerializationError` naming the field for
    anything else — a string, a float, a bool or a negative number would
    otherwise surface as a raw ``TypeError`` mid-solve or silently answer
    ``no-repair``.
    """
    if value is None or _is_count(value):
        return value
    raise SerializationError(
        f"field 'max_distance' must be an integer >= 0 or null, got {value!r}"
    )


def response_to_dict(response: EnforceResponse) -> dict[str, Any]:
    """The JSON-ready wire form of ``response``."""
    return {
        "format": REQUEST_FORMAT,
        "kind": "enforce-response",
        "outcome": response.outcome,
        "distance": response.distance,
        "models": {
            param: model_to_dict(model)
            for param, model in sorted(response.models.items())
        },
        "changed": sorted(response.changed),
        "engine": response.engine,
        "error": response.error,
    }


def response_from_dict(
    data: Mapping[str, Any], metamodels: Iterable[Metamodel]
) -> EnforceResponse:
    """Rebuild a response; ``metamodels`` come from the paired request.

    Strict like :func:`request_from_dict`: a missing ``outcome`` or an
    unknown top-level field raises a typed
    :class:`~repro.errors.SerializationError` naming the field — never a
    bare ``KeyError``.
    """
    _expect(data, "enforce-response")
    _reject_unknown(data, _RESPONSE_FIELDS, "enforce-response")
    outcome = data.get("outcome")
    if not isinstance(outcome, str) or not outcome:
        raise SerializationError(
            "enforce-response is missing field 'outcome'"
            if "outcome" not in data
            else f"enforce-response field 'outcome' must be a non-empty "
            f"string, got {outcome!r}"
        )
    by_name = {mm.name: mm for mm in metamodels}
    models: dict[str, Model] = {}
    payloads = data.get("models", {})
    if not isinstance(payloads, Mapping):
        raise SerializationError(
            "enforce-response field 'models' must be a JSON object"
        )
    for param, payload in payloads.items():
        if not isinstance(payload, Mapping):
            raise SerializationError(
                f"response model {param!r} must be a JSON object"
            )
        metamodel = by_name.get(payload.get("metamodel", ""))
        if metamodel is None:
            raise SerializationError(
                f"response model {param!r} references an unknown metamodel"
            )
        models[param] = model_from_dict(dict(payload), metamodel)
    return EnforceResponse(
        outcome=outcome,
        distance=data.get("distance"),
        models=models,
        changed=frozenset(data.get("changed", [])),
        engine=data.get("engine"),
        error=data.get("error"),
    )


def request_to_json(request: EnforceRequest) -> str:
    """Canonical JSON text for ``request`` (sorted keys, no whitespace)."""
    return json.dumps(
        request_to_dict(request), sort_keys=True, separators=(",", ":")
    )


def scope_to_dict(scope: Scope | None) -> dict[str, Any] | None:
    if scope is None:
        return None
    return {
        "extra_objects": scope.extra_objects,
        "extra_strings": scope.extra_strings,
        "extra_ints": list(scope.extra_ints),
    }


def scope_from_dict(data: Mapping[str, Any] | None) -> Scope | None:
    """Rebuild a scope; missing fields default, unknown fields reject.

    The asymmetry is deliberate: hand-written batch entries may give a
    partial scope (``{"extra_objects": 2}``), but a *typo'd* field
    (``"extra_object"``) must fail by name instead of silently running
    with defaults.
    """
    if data is None:
        return None
    if not isinstance(data, Mapping):
        raise SerializationError("scope must be a JSON object or null")
    _reject_unknown(data, _SCOPE_FIELDS, "scope")
    for name in ("extra_objects", "extra_strings"):
        if not _is_count(data.get(name, 1)):
            raise SerializationError(
                f"field 'scope.{name}' must be an integer >= 0, "
                f"got {data[name]!r}"
            )
    extra_ints = data.get("extra_ints", [0, 1])
    if not isinstance(extra_ints, list) or not all(
        isinstance(value, int) and not isinstance(value, bool)
        for value in extra_ints
    ):
        raise SerializationError(
            "field 'scope.extra_ints' must be a list of integers, "
            f"got {extra_ints!r}"
        )
    return Scope(
        extra_objects=data.get("extra_objects", 1),
        extra_strings=data.get("extra_strings", 1),
        extra_ints=tuple(extra_ints),
    )


def _expect(data: Mapping[str, Any], kind: str) -> None:
    if not isinstance(data, Mapping):
        raise SerializationError(f"expected a JSON object for an {kind}")
    if data.get("kind") != kind:
        raise SerializationError(
            f"expected kind={kind!r}, got {data.get('kind')!r}"
        )
    if data.get("format", REQUEST_FORMAT) != REQUEST_FORMAT:
        raise SerializationError(
            f"unsupported request format {data.get('format')!r}"
        )
