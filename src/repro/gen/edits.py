"""Seeded random edit streams over model tuples.

Edits are the user's face of the Echo loop: drift an attribute, rename
an anchor, delete or create an object, rewire a reference. The
generators here produce *applicable* edits (every edit is valid on the
model it targets, per :func:`repro.metamodel.edits.apply_edit`) but make
no conformance or consistency promises — breaking consistency is the
point, that is what enforcement questions are made of.

Three stream shapes matter to the enforcement-session machinery:

* :func:`perturb` — a handful of edits spread over the tuple, producing
  one enforcement question from a consistent base state;
* :func:`oscillating_tuples` — a frozen (non-target) model flipping
  between two variants: each flip escapes the active grounding of an
  :class:`~repro.enforce.session.EnforcementSession`, and each return
  repeats a state its answer memory already holds;
* :func:`in_universe_stream` — target models drifting strictly *inside*
  the grounding universe of the starting tuple (attribute values from
  the tuple's own active domain, reference rewires between existing
  objects, deletions — never additions or fresh values), the batch
  access pattern of :mod:`repro.serve` where one grounding must serve a
  whole shard of requests.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence
from typing import Any

from repro.errors import GenerationError, SerializationError
from repro.gen.instances import INT_POOL, STRING_POOL, random_value
from repro.metamodel.edits import (
    AddObject,
    AddRef,
    Edit,
    RemoveObject,
    RemoveRef,
    SetAttr,
    UnsetAttr,
    apply_edit,
)
from repro.metamodel.model import Model
from repro.metamodel.types import EnumType, PrimitiveType
from repro.util.seeding import rng_from_seed


def random_edit(
    rng: random.Random,
    model: Model,
    *,
    string_pool: Sequence[str] = STRING_POOL,
    int_pool: Sequence[int] = INT_POOL,
    p_fresh_value: float = 0.2,
) -> Edit | None:
    """One applicable random edit on ``model`` (or ``None`` if the model
    admits no edit at all — an empty model of a class-less metamodel).

    ``p_fresh_value`` is the chance a ``SetAttr`` drifts to a string
    *outside* the pools — the out-of-universe drift that forces cached
    groundings to re-ground.
    """
    mm = model.metamodel
    candidates: list[Edit] = []
    for obj in model.objects:
        attrs = mm.all_attributes(obj.cls)
        for attr_name, attr in sorted(attrs.items()):
            if attr.type is PrimitiveType.STRING and rng.random() < p_fresh_value:
                candidates.append(
                    SetAttr(obj.oid, attr_name, f"z{rng.randint(0, 99)}")
                )
                continue
            value = random_value(rng, attr.type, string_pool, int_pool)
            current = obj.attr_or(attr_name)
            if current is None or value != current or (
                isinstance(value, bool) != isinstance(current, bool)
            ):
                candidates.append(SetAttr(obj.oid, attr_name, value))
            if attr.optional and obj.has_attr(attr_name):
                candidates.append(UnsetAttr(obj.oid, attr_name))
        refs = mm.all_references(obj.cls)
        for ref_name, ref in sorted(refs.items()):
            present = obj.targets(ref_name)
            for target in present:
                candidates.append(RemoveRef(obj.oid, ref_name, target))
            for target in model.objects_of(ref.target):
                if target.oid not in present:
                    candidates.append(AddRef(obj.oid, ref_name, target.oid))
        candidates.append(RemoveObject(obj.oid))
    taken = set(model.object_ids())
    for class_name in mm.concrete_classes():
        oid = next(
            (
                f"{class_name.lower()}{i}"
                for i in range(len(taken) + 1)
                if f"{class_name.lower()}{i}" not in taken
            ),
            None,
        )
        if oid is None:
            continue
        attrs = {
            name: random_value(rng, attr.type, string_pool, int_pool)
            for name, attr in sorted(mm.all_attributes(class_name).items())
            if not attr.optional
        }
        candidates.append(AddObject.create(oid, class_name, attrs))
    if not candidates:
        return None
    return rng.choice(candidates)


def anchor_rename(
    rng: random.Random,
    model: Model,
    *,
    string_pool: Sequence[str] = STRING_POOL,
) -> Edit | None:
    """Rename one object's ``name`` anchor attribute (or ``None``).

    The anchor is what generated relations bind across domains, so this
    is the single most consistency-breaking edit shape — perturbations
    lean on it to keep generated enforcement questions non-trivial.
    """
    mm = model.metamodel
    renameable = [
        obj
        for obj in model.objects
        if mm.has_class(obj.cls) and "name" in mm.all_attributes(obj.cls)
    ]
    if not renameable:
        return None
    obj = rng.choice(renameable)
    current = obj.attr_or("name")
    choices = [v for v in string_pool if v != current]
    if not choices:
        return None
    return SetAttr(obj.oid, "name", rng.choice(choices))


def random_edits(
    seed: int | random.Random | None,
    model: Model,
    length: int,
    *,
    string_pool: Sequence[str] = STRING_POOL,
    int_pool: Sequence[int] = INT_POOL,
) -> list[Edit]:
    """An applicable edit script of ``length`` edits (applied cumulatively)."""
    rng = rng_from_seed(seed)
    script: list[Edit] = []
    for _ in range(length):
        edit = random_edit(rng, model, string_pool=string_pool, int_pool=int_pool)
        if edit is None:
            break
        model = apply_edit(model, edit)
        script.append(edit)
    return script


def perturb(
    rng: random.Random,
    models: dict[str, Model],
    n_edits: int,
    *,
    params: Sequence[str] | None = None,
    string_pool: Sequence[str] = STRING_POOL,
    int_pool: Sequence[int] = INT_POOL,
    p_anchor_rename: float = 0.45,
) -> tuple[dict[str, Model], frozenset[str]]:
    """Apply ``n_edits`` random edits across the tuple.

    Returns the edited tuple and the set of parameters actually edited.
    Parameters are drawn from ``params`` (default: all of them); each
    edit is an anchor rename with ``p_anchor_rename`` (falling back to
    an arbitrary edit when the model has nothing to rename).
    """
    pool = sorted(params if params is not None else models)
    edited: set[str] = set()
    out = dict(models)
    for _ in range(n_edits):
        param = rng.choice(pool)
        edit = None
        if rng.random() < p_anchor_rename:
            edit = anchor_rename(rng, out[param], string_pool=string_pool)
        if edit is None:
            edit = random_edit(
                rng, out[param], string_pool=string_pool, int_pool=int_pool
            )
        if edit is None:
            continue
        out[param] = apply_edit(out[param], edit)
        edited.add(param)
    return out, frozenset(edited)


def _in_universe_edit(
    rng: random.Random,
    model: Model,
    pools: dict[PrimitiveType, list],
    counts: dict,
) -> Edit | None:
    """One applicable edit on ``model`` that preserves the tuple's
    grounding universe: same object sets, same tuple-wide value domain.

    Candidates: ``SetAttr`` to a value the tuple already contains (enum
    literals and booleans are always complete candidate pools) and
    reference rewires between existing objects. A string/int value may
    only be overwritten or unset while ``counts`` says another
    occurrence survives elsewhere in the tuple — otherwise the value
    would leave the active domain, and a grounding anchored at the
    edited tuple could no longer express its predecessors (or answer
    the same bounded question the anchor's grounding answers). Objects
    are never added or removed for the same reason.
    """
    mm = model.metamodel
    candidates: list[Edit] = []
    for obj in model.objects:
        for attr_name, attr in sorted(mm.all_attributes(obj.cls).items()):
            if isinstance(attr.type, EnumType):
                # Only literals the tuple already carries: enum literals
                # are strings, and a literal new to the tuple would grow
                # the active string domain of any later-anchored
                # grounding — the same universe drift the droppable
                # guard below prevents in the other direction.
                values = [
                    literal
                    for literal in attr.type.literals
                    if counts.get(literal, 0) > 0
                ]
            elif attr.type is PrimitiveType.BOOLEAN:
                values = [True, False]
            else:
                values = pools.get(attr.type, [])
            current = obj.attr_or(attr_name)
            # The current value may only be overwritten/unset while
            # another occurrence keeps it in the tuple's active domain.
            # This covers *enum* values too: enum literals are strings,
            # and the grounder's string pool collects every string
            # attribute value regardless of the attribute's declared
            # type — dropping the last occurrence would shrink the
            # universe. Booleans feed no pool and are always free.
            droppable = (
                current is None
                or isinstance(current, bool)
                or counts.get(current, 0) >= 2
            )
            if not droppable:
                continue
            for value in values:
                if current is None or value != current or (
                    isinstance(value, bool) != isinstance(current, bool)
                ):
                    candidates.append(SetAttr(obj.oid, attr_name, value))
            if attr.optional and obj.has_attr(attr_name):
                candidates.append(UnsetAttr(obj.oid, attr_name))
        for ref_name, ref in sorted(mm.all_references(obj.cls).items()):
            present = obj.targets(ref_name)
            for target in present:
                candidates.append(RemoveRef(obj.oid, ref_name, target))
            for target in model.objects_of(ref.target):
                if target.oid not in present:
                    candidates.append(AddRef(obj.oid, ref_name, target.oid))
    if not candidates:
        return None
    return rng.choice(candidates)


def in_universe_stream(
    seed: int | random.Random | None,
    models: dict[str, Model],
    params: Sequence[str],
    rounds: int,
) -> list[dict[str, Model]]:
    """``rounds`` tuples drifting the ``params`` models inside the universe.

    The first tuple is ``models`` itself; each following tuple is one
    universe-preserving edit (see :func:`_in_universe_edit`) away from
    its predecessor, applied to one of the ``params`` models. Object
    sets and the tuple-wide active value domain are invariant along the
    stream, so every tuple grounds to the *same* bounded universe: a
    session grounding anchored at any tuple of the stream serves
    all the others by their own objectives alone, and a fresh per-call
    grounding of any tuple answers exactly the same bounded question.
    This is the shard access pattern of the batch service
    (:mod:`repro.serve`) — one grounding per question shape serves the
    whole stream, differentially checkable against per-call SAT.
    """
    rng = rng_from_seed(seed)
    stream = [dict(models)]
    current = dict(models)
    pool = sorted(params)
    domains: dict[PrimitiveType, list] = {
        PrimitiveType.STRING: [],
        PrimitiveType.INTEGER: [],
    }
    counts: dict = {}
    for model in models.values():
        for obj in model.objects:
            for _name, value in obj.attrs:
                if isinstance(value, bool):
                    continue
                if isinstance(value, str):
                    domains[PrimitiveType.STRING].append(value)
                elif isinstance(value, int):
                    domains[PrimitiveType.INTEGER].append(value)
    pools = {t: sorted(set(vs)) for t, vs in domains.items()}
    for _ in range(max(0, rounds - 1)):
        counts = {}
        for model in current.values():
            for obj in model.objects:
                for _name, value in obj.attrs:
                    if isinstance(value, bool):
                        continue
                    counts[value] = counts.get(value, 0) + 1
        edited = False
        for param in rng.sample(pool, len(pool)):
            edit = _in_universe_edit(rng, current[param], pools, counts)
            if edit is None:
                continue
            current = dict(current)
            current[param] = apply_edit(current[param], edit)
            edited = True
            break
        if not edited:
            break
        stream.append(current)
    return stream


# ----------------------------------------------------------------------
# Wire format: the edit vocabulary as plain JSON, for the daemon's
# delta sessions (:mod:`repro.serve.daemon` `edit` envelopes).
# ----------------------------------------------------------------------

#: op tag -> (edit class, required wire fields beyond "op").
_EDIT_OPS: dict[str, tuple[type, tuple[str, ...]]] = {
    "add-object": (AddObject, ("oid", "cls", "attrs")),
    "remove-object": (RemoveObject, ("oid",)),
    "set-attr": (SetAttr, ("oid", "name", "value")),
    "unset-attr": (UnsetAttr, ("oid", "name")),
    "add-ref": (AddRef, ("source", "ref", "target")),
    "remove-ref": (RemoveRef, ("source", "ref", "target")),
}


def edit_to_dict(edit: Edit) -> dict[str, Any]:
    """The JSON-ready wire form of one edit.

    Every edit becomes ``{"op": <tag>, ...}`` with the dataclass fields
    spelled out; ``AddObject`` attrs become a JSON object (pair order
    preserved, so the round trip is exact). Values are already
    JSON-native (:data:`repro.metamodel.types.Value` is
    ``str | bool | int``).
    """
    if isinstance(edit, AddObject):
        return {
            "op": "add-object",
            "oid": edit.oid,
            "cls": edit.cls,
            "attrs": {name: value for name, value in edit.attrs},
        }
    if isinstance(edit, RemoveObject):
        return {"op": "remove-object", "oid": edit.oid}
    if isinstance(edit, SetAttr):
        return {
            "op": "set-attr",
            "oid": edit.oid,
            "name": edit.name,
            "value": edit.value,
        }
    if isinstance(edit, UnsetAttr):
        return {"op": "unset-attr", "oid": edit.oid, "name": edit.name}
    if isinstance(edit, AddRef):
        return {
            "op": "add-ref",
            "source": edit.source,
            "ref": edit.ref,
            "target": edit.target,
        }
    if isinstance(edit, RemoveRef):
        return {
            "op": "remove-ref",
            "source": edit.source,
            "ref": edit.ref,
            "target": edit.target,
        }
    raise SerializationError(f"unknown edit: {edit!r}")


def _edit_string(data: Mapping[str, Any], op: str, field: str) -> str:
    value = data[field]
    if not isinstance(value, str) or not value:
        raise SerializationError(
            f"edit {op!r} field {field!r} must be a non-empty string, "
            f"got {value!r}"
        )
    return value


def _edit_value(op: str, field: str, value: Any) -> Any:
    if not isinstance(value, (str, bool, int)):
        raise SerializationError(
            f"edit {op!r} field {field!r} must be a string, boolean or "
            f"integer, got {type(value).__name__}"
        )
    return value


def edit_from_dict(data: Mapping[str, Any]) -> Edit:
    """Rebuild one edit from :func:`edit_to_dict` output.

    Strict: a missing or mistyped field, an unknown ``op`` and an
    *unknown* field all raise :class:`~repro.errors.SerializationError`
    naming the offending field — a typo'd edit is rejected, never
    silently half-applied.
    """
    if not isinstance(data, Mapping):
        raise SerializationError(
            f"an edit must be a JSON object, got {type(data).__name__}"
        )
    op = data.get("op")
    entry = _EDIT_OPS.get(op) if isinstance(op, str) else None
    if entry is None:
        raise SerializationError(
            f"unknown edit op {op!r} (expected one of "
            f"{', '.join(sorted(_EDIT_OPS))})"
        )
    _cls, fields = entry
    for name in fields:
        if name not in data:
            raise SerializationError(
                f"edit {op!r} is missing field {name!r}"
            )
    unknown = sorted(set(data) - {"op"} - set(fields))
    if unknown:
        raise SerializationError(
            f"edit {op!r} has unknown field {unknown[0]!r}"
        )
    if op == "add-object":
        attrs = data["attrs"]
        if not isinstance(attrs, Mapping):
            raise SerializationError(
                "edit 'add-object' field 'attrs' must be a JSON object, "
                f"got {type(attrs).__name__}"
            )
        for name in attrs:
            if not isinstance(name, str):
                raise SerializationError(
                    "edit 'add-object' attrs keys must be strings, "
                    f"got {name!r}"
                )
        return AddObject(
            _edit_string(data, op, "oid"),
            _edit_string(data, op, "cls"),
            tuple(
                (name, _edit_value(op, f"attrs[{name}]", value))
                for name, value in attrs.items()
            ),
        )
    if op == "remove-object":
        return RemoveObject(_edit_string(data, op, "oid"))
    if op == "set-attr":
        return SetAttr(
            _edit_string(data, op, "oid"),
            _edit_string(data, op, "name"),
            _edit_value(op, "value", data["value"]),
        )
    if op == "unset-attr":
        return UnsetAttr(
            _edit_string(data, op, "oid"), _edit_string(data, op, "name")
        )
    if op == "add-ref":
        return AddRef(
            _edit_string(data, op, "source"),
            _edit_string(data, op, "ref"),
            _edit_string(data, op, "target"),
        )
    return RemoveRef(
        _edit_string(data, op, "source"),
        _edit_string(data, op, "ref"),
        _edit_string(data, op, "target"),
    )


def edits_to_wire(
    edits: Mapping[str, Sequence[Edit]],
) -> dict[str, list[dict[str, Any]]]:
    """A per-parameter edit script map as plain JSON (the daemon's
    ``edit`` envelope payload)."""
    return {
        param: [edit_to_dict(edit) for edit in script]
        for param, script in edits.items()
    }


def edits_from_wire(data: Any) -> dict[str, tuple[Edit, ...]]:
    """Rebuild per-parameter edit scripts from :func:`edits_to_wire`.

    Strict like :func:`edit_from_dict`: the payload must be a JSON
    object mapping parameter names to lists of edit objects, and every
    malformed corner is a typed :class:`~repro.errors.SerializationError`
    naming what offended.
    """
    if not isinstance(data, Mapping):
        raise SerializationError(
            "an edit payload must be a JSON object mapping parameters to "
            f"edit lists, got {type(data).__name__}"
        )
    out: dict[str, tuple[Edit, ...]] = {}
    for param, script in data.items():
        if not isinstance(param, str) or not param:
            raise SerializationError(
                f"edit payload keys must be parameter names, got {param!r}"
            )
        if not isinstance(script, Sequence) or isinstance(
            script, (str, bytes)
        ):
            raise SerializationError(
                f"edits for parameter {param!r} must be a list, "
                f"got {type(script).__name__}"
            )
        out[param] = tuple(edit_from_dict(edit) for edit in script)
    return out


def oscillating_tuples(
    seed: int | random.Random | None,
    models: dict[str, Model],
    param: str,
    rounds: int,
    *,
    string_pool: Sequence[str] = STRING_POOL,
    int_pool: Sequence[int] = INT_POOL,
) -> list[dict[str, Model]]:
    """``rounds`` tuples whose ``param`` model flips between two variants.

    The first variant is ``models[param]`` itself; the second is one
    random edit away. When ``param`` is frozen (not an enforcement
    target) every flip drifts the frozen side of a cached grounding.
    """
    rng = rng_from_seed(seed)
    variant_a = models[param]
    edit = random_edit(
        rng, variant_a, string_pool=string_pool, int_pool=int_pool
    )
    if edit is None:
        raise GenerationError(f"model {param!r} admits no oscillation edit")
    variant_b = apply_edit(variant_a, edit)
    stream = []
    for i in range(rounds):
        tuple_ = dict(models)
        tuple_[param] = variant_a if i % 2 == 0 else variant_b
        stream.append(tuple_)
    return stream
