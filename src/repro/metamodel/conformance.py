"""Conformance checking: does a model inhabit its metamodel?

The checker reports *all* problems as structured diagnostics instead of
failing at the first one; enforcement uses conformance as a hard
constraint, tests use the diagnostics to pinpoint regressions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConformanceError
from repro.metamodel.meta import UNBOUNDED
from repro.metamodel.model import Model
from repro.metamodel.types import type_name, value_conforms


@dataclass(frozen=True)
class Diagnostic:
    """One conformance violation, located at an object and feature."""

    oid: str
    feature: str
    message: str

    def __str__(self) -> str:
        where = f"{self.oid}.{self.feature}" if self.feature else self.oid
        return f"{where}: {self.message}"


def check_conformance(model: Model) -> list[Diagnostic]:
    """All conformance violations of ``model`` against its metamodel.

    Checked per object: the class exists and is concrete; every mandatory
    attribute has a value of the declared type; no undeclared slots; all
    reference targets exist, have the declared type, and respect the
    multiplicity bounds.
    """
    mm = model.metamodel
    diagnostics: list[Diagnostic] = []
    for obj in model.objects:
        if not mm.has_class(obj.cls):
            diagnostics.append(Diagnostic(obj.oid, "", f"unknown class {obj.cls!r}"))
            continue
        if mm.cls(obj.cls).abstract:
            diagnostics.append(
                Diagnostic(obj.oid, "", f"instantiates abstract class {obj.cls!r}")
            )
        declared_attrs = mm.all_attributes(obj.cls)
        declared_refs = mm.all_references(obj.cls)
        for name, _value in obj.attrs:
            if name not in declared_attrs:
                diagnostics.append(Diagnostic(obj.oid, name, "undeclared attribute"))
        for name, attr in declared_attrs.items():
            if not attr.optional and not obj.has_attr(name):
                diagnostics.append(Diagnostic(obj.oid, name, "mandatory attribute unset"))
        for name, targets in obj.refs:
            ref = declared_refs.get(name)
            if ref is None:
                diagnostics.append(Diagnostic(obj.oid, name, "undeclared reference"))
                continue
            for target in targets:
                other = model.get_or_none(target)
                if other is None:
                    diagnostics.append(
                        Diagnostic(obj.oid, name, f"dangling target {target!r}")
                    )
                elif mm.has_class(other.cls) and not mm.is_subclass(other.cls, ref.target):
                    diagnostics.append(
                        Diagnostic(
                            obj.oid,
                            name,
                            f"target {target!r} has class {other.cls!r}, "
                            f"expected {ref.target!r}",
                        )
                    )
        for name, ref in declared_refs.items():
            count = len(obj.targets(name))
            if count < ref.lower:
                diagnostics.append(
                    Diagnostic(obj.oid, name, f"{count} targets, lower bound is {ref.lower}")
                )
            if ref.upper != UNBOUNDED and count > ref.upper:
                diagnostics.append(
                    Diagnostic(obj.oid, name, f"{count} targets, upper bound is {ref.upper}")
                )
    return diagnostics + ill_typed(model)


def ill_typed(model: Model) -> list[Diagnostic]:
    """The declared attribute values of ``model`` outside their type
    (``1`` for a Boolean): the value faults of :func:`check_conformance`."""
    mm = model.metamodel
    return [
        Diagnostic(
            obj.oid, name, f"value {value!r} does not conform to {type_name(attr.type)}"
        )
        for obj in model.objects
        if mm.has_class(obj.cls)
        for declared in [mm.all_attributes(obj.cls)]
        for name, value in obj.attrs
        if name in declared
        for attr in [declared[name]]
        if not value_conforms(value, attr.type)
    ]


def is_conformant(model: Model) -> bool:
    """Whether ``model`` has no conformance violations."""
    return not check_conformance(model)


def assert_conformant(model: Model) -> None:
    """Raise :class:`ConformanceError` listing all violations, if any."""
    diagnostics = check_conformance(model)
    if diagnostics:
        listing = "; ".join(str(d) for d in diagnostics)
        raise ConformanceError(
            f"model {model.name or model.metamodel.name!r} does not conform: {listing}"
        )
