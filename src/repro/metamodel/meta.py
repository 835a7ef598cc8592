"""Metamodel structure: classes, attributes, references, inheritance.

A :class:`Metamodel` is a closed, validated collection of classes. All
lookups used by the checking and enforcement engines (attribute tables
with inheritance flattened, subclass tests, concrete-class enumeration)
are computed once at construction so the hot paths are dictionary reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MetamodelError
from repro.metamodel.types import AttrType, EnumType

#: Upper bound value meaning "unbounded" (the ``*`` multiplicity).
UNBOUNDED = -1


@dataclass(frozen=True)
class Attribute:
    """A single-valued typed attribute.

    ``optional`` attributes may be absent from a conformant object; all
    others must carry exactly one value of ``type``.
    """

    name: str
    type: AttrType
    optional: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise MetamodelError("attribute needs a non-empty name")


@dataclass(frozen=True)
class Reference:
    """A directed, possibly-many reference to objects of ``target``.

    ``lower``/``upper`` are multiplicity bounds; ``upper == UNBOUNDED``
    means no upper limit. ``containment`` marks ownership (a contained
    object disappears with its container under conformance repair).
    """

    name: str
    target: str
    lower: int = 0
    upper: int = UNBOUNDED
    containment: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise MetamodelError("reference needs a non-empty name")
        if self.lower < 0:
            raise MetamodelError(f"reference {self.name!r}: lower bound must be >= 0")
        if self.upper != UNBOUNDED and self.upper < self.lower:
            raise MetamodelError(
                f"reference {self.name!r}: upper bound {self.upper} below lower {self.lower}"
            )


@dataclass(frozen=True)
class Class:
    """A metamodel class with its locally declared features."""

    name: str
    attributes: tuple[Attribute, ...] = ()
    references: tuple[Reference, ...] = ()
    supertypes: tuple[str, ...] = ()
    abstract: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise MetamodelError("class needs a non-empty name")
        local_names = [a.name for a in self.attributes] + [r.name for r in self.references]
        duplicates = {n for n in local_names if local_names.count(n) > 1}
        if duplicates:
            raise MetamodelError(
                f"class {self.name!r} declares duplicate features: {sorted(duplicates)}"
            )


@dataclass(frozen=True)
class Metamodel:
    """A validated, closed set of classes and enumerations.

    Construction validates the whole structure: class-name uniqueness,
    known supertypes and reference targets, acyclic inheritance, and no
    feature-name clashes along inheritance chains. Lookup tables are
    precomputed (and cached on the instance) for the engines.
    """

    name: str
    classes: tuple[Class, ...]
    enums: tuple[EnumType, ...] = ()
    _by_name: dict = field(default_factory=dict, repr=False, compare=False, hash=False)
    _attr_table: dict = field(default_factory=dict, repr=False, compare=False, hash=False)
    _ref_table: dict = field(default_factory=dict, repr=False, compare=False, hash=False)
    _ancestors: dict = field(default_factory=dict, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise MetamodelError("metamodel needs a non-empty name")
        by_name: dict[str, Class] = {}
        for cls in self.classes:
            if cls.name in by_name:
                raise MetamodelError(f"duplicate class {cls.name!r} in metamodel {self.name!r}")
            by_name[cls.name] = cls
        enum_names = [e.name for e in self.enums]
        if len(set(enum_names)) != len(enum_names):
            raise MetamodelError(f"duplicate enum names in metamodel {self.name!r}")
        for cls in self.classes:
            for sup in cls.supertypes:
                if sup not in by_name:
                    raise MetamodelError(f"class {cls.name!r} extends unknown class {sup!r}")
            for ref in cls.references:
                if ref.target not in by_name:
                    raise MetamodelError(
                        f"reference {cls.name}.{ref.name} targets unknown class {ref.target!r}"
                    )
        self._by_name.update(by_name)
        self._compute_ancestors()
        self._compute_feature_tables()

    def _compute_ancestors(self) -> None:
        """Topologically flatten the inheritance DAG, rejecting cycles.

        The depth-first walk is a method (:meth:`_visit_ancestors`), not
        a nested function recursing through its own cell: such a closure
        is a reference cycle, which would keep every metamodel a request
        builds alive until a full collection."""
        state: dict[str, int] = {}  # 0 = visiting, 1 = done
        for cls in self.classes:
            self._visit_ancestors(cls.name, (cls.name,), state)

    def _visit_ancestors(
        self, name: str, trail: tuple[str, ...], state: dict[str, int]
    ) -> set[str]:
        if state.get(name) == 0:
            raise MetamodelError(f"inheritance cycle through {name!r}: {' -> '.join(trail)}")
        if state.get(name) == 1:
            return self._ancestors[name]
        state[name] = 0
        result = {name}
        for sup in self._by_name[name].supertypes:
            result |= self._visit_ancestors(sup, trail + (sup,), state)
        state[name] = 1
        self._ancestors[name] = result
        return result

    def _compute_feature_tables(self) -> None:
        """Flatten attribute/reference declarations along inheritance."""
        for cls in self.classes:
            attrs: dict[str, Attribute] = {}
            refs: dict[str, Reference] = {}
            # Ancestors first so subclasses could not silently shadow; any
            # clash between distinct declarations is an error.
            for anc_name in sorted(self._ancestors[cls.name]):
                anc = self._by_name[anc_name]
                for attr in anc.attributes:
                    existing = attrs.get(attr.name)
                    if existing is not None and existing != attr:
                        raise MetamodelError(
                            f"class {cls.name!r} inherits conflicting attribute {attr.name!r}"
                        )
                    attrs[attr.name] = attr
                    if attr.name in refs:
                        raise MetamodelError(
                            f"class {cls.name!r}: feature {attr.name!r} is both "
                            "attribute and reference"
                        )
                for ref in anc.references:
                    existing_ref = refs.get(ref.name)
                    if existing_ref is not None and existing_ref != ref:
                        raise MetamodelError(
                            f"class {cls.name!r} inherits conflicting reference {ref.name!r}"
                        )
                    refs[ref.name] = ref
                    if ref.name in attrs:
                        raise MetamodelError(
                            f"class {cls.name!r}: feature {ref.name!r} is both "
                            "attribute and reference"
                        )
            self._attr_table[cls.name] = attrs
            self._ref_table[cls.name] = refs

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def cls(self, name: str) -> Class:
        """The class named ``name`` (raises :class:`MetamodelError` if absent)."""
        try:
            return self._by_name[name]
        except KeyError:
            raise MetamodelError(f"metamodel {self.name!r} has no class {name!r}") from None

    def has_class(self, name: str) -> bool:
        """Whether a class named ``name`` exists."""
        return name in self._by_name

    def enum(self, name: str) -> EnumType:
        """The enumeration named ``name``."""
        for e in self.enums:
            if e.name == name:
                return e
        raise MetamodelError(f"metamodel {self.name!r} has no enum {name!r}")

    def all_attributes(self, class_name: str) -> dict[str, Attribute]:
        """All attributes of ``class_name``, inherited ones included."""
        self.cls(class_name)
        return dict(self._attr_table[class_name])

    def all_references(self, class_name: str) -> dict[str, Reference]:
        """All references of ``class_name``, inherited ones included."""
        self.cls(class_name)
        return dict(self._ref_table[class_name])

    def attribute(self, class_name: str, attr_name: str) -> Attribute:
        """The (possibly inherited) attribute ``attr_name`` of ``class_name``."""
        self.cls(class_name)
        try:
            return self._attr_table[class_name][attr_name]
        except KeyError:
            raise MetamodelError(
                f"class {class_name!r} has no attribute {attr_name!r}"
            ) from None

    def reference(self, class_name: str, ref_name: str) -> Reference:
        """The (possibly inherited) reference ``ref_name`` of ``class_name``."""
        self.cls(class_name)
        try:
            return self._ref_table[class_name][ref_name]
        except KeyError:
            raise MetamodelError(f"class {class_name!r} has no reference {ref_name!r}") from None

    def is_subclass(self, sub: str, sup: str) -> bool:
        """Whether ``sub`` equals or transitively extends ``sup``."""
        self.cls(sub)
        self.cls(sup)
        return sup in self._ancestors[sub]

    def concrete_classes(self, of: str | None = None) -> list[str]:
        """Concrete class names, optionally restricted to subclasses of ``of``."""
        names = [c.name for c in self.classes if not c.abstract]
        if of is not None:
            names = [n for n in names if self.is_subclass(n, of)]
        return sorted(names)

    def class_names(self) -> list[str]:
        """All class names in declaration-independent sorted order."""
        return sorted(self._by_name)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"Metamodel({self.name}, {len(self.classes)} classes)"
