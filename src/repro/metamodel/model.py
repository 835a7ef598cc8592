"""Model instances: immutable typed object graphs.

Models are immutable: every update produces a new :class:`Model` sharing
unchanged :class:`ModelObject` records with its predecessor. Enforcement
explores thousands of candidate models, so cheap copies, structural
equality and hashing are load-bearing here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Mapping

from repro.errors import ModelError
from repro.metamodel.meta import Metamodel
from repro.metamodel.types import Value


@dataclass(frozen=True)
class ModelObject:
    """One object: an id, a class, attribute slots and reference slots.

    Slots are stored as sorted tuples so two objects with the same content
    compare equal and hash identically regardless of construction order.
    Reference slots hold *unordered* target sets (sorted tuples).
    """

    oid: str
    cls: str
    attrs: tuple[tuple[str, Value], ...] = ()
    refs: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def __post_init__(self) -> None:
        if not self.oid:
            raise ModelError("object needs a non-empty id")
        object.__setattr__(self, "attrs", tuple(sorted(self.attrs)))
        object.__setattr__(
            self, "refs", tuple(sorted((n, tuple(sorted(set(ts)))) for n, ts in self.refs))
        )

    @staticmethod
    def create(
        oid: str,
        cls: str,
        attrs: Mapping[str, Value] | None = None,
        refs: Mapping[str, Iterable[str]] | None = None,
    ) -> "ModelObject":
        """Build an object from plain mappings."""
        return ModelObject(
            oid=oid,
            cls=cls,
            attrs=tuple((attrs or {}).items()),
            refs=tuple((n, tuple(ts)) for n, ts in (refs or {}).items()),
        )

    # ------------------------------------------------------------------
    # Slot access
    # ------------------------------------------------------------------
    def attr(self, name: str) -> Value:
        """The value of attribute ``name`` (raises if unset)."""
        for slot, value in self.attrs:
            if slot == name:
                return value
        raise ModelError(f"object {self.oid!r} has no value for attribute {name!r}")

    def attr_or(self, name: str, default: Value | None = None) -> Value | None:
        """The value of attribute ``name`` or ``default`` when unset."""
        for slot, value in self.attrs:
            if slot == name:
                return value
        return default

    def has_attr(self, name: str) -> bool:
        """Whether attribute ``name`` carries a value."""
        return any(slot == name for slot, _ in self.attrs)

    def targets(self, ref: str) -> tuple[str, ...]:
        """The target object ids of reference ``ref`` (possibly empty)."""
        for slot, ts in self.refs:
            if slot == ref:
                return ts
        return ()

    def attr_dict(self) -> dict[str, Value]:
        """Attribute slots as a fresh dict."""
        return dict(self.attrs)

    def ref_dict(self) -> dict[str, tuple[str, ...]]:
        """Reference slots as a fresh dict."""
        return dict(self.refs)

    # ------------------------------------------------------------------
    # Functional updates
    # ------------------------------------------------------------------
    def with_attr(self, name: str, value: Value) -> "ModelObject":
        """A copy with attribute ``name`` set to ``value``."""
        attrs = dict(self.attrs)
        attrs[name] = value
        return ModelObject(self.oid, self.cls, tuple(attrs.items()), self.refs)

    def without_attr(self, name: str) -> "ModelObject":
        """A copy with attribute ``name`` unset."""
        attrs = [(n, v) for n, v in self.attrs if n != name]
        return ModelObject(self.oid, self.cls, tuple(attrs), self.refs)

    def with_target(self, ref: str, target: str) -> "ModelObject":
        """A copy with ``target`` added to reference ``ref``."""
        refs = dict(self.refs)
        refs[ref] = tuple(sorted(set(refs.get(ref, ())) | {target}))
        return ModelObject(self.oid, self.cls, self.attrs, tuple(refs.items()))

    def without_target(self, ref: str, target: str) -> "ModelObject":
        """A copy with ``target`` removed from reference ``ref``."""
        refs = dict(self.refs)
        remaining = tuple(t for t in refs.get(ref, ()) if t != target)
        if remaining:
            refs[ref] = remaining
        else:
            refs.pop(ref, None)
        return ModelObject(self.oid, self.cls, self.attrs, tuple(refs.items()))


@dataclass(frozen=True)
class Model:
    """An immutable model conforming (or meant to conform) to a metamodel.

    ``name`` identifies the model inside a multi-model environment (it is
    the identifier QVT-R domains bind to, e.g. ``cf1``); equality and
    hashing intentionally ignore it so that two structurally identical
    models compare equal regardless of their role.
    """

    metamodel: Metamodel
    objects: tuple[ModelObject, ...] = ()
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for obj in self.objects:
            if obj.oid in seen:
                raise ModelError(f"duplicate object id {obj.oid!r} in model {self.name!r}")
            seen.add(obj.oid)
        object.__setattr__(self, "objects", tuple(sorted(self.objects, key=lambda o: o.oid)))
        object.__setattr__(self, "_index", {o.oid: o for o in self.objects})

    def __hash__(self) -> int:
        # Hashed once, lazily: a session's answer-memory key hashes
        # whole models on every request.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = self.__dict__["_hash"] = hash((self.metamodel, self.objects))
        return cached

    def __getstate__(self) -> dict:
        # str hashes are salted per process, so a pickle carries none.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, oid: str) -> ModelObject:
        """The object with id ``oid`` (raises if absent)."""
        index: dict[str, ModelObject] = self.__dict__["_index"]
        try:
            return index[oid]
        except KeyError:
            raise ModelError(f"model {self.name!r} has no object {oid!r}") from None

    def get_or_none(self, oid: str) -> ModelObject | None:
        """The object with id ``oid`` or ``None``."""
        index: dict[str, ModelObject] = self.__dict__["_index"]
        return index.get(oid)

    def has(self, oid: str) -> bool:
        """Whether an object with id ``oid`` exists."""
        return oid in self.__dict__["_index"]

    def object_ids(self) -> list[str]:
        """All object ids, sorted."""
        return [o.oid for o in self.objects]

    def objects_of(self, class_name: str, include_subclasses: bool = True) -> list[ModelObject]:
        """Objects whose class is (a subclass of) ``class_name``."""
        if include_subclasses:
            return [
                o
                for o in self.objects
                if self.metamodel.has_class(o.cls)
                and self.metamodel.is_subclass(o.cls, class_name)
            ]
        return [o for o in self.objects if o.cls == class_name]

    def size(self) -> int:
        """Number of objects."""
        return len(self.objects)

    def attribute_values(self) -> list[Value]:
        """Every attribute value appearing in the model (with duplicates removed).

        This is the model's contribution to the *active domain* used as
        the bounded value scope by checking and enforcement.
        """
        seen: set[Value] = set()
        out: list[Value] = []
        for obj in self.objects:
            for _, value in obj.attrs:
                if value not in seen:
                    seen.add(value)
                    out.append(value)
        return out

    # ------------------------------------------------------------------
    # Functional updates
    # ------------------------------------------------------------------
    def with_object(self, obj: ModelObject) -> "Model":
        """A copy with ``obj`` added or replaced."""
        rest = tuple(o for o in self.objects if o.oid != obj.oid)
        return Model(self.metamodel, rest + (obj,), self.name)

    def without_object(self, oid: str) -> "Model":
        """A copy with object ``oid`` removed, plus all references to it."""
        self.get(oid)
        remaining = []
        for obj in self.objects:
            if obj.oid == oid:
                continue
            for ref, ts in obj.refs:
                if oid in ts:
                    obj = obj.without_target(ref, oid)
            remaining.append(obj)
        return Model(self.metamodel, tuple(remaining), self.name)

    def renamed(self, name: str) -> "Model":
        """A copy playing a different role (same structure, new name)."""
        return Model(self.metamodel, self.objects, name)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or self.metamodel.name
        return f"Model({label}, {len(self.objects)} objects)"
