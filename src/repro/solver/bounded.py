"""Bounded grounding of directional checks into propositional logic.

This is the reproduction's Kodkod: given a model tuple, a set of *target*
parameters (the models enforcement may change) and the directional checks
to maintain, it produces

* a **universe** per target model — existing objects plus ``extra``
  fresh ones per concrete class — and per-type value pools (the active
  domain of the whole tuple plus fresh synthetic values: the analogue of
  Alloy scopes);
* **structural constraints** — alive/attribute/reference variables wired
  so that every satisfying assignment decodes to a *conformant* model;
* **consistency constraints** — each directional check ``R_{S->T}``
  grounded over all symbolic bindings of its source patterns;
* **distance soft clauses** — one unit soft clause per atom of the
  bounded universe, preferring the original value, so the violated soft
  weight *is* the graph-edit distance of :mod:`repro.metamodel.distance`
  (weighted per model when a weight map is given). A later state of the
  same shape gets its own soft literals the same way, off the atom
  tables (:meth:`GroundingResult.origin_assumptions`), so one grounding
  serves every state its universe can express.

Supported fragment: flat templates whose properties equate *attributes*
to variables or literals, with no when/where clauses (see
:class:`~repro.errors.SatFragmentError`). The paper's ``MF``/``OF``
relations live comfortably inside it.

Pruning contract
----------------

``Grounder(prune=True)`` (the default) never enumerates a symbolic
binding whose guard a frozen model already refutes. Frozen (non-target)
source patterns are *matched* against their model — attribute-to-literal
equations filter the object pool, attribute-to-variable equations pin
the variable to the object's actual value — and only the joined matches
extend into the symbolic product, so the enumerated space shrinks from
``|universe|^k x |pools|^m`` to the type- and guard-feasible subset.
Frozen *target* patterns short-circuit the conclusion disjunction to a
constant by direct matching. The pruned grounder asserts exactly the
same implications (with the same multiplicity) as ``prune=False``: the
skipped bindings are precisely those with a false guard atom, which the
naive loop enumerates only to discard.
``Grounder.bindings_enumerated`` counts candidate bindings process-wide
so ``tests/test_grounding_fastpath.py`` can compare arms.

Caching contract
----------------

The grounder writes clause literals directly: every atom (alive,
``attr = value``, reference) is an int literal on a target model and a
Python bool on a frozen one, memoised per :class:`GroundModel`. A
:class:`GroundingContext` carries the CNF, variable pool, definition
caches and totalizer cache *across* groundings of one question shape
(transformation, targets, metamodels, scope, weights), so a re-ground
only pays for atoms, definitions and counters the context has never
seen. Soundness is split by clause kind:

* **one clause per binding.** A directional check ``R_{S->T}`` asserts
  ``[-selector] + [-g for g in guard] + [conclusion]`` per source
  binding, where the guard is the binding's source atoms. A false guard
  atom skips the binding, a true conclusion skips it, and a false
  conclusion drops its literal (true guard atoms drop theirs);
* **one-directional definitions.** A conclusion disjunct of two or
  more atoms gets an aux ``t`` with only the clauses ``t -> a``; a
  conclusion of two or more disjuncts gets an aux ``c`` with the one
  clause ``c -> t1 | ... | tm``. Conclusions occur only positively, so
  the other direction is never needed. Both are cached by their
  literal tuple in the context. Setting the aux false satisfies its
  definition under every atom assignment, so the definitions (like
  totalizer counters and their on-demand extensions,
  value-implies-alive, reference-implies-alive and at-most bounds) are
  valid for every generation and are emitted once, deduplicated;
* **no distance clauses.** A state's distance is its own atom literals,
  assumed per query as unit soft literals, so no state is baked into
  the CNF and a new state adds no clause;
* **generation-dependent assertions** (the per-binding clauses,
  mandatory-attribute completeness, reference lower bounds) quantify
  over the *current* universe/pools and are guarded by a per-generation
  **selector** literal — solvers must assume
  :meth:`GroundingResult.base_assumptions`, and a re-ground retires the
  previous generation by switching selectors;
* **symmetry-breaking chains** are guarded by a separate per-generation
  selector (``GroundingResult.symmetry``) so optimum searches can
  assume them while oracle-style queries — which pin arbitrary
  in-universe states — must not.

Without a context the grounder keeps private caches, asserts plainly
and uses no selectors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence

from repro.deps.dependency import Dependency
from repro.errors import SatFragmentError, SolverError
from repro.expr import ast as e
from repro.metamodel.meta import UNBOUNDED, Metamodel
from repro.metamodel.model import Model, ModelObject
from repro.metamodel.types import (
    AttrType,
    EnumType,
    PrimitiveType,
    Value,
)
from repro.qvtr.ast import Domain, Relation, Transformation
from repro.solver.card import Totalizer, TotalizerCache, at_most_one_pairwise
from repro.solver.cnf import CNF, Lit, VarPool, is_int
from repro.solver.maxsat import MaxSatSession, SoftClause

#: An atom of the grounding: a literal on a target model, a constant on
#: a frozen one.
Atom = Lit | bool


@dataclass(frozen=True)
class Scope:
    """Bounds of the grounding universe (the Alloy-scope analogue).

    Typed like the wire codec's ``scope`` object: the two counts are
    ints >= 0 and ``extra_ints`` a tuple of ints, bools rejected
    everywhere (``True`` would otherwise enter the Integer pool as 1).
    """

    extra_objects: int = 1
    extra_strings: int = 1
    extra_ints: tuple[int, ...] = (0, 1)

    def __post_init__(self) -> None:
        for name in ("extra_objects", "extra_strings"):
            count = getattr(self, name)
            if not is_int(count) or count < 0:
                raise SolverError(
                    f"scope {name} must be an integer >= 0, got {count!r}"
                )
        if not isinstance(self.extra_ints, tuple) or not all(
            is_int(value) for value in self.extra_ints
        ):
            raise SolverError(
                "scope extra_ints must be a tuple of integers, "
                f"got {self.extra_ints!r}"
            )


def fresh_oid(class_name: str, index: int) -> str:
    """The deterministic id of the ``index``-th fresh object of a class."""
    return f"new_{class_name.lower()}_{index}"


def fresh_string(index: int) -> str:
    """The deterministic ``index``-th synthetic string value."""
    return f"$new{index}"


def fresh_slots_for(model: Model, scope: Scope) -> dict[str, tuple[str, ...]]:
    """The fresh-slot object ids a grounding of ``model`` allocates.

    Per concrete class: the first ``scope.extra_objects`` reserved ids
    (:func:`fresh_oid`) that the model does not already occupy — an
    accepted repair's fresh object, evolved further by the user,
    legitimately sits on a reserved id, and allocation simply takes the
    following indices. So a grounding always has exactly
    ``scope.extra_objects`` fresh slots per class. Shared by
    :class:`GroundModel` and the search engines, so a per-call grounding
    and a search explore the *same* bounded universe.
    """
    taken = set(model.object_ids())
    slots: dict[str, tuple[str, ...]] = {}
    for class_name in model.metamodel.concrete_classes():
        allocated = []
        index = 1
        while len(allocated) < scope.extra_objects:
            oid = fresh_oid(class_name, index)
            index += 1
            if oid in taken:
                continue
            allocated.append(oid)
        slots[class_name] = tuple(allocated)
    return slots


class ValuePools:
    """Per-type candidate value pools: active domain plus synthetics."""

    def __init__(self, models: Mapping[str, Model], scope: Scope) -> None:
        strings: list[str] = []
        ints: list[int] = []
        seen_str: set[str] = set()
        seen_int: set[int] = set()
        for name in sorted(models):
            for value in models[name].attribute_values():
                if isinstance(value, bool):
                    continue
                if isinstance(value, str) and value not in seen_str:
                    seen_str.add(value)
                    strings.append(value)
                elif isinstance(value, int) and value not in seen_int:
                    seen_int.add(value)
                    ints.append(value)
        for i in range(1, scope.extra_strings + 1):
            synthetic = fresh_string(i)
            if synthetic not in seen_str:
                strings.append(synthetic)
        for extra in scope.extra_ints:
            if extra not in seen_int:
                seen_int.add(extra)
                ints.append(extra)
        self._strings = tuple(strings)
        self._ints = tuple(sorted(ints))

    def candidates(self, attr_type: AttrType) -> tuple[Value, ...]:
        """All candidate values an attribute of ``attr_type`` may take."""
        if isinstance(attr_type, EnumType):
            return attr_type.literals
        if attr_type is PrimitiveType.BOOLEAN:
            return (False, True)
        if attr_type is PrimitiveType.INTEGER:
            return self._ints
        return self._strings


class GroundModel:
    """One model's view in the grounding: symbolic or frozen.

    Frozen models answer atom queries with bools, target models with
    pool variables named by the atom; both are memoised. A target's
    universe is the model's objects plus its fresh slots. An enforcement
    session serves later states of the same shape on this universe: a
    state's object ids the universe lacks are renamed onto absent ids of
    the same class (see :mod:`repro.enforce.session`), and a solve may
    create objects only within the state's creation budget (see
    :meth:`GroundingResult.origin_assumptions`).
    """

    def __init__(
        self,
        param: str,
        model: Model,
        symbolic: bool,
        scope: Scope,
        pools: ValuePools,
        var_pool: VarPool,
    ) -> None:
        self.param = param
        self.model = model
        self.symbolic = symbolic
        self.pools = pools
        self.metamodel: Metamodel = model.metamodel
        universe = list(model.object_ids())
        self._class_of = {o.oid: o.cls for o in model.objects}
        #: Allocated fresh-slot ids per concrete class, in chain order
        #: (the symmetry-breaking walk follows this order); see
        #: :func:`fresh_slots_for` for the skip-occupied allocation rule.
        self.fresh_slots: dict[str, tuple[str, ...]] = (
            fresh_slots_for(model, scope) if symbolic else {}
        )
        for class_name, slots in self.fresh_slots.items():
            for oid in slots:
                universe.append(oid)
                self._class_of[oid] = class_name
        self.universe = tuple(sorted(universe))
        self._objects_of: dict[str, list[str]] = {}
        self._var_pool = var_pool
        self._alive: dict[str, Atom] = {}
        self._attr: dict[tuple, Atom] = {}
        self._ref: dict[tuple[str, str, str], Atom] = {}
        self._allowed: dict[tuple[str, str], set[tuple[type, Value]]] = {}

    # ------------------------------------------------------------------
    # Universe queries
    # ------------------------------------------------------------------
    def objects_of(self, class_name: str) -> list[str]:
        """Universe object ids whose class conforms to ``class_name``.

        Memoised: the universe is immutable and the grounding walks ask
        for the same classes thousands of times.
        """
        cached = self._objects_of.get(class_name)
        if cached is None:
            cached = [
                oid
                for oid in self.universe
                if self.metamodel.has_class(self._class_of[oid])
                and self.metamodel.is_subclass(self._class_of[oid], class_name)
            ]
            self._objects_of[class_name] = cached
        return cached

    def class_of(self, oid: str) -> str:
        return self._class_of[oid]

    # ------------------------------------------------------------------
    # Atoms
    # ------------------------------------------------------------------
    def alive(self, oid: str, new: bool = True) -> Atom:
        """Whether ``oid`` exists (see :meth:`_var` for ``new``)."""
        atom = self._alive.get(oid)
        if atom is None:
            if not self.symbolic:
                atom = self.model.has(oid)
            else:
                atom = self._var(("obj", self.param, oid), new)
                if atom is None:
                    return False
            self._alive[oid] = atom
        return atom

    def attr_eq(self, oid: str, attr: str, value: Value, new: bool = True) -> Atom:
        """Whether ``oid.attr = value``; the key keeps ``True`` and ``1``
        apart, as :func:`_same_value` does."""
        key = (oid, attr, value.__class__, value)
        atom = self._attr.get(key)
        if atom is None:
            if not self.symbolic:
                obj = self.model.get_or_none(oid)
                actual = None if obj is None else obj.attr_or(attr)
                atom = actual is not None and _same_value(actual, value)
            elif not self._expressible(oid, attr, value):
                # The decoded model can never carry this slot/value (value
                # outside the candidate pools, or attribute undeclared for
                # the class): the equation is constantly false. A fresh
                # variable here would be unconstrained by the structural
                # encoding — the solver could satisfy a pattern the decoded
                # model violates.
                atom = False
            else:
                name = ("attr", self.param, oid, attr, _value_key(value))
                atom = self._var(name, new)
                if atom is None:
                    return False
            self._attr[key] = atom
        return atom

    def _expressible(self, oid: str, attr: str, value: Value) -> bool:
        """Whether a decoded object ``oid`` could hold ``attr = value``."""
        key = (self.class_of(oid), attr)
        allowed = self._allowed.get(key)
        if allowed is None:
            declared = self.metamodel.all_attributes(key[0]).get(attr)
            candidates = () if declared is None else self.pools.candidates(declared.type)
            allowed = self._allowed[key] = {(v.__class__, v) for v in candidates}
        return (value.__class__, value) in allowed

    def ref_has(self, source: str, ref: str, target: str, new: bool = True) -> Atom:
        """Whether ``target`` is among ``source.ref``."""
        key = (source, ref, target)
        atom = self._ref.get(key)
        if atom is None:
            if not self.symbolic:
                obj = self.model.get_or_none(source)
                atom = obj is not None and target in obj.targets(ref)
            else:
                atom = self._var(("ref", self.param, source, ref, target), new)
                if atom is None:
                    return False
            self._ref[key] = atom
        return atom

    def _var(self, name: tuple, new: bool) -> Lit | None:
        """The pool variable ``name``; with ``new=False`` (decoding) a
        name the pool lacks is not allocated and reads ``None``."""
        if new or self._var_pool.has(name):
            return self._var_pool.var(name)
        return None


def _value_key(value: Value) -> str:
    return f"{type(value).__name__}:{value!r}"


def _same_value(actual: Value, value: Value) -> bool:
    """Equality that keeps ``True``/``1`` (bool vs int) apart."""
    return actual == value and isinstance(actual, bool) == isinstance(value, bool)


class GroundingContext:
    """Shared translation state across groundings of one question shape.

    Holds the CNF, variable pool, the one-directional definitions by
    literal tuple (conjunctions and disjunctions apart), the totalizer
    cache and a clause-dedup set, so a re-ground after an
    out-of-universe edit only encodes genuinely new definitions (see the
    module docstring's caching contract). One context must only serve
    groundings of one (transformation, targets, metamodels, scope,
    weights) shape — atom names must keep meaning the same thing.
    """

    def __init__(self) -> None:
        self.cnf = CNF()
        self.pool = VarPool(self.cnf)
        self.conjunctions: dict[tuple[Lit, ...], Lit] = {}
        self.disjunctions: dict[tuple[Lit, ...], Lit] = {}
        self.totalizers = TotalizerCache(self.cnf)
        self._seen: set[tuple[Lit, ...]] = set()

    def new_selector(self) -> Lit:
        """A fresh selector literal (one per generation and guard)."""
        return self.cnf.new_var()

    def conjunction(self, lits: tuple[Lit, ...]) -> Lit:
        """A literal implying every one of ``lits``: ``lits[0]`` alone,
        else a cached aux ``t`` with the clauses ``t -> a``."""
        if len(lits) == 1:
            return lits[0]
        aux = self.conjunctions.get(lits)
        if aux is None:
            aux = self.conjunctions[lits] = self.cnf.new_var()
            for lit in lits:
                self.cnf.add_clause((-aux, lit))
        return aux

    def disjunction(self, lits: tuple[Lit, ...]) -> Lit:
        """A literal implying some one of ``lits``: ``lits[0]`` alone,
        else a cached aux ``c`` with the one clause ``c -> lits``."""
        if len(lits) == 1:
            return lits[0]
        aux = self.disjunctions.get(lits)
        if aux is None:
            aux = self.disjunctions[lits] = self.cnf.new_var()
            self.cnf.add_clause((-aux,) + lits)
        return aux

    def add_unique(self, clause: Sequence[Lit]) -> None:
        """Add a generation-independent clause, deduplicated."""
        key = tuple(sorted(clause))
        if key in self._seen:
            return
        self._seen.add(key)
        self.cnf.add_clause(clause)


@dataclass(frozen=True)
class AtomEntry:
    """One universe object's variables, pretabulated for state encoding."""

    oid: str
    cls: str
    alive: int
    attr_names: frozenset[str]
    ref_names: frozenset[str]
    attrs: tuple[tuple[str, tuple[tuple[Value, int], ...]], ...]
    refs: tuple[tuple[str, tuple[tuple[str, int], ...], frozenset[str]], ...]


@dataclass(frozen=True)
class StateTable:
    """One parameter's atom variables over its universe."""

    param: str
    universe: frozenset[str]
    entries: tuple[AtomEntry, ...]


def _build_state_tables(
    grounding: "GroundingResult", params: Sequence[str]
) -> dict[str, StateTable] | None:
    """Tabulate per-object variables for ``params``; None if any expected
    variable is missing from the grounding's pool."""
    pool = grounding.pool
    tables: dict[str, StateTable] = {}
    for param in params:
        gm = grounding.ground_models[param]
        mm = gm.metamodel
        entries: list[AtomEntry] = []
        for oid in gm.universe:
            cls = gm.class_of(oid)
            name = ("obj", param, oid)
            if not pool.has(name):
                return None
            alive = pool.var(name)
            attr_entries = []
            for attr_name, attr in sorted(mm.all_attributes(cls).items()):
                pairs = []
                for value in gm.pools.candidates(attr.type):
                    vname = ("attr", param, oid, attr_name, _value_key(value))
                    if not pool.has(vname):
                        return None
                    pairs.append((value, pool.var(vname)))
                attr_entries.append((attr_name, tuple(pairs)))
            ref_entries = []
            for ref_name, ref in sorted(mm.all_references(cls).items()):
                pairs = []
                for target in gm.objects_of(ref.target):
                    rname = ("ref", param, oid, ref_name, target)
                    if not pool.has(rname):
                        return None
                    pairs.append((target, pool.var(rname)))
                ref_entries.append(
                    (ref_name, tuple(pairs), frozenset(t for t, _ in pairs))
                )
            entries.append(
                AtomEntry(
                    oid,
                    cls,
                    alive,
                    frozenset(n for n, _ in attr_entries),
                    frozenset(n for n, _, _ in ref_entries),
                    tuple(attr_entries),
                    tuple(ref_entries),
                )
            )
        tables[param] = StateTable(param, frozenset(gm.universe), tuple(entries))
    return tables


def encode_state(
    tables: Mapping[str, StateTable],
    params: Sequence[str],
    state: Mapping[str, Model],
) -> list[Lit] | None:
    """Literals fixing every tabulated variable to ``state``'s atom values.

    The single state-encoding walk shared by
    :meth:`GroundingResult.origin_assumptions` (the state's soft
    literals) and :class:`repro.enforce.satengine.ConsistencyOracle` (the
    candidate's hard assumptions), so their decline rules stay in
    lockstep by construction.
    Returns ``None`` when ``state`` cannot be expressed over the tables:
    an object outside the bounded universe, a class mismatch, an
    undeclared feature, an attribute value outside the candidate pools,
    or a reference target outside the universe — the caller must
    re-ground (or fall back to the real checker).
    """
    lits: list[Lit] = []
    for param in params:
        table = tables[param]
        model = state[param]
        universe = table.universe
        for oid in model.object_ids():
            if oid not in universe:
                return None  # state escaped the bounded universe
        for entry in table.entries:
            obj = model.get_or_none(entry.oid)
            if obj is not None and obj.cls != entry.cls:
                return None
            lits.append(entry.alive if obj is not None else -entry.alive)
            if obj is not None:
                # Undeclared features have no tabulated variables.
                if any(a not in entry.attr_names for a, _ in obj.attrs):
                    return None
                if any(r not in entry.ref_names for r, _ in obj.refs):
                    return None
            for attr_name, pairs in entry.attrs:
                current = obj.attr_or(attr_name) if obj is not None else None
                matched = current is None
                for value, var in pairs:
                    same = current is not None and _same_value(current, value)
                    if same:
                        matched = True
                    lits.append(var if same else -var)
                if not matched:
                    return None  # value outside the candidate pool
            for ref_name, pairs, target_set in entry.refs:
                had = set(obj.targets(ref_name)) if obj is not None else set()
                if not had <= target_set:
                    return None  # reference target outside the universe
                for target, var in pairs:
                    lits.append(var if target in had else -var)
    return lits


@dataclass(frozen=True)
class GroundingResult:
    """Everything a solver call needs, plus the decode hooks.

    ``soft`` prefers the grounded state's own atom values. Any other
    state the universe can express gets the same kind of objective per
    solve — :meth:`origin_assumptions`: its atom literals as unit soft
    literals, weighted per target by ``weights`` — which is what lets an
    enforcement session follow an *evolving* model tuple on one
    encoding and one learnt-clause-laden solver, instead of re-grounding
    after every edit.

    ``selector``/``symmetry`` are only set for context-backed groundings
    (see the module docstring): every solve over such a grounding must
    assume :meth:`base_assumptions`, opting into the symmetry-breaking
    chain only for optimum searches — never for oracle queries that pin
    arbitrary in-universe states.
    """

    cnf: CNF
    pool: VarPool
    soft: tuple[SoftClause, ...]
    ground_models: Mapping[str, GroundModel]
    weights: Mapping[str, int] = field(default_factory=dict)
    selector: Lit | None = None
    symmetry: Lit | None = None
    _tables: dict = field(default_factory=dict, compare=False, repr=False)

    def session(self) -> MaxSatSession:
        """A persistent MaxSAT session over this grounding.

        Each distance atom's unit soft clause is relaxed by its own
        negated literal (no variable or clause is added for it); the
        distance totalizer is built on demand — only the counter outputs
        the distance bounds asked so far read, extended in place on the
        session's solver
        when a larger bound is asked — and one incremental solver
        serves every subsequent query (distance bounds, repair
        enumeration blocking clauses), instead of the historical full
        re-translation per SAT call. On context-backed groundings every
        query must include :meth:`base_assumptions`.
        """
        return MaxSatSession(self.cnf, list(self.soft))

    def base_assumptions(self, symmetry: bool = False) -> list[Lit]:
        """Assumptions activating this generation's guarded constraints."""
        lits: list[Lit] = []
        if self.selector is not None:
            lits.append(self.selector)
        if symmetry and self.symmetry is not None:
            lits.append(self.symmetry)
        return lits

    def atom_tables(self) -> dict[str, StateTable] | None:
        """Per-target atom-variable tables (built once, then cached)."""
        if "atom" not in self._tables:
            symbolic = sorted(
                param for param, gm in self.ground_models.items() if gm.symbolic
            )
            self._tables["atom"] = _build_state_tables(self, symbolic)
        return self._tables["atom"]

    def origin_assumptions(
        self, state: Mapping[str, Model], extra_objects: int | None = None
    ) -> tuple[dict[Lit, int], list[Lit]] | None:
        """``(objective, budget)``: the distance from ``state``, and the
        hard assumptions of its creation budget.

        The objective maps each atom literal of ``state`` on a weighted
        target (the literal true in ``state``) to its target's weight:
        the unit soft clauses a grounding of ``state`` itself bakes in.
        The budget (:meth:`_creation_budget`, under ``extra_objects``,
        the state's own scope; default: this grounding's) holds the
        absent ids assumed dead; their alive literals leave the
        objective. ``None`` when ``state`` cannot be expressed over this
        grounding (see :func:`encode_state` for the decline rules, which
        are shared with ``ConsistencyOracle`` by construction) — the
        caller must re-ground. The tables are built once per grounding,
        so this is a table walk with no pool lookups.
        """
        tables = self.atom_tables()
        if tables is None:
            return None
        objective: dict[Lit, int] = {}
        for param, weight in sorted(self.weights.items()):
            if weight:
                lits = encode_state(tables, (param,), state)
                if lits is None:
                    return None
                objective.update(dict.fromkeys(lits, weight))
        budget = self._creation_budget(state, extra_objects)
        for lit in budget:
            objective.pop(lit, None)
        return objective, budget

    def _creation_budget(
        self, state: Mapping[str, Model], extra_objects: int | None
    ) -> list[Lit]:
        """Literals keeping ``state``'s repairs inside a per-call scope.

        A session grounding serves every state its universe
        anchors, and the universe can hold more ids a state lacks than
        one class's fresh slots (objects the state dropped). A per-call
        grounding may create ``extra_objects`` objects per class, so at
        most that many absent ids per class stay creatable here (never
        more than the fresh slots): the fresh slots first, in chain
        order, then the other absent ids in universe order. The rest
        are assumed dead, so the repairs of the two groundings agree up
        to renaming the created objects — while the state leaves that
        many absent ids (:meth:`creatable`). An adaptive scope shrinks
        with the state, so a session grounded on a larger state passes
        the smaller state's own ``extra_objects``.
        """
        return [
            -alive[oid]
            for _param, _cls, slots, absent, alive in self._absent(
                state, extra_objects
            )
            for oid in absent[slots:]
        ]

    def creatable(
        self, state: Mapping[str, Model], extra_objects: int | None = None
    ) -> dict[tuple[str, str], int]:
        """How many objects of each target class a solve from ``state``
        may create: ``min(fresh slots, extra_objects, absent ids)`` per
        (parameter, class). An enforcement session compares it with the
        state's own scope when it serves a renamed state."""
        return {
            (param, cls): min(slots, len(absent))
            for param, cls, slots, absent, _alive in self._absent(
                state, extra_objects
            )
        }

    def _absent(self, state: Mapping[str, Model], extra_objects: int | None):
        """Per target class: its fresh-slot count capped at
        ``extra_objects``, the universe ids ``state`` lacks (fresh slots
        first, in chain order, then the others in universe order) and
        their alive variables."""
        if "budget" not in self._tables:
            budget = []
            for param in sorted(self.ground_models):
                gm = self.ground_models[param]
                for class_name, slots in sorted(gm.fresh_slots.items()):
                    ids = slots + tuple(
                        oid
                        for oid in gm.universe
                        if gm.class_of(oid) == class_name and oid not in slots
                    )
                    alive = {oid: self.pool.var(("obj", param, oid)) for oid in ids}
                    budget.append((param, class_name, len(slots), ids, alive))
            self._tables["budget"] = budget
        for param, class_name, slots, ids, alive in self._tables["budget"]:
            present = set(state[param].object_ids())
            absent = [oid for oid in ids if oid not in present]
            if extra_objects is not None:
                slots = min(slots, extra_objects)
            yield param, class_name, slots, absent, alive


class Grounder:
    """Grounds structure + consistency + distance for one repair problem."""

    #: Process-wide count of :meth:`ground` runs; the translation-count
    #: tests read deltas to pin "one grounding per enforcement question".
    translations = 0

    #: Process-wide count of candidate bindings enumerated while
    #: grounding directional checks (source products and conclusion
    #: disjuncts). ``tests/test_grounding_fastpath.py`` reads deltas to
    #: assert the pruned arm never enumerates more than the naive arm.
    bindings_enumerated = 0

    def __init__(
        self,
        transformation: Transformation,
        models: Mapping[str, Model],
        targets: frozenset[str] | set[str],
        directions: Sequence[tuple[Relation, Dependency]],
        scope: Scope = Scope(),
        weights: Mapping[str, int] | None = None,
        symmetry_breaking: bool = True,
        prune: bool = True,
        context: GroundingContext | None = None,
    ) -> None:
        self.transformation = transformation
        self.models = dict(models)
        self.targets = frozenset(targets)
        unknown = self.targets - set(transformation.param_names())
        if unknown:
            raise SolverError(f"unknown target parameters {sorted(unknown)}")
        self.directions = list(directions)
        self.scope = scope
        self.weights = dict(weights or {})
        self.symmetry_breaking = symmetry_breaking
        self.prune = prune
        self.pools = ValuePools(models, scope)
        self._context = context
        # Definitions are cached on the shared context, else privately.
        self._definitions = context if context is not None else GroundingContext()
        self.cnf = self._definitions.cnf
        self.var_pool = self._definitions.pool
        if context is not None:
            self.selector: Lit | None = context.new_selector()
            self.symmetry_selector: Lit | None = (
                context.new_selector() if symmetry_breaking else None
            )
        else:
            self.selector = None
            self.symmetry_selector = None
        self.soft: list[SoftClause] = []
        self.ground_models = {
            param: GroundModel(
                param,
                models[param],
                symbolic=param in self.targets,
                scope=scope,
                pools=self.pools,
                var_pool=self.var_pool,
            )
            for param in transformation.param_names()
        }

    # ------------------------------------------------------------------
    # Clause emission (see the module docstring's caching contract)
    # ------------------------------------------------------------------
    def _assert_hard(self, clause: Sequence[Lit]) -> None:
        """A generation-independent clause (deduplicated under a context)."""
        if self._context is not None:
            self._context.add_unique(clause)
        else:
            self.cnf.add_clause(clause)

    def _assert_scoped(self, clause: Sequence[Lit]) -> None:
        """A generation-dependent assertion (selector-guarded under a context)."""
        if self.selector is not None:
            self.cnf.add_clause([-self.selector] + list(clause))
        else:
            self.cnf.add_clause(clause)

    def _totalizer(self, literals: Sequence[Lit]) -> Totalizer:
        if self._context is not None:
            return self._context.totalizers.get(literals)
        return Totalizer(self.cnf, literals)

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------
    def ground(self) -> GroundingResult:
        """Produce the CNF, soft clauses and decode hooks."""
        # Validate the whole fragment up front: a SatFragmentError must
        # not leave a partially emitted generation behind on a shared
        # (long-lived) GroundingContext.
        for relation, _dependency in self.directions:
            _require_fragment(relation)
        Grounder.translations += 1
        for param in sorted(self.targets):
            self._ground_structure(self.ground_models[param])
            self._ground_distance(self.ground_models[param])
        for relation, dependency in self.directions:
            self._ground_direction(relation, dependency)
        return GroundingResult(
            self.cnf,
            self.var_pool,
            tuple(self.soft),
            dict(self.ground_models),
            {param: self.weights.get(param, 1) for param in self.targets},
            selector=self.selector,
            symmetry=self.symmetry_selector,
        )

    # ------------------------------------------------------------------
    # Structure: decoded assignments must be conformant models
    # ------------------------------------------------------------------
    def _ground_structure(self, gm: GroundModel) -> None:
        mm = gm.metamodel
        for oid in gm.universe:
            cls = gm.class_of(oid)
            alive = gm.alive(oid)
            for attr_name, attr in sorted(mm.all_attributes(cls).items()):
                candidates = self.pools.candidates(attr.type)
                if not candidates:
                    raise SolverError(
                        f"empty value pool for attribute {cls}.{attr_name}"
                    )
                value_lits = [gm.attr_eq(oid, attr_name, v) for v in candidates]
                # At most one value, value implies alive, alive implies a
                # value for mandatory attributes.
                at_most_one_pairwise(self.cnf, value_lits, emit=self._assert_hard)
                for lit in value_lits:
                    self._assert_hard([-lit, alive])
                if not attr.optional:
                    # Completeness over the *current* pool: generation-scoped.
                    self._assert_scoped([-alive] + value_lits)
            for ref_name, ref in sorted(mm.all_references(cls).items()):
                target_lits = []
                for target in gm.objects_of(ref.target):
                    lit = gm.ref_has(oid, ref_name, target)
                    target_lits.append(lit)
                    self._assert_hard([-lit, alive])
                    self._assert_hard([-lit, gm.alive(target)])
                if ref.lower >= 1 and target_lits:
                    # Lower bounds quantify over the current target set:
                    # generation-scoped.
                    if ref.lower == 1:
                        self._assert_scoped([-alive] + target_lits)
                    else:
                        totalizer = self._totalizer(target_lits)
                        for assumption in totalizer.at_least_assumption(ref.lower):
                            self._assert_scoped([-alive, assumption])
                elif ref.lower >= 1:
                    # No candidate targets at all: object cannot be alive.
                    self._assert_scoped([-alive])
                if ref.upper != UNBOUNDED and target_lits:
                    # Upper bounds over a subset stay valid when the
                    # universe grows: generation-independent.
                    if ref.upper == 1:
                        at_most_one_pairwise(
                            self.cnf, target_lits, emit=self._assert_hard
                        )
                    elif ref.upper < len(target_lits):
                        totalizer = self._totalizer(target_lits)
                        for lit in totalizer.at_most_assumption(ref.upper):
                            self._assert_hard([lit])
        # Symmetry breaking: the i-th fresh object of a class may only be
        # alive if the (i-1)-th is. Context-backed groundings guard the
        # chain with a selector so oracle queries can opt out.
        if self._context is None and not self.symmetry_breaking:
            return
        if self._context is not None and self.symmetry_selector is None:
            return
        for class_name in mm.concrete_classes():
            previous = None
            for oid in gm.fresh_slots.get(class_name, ()):
                current = gm.alive(oid)
                if previous is not None:
                    if self.symmetry_selector is not None:
                        self.cnf.add_clause(
                            [-self.symmetry_selector, -current, previous]
                        )
                    else:
                        self.cnf.add_clause([-current, previous])
                previous = current

    # ------------------------------------------------------------------
    # Distance: prefer the original atom values
    # ------------------------------------------------------------------
    def _ground_distance(self, gm: GroundModel) -> None:
        weight = self.weights.get(gm.param, 1)
        if weight < 0:
            raise SolverError(f"negative weight for {gm.param!r}")
        if weight == 0:
            return
        mm = gm.metamodel
        for oid in gm.universe:
            cls = gm.class_of(oid)
            existing = gm.model.get_or_none(oid)
            self._prefer(gm.alive(oid), existing is not None, weight)
            for attr_name, attr in sorted(mm.all_attributes(cls).items()):
                original = existing.attr_or(attr_name) if existing else None
                for value in self.pools.candidates(attr.type):
                    originally_true = original is not None and _same_value(
                        original, value
                    )
                    self._prefer(
                        gm.attr_eq(oid, attr_name, value), originally_true, weight
                    )
            for ref_name, _ref in sorted(mm.all_references(cls).items()):
                had = set(existing.targets(ref_name)) if existing else set()
                for target in gm.objects_of(mm.all_references(cls)[ref_name].target):
                    self._prefer(
                        gm.ref_has(oid, ref_name, target), target in had, weight
                    )

    def _prefer(self, lit: Lit, originally_true: bool, weight: int) -> None:
        """One distance atom: a unit soft clause for its original value."""
        self.soft.append(SoftClause((lit if originally_true else -lit,), weight))

    # ------------------------------------------------------------------
    # Consistency: ground one directional check
    # ------------------------------------------------------------------
    def _ground_direction(self, relation: Relation, dependency: Dependency) -> None:
        _require_fragment(relation)
        source_domains = [
            d for d in relation.domains if d.model_param in dependency.sources
        ]
        target_domain = relation.domain_for(dependency.target)
        var_pools = self._pattern_var_pools(source_domains + [target_domain])
        source_vars = self._vars_of(source_domains)
        if not self.prune:
            self._ground_direction_naive(
                source_domains, target_domain, var_pools, source_vars
            )
            return
        frozen_domains = [
            d
            for d in source_domains
            if not self.ground_models[d.model_param].symbolic
        ]
        symbolic_domains = [
            d for d in source_domains if self.ground_models[d.model_param].symbolic
        ]
        match_lists = [
            self._frozen_domain_matches(d, var_pools) for d in frozen_domains
        ]
        symbolic_root_spaces = [
            self.ground_models[d.model_param].objects_of(d.template.class_name)
            for d in symbolic_domains
        ]
        # The conclusion depends only on the values bound to the target
        # pattern's variables (free ones are enumerated inside), so
        # bindings differing elsewhere share one memoised conclusion.
        target_vars = [
            p.expr.name
            for p in target_domain.template.properties
            if isinstance(p.expr, e.Var)
        ]
        conclusion_memo: dict[tuple, Atom | None] = {}
        _unbound = object()
        for matches in itertools.product(*match_lists):
            binding: dict[str, Value] = {}
            joinable = True
            for _root, partial in matches:
                for var, value in partial.items():
                    if var in binding:
                        if not _same_value(binding[var], value):
                            joinable = False
                            break
                    else:
                        binding[var] = value
                if not joinable:
                    break
            if not joinable:
                continue
            free = [v for v in source_vars if v not in binding]
            for roots in itertools.product(*symbolic_root_spaces):
                for values in itertools.product(*(var_pools[v] for v in free)):
                    Grounder.bindings_enumerated += 1
                    full = dict(binding)
                    full.update(zip(free, values))
                    memo_key = tuple(
                        (full[v].__class__, full[v]) if v in full else _unbound
                        for v in target_vars
                    )
                    if memo_key in conclusion_memo:
                        conclusion = conclusion_memo[memo_key]
                    else:
                        conclusion = self._conclusion(
                            target_domain, full, var_pools
                        )
                        conclusion_memo[memo_key] = conclusion
                    if conclusion is True:
                        continue
                    # Frozen guard parts are true by construction of the
                    # matches; only symbolic patterns remain in the guard.
                    guard: list[Lit] = []
                    for domain, root in zip(symbolic_domains, roots):
                        lits = self._template_lits(domain, root, full)
                        if lits is None:
                            break
                        guard.extend(lits)
                    else:
                        self._imply(guard, conclusion)

    def _ground_direction_naive(
        self,
        source_domains: Sequence[Domain],
        target_domain: Domain,
        var_pools: Mapping[str, tuple[Value, ...]],
        source_vars: Sequence[str],
    ) -> None:
        """The unpruned product enumeration (the naive ``prune=False`` arm)."""
        root_spaces = [
            self.ground_models[d.model_param].objects_of(d.template.class_name)
            for d in source_domains
        ]
        value_spaces = [var_pools[v] for v in source_vars]
        for roots in itertools.product(*root_spaces):
            for values in itertools.product(*value_spaces):
                Grounder.bindings_enumerated += 1
                binding = dict(zip(source_vars, values))
                guard: list[Lit] = []
                for domain, root in zip(source_domains, roots):
                    lits = self._template_lits(domain, root, binding)
                    if lits is None:
                        break
                    guard.extend(lits)
                else:
                    conclusion = self._conclusion(
                        target_domain, binding, var_pools
                    )
                    if conclusion is not True:
                        self._imply(guard, conclusion)

    def _imply(self, guard: Sequence[Lit], conclusion: Lit | None) -> None:
        """Assert ``guard -> conclusion`` for one binding (a ``None``
        conclusion is false): one generation-scoped clause."""
        clause = [-lit for lit in guard]
        if conclusion is not None:
            clause.append(conclusion)
        self._assert_scoped(clause)

    def _frozen_domain_matches(
        self, domain: Domain, var_pools: Mapping[str, tuple[Value, ...]]
    ) -> list[tuple[str, dict[str, Value]]]:
        """``(root, partial binding)`` pairs a frozen pattern matches.

        Attribute-to-literal equations filter the object pool directly;
        attribute-to-variable equations pin the variable to the object's
        actual value — declined when that value falls outside the
        variable's candidate pool, because the naive enumeration would
        never propose it either.
        """
        gm = self.ground_models[domain.model_param]
        matches: list[tuple[str, dict[str, Value]]] = []
        for oid in gm.objects_of(domain.template.class_name):
            obj = gm.model.get_or_none(oid)
            if obj is None:
                continue
            partial: dict[str, Value] = {}
            ok = True
            for prop in domain.template.properties:
                actual = obj.attr_or(prop.feature)
                if actual is None:
                    ok = False
                    break
                if isinstance(prop.expr, e.Var):
                    name = prop.expr.name
                    if name in partial:
                        if not _same_value(partial[name], actual):
                            ok = False
                            break
                    elif any(
                        _same_value(actual, v) for v in var_pools[name]
                    ):
                        partial[name] = actual
                    else:
                        ok = False  # value outside the candidate pool
                        break
                else:
                    assert isinstance(prop.expr, e.Lit)
                    if not _same_value(actual, prop.expr.value):
                        ok = False
                        break
            if ok:
                matches.append((oid, partial))
        return matches

    def _conclusion(
        self,
        domain: Domain,
        binding: Mapping[str, Value],
        var_pools: Mapping[str, tuple[Value, ...]],
    ) -> Atom | None:
        """Some instance of the target pattern holds under ``binding``:
        ``True``, ``None`` (false) or a literal implying it."""
        gm = self.ground_models[domain.model_param]
        free = [
            p.expr.name
            for p in domain.template.properties
            if isinstance(p.expr, e.Var) and p.expr.name not in binding
        ]
        free = list(dict.fromkeys(free))
        if self.prune and not gm.symbolic:
            # Frozen conclusion: every disjunct is a constant, so match
            # directly and short-circuit instead of enumerating the
            # object x free-value product only to constant-fold it.
            for oid in gm.objects_of(domain.template.class_name):
                Grounder.bindings_enumerated += 1
                obj = gm.model.get_or_none(oid)
                if obj is not None and self._frozen_object_matches(
                    obj, domain, binding, var_pools
                ):
                    return True
            return None
        disjuncts: list[tuple[Lit, ...]] = []
        for oid in gm.objects_of(domain.template.class_name):
            for values in itertools.product(*(var_pools[v] for v in free)):
                Grounder.bindings_enumerated += 1
                extended = dict(binding)
                extended.update(zip(free, values))
                lits = self._template_lits(domain, oid, extended)
                if lits is not None:
                    disjuncts.append(tuple(lits))
        if not disjuncts:
            return None
        if not all(disjuncts):
            return True  # a frozen instance matches (the naive arm only)
        definitions = self._definitions
        return definitions.disjunction(tuple(map(definitions.conjunction, disjuncts)))

    def _frozen_object_matches(
        self,
        obj: ModelObject,
        domain: Domain,
        binding: Mapping[str, Value],
        var_pools: Mapping[str, tuple[Value, ...]],
    ) -> bool:
        """Whether a frozen object satisfies the pattern under ``binding``.

        Free pattern variables match iff the object's actual value lies
        in the variable's candidate pool (the naive enumeration draws
        free values from exactly that pool) and repeated occurrences of
        one variable agree.
        """
        local: dict[str, Value] = {}
        for prop in domain.template.properties:
            actual = obj.attr_or(prop.feature)
            if actual is None:
                return False
            if isinstance(prop.expr, e.Var):
                name = prop.expr.name
                if name in binding:
                    if not _same_value(binding[name], actual):
                        return False
                elif name in local:
                    if not _same_value(local[name], actual):
                        return False
                elif any(_same_value(actual, v) for v in var_pools[name]):
                    local[name] = actual
                else:
                    return False
            else:
                assert isinstance(prop.expr, e.Lit)
                if not _same_value(actual, prop.expr.value):
                    return False
        return True

    def _template_lits(
        self, domain: Domain, oid: str, binding: Mapping[str, Value]
    ) -> list[Lit] | None:
        """The template instance's atoms as literals: ``None`` when one
        is false, true ones dropped."""
        gm = self.ground_models[domain.model_param]
        lits: list[Lit] = []
        atom = gm.alive(oid)
        if atom is False:
            return None
        if atom is not True:
            lits.append(atom)
        for prop in domain.template.properties:
            expr = prop.expr
            value = binding[expr.name] if isinstance(expr, e.Var) else expr.value
            atom = gm.attr_eq(oid, prop.feature, value)
            if atom is False:
                return None
            if atom is not True:
                lits.append(atom)
        return lits

    def _pattern_var_pools(
        self, domains: Sequence[Domain]
    ) -> dict[str, tuple[Value, ...]]:
        """The candidate pool of each pattern variable (from its attribute)."""
        pools: dict[str, tuple[Value, ...]] = {}
        for domain in domains:
            mm = self.ground_models[domain.model_param].metamodel
            for prop in domain.template.properties:
                if not isinstance(prop.expr, e.Var):
                    continue
                attr = mm.attribute(domain.template.class_name, prop.feature)
                candidates = self.pools.candidates(attr.type)
                existing = pools.get(prop.expr.name)
                if existing is None:
                    pools[prop.expr.name] = candidates
                else:
                    pools[prop.expr.name] = tuple(
                        v for v in existing if v in set(candidates)
                    )
        return pools

    def _vars_of(self, domains: Sequence[Domain]) -> list[str]:
        ordered: list[str] = []
        for domain in domains:
            for prop in domain.template.properties:
                if isinstance(prop.expr, e.Var) and prop.expr.name not in ordered:
                    ordered.append(prop.expr.name)
        return ordered

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def decode(self, assignment: Mapping[int, bool]) -> dict[str, Model]:
        """Rebuild the full model tuple from a satisfying assignment."""
        repaired: dict[str, Model] = {}
        for param, gm in self.ground_models.items():
            if not gm.symbolic:
                repaired[param] = gm.model
                continue
            repaired[param] = self._decode_model(gm, assignment)
        return repaired

    def _decode_model(
        self, gm: GroundModel, assignment: Mapping[int, bool]
    ) -> Model:
        mm = gm.metamodel

        def truth(atom: Atom) -> bool:
            # Decoding allocates nothing: an atom the pool lacks reads false.
            return atom is True or (atom is not False and assignment[atom])

        objects = []
        for oid in gm.universe:
            if not truth(gm.alive(oid, new=False)):
                continue
            cls = gm.class_of(oid)
            attrs: dict[str, Value] = {}
            for attr_name, attr in sorted(mm.all_attributes(cls).items()):
                for value in self.pools.candidates(attr.type):
                    if truth(gm.attr_eq(oid, attr_name, value, new=False)):
                        attrs[attr_name] = value
                        break
            refs: dict[str, list[str]] = {}
            for ref_name, ref in sorted(mm.all_references(cls).items()):
                targets = [
                    t
                    for t in gm.objects_of(ref.target)
                    if truth(gm.ref_has(oid, ref_name, t, new=False))
                ]
                if targets:
                    refs[ref_name] = targets
            objects.append(ModelObject.create(oid, cls, attrs, refs))
        return Model(gm.model.metamodel, tuple(objects), gm.model.name)


def _require_fragment(relation: Relation) -> None:
    """Reject relations outside the groundable template fragment."""
    if relation.when is not None or relation.where is not None:
        raise SatFragmentError(
            f"relation {relation.name!r} has when/where clauses; "
            "the SAT engine grounds the template fragment only "
            "(use the search engine)"
        )
    for domain in relation.domains:
        for prop in domain.template.properties:
            if not isinstance(prop.expr, (e.Var, e.Lit)):
                raise SatFragmentError(
                    f"relation {relation.name!r}: property "
                    f"{domain.template.var}.{prop.feature} is not a variable "
                    "or literal (outside the SAT fragment)"
                )
