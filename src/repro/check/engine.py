"""The top-level checking engine (``checkonly`` mode).

Consistency of a model tuple is the conjunction of every directional
check of every top relation::

    R(m1 : M1, ..., mn : Mn)  ≡  ⋀_{d ∈ deps(R)} R_d(m1, ..., mn)

Under ``standard`` semantics ``deps(R)`` is forced to the standard set
``⋃_i (dom R \\ Mi -> Mi)`` regardless of annotations; under ``extended``
semantics it is the relation's declared dependency set (defaulting to the
standard one when absent).

Relation invocations in when/where clauses are evaluated in the induced
direction (section 2.3). Invocations are memoised per check run; a cyclic
invocation chain is resolved coinductively (an in-progress call is
assumed to hold), which matches the greatest-fixpoint reading of QVT-R's
otherwise unspecified recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping

from repro.check.semantics import DirectionViolation, check_direction, holds_for_roots
from repro.deps.dependency import Dependency, standard_dependencies
from repro.deps.typecheck import restrict_direction
from repro.errors import CheckError, DependencyError, QvtStaticError
from repro.expr.eval import EvalContext, RuntimeValue
from repro.metamodel.model import Model
from repro.qvtr.analysis import analyse
from repro.qvtr.ast import Relation, Transformation

#: Checking semantics selector.
STANDARD = "standard"
EXTENDED = "extended"


@dataclass(frozen=True)
class CheckConfig:
    """Knobs for a checking run."""

    semantics: str = EXTENDED
    max_witnesses: int = 10
    validate: bool = True

    def __post_init__(self) -> None:
        if self.semantics not in (STANDARD, EXTENDED):
            raise CheckError(
                f"semantics must be {STANDARD!r} or {EXTENDED!r}, "
                f"got {self.semantics!r}"
            )


@dataclass(frozen=True)
class DirectionResult:
    """Outcome of one directional check ``R_{S->T}``."""

    relation: str
    dependency: Dependency
    holds: bool
    violations: tuple[DirectionViolation, ...] = ()


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a whole consistency check."""

    semantics: str
    results: tuple[DirectionResult, ...]

    @property
    def consistent(self) -> bool:
        return all(r.holds for r in self.results)

    def failed(self) -> tuple[DirectionResult, ...]:
        return tuple(r for r in self.results if not r.holds)

    def result_for(self, relation: str, dependency: Dependency) -> DirectionResult:
        for result in self.results:
            if result.relation == relation and result.dependency == dependency:
                return result
        raise CheckError(f"no result for {relation} [{dependency}]")

    def summary(self) -> str:
        lines = [
            f"consistency ({self.semantics} semantics): "
            f"{'OK' if self.consistent else 'VIOLATED'}"
        ]
        for result in self.results:
            mark = "ok " if result.holds else "FAIL"
            lines.append(f"  [{mark}] {result.relation} [{result.dependency}]")
            for violation in result.violations:
                lines.append(f"         witness: {violation}")
        return "\n".join(lines)


class Checker:
    """Checks model tuples against one transformation.

    >>> from repro.featuremodels import paper_checker  # doctest: +SKIP
    """

    def __init__(
        self,
        transformation: Transformation,
        metamodels: Mapping[str, object] | None = None,
        config: CheckConfig = CheckConfig(),
    ) -> None:
        self.transformation = transformation
        self.config = config
        if config.validate:
            report = analyse(transformation, metamodels)
            if not report.ok():
                raise QvtStaticError("; ".join(report.all_messages()))

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def check(self, models: Mapping[str, Model]) -> CheckReport:
        """Run every directional check of every top relation."""
        self._validate_model_binding(models)
        results = []
        for relation in self.transformation.top_relations():
            for dependency in self.directions_of(relation):
                results.append(self.check_one(models, relation, dependency))
        return CheckReport(self.config.semantics, tuple(results))

    def is_consistent(self, models: Mapping[str, Model]) -> bool:
        """Boolean shortcut for :meth:`check`."""
        self._validate_model_binding(models)
        for relation in self.transformation.top_relations():
            for dependency in self.directions_of(relation):
                ctx = self._context(models, dependency)
                if check_direction(
                    relation,
                    dependency,
                    ctx,
                    max_violations=1,
                    transformation=self.transformation,
                ):
                    return False
        return True

    def check_one(
        self,
        models: Mapping[str, Model],
        relation: Relation,
        dependency: Dependency,
    ) -> DirectionResult:
        """Run a single directional check ``R_{S->T}``."""
        ctx = self._context(models, dependency)
        violations = check_direction(
            relation,
            dependency,
            ctx,
            max_violations=self.config.max_witnesses,
            transformation=self.transformation,
        )
        return DirectionResult(
            relation.name, dependency, not violations, tuple(violations)
        )

    def directions_of(self, relation: Relation) -> tuple[Dependency, ...]:
        """The directional checks the configured semantics prescribes."""
        if self.config.semantics == STANDARD:
            deps = standard_dependencies(relation.domain_params())
        else:
            deps = relation.effective_dependencies()
        return tuple(sorted(deps))

    def context(self, models: Mapping[str, Model], direction: Dependency) -> EvalContext:
        """An evaluation context wired with the invocation hook.

        Public so enforcement engines can run individual directional
        checks against candidate states.
        """
        return self._context(models, direction)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _validate_model_binding(self, models: Mapping[str, Model]) -> None:
        declared = set(self.transformation.param_names())
        missing = declared - models.keys()
        if missing:
            raise CheckError(f"no models bound to parameters {sorted(missing)}")
        for param in self.transformation.model_params:
            model = models[param.name]
            if model.metamodel.name != param.metamodel:
                raise CheckError(
                    f"parameter {param.name!r} expects metamodel "
                    f"{param.metamodel!r}, model conforms to "
                    f"{model.metamodel.name!r}"
                )

    def _context(
        self, models: Mapping[str, Model], direction: Dependency
    ) -> EvalContext:
        """A fresh evaluation context whose relation calls run through a
        :class:`_CallHook` with its own memo table (one per check run)."""
        return EvalContext(models, {}, _CallHook(self, models, direction))


class _CallHook:
    """The relation-call hook of one check run, memoised per run.

    An object, not a closure: a nested function that names itself (to
    hand nested calls a context with the same hook) is a reference cycle
    through its own cell, which would pin the checker, its models and
    the transformation until a full collection. This hook hands nested
    calls a context with *itself*, so a check run allocates no cycles
    and reference counting frees its state at once.
    """

    __slots__ = ("checker", "models", "direction", "memo")

    def __init__(
        self, checker: Checker, models: Mapping[str, Model], direction: Dependency
    ) -> None:
        self.checker = checker
        self.models = models
        self.direction = direction
        self.memo: dict[tuple, bool | None] = {}

    def __call__(self, name: str, args: tuple[RuntimeValue, ...]) -> bool:
        transformation = self.checker.transformation
        callee = transformation.relation(name)
        try:
            induced = restrict_direction(self.direction, callee.domain_params())
        except DependencyError as exc:
            raise CheckError(
                f"call to {name!r} in direction [{self.direction}]: {exc}"
            ) from exc
        if len(args) != len(callee.domains):
            raise CheckError(
                f"call to {name!r} with {len(args)} arguments, expected "
                f"{len(callee.domains)}"
            )
        memo = self.memo
        key = (name, induced, args)
        if key in memo:
            cached = memo[key]
            # An in-progress call (None) is assumed to hold: greatest
            # fixpoint reading of recursive invocation chains.
            return True if cached is None else cached
        memo[key] = None
        roots = dict(zip(callee.domain_params(), args))
        ctx = EvalContext(self.models, {}, self)
        result = holds_for_roots(
            callee, induced, ctx, roots, transformation=transformation
        )
        memo[key] = result
        return result
