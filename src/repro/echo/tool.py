"""The Echo façade: register artefacts, check, pick targets, repair.

A thin, stateful convenience layer over :mod:`repro.check` and
:mod:`repro.enforce` mirroring the tool workflow the paper describes.

The workflow is a *loop* — edit a model, :meth:`Echo.enforce`, edit
again — so the façade keeps one persistent
:class:`~repro.enforce.session.EnforcementSession` per (transformation,
binding, targets, semantics) for the SAT engine: repeated ``enforce()``
calls over an evolving registry patch the cached grounding instead of
re-grounding the whole question, and keep profiting from the solver
state earlier repairs built up. Since the grounding fast path (PR 3)
those sessions resolve through the process-wide
:func:`~repro.enforce.session.shared_session` cache, so mixing the
façade with direct ``enforce_sat`` / ``enumerate_repairs`` calls over
the same question shape still grounds exactly once. For *batches* of
independent questions, see :mod:`repro.serve`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.check.engine import CheckConfig, Checker, CheckReport, EXTENDED
from repro.enforce.api import Repair, enforce
from repro.enforce.metrics import TupleMetric
from repro.enforce.session import EnforcementSession, shared_session
from repro.enforce.targets import TargetSelection
from repro.errors import WorkspaceError
from repro.metamodel.meta import Metamodel
from repro.metamodel.model import Model
from repro.qvtr.analysis import analyse
from repro.qvtr.ast import Transformation
from repro.qvtr.syntax.parser import parse_transformation
from repro.solver.bounded import Scope


class Echo:
    """A registry of metamodels, models and transformations with verbs.

    >>> from repro.featuremodels import (
    ...     feature_metamodel, configuration_metamodel,
    ...     paper_transformation, feature_model, configuration)
    >>> echo = Echo()
    >>> echo.add_metamodel(feature_metamodel())
    >>> echo.add_metamodel(configuration_metamodel())
    >>> echo.add_transformation(paper_transformation(k=2))
    >>> echo.add_model("fm", feature_model({"core": True}))
    >>> echo.add_model("cf1", configuration(["core"]))
    >>> echo.add_model("cf2", configuration(["core"]))
    >>> binding = {"fm": "fm", "cf1": "cf1", "cf2": "cf2"}
    >>> echo.check("F", binding).consistent
    True
    """

    def __init__(self) -> None:
        self._metamodels: dict[str, Metamodel] = {}
        self._models: dict[str, Model] = {}
        self._transformations: dict[str, Transformation] = {}
        self._sessions: dict[tuple, EnforcementSession] = {}

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def add_metamodel(self, metamodel: Metamodel) -> None:
        """Register ``metamodel`` under its own name (latest wins)."""
        self._metamodels[metamodel.name] = metamodel

    def add_model(self, name: str, model: Model) -> None:
        """Register ``model`` as ``name``, registering its metamodel too."""
        if model.metamodel.name not in self._metamodels:
            self.add_metamodel(model.metamodel)
        self._models[name] = model.renamed(name)

    def add_transformation(self, transformation: Transformation | str) -> None:
        """Register a transformation (object or QVT-R source text).

        Static analysis runs at registration —
        :class:`~repro.errors.QvtStaticError` surfaces here, not at the
        first check. Re-registering a name drops its cached enforcement
        sessions.
        """
        if isinstance(transformation, str):
            transformation = parse_transformation(transformation)
        report = analyse(transformation, self._metamodels or None)
        report.raise_if_failed()
        self._transformations[transformation.name] = transformation
        # A (re)registered transformation invalidates its cached sessions.
        self._sessions = {
            key: session
            for key, session in self._sessions.items()
            if key[0] != transformation.name
        }

    def model(self, name: str) -> Model:
        """The registered model called ``name`` (its *current* state —
        repairs applied by :meth:`enforce` are visible here)."""
        try:
            return self._models[name]
        except KeyError:
            raise WorkspaceError(f"no model named {name!r}") from None

    def transformation(self, name: str) -> Transformation:
        """The registered transformation called ``name``."""
        try:
            return self._transformations[name]
        except KeyError:
            raise WorkspaceError(f"no transformation named {name!r}") from None

    def model_names(self) -> list[str]:
        """Every registered model name, sorted."""
        return sorted(self._models)

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    def check(
        self,
        transformation_name: str,
        binding: Mapping[str, str],
        semantics: str = EXTENDED,
    ) -> CheckReport:
        """Checkonly mode over named models.

        ``binding`` maps transformation parameters to registered model
        names.
        """
        transformation = self.transformation(transformation_name)
        models = self._resolve_binding(transformation, binding)
        checker = Checker(transformation, config=CheckConfig(semantics=semantics))
        return checker.check(models)

    def enforce(
        self,
        transformation_name: str,
        binding: Mapping[str, str],
        targets: Iterable[str],
        semantics: str = EXTENDED,
        engine: str = "sat",
        metric: TupleMetric = TupleMetric(),
        scope: Scope = Scope(),
        mode: str = "increasing",
        max_distance: int | None = None,
        apply: bool = True,
    ) -> Repair:
        """Enforce mode: repair the ``targets`` models, least change first.

        ``targets`` are transformation *parameters*; with ``apply=True``
        (default) the repaired models replace the registered ones, so a
        subsequent :meth:`check` sees the repaired environment. For the
        SAT engine the call is served by a persistent
        :class:`~repro.enforce.session.EnforcementSession` — one per
        (transformation, binding, targets, semantics) — so the
        edit/enforce loop re-validates and patches a cached grounding
        instead of re-grounding per call.
        """
        transformation = self.transformation(transformation_name)
        models = self._resolve_binding(transformation, binding)
        if engine == "sat":
            session = self._session(
                transformation_name,
                binding,
                targets,
                semantics=semantics,
                metric=metric,
                scope=scope,
                mode=mode,
            )
            repair = session.enforce(models, max_distance=max_distance)
        else:
            repair = enforce(
                transformation,
                models,
                TargetSelection(targets),
                engine=engine,
                semantics=semantics,
                metric=metric,
                scope=scope,
                mode=mode,
                max_distance=max_distance,
            )
        if apply:
            for param in repair.changed:
                self._models[binding[param]] = repair.models[param].renamed(
                    binding[param]
                )
        return repair

    def _session(
        self,
        transformation_name: str,
        binding: Mapping[str, str],
        targets: Iterable[str],
        semantics: str,
        metric: TupleMetric,
        scope: Scope,
        mode: str,
    ) -> EnforcementSession:
        """The cached enforcement session for this question shape.

        Resolved through the process-wide
        :func:`~repro.enforce.session.shared_session` grounding cache —
        the same sessions serve ``enforce_sat``/``enumerate_repairs``
        and oracle construction, so mixing API entry points over one
        registry shares one grounding. The façade
        additionally tracks its sessions per (transformation, binding,
        targets, semantics) for inspection and invalidation; a call with
        different metric/scope/mode settings resolves to (and records) a
        different session rather than answering with stale ones.
        """
        selection = TargetSelection(targets)
        key = (
            transformation_name,
            tuple(sorted(binding.items())),
            tuple(sorted(selection.params)),
            semantics,
        )
        session = self._sessions.get(key)
        if session is None or not session.compatible(semantics, metric, scope, mode):
            session = shared_session(
                self.transformation(transformation_name),
                selection,
                semantics=semantics,
                metric=metric,
                scope=scope,
                mode=mode,
            )
            self._sessions[key] = session
        return session

    def enforcement_sessions(self) -> list[EnforcementSession]:
        """The live sessions (inspection hook for tests and benchmarks)."""
        return list(self._sessions.values())

    def _resolve_binding(
        self, transformation: Transformation, binding: Mapping[str, str]
    ) -> dict[str, Model]:
        missing = set(transformation.param_names()) - set(binding)
        if missing:
            raise WorkspaceError(
                f"binding misses transformation parameters {sorted(missing)}"
            )
        models = {}
        for param in transformation.param_names():
            models[param] = self.model(binding[param]).renamed(param)
        return models
