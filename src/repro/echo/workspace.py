"""File-based workspaces: metamodels, models and transformations on disk.

Layout (all paths relative to the workspace root)::

    metamodels/*.json      one metamodel per file
    models/*.json          one model per file (named after the file stem)
    transformations/*.qvtr QVT-R source text

Files are discovered by extension; the directory names are conventional
but not mandatory — any ``.json`` whose ``kind`` is ``metamodel`` or
``model`` is accepted wherever it lives under the root.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import ReproError, SerializationError, WorkspaceError
from repro.metamodel.meta import Metamodel
from repro.metamodel.model import Model
from repro.metamodel.serialize import (
    metamodel_from_dict,
    metamodel_to_dict,
    model_from_dict,
    model_to_dict,
)
from repro.qvtr.ast import Transformation
from repro.qvtr.syntax.parser import parse_transformation

#: serve()'s "use the service default" marker — distinct from ``None``,
#: which explicitly lifts the shard deadline.
_DEFAULT_DEADLINE = object()


class Workspace:
    """An in-memory view of a workspace directory."""

    def __init__(self) -> None:
        self.metamodels: dict[str, Metamodel] = {}
        self.models: dict[str, Model] = {}
        self.transformations: dict[str, Transformation] = {}
        self._echo = None
        self._echo_synced: dict[str, Model] = {}

    # ------------------------------------------------------------------
    # Tool bridge
    # ------------------------------------------------------------------
    def echo(self) -> "Echo":
        """An :class:`~repro.echo.tool.Echo` over this workspace, cached.

        The same instance is returned on every call so the tool's
        persistent enforcement sessions survive across repeated verbs on
        one workspace (the edit/enforce loop). Models sync both ways at
        each call: repairs the tool applied (``enforce`` with
        ``apply=True``) are reflected back into ``workspace.models``
        (in memory — :meth:`save` still decides what hits disk), and a
        workspace-side edit since the last call wins over the tool's
        state and is pushed into the registry. Mutating ``metamodels``
        or ``transformations`` after the first call needs a fresh
        bridge — call :meth:`invalidate_echo`.
        """
        from repro.echo.tool import Echo

        if self._echo is None:
            self._echo = Echo()
            self._echo_synced = {}
            for metamodel in self.metamodels.values():
                self._echo.add_metamodel(metamodel)
            for transformation in self.transformations.values():
                self._echo.add_transformation(transformation)
        registered = set(self._echo.model_names())
        for name, model in list(self.models.items()):
            synced = self._echo_synced.get(name)
            if synced is not None and name in registered and model == synced:
                # No workspace-side edit; adopt any tool-applied repair.
                current = self._echo.model(name)
                if current != synced:
                    self.models[name] = current
                    self._echo_synced[name] = current
                continue
            if synced != model:
                self._echo.add_model(name, model)
                self._echo_synced[name] = model
        return self._echo

    def invalidate_echo(self) -> None:
        """Drop the cached tool bridge (after metamodel/transformation edits)."""
        self._echo = None
        self._echo_synced = {}

    def serve(
        self,
        entries: list,
        workers: int | None = None,
        deadline: object = _DEFAULT_DEADLINE,
    ) -> "BatchResult":
        """Answer a batch of enforcement requests over workspace artefacts.

        ``entries`` is the parsed batch file of the ``repro-echo batch``
        verb (resolved by :meth:`resolve_requests`); they are served by
        :func:`repro.serve.serve_batch`: sharded by question shape,
        answered on a process pool of ``workers`` (0 = inline), merged
        in submission order. ``deadline`` is the per-shard budget
        (default :data:`repro.serve.DEFAULT_SHARD_DEADLINE`; ``None``
        lifts it). The workspace itself is not mutated — the CLI decides
        what to persist from the returned
        :class:`~repro.serve.BatchResult`.
        """
        from repro.serve import (
            DEFAULT_SHARD_DEADLINE,
            DEFAULT_WORKERS,
            serve_batch,
        )

        if workers is None:
            workers = DEFAULT_WORKERS
        if deadline is _DEFAULT_DEADLINE:
            deadline = DEFAULT_SHARD_DEADLINE
        requests = self.resolve_requests(entries)
        return serve_batch(requests, workers=workers, deadline=deadline)

    def resolve_requests(self, entries: list) -> list:
        """Resolve batch-file entries to :class:`~repro.serve.EnforceRequest`\\ s.

        Each entry names a registered ``transformation``, a ``bind`` of
        its parameters to workspace model names, and the ``targets`` to
        repair; optional keys — ``semantics``, ``weights``, ``scope``,
        ``mode``, ``max_distance`` — mirror
        :meth:`~repro.echo.tool.Echo.enforce`. Resolution is strict: an
        unknown name or malformed entry raises
        :class:`~repro.errors.WorkspaceError` before anything is
        dispatched. Shared by the ``batch`` verb and the daemon client
        mode (``repro-echo daemon --client``), so a batch file means the
        same thing against either service.
        """
        from repro.serve import EnforceRequest
        from repro.serve.requests import (
            check_max_distance,
            check_mode,
            check_weights,
            scope_from_dict,
        )

        if not isinstance(entries, list):
            raise WorkspaceError("batch must be a JSON array of requests")
        if not entries:
            raise WorkspaceError("batch contains no requests")
        requests = []
        for index, entry in enumerate(entries):
            label = f"batch entry {index}"
            if not isinstance(entry, dict):
                raise WorkspaceError(f"{label}: expected a JSON object")
            name = entry.get("transformation")
            if not isinstance(name, str):
                raise WorkspaceError(
                    f"{label}: 'transformation' must be a name (string)"
                )
            transformation = self.transformations.get(name)
            if transformation is None:
                raise WorkspaceError(
                    f"{label}: workspace has no transformation {name!r}"
                )
            bind = entry.get("bind")
            if not isinstance(bind, dict) or not all(
                isinstance(key, str) and isinstance(value, str)
                for key, value in bind.items()
            ):
                raise WorkspaceError(
                    f"{label}: 'bind' must map parameters to model names"
                )
            missing = set(transformation.param_names()) - set(bind)
            if missing:
                raise WorkspaceError(
                    f"{label}: binding misses parameters {sorted(missing)}"
                )
            models = {}
            for param in transformation.param_names():
                model = self.models.get(bind[param])
                if model is None:
                    raise WorkspaceError(
                        f"{label}: workspace has no model {bind[param]!r}"
                    )
                models[param] = model.renamed(param)
            targets = entry.get("targets")
            if (
                not isinstance(targets, list)
                or not targets
                or not all(isinstance(target, str) for target in targets)
            ):
                raise WorkspaceError(
                    f"{label}: 'targets' must be a non-empty list of parameters"
                )
            unknown = set(targets) - set(transformation.param_names())
            if unknown:
                raise WorkspaceError(
                    f"{label}: targets name unknown parameters {sorted(unknown)}"
                )
            try:
                requests.append(
                    EnforceRequest.build(
                        transformation,
                        models,
                        targets,
                        semantics=entry.get("semantics", "extended"),
                        weights=check_weights(entry.get("weights", {})),
                        scope=scope_from_dict(entry.get("scope")),
                        mode=check_mode(entry.get("mode", "increasing")),
                        max_distance=check_max_distance(
                            entry.get("max_distance")
                        ),
                    )
                )
            except ReproError as exc:
                raise WorkspaceError(f"{label}: {exc}") from exc
        return requests

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    @staticmethod
    def load(root: str | Path) -> "Workspace":
        """Load every artefact under ``root``."""
        root = Path(root)
        if not root.is_dir():
            raise WorkspaceError(f"workspace root {root} is not a directory")
        workspace = Workspace()
        json_files = sorted(root.rglob("*.json"))
        # Metamodels first: models reference them by name.
        pending_models: list[tuple[Path, dict]] = []
        for path in json_files:
            data = _read_json(path)
            kind = data.get("kind")
            if kind == "metamodel":
                metamodel = metamodel_from_dict(data)
                if metamodel.name in workspace.metamodels:
                    raise WorkspaceError(
                        f"duplicate metamodel {metamodel.name!r} ({path})"
                    )
                workspace.metamodels[metamodel.name] = metamodel
            elif kind == "model":
                pending_models.append((path, data))
            else:
                raise WorkspaceError(f"{path}: unknown artefact kind {kind!r}")
        for path, data in pending_models:
            metamodel_name = data.get("metamodel", "")
            metamodel = workspace.metamodels.get(metamodel_name)
            if metamodel is None:
                raise WorkspaceError(
                    f"{path}: model needs unknown metamodel {metamodel_name!r}"
                )
            model_name = data.get("name") or path.stem
            data = dict(data)
            data["name"] = model_name
            if model_name in workspace.models:
                raise WorkspaceError(f"duplicate model {model_name!r} ({path})")
            workspace.models[model_name] = model_from_dict(data, metamodel)
        for path in sorted(root.rglob("*.qvtr")):
            transformation = parse_transformation(path.read_text())
            if transformation.name in workspace.transformations:
                raise WorkspaceError(
                    f"duplicate transformation {transformation.name!r} ({path})"
                )
            workspace.transformations[transformation.name] = transformation
        return workspace

    # ------------------------------------------------------------------
    # Saving
    # ------------------------------------------------------------------
    def save(self, root: str | Path) -> None:
        """Write every artefact under ``root`` using the standard layout."""
        root = Path(root)
        (root / "metamodels").mkdir(parents=True, exist_ok=True)
        (root / "models").mkdir(parents=True, exist_ok=True)
        (root / "transformations").mkdir(parents=True, exist_ok=True)
        for name, metamodel in sorted(self.metamodels.items()):
            _write_json(
                root / "metamodels" / f"{name}.json", metamodel_to_dict(metamodel)
            )
        for name, model in sorted(self.models.items()):
            payload = model_to_dict(model)
            payload["name"] = name
            _write_json(root / "models" / f"{name}.json", payload)
        from repro.qvtr.pretty import pretty_transformation

        for name, transformation in sorted(self.transformations.items()):
            path = root / "transformations" / f"{name}.qvtr"
            path.write_text(pretty_transformation(transformation))

    def save_model(self, root: str | Path, name: str) -> Path:
        """Write one model back to ``root/models/<name>.json``."""
        if name not in self.models:
            raise WorkspaceError(f"workspace has no model {name!r}")
        root = Path(root)
        (root / "models").mkdir(parents=True, exist_ok=True)
        payload = model_to_dict(self.models[name])
        payload["name"] = name
        path = root / "models" / f"{name}.json"
        _write_json(path, payload)
        return path


def _read_json(path: Path) -> dict:
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise WorkspaceError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise SerializationError(f"{path}: expected a JSON object")
    return data


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
