"""The ``repro-echo`` command line.

Subcommands over a file workspace (see :mod:`repro.echo.workspace` for
the layout):

* ``validate`` — static analysis of every transformation (well-formedness,
  safety, invocation direction typing);
* ``explain`` — one transformation's dependencies, derivable directions
  and call sites;
* ``check`` — consistency of a model binding, standard or extended
  semantics; exit code 1 signals inconsistency;
* ``enforce`` — least-change repair towards ``--target`` models, with
  ``--write`` to persist the repaired models back into the workspace;
* ``batch`` — answer a whole JSON file of enforcement requests through
  the sharded batch service (:mod:`repro.serve`); exit code 1 signals
  at least one unanswered request;
* ``daemon`` — run the long-lived enforcement daemon
  (:mod:`repro.serve.daemon`), or with ``--client`` talk to a running
  one (``--health``, ``--metrics``, or a ``--requests`` batch file).

Examples::

    repro-echo validate --workspace ws
    repro-echo check --workspace ws -t F --bind fm=fm cf1=alpha cf2=beta
    repro-echo enforce --workspace ws -t F --bind fm=fm cf1=alpha cf2=beta \\
        --target cf1 --target cf2 --engine sat --write
    repro-echo batch --workspace ws --requests batch.json --workers 4
    repro-echo daemon --socket /tmp/repro.sock --workers 4
    repro-echo daemon --client --socket /tmp/repro.sock --health
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.echo.tool import Echo
from repro.echo.workspace import Workspace
from repro.enforce.metrics import TupleMetric
from repro.errors import ReproError, WorkspaceError
from repro.qvtr.analysis import analyse

#: The batch verb's --help epilog doubles as the batch-file reference.
_BATCH_EPILOG = """\
The batch file is a JSON array; every entry is one enforcement request
over workspace artefacts:

    [{"transformation": "F",
      "bind": {"fm": "fm", "cf1": "alpha", "cf2": "beta"},
      "targets": ["cf1", "cf2"],
      "semantics": "extended",
      "mode": "increasing",
      "max_distance": 3,
      "weights": {"cf1": 2}}]

Only "transformation", "bind" and "targets" are required. Requests are
sharded by question shape and answered by --workers worker processes;
responses print in submission order regardless of worker interleaving. Keep the
batch file OUTSIDE the workspace root — the workspace loader scans
every *.json under it.

Each shard gets --deadline seconds on a worker (dispatch to answer);
a shard that blows it has its requests answered with typed "error"
responses, and its wedged worker is killed and respawned while the
sibling shards continue. On Ctrl-C the batch stops early but still
prints every response — completed shards carry their real answers,
the rest say they were never answered — and exits 1.

example:
    repro-echo batch --workspace ws --requests batch.json --workers 4 --write
"""

#: The daemon verb's --help epilog.
_DAEMON_EPILOG = """\
Serve mode (the default) runs the resident enforcement daemon on a UNIX
socket (--socket PATH) or TCP endpoint (--host HOST [--port N]); it
prints one JSON "listening" line when ready and serves until SIGTERM or
Ctrl-C, which gracefully drains in-flight work and prints a final
metrics snapshot. Worker sessions stay warm ACROSS batches: repeated
same-shape traffic grounds once, ever.

Client mode (--client) talks to a running daemon: --health and
--metrics print the respective reports as JSON; --requests FILE with
--workspace WS answers a batch file (same format as `repro-echo batch`,
see its --help) through the daemon. Requests the daemon rejects come
back with typed outcomes: "overloaded" (per-shape queue full, or
draining), "deadline-exceeded" (the per-request deadline elapsed; the
request was dead-lettered), "malformed" (unreadable or oversized
envelope) and "poisoned" (the request repeatedly killed its worker and
is quarantined). A dead or absent daemon is one line on stderr and
exit code 2, never a traceback.

The client is self-healing: every request carries an idempotency key,
and --retry N reconnects up to N times after a connection loss with
exponential backoff (--backoff seconds, doubling per attempt) —
answers that were computed but lost on the wire are replayed by the
daemon, never solved twice.

--delta answers the batch over the daemon's delta wire protocol
instead: requests are grouped by question shape, each group opens one
session with its first request's full model tuple, and every later
request ships only the edit script between consecutive tuples —
O(edit) wire bytes per request, answers bit-identical to the default
mode. Delta sessions are stateful, so --delta uses a plain (non
retrying) connection and rejects --retry: a mid-stream connection loss
or "session-lost" answer surfaces as a typed error and the batch
should simply be resubmitted.

Serve mode accepts --faults SPEC (or the REPRO_FAULTS environment
variable) to enable seeded, deterministic fault injection for chaos
testing, e.g. "seed=7;crash-before:rate=0.1;conn-drop:rate=0.05".

examples:
    repro-echo daemon --socket /tmp/repro.sock --workers 4
    repro-echo daemon --client --socket /tmp/repro.sock --metrics
    repro-echo daemon --client --socket /tmp/repro.sock --retry 3 \\
        --requests batch.json --workspace ws
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-echo",
        description="Multidirectional QVT-R checking and least-change repair",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="statically analyse transformations")
    validate.add_argument("--workspace", required=True)

    explain = sub.add_parser(
        "explain",
        help="show each relation's dependencies, derived directions and call sites",
    )
    explain.add_argument("--workspace", required=True)
    explain.add_argument("-t", "--transformation", required=True)

    check = sub.add_parser("check", help="test consistency of a model binding")
    _common_args(check)

    enf = sub.add_parser("enforce", help="repair the selected target models")
    _common_args(enf)
    enf.add_argument(
        "--target",
        action="append",
        required=True,
        help="transformation parameter to repair (repeatable)",
    )
    enf.add_argument("--engine", choices=["sat", "search"], default="sat")
    enf.add_argument("--mode", choices=["increasing", "decreasing"], default="increasing")
    enf.add_argument("--max-distance", type=_distance_cap, default=None)
    enf.add_argument(
        "--weight",
        action="append",
        default=[],
        metavar="PARAM=N",
        help="distance weight for a parameter (repeatable)",
    )
    enf.add_argument(
        "--write", action="store_true", help="persist repaired models to the workspace"
    )

    batch = sub.add_parser(
        "batch",
        help="answer a JSON file of enforcement requests via the batch service",
        description="Sharded batch enforcement over workspace artefacts.",
        epilog=_BATCH_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    batch.add_argument("--workspace", required=True)
    batch.add_argument(
        "--requests",
        required=True,
        help="path to the JSON batch file (see the epilog for the format)",
    )
    from repro.serve import DEFAULT_WORKERS

    batch.add_argument(
        "--workers",
        type=int,
        default=DEFAULT_WORKERS,
        help="worker processes; 0 answers inline in this process "
        f"(default: {DEFAULT_WORKERS})",
    )
    from repro.serve import DEFAULT_SHARD_DEADLINE

    batch.add_argument(
        "--deadline",
        type=float,
        default=DEFAULT_SHARD_DEADLINE,
        metavar="SECONDS",
        help="per-shard deadline on a worker, dispatch to answer; 0 lifts it "
        f"(default: {DEFAULT_SHARD_DEADLINE:g})",
    )
    batch.add_argument(
        "--write",
        action="store_true",
        help="persist every repaired model back into the workspace",
    )

    daemon = sub.add_parser(
        "daemon",
        help="run (or talk to) the long-lived enforcement daemon",
        description="The resident enforcement service: warm sessions "
        "across batches, typed backpressure, per-request deadlines.",
        epilog=_DAEMON_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    daemon.add_argument("--socket", help="UNIX socket path")
    daemon.add_argument("--host", help="TCP host (alternative to --socket)")
    daemon.add_argument(
        "--port", type=int, default=0, help="TCP port (0 picks one)"
    )
    daemon.add_argument(
        "--workers", type=int, default=2, help="worker processes (default: 2)"
    )
    daemon.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="per-shape bound on queued + in-flight requests (default: 64)",
    )
    daemon.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request end-to-end deadline (serve mode default: 60; "
        "client mode default: the daemon's)",
    )
    daemon.add_argument(
        "--faults",
        metavar="SPEC",
        help="serve: seeded fault-injection spec for chaos testing "
        "(see repro.serve.faults; falls back to $REPRO_FAULTS)",
    )
    daemon.add_argument(
        "--client",
        action="store_true",
        help="talk to a running daemon instead of serving",
    )
    daemon.add_argument(
        "--retry",
        type=int,
        default=0,
        metavar="N",
        help="client: reconnect up to N times after a connection loss "
        "(idempotency keys make retries safe; default: 0)",
    )
    daemon.add_argument(
        "--backoff",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="client: initial reconnect backoff, doubling per attempt "
        "(default: 0.05)",
    )
    daemon.add_argument(
        "--health", action="store_true", help="client: print the health report"
    )
    daemon.add_argument(
        "--metrics",
        action="store_true",
        help="client: print the metrics snapshot",
    )
    daemon.add_argument(
        "--requests",
        help="client: JSON batch file to answer through the daemon "
        "(needs --workspace)",
    )
    daemon.add_argument(
        "--workspace", help="client: workspace resolving the batch file"
    )
    daemon.add_argument(
        "--delta",
        action="store_true",
        help="client: answer --requests over delta sessions (ship each "
        "shape's tuple once, then only edit scripts; incompatible with "
        "--retry)",
    )
    return parser


def _common_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--workspace", required=True)
    sub.add_argument("-t", "--transformation", required=True)
    sub.add_argument(
        "--bind",
        nargs="+",
        required=True,
        metavar="PARAM=MODEL",
        help="bind transformation parameters to workspace models",
    )
    sub.add_argument(
        "--semantics", choices=["standard", "extended"], default="extended"
    )


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Belt and braces: the batch service converts an interrupt into
        # partial results itself; anything interrupted elsewhere still
        # exits cleanly instead of spraying a traceback.
        print("interrupted", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "daemon":
        return _daemon(args)
    workspace = Workspace.load(args.workspace)
    if args.command == "validate":
        return _validate(workspace)
    if args.command == "explain":
        return _explain(workspace, args.transformation)
    if args.command == "batch":
        return _batch(workspace, args)
    echo = workspace.echo()
    binding = _parse_binding(args.bind)
    if args.command == "check":
        report = echo.check(args.transformation, binding, semantics=args.semantics)
        print(report.summary())
        return 0 if report.consistent else 1
    # enforce
    weights = _parse_weights(args.weight)
    repair = echo.enforce(
        args.transformation,
        binding,
        targets=args.target,
        semantics=args.semantics,
        engine=args.engine,
        metric=TupleMetric(weights),
        mode=args.mode,
        max_distance=args.max_distance,
    )
    print(repair.summary())
    if args.write:
        for param in sorted(repair.changed):
            workspace.models[binding[param]] = repair.models[param]
            path = workspace.save_model(args.workspace, binding[param])
            print(f"wrote {path}")
    return 0


def _load_batch_file(requests_path: str) -> list:
    """Read and parse a batch-request JSON file (shared batch/daemon)."""
    path = Path(requests_path)
    try:
        entries = json.loads(path.read_text())
    except OSError as exc:
        raise WorkspaceError(f"cannot read batch file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise WorkspaceError(f"{path}: not UTF-8 text ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise WorkspaceError(f"{path}: invalid JSON ({exc})") from exc
    return entries


def _batch(workspace: Workspace, args: argparse.Namespace) -> int:
    """The ``batch`` verb: file of requests -> submission-ordered answers."""
    entries = _load_batch_file(args.requests)
    result = workspace.serve(
        entries,
        workers=args.workers,
        deadline=args.deadline or None,
    )
    ok = True
    written_by: dict[str, int] = {}
    for index, (entry, response) in enumerate(zip(entries, result.responses)):
        print(f"[{index}] {entry.get('transformation')}: {response.summary()}")
        if not response.ok:
            ok = False
        elif args.write and response.changed:
            bind = entry["bind"]
            for param in sorted(response.changed):
                name = bind[param]
                workspace.models[name] = response.models[param].renamed(name)
                written = workspace.save_model(args.workspace, name)
                print(f"  wrote {written}")
                if name in written_by:
                    # Every request was answered against the workspace
                    # *snapshot*; a later write to the same model wins
                    # and may invalidate the earlier repair's verdict.
                    print(
                        f"  warning: {name!r} was already written by "
                        f"request {written_by[name]}; this write replaces "
                        "it (repairs were computed against the original "
                        "workspace state)",
                        file=sys.stderr,
                    )
                written_by[name] = index
    outcomes = ", ".join(
        f"{outcome}={count}" for outcome, count in sorted(result.outcomes().items())
    )
    print(
        f"{len(result.responses)} requests in {len(result.shards)} shards "
        f"({outcomes}) — workers={result.workers}, {result.elapsed:.2f}s"
    )
    if result.interrupted:
        print(
            "batch interrupted: the responses above are partial — "
            "completed shards carry real answers, the rest were never "
            "answered",
            file=sys.stderr,
        )
        return 1
    return 0 if ok else 1


def _daemon(args: argparse.Namespace) -> int:
    """The ``daemon`` verb: serve mode, or --client against a server."""
    if args.client:
        return _daemon_client(args)
    if args.health or args.metrics or args.requests:
        raise SystemExit(
            "--health/--metrics/--requests are client options; add --client"
        )
    from repro.serve.daemon import DaemonConfig, run_daemon

    config = DaemonConfig(
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        faults=args.faults,
        **({} if args.deadline is None else {"deadline": args.deadline}),
    )
    run_daemon(config)
    return 0


def _daemon_client(args: argparse.Namespace) -> int:
    from repro.serve.protocol import (
        DaemonClient,
        RetryingClient,
        delta_enforce_many,
    )

    if args.socket is None and args.host is None:
        raise SystemExit("daemon --client needs --socket or --host/--port")
    if args.delta and args.retry:
        # Delta sessions are stateful: a reconnect cannot replay them,
        # so combining the two would promise healing it cannot deliver.
        raise SystemExit("--delta is incompatible with --retry")
    if args.delta and not (args.requests and args.workspace):
        raise SystemExit("--delta needs --requests with --workspace")
    if args.delta:
        with DaemonClient.connect(
            path=args.socket, host=args.host, port=args.port or None
        ) as client:
            workspace = Workspace.load(args.workspace)
            entries = _load_batch_file(args.requests)
            requests = workspace.resolve_requests(entries)
            responses = delta_enforce_many(
                client, requests, deadline=args.deadline
            )
            print(
                f"delta wire: {client.bytes_sent} bytes sent over "
                f"{len(requests)} requests",
                file=sys.stderr,
            )
            return _print_daemon_responses(entries, responses)
    with RetryingClient(
        path=args.socket, host=args.host, port=args.port or None,
        retries=args.retry, backoff=args.backoff,
    ) as client:
        if args.health:
            print(json.dumps(client.health(), indent=2, sort_keys=True))
            return 0
        if args.metrics:
            print(json.dumps(client.metrics(), indent=2, sort_keys=True))
            return 0
        if not args.requests or not args.workspace:
            raise SystemExit(
                "daemon --client needs --health, --metrics, or "
                "--requests with --workspace"
            )
        workspace = Workspace.load(args.workspace)
        entries = _load_batch_file(args.requests)
        requests = workspace.resolve_requests(entries)
        responses = client.enforce_many(requests, deadline=args.deadline)
        return _print_daemon_responses(entries, responses)


def _print_daemon_responses(entries: list, responses: list) -> int:
    ok = True
    for index, (entry, response) in enumerate(zip(entries, responses)):
        print(f"[{index}] {entry.get('transformation')}: {response.summary()}")
        if not response.ok:
            ok = False
    return 0 if ok else 1


def _validate(workspace: Workspace) -> int:
    ok = True
    for name, transformation in sorted(workspace.transformations.items()):
        report = analyse(transformation, workspace.metamodels)
        if report.ok():
            print(f"{name}: ok")
        else:
            ok = False
            print(f"{name}: FAILED")
            for message in report.all_messages():
                print(f"  {message}")
    return 0 if ok else 1


def _explain(workspace: Workspace, name: str) -> int:
    """Describe one transformation: dependencies, directions, calls."""
    from repro.deps.dependency import Dependency, format_dependencies
    from repro.deps.horn import entails
    from repro.errors import WorkspaceError
    from repro.qvtr.analysis import call_sites_of

    transformation = workspace.transformations.get(name)
    if transformation is None:
        raise WorkspaceError(f"workspace has no transformation {name!r}")
    params = transformation.param_names()
    print(f"transformation {transformation.name} over {', '.join(params)}")
    for relation in transformation.relations:
        kind = "top relation" if relation.is_top else "relation"
        annotated = "declared" if relation.dependencies is not None else "standard (default)"
        deps = relation.effective_dependencies()
        print(f"\n{kind} {relation.name}  [{annotated}]")
        print(f"  domains: {', '.join(relation.domain_params())}")
        print(f"  depends: {format_dependencies(deps)}")
        derivable = []
        domains = relation.domain_params()
        for target in domains:
            for source in domains:
                if source == target:
                    continue
                query = Dependency((source,), target)
                if query not in deps and entails(deps, query):
                    derivable.append(str(query))
        if derivable:
            print(f"  derivable single-source directions: {'; '.join(sorted(derivable))}")
    sites = call_sites_of(transformation)
    if sites:
        print("\ncall sites:")
        for site in sites:
            print(f"  {site.caller} -> {site.callee} ({site.clause})")
    return 0


def _distance_cap(text: str) -> int:
    """``--max-distance`` values: integers >= 0, as on the wire."""
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _parse_weights(items: Sequence[str]) -> dict[str, int]:
    weights: dict[str, int] = {}
    for item in items:
        param, sep, value = item.partition("=")
        try:
            weight = int(value)
        except ValueError:
            weight = None
        if not sep or not param or weight is None:
            raise SystemExit(f"bad --weight entry {item!r}, expected PARAM=N")
        weights[param] = weight
    return weights


def _parse_binding(items: Sequence[str]) -> dict[str, str]:
    binding = {}
    for item in items:
        param, sep, model = item.partition("=")
        if not sep or not param or not model:
            raise SystemExit(f"bad --bind entry {item!r}, expected PARAM=MODEL")
        binding[param] = model
    return binding


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
