"""Shared helpers of the standalone benchmark scripts (A8, A11).

Each script prints its table and keeps it in
``benchmarks/results/<exp>.txt``, and saves its ``metrics`` mapping as a
machine-readable ``BENCH_<exp>.json`` at the repo root, which is what
makes the trajectory trackable across commits (free-text tables are not
diffable by tooling). The paper's claims are tier-1 tests; the README
claim table names their homes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).parent.parent


def git_revision() -> str:
    """The repo's current commit hash, or ``"unknown"`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    revision = out.stdout.strip()
    return revision if out.returncode == 0 and revision else "unknown"


def record(experiment: str, text: str, metrics: dict) -> None:
    """Print and persist one experiment's table and metrics.

    The table goes to ``benchmarks/results/<experiment>.txt``, the
    metrics (plain JSON types; anything else is stringified) to
    ``BENCH_<experiment>.json`` at the repo root. Each run overwrites
    both — the git history *is* the trajectory — and the JSON file is
    stamped (under ``"_meta"``) with the git revision it measured and
    whether it ran the smoke or the full workloads, so the cross-commit
    trajectory files are self-describing.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{experiment}.txt"
    path.write_text(text + "\n")
    print(f"\n[{experiment}] -> {path}")
    print(text)
    path = REPO_ROOT / f"BENCH_{experiment}.json"
    payload = dict(metrics)
    payload["_meta"] = {
        "experiment": experiment,
        "git_revision": git_revision(),
        "mode": "smoke" if experiment.endswith("_smoke") else "full",
    }
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    )
    print(f"[{experiment}] metrics -> {path}")


def bench_cli(description: str, argv=None) -> argparse.Namespace:
    """Arguments for running a bench file as a standalone script.

    ``--smoke`` selects reduced workloads that finish in seconds — the
    mode ``scripts/ci.sh`` runs on every commit.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced workloads for CI (finishes in well under 10 s)",
    )
    return parser.parse_args(argv)
