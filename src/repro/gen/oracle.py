"""Cross-engine differential oracle over generated scenarios.

One generated enforcement question is replayed through every engine the
repo ships, and the exact engines must agree bit-for-bit on the verdict
and the optimal weighted distance:

* ``brute`` — explicit uniform-cost search with the oracle disabled:
  every popped state is decided by the real checker. The slowest,
  most-trusted arm; everything else is measured against it.
* ``search`` — the same engine with the incremental
  :class:`~repro.enforce.satengine.ConsistencyOracle` goal test.
* ``sat`` — the full :func:`repro.enforce.enforce` SAT path riding the
  one shared grounding (``share=True``).
* ``sat-unshared`` — per-call grounding (``share=False``).
* ``sat-noprune`` — an :class:`~repro.enforce.session.EnforcementSession`
  with binding-space pruning and translation caching both disabled (the
  fully naive grounding arm, including the session's own hippocratic
  check, which its first optimum solve decides).

The ``guided`` engine is heuristic, not least-change: it is run for
*correctness* (any repair it returns has already been re-verified by
:func:`~repro.enforce.api.verify_repair`, and its cost may never beat
the exact optimum) but is exempt from cost agreement and may give up
where exact engines succeed.

Every verdict is one of ``CONSISTENT`` (hippocratic: the question state
already checks out, distance 0), ``REPAIRED`` (optimal cost attached),
or ``NO_REPAIR`` (proven impossible within the scenario's scope and
distance cap). A search arm exhausting its *state budget* instead of
the distance-capped space reports ``BUDGET`` — never counted as
agreement, so silently under-explored scenarios fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.enforce.api import enforce, verify_repair
from repro.enforce.search import enforce_search
from repro.enforce.session import EnforcementSession
from repro.errors import NoRepairFound, SearchBudgetExhausted
from repro.gen.scenarios import GeneratedScenario

CONSISTENT = "consistent"
REPAIRED = "repaired"
NO_REPAIR = "no-repair"
BUDGET = "budget-exhausted"

#: The engines whose verdicts and optimal costs must coincide.
EXACT_ENGINES: tuple[str, ...] = (
    "brute",
    "search",
    "sat",
    "sat-unshared",
    "sat-noprune",
)

#: State budget for the explicit-search arms. Scenario construction
#: keeps universes tiny and distance caps at MAX_CAP, so this is never
#: reached in practice; hitting it yields BUDGET, which fails agreement.
SEARCH_MAX_STATES = 400_000


@dataclass(frozen=True)
class EngineVerdict:
    """One engine's answer to one scenario."""

    engine: str
    outcome: str
    distance: int | None = None

    def agrees_with(self, other: "EngineVerdict") -> bool:
        return self.outcome == other.outcome and self.distance == other.distance


@dataclass(frozen=True)
class DifferentialReport:
    """Every engine's answer to one scenario, plus the agreement verdict."""

    seed: int
    exact: tuple[EngineVerdict, ...]
    guided: EngineVerdict | None

    @property
    def consensus(self) -> EngineVerdict:
        return self.exact[0]

    def disagreements(self) -> list[str]:
        """Human-readable differences (empty iff the report is clean)."""
        problems = []
        reference = self.consensus
        if reference.outcome == BUDGET:
            problems.append(f"{reference.engine}: state budget exhausted")
        for verdict in self.exact[1:]:
            if verdict.outcome == BUDGET:
                problems.append(f"{verdict.engine}: state budget exhausted")
            elif not verdict.agrees_with(reference):
                problems.append(
                    f"{verdict.engine} says {verdict.outcome}"
                    f"/{verdict.distance}, {reference.engine} says "
                    f"{reference.outcome}/{reference.distance}"
                )
        if self.guided is not None:
            problems.extend(self._guided_problems(reference))
        return problems

    def _guided_problems(self, reference: EngineVerdict) -> list[str]:
        guided = self.guided
        assert guided is not None
        if reference.outcome == CONSISTENT and guided.outcome != CONSISTENT:
            return ["guided must leave a consistent state untouched"]
        if guided.outcome == REPAIRED and reference.outcome == REPAIRED:
            assert guided.distance is not None and reference.distance is not None
            if guided.distance < reference.distance:
                return [
                    f"guided beat the exact optimum "
                    f"({guided.distance} < {reference.distance})"
                ]
        if guided.outcome == REPAIRED and reference.outcome == CONSISTENT:
            return ["guided repaired a state the exact engines call consistent"]
        return []

    @property
    def ok(self) -> bool:
        return not self.disagreements()


def run_engine(engine: str, scenario: GeneratedScenario) -> EngineVerdict:
    """One engine's verdict on one scenario (see the module docstring)."""
    checker = scenario.checker()
    cap = scenario.max_distance
    try:
        if engine in ("brute", "search"):
            if checker.is_consistent(scenario.models):
                return EngineVerdict(engine, CONSISTENT, 0)
            repaired, cost, _stats = enforce_search(
                checker,
                scenario.models,
                scenario.targets,
                metric=scenario.metric,
                scope=scenario.scope,
                max_distance=cap,
                max_states=SEARCH_MAX_STATES,
                use_oracle=engine == "search",
            )
            repair = verify_repair(
                checker,
                engine,
                dict(scenario.models),
                repaired,
                cost,
                scenario.targets,
                scenario.metric,
            )
            return EngineVerdict(engine, REPAIRED, repair.distance)
        if engine in ("sat", "sat-unshared", "guided"):
            repair = enforce(
                scenario.transformation,
                scenario.models,
                scenario.targets,
                engine="guided" if engine == "guided" else "sat",
                semantics=scenario.semantics,
                metric=scenario.metric,
                scope=scenario.scope,
                max_distance=cap,
                share=engine != "sat-unshared",
            )
        elif engine == "sat-noprune":
            session = EnforcementSession(
                scenario.transformation,
                scenario.targets,
                semantics=scenario.semantics,
                metric=scenario.metric,
                scope=scenario.scope,
                prune=False,
                cache=False,
            )
            repair = session.enforce(scenario.models, max_distance=cap)
        else:
            raise ValueError(f"unknown differential engine {engine!r}")
        if repair.engine == "none":
            return EngineVerdict(engine, CONSISTENT, 0)
        return EngineVerdict(engine, REPAIRED, repair.distance)
    except SearchBudgetExhausted:
        return EngineVerdict(engine, BUDGET)
    except NoRepairFound:
        return EngineVerdict(engine, NO_REPAIR)


def differential(
    scenario: GeneratedScenario,
    engines: tuple[str, ...] = EXACT_ENGINES,
    include_guided: bool = True,
) -> DifferentialReport:
    """Replay ``scenario`` through every engine and collect the verdicts."""
    exact = tuple(run_engine(engine, scenario) for engine in engines)
    guided = run_engine("guided", scenario) if include_guided else None
    return DifferentialReport(scenario.seed, exact, guided)


def session_differential(
    scenario: GeneratedScenario,
    tuples: list[dict],
) -> tuple[list[EngineVerdict], EnforcementSession]:
    """Drive one persistent session over an edit stream, differentially.

    Each tuple in the stream is answered by a *shared-style* cached
    session (prune + cache on, answer memory active) and by a
    fresh per-call SAT enforcement; both verdicts must agree at every
    step. Returns the per-step consensus verdicts and the session (whose
    ``groundings``/``reuses``/``hits`` counters the stream tests inspect).
    """
    session = EnforcementSession(
        scenario.transformation,
        scenario.targets,
        semantics=scenario.semantics,
        metric=scenario.metric,
        scope=scenario.scope,
    )
    verdicts: list[EngineVerdict] = []
    for step, models in enumerate(tuples):
        try:
            repair = session.enforce(models, max_distance=scenario.max_distance)
            outcome = CONSISTENT if repair.engine == "none" else REPAIRED
            session_verdict = EngineVerdict("session", outcome, repair.distance)
        except NoRepairFound:
            session_verdict = EngineVerdict("session", NO_REPAIR)
        step_scenario = GeneratedScenario(
            seed=scenario.seed,
            transformation=scenario.transformation,
            semantics=scenario.semantics,
            before=scenario.before,
            models=dict(models),
            targets=scenario.targets,
            metric=scenario.metric,
            scope=scenario.scope,
            max_distance=scenario.max_distance,
            edited=scenario.edited,
        )
        reference = run_engine("sat-unshared", step_scenario)
        if not session_verdict.agrees_with(
            EngineVerdict("session", reference.outcome, reference.distance)
        ):
            raise AssertionError(
                f"seed {scenario.seed} step {step}: session says "
                f"{session_verdict.outcome}/{session_verdict.distance}, "
                f"per-call SAT says {reference.outcome}/{reference.distance}"
            )
        verdicts.append(session_verdict)
    return verdicts, session
