"""Certified battery: every answer of the CDCL core is checked by RUP.

:class:`repro.solver.sat.IncrementalSolver` is the one CDCL core. Its
answers are not compared with a second core's; each one is *certified*
by reverse unit propagation (RUP), so a bug cannot pass by being made
twice:

* :class:`RecordingSolver` is the core with a log. In order, it records
  every input clause (the constructor's CNF and each ``add_clause``),
  every learnt clause (``_analyze``'s return value, learnt units
  included) and every answer: the assumptions plus the model or the
  failed-assumption core. It changes no decision.
* :func:`certify` replays a log on plain occurrence lists and shares no
  code with the core. Each lemma must be RUP against the inputs and
  earlier lemmas at its point in the log. A SAT model must satisfy every
  clause loaded so far and every assumption. An UNSAT core must be a
  subset of the assumptions, and its negation must be RUP. Deleted
  learnt clauses stay in the replay, because RUP is monotone in the
  clause set.

Certified streams:

* the A8 generated-scenario corpus (seeds 0..59) through full SAT
  enforcement on an :class:`~repro.enforce.session.EnforcementSession`;
  the no-repair and distance claims are then refutation certificates
  for every bound below the optimum;
* the paper feature-model toggle stream (``paper_transformation(k=2)``,
  ``toggle_stream(4, 48)``) on one warm session, where consecutive bound
  probes keep their shared assumption levels;
* random and phase-transition-hard CNFs with assumption streams, among
  them probe-shaped streams whose consecutive solves share an assumption
  prefix, with clauses, units and variables added between solves. These
  also replay on a plain core: the recorder must not move the trajectory.

The battery also pins the flat core's literal-type rejection, its
populated and monotone :class:`~repro.solver.sat.SolverStats` (the
daemon ``metrics`` verb aggregates them) and its ``force_restart`` /
``force_gc`` hooks.
"""

import random
from collections import defaultdict
from dataclasses import replace

import pytest

from repro.enforce import EnforcementSession, TargetSelection
from repro.errors import NoRepairFound, SolverError
from repro.featuremodels import paper_transformation
from repro.gen import random_scenario
from repro.gen.workloads import random_hard_cnf
from repro.solver import maxsat
from repro.solver.cnf import CNF
from repro.solver.sat import IncrementalSolver
from tests.strategies import enforce_answer, probe_stream, toggle_stream

#: The A8 generated-scenario seeds certified here: the differential
#: oracle's seeds 0..24 (tests/test_differential_engines.py) and 35 more.
CERTIFIED_SEEDS = tuple(range(60))


# ----------------------------------------------------------------------
# Recording and certification
# ----------------------------------------------------------------------
class RecordingSolver(IncrementalSolver):
    """The core, logging what each of its answers rests on (``log``)."""

    def __init__(self, cnf: CNF | None = None, gc: bool = True) -> None:
        self.log = [("input", tuple(c)) for c in (cnf.clauses if cnf else ())]
        super().__init__(cnf, gc)

    def add_clause(self, literals) -> None:
        clause = tuple(literals)
        super().add_clause(clause)
        self.log.append(("input", clause))

    def _analyze(self, conflict):
        learnt, backjump = super()._analyze(conflict)
        lemma = tuple(-(c >> 1) if c & 1 else c >> 1 for c in learnt)
        self.log.append(("lemma", lemma))
        return learnt, backjump

    def solve(self, assumptions=(), model: bool = True):
        assumed = tuple(assumptions)
        # The model flag only shapes the result, never the search.
        result = super().solve(assumed, model=True)
        if result.satisfiable:
            self.log.append(("sat", assumed, result.assignment))
        else:
            self.log.append(("unsat", assumed, result.core))
        return result if model else replace(result, assignment=None)


def _recording(monkeypatch) -> list:
    """Make every MaxSAT session build a :class:`RecordingSolver`; the
    returned list collects them as they are built."""
    built = []

    class Recorded(RecordingSolver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(maxsat, "IncrementalSolver", Recorded)
    return built


def _rup(clauses, occurs, units, clause) -> bool:
    """Whether unit propagation refutes the negation of ``clause``."""
    true = set()
    queue = []
    for lit in [-q for q in clause] + units:
        if -lit in true:
            return True
        if lit not in true:
            true.add(lit)
            queue.append(lit)
    while queue:
        for index in occurs[-queue.pop()]:
            free = []
            for q in clauses[index]:
                if q in true:
                    break
                if -q not in true:
                    free.append(q)
                    if len(free) > 1:
                        break
            else:
                if not free:
                    return True
                true.add(free[0])
                queue.append(free[0])
    return False


def certify(log) -> tuple[int, int]:
    """Check a :class:`RecordingSolver` log; return (lemmas, answers)."""
    clauses: list[tuple[int, ...]] = []
    occurs: defaultdict[int, list[int]] = defaultdict(list)
    units: list[int] = []
    empty = False
    lemmas = answers = 0
    for step, (kind, *payload) in enumerate(log):
        if kind in ("input", "lemma"):
            clause = tuple(dict.fromkeys(payload[0]))  # inputs may repeat a literal
            if kind == "lemma":
                lemmas += 1
                assert empty or _rup(clauses, occurs, units, clause), (
                    f"step {step}: lemma {clause} is not RUP"
                )
            if any(-q in clause for q in clause):
                continue  # a tautology never propagates
            empty = empty or not clause
            if len(clause) == 1:
                units.append(clause[0])
            for q in clause:
                occurs[q].append(len(clauses))
            clauses.append(clause)
            continue
        answers += 1
        assumptions, witness = payload
        if kind == "sat":
            assert not empty, f"step {step}: SAT over an empty clause"
            holds = lambda q: witness[abs(q)] == (q > 0)
            assert all(map(holds, assumptions)), f"step {step}: assumption broken"
            for clause in clauses:
                assert any(map(holds, clause)), f"step {step}: {clause} broken"
        else:
            assert set(witness) <= set(assumptions), (
                f"step {step}: core {witness} is not a subset of {assumptions}"
            )
            negated = tuple(-q for q in witness)
            assert empty or _rup(clauses, occurs, units, negated), (
                f"step {step}: core {witness} is not RUP"
            )
    return lemmas, answers


class TestRupChecker:
    """The checker accepts what follows by RUP and nothing else."""

    def test_accepts_a_lemma_over_a_repeated_literal(self):
        log = [
            ("input", (1, 1, 2)),
            ("input", (-1, 3)),
            ("input", (-1, -3)),
            ("lemma", (2,)),
            ("unsat", (-2, 3), (-2,)),
        ]
        assert certify(log) == (1, 1)

    def test_rejects_a_lemma_that_is_not_rup(self):
        with pytest.raises(AssertionError, match="not RUP"):
            certify([("input", (1, 2)), ("lemma", (1,))])

    def test_rejects_a_model_that_breaks_a_clause_or_assumption(self):
        inputs = [("input", (1, 2))]
        with pytest.raises(AssertionError, match="broken"):
            certify(inputs + [("sat", (), {1: False, 2: False})])
        with pytest.raises(AssertionError, match="assumption broken"):
            certify(inputs + [("sat", (-1,), {1: True, 2: False})])

    def test_rejects_a_core_outside_the_assumptions_or_not_rup(self):
        inputs = [("input", (1, 2)), ("input", (-1, 2))]
        with pytest.raises(AssertionError, match="not a subset"):
            certify(inputs + [("unsat", (-2,), (-1, -2))])
        with pytest.raises(AssertionError, match="not RUP"):
            certify(inputs + [("unsat", (1, 2), (1,))])

    def test_an_empty_clause_refutes_everything(self):
        assert certify([("input", ()), ("unsat", (1,), ())]) == (0, 1)
        with pytest.raises(AssertionError, match="empty clause"):
            certify([("input", ()), ("sat", (), {1: True})])


# ----------------------------------------------------------------------
# CNF streams
# ----------------------------------------------------------------------
def _random_clauses(rng: random.Random, num_vars: int, num_clauses: int):
    clauses = []
    for _ in range(num_clauses):
        chosen = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
    return clauses


def _assumption_stream(seed: int, num_vars: int, calls: int = 3):
    rng = random.Random(seed + 10_000)
    stream = []
    for _ in range(calls):
        k = rng.randint(0, min(5, num_vars))
        stream.append(
            tuple(
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, num_vars + 1), k)
            )
        )
    return stream


def _probe_stream(seed: int, cnf: CNF):
    """:func:`~tests.strategies.probe_stream` around a model of ``cnf``
    (random literals when it has none); the added clause and unit keep
    that model."""
    rng = random.Random(seed + 20_000)
    result = IncrementalSolver(cnf).solve()
    model = [
        v if (result.value(v) if result.satisfiable else rng.random() < 0.5) else -v
        for v in range(1, cnf.num_vars + 1)
    ]
    kept = rng.choice(model)
    clause = [kept] + [-lit for lit in rng.sample(model, 2) if lit != kept]
    return probe_stream(rng, model, clause, [rng.choice(model)])


def _replay(core, num_vars: int, clauses, stream):
    """One incremental solver answering the whole stream; the solver and
    its raw outcomes.

    A step is an assumption tuple (one solve) or, between solves,
    ``("add", clause)`` or ``("new_var",)``.
    """
    solver = core()
    solver.ensure_vars(num_vars)
    for clause in clauses:
        solver.add_clause(clause)
    outcomes = []
    for step in stream:
        if step[:1] == ("add",):
            solver.add_clause(step[1])
            continue
        if step == ("new_var",):
            solver.new_var()
            continue
        result = solver.solve(step)
        outcomes.append(
            (result.satisfiable, result.assignment, result.core, result.stats)
        )
    return solver, outcomes


def _certify_stream(num_vars: int, clauses, stream) -> int:
    """Certify a replay of ``stream``; the number of lemmas checked."""
    recorder, recorded = _replay(RecordingSolver, num_vars, clauses, stream)
    _, plain = _replay(IncrementalSolver, num_vars, clauses, stream)
    assert recorded == plain, "the recorder moved the trajectory"
    lemmas, answers = certify(recorder.log)
    assert answers == len(plain)
    return lemmas


class TestCertifiedCnfStreams:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_cnf_stream_is_certified(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(8, 40)
        clauses = _random_clauses(
            rng, num_vars, int(num_vars * rng.uniform(3.0, 5.0))
        )
        stream = [
            *_assumption_stream(seed, num_vars),
            *_probe_stream(seed, CNF(num_vars, clauses)),
        ]
        _certify_stream(num_vars, clauses, stream)

    @pytest.mark.parametrize("seed", range(24))
    def test_hard_cnf_stream_is_certified(self, seed):
        """Phase-transition 3-SAT: conflicts, restarts and GC pressure.
        Seeds 4, 6, 7, 8, 9, 11, 14, 18, 19, 20, 21 and 23 are
        satisfiable, so their probe streams do real search."""
        cnf = random_hard_cnf(seed, num_vars=40)
        stream = [
            (),
            *_assumption_stream(seed, cnf.num_vars, calls=2),
            *_probe_stream(seed, cnf),
        ]
        assert _certify_stream(cnf.num_vars, cnf.clauses, stream) > 0


# ----------------------------------------------------------------------
# Enforcement streams
# ----------------------------------------------------------------------
def _certify_all(solvers) -> tuple[int, int]:
    lemmas = answers = 0
    for solver in solvers:
        checked = certify(solver.log)
        lemmas += checked[0]
        answers += checked[1]
    return lemmas, answers


class TestCertifiedEnforcement:
    @pytest.mark.parametrize("seed", CERTIFIED_SEEDS)
    def test_scenario_answers_are_certified(self, seed, monkeypatch):
        """The A8 corpus through SAT enforcement: every answer of every
        session solver is certified."""
        scenario = random_scenario(seed)
        solvers = _recording(monkeypatch)
        session = EnforcementSession(
            scenario.transformation,
            scenario.targets,
            semantics=scenario.semantics,
            metric=scenario.metric,
            scope=scenario.scope,
        )
        try:
            session.enforce(scenario.models, max_distance=scenario.max_distance)
        except NoRepairFound:
            pass
        finally:
            session.close()
        _certify_all(solvers)

    def test_paper_toggle_stream_is_certified(self, monkeypatch):
        """Four features, 48 requests on one session: bound probes keep
        their shared assumption levels, and every answer is certified."""
        solvers = _recording(monkeypatch)
        session = EnforcementSession(
            paper_transformation(k=2), TargetSelection(["cf1", "cf2"])
        )
        for models in toggle_stream(features=4, requests=48):
            enforce_answer(lambda: session.enforce(models))
        session.close()
        lemmas, answers = _certify_all(solvers)
        assert lemmas > 0 and answers >= 48


# ----------------------------------------------------------------------
# Surface of the core
# ----------------------------------------------------------------------
class TestLiteralValidation:
    """A literal is an ``int`` that is not a ``bool``."""

    BAD = (True, False, 1.0, 2.5, "1", None)

    @pytest.mark.parametrize("lit", BAD)
    def test_solve_rejects_non_int_literals(self, lit):
        solver = IncrementalSolver(CNF(3, [(1, 2)]))
        with pytest.raises(SolverError, match="not an int"):
            solver.solve([1, lit])
        assert solver.solve([-1]).value(2)  # the solver stays usable

    @pytest.mark.parametrize("lit", BAD)
    def test_add_clause_rejects_non_int_literals(self, lit):
        solver = IncrementalSolver(CNF(3))
        with pytest.raises(SolverError, match="not an int"):
            solver.add_clause([lit, 2])
        assert solver.solve([-1, -2]).satisfiable  # nothing was added

    @pytest.mark.parametrize("lit", BAD)
    def test_cnf_rejects_non_int_literals(self, lit):
        cnf = CNF(3)
        with pytest.raises(SolverError, match="not an int"):
            cnf.add_clause([lit])
        assert cnf.clauses == []


class TestProtocolConformance:
    def test_force_hooks_exist_and_take_effect(self):
        solver = IncrementalSolver(gc=False)
        solver.force_gc()
        assert solver.gc and solver.max_learnts == 0.0
        solver.force_restart()  # consumed at the next restart boundary


class TestSolverStats:
    """Per-call stats populated, lifetime counters monotone."""

    def test_per_call_stats_are_populated(self):
        cnf = random_hard_cnf(3, num_vars=40)
        solver = IncrementalSolver(cnf)
        result = solver.solve()
        delta = result.stats
        assert delta.solves == 1
        assert delta.propagations > 0
        assert delta.decisions > 0
        assert delta.conflicts > 0

    def test_forced_restart_and_gc_are_counted(self):
        cnf = random_hard_cnf(5, num_vars=40)
        solver = IncrementalSolver(cnf)
        solver.force_restart()
        solver.force_gc()
        delta = solver.solve().stats
        assert delta.restarts >= 1
        assert delta.reductions >= 1

    def test_minimisation_and_midsearch_counters_reachable(self):
        """The rarer counters must be wired, not vestigial: across the
        hard corpus at GC pressure, each fires at least once."""
        minimised = midsearch = 0
        for seed in range(6):
            cnf = random_hard_cnf(seed, num_vars=40)
            solver = IncrementalSolver(cnf)
            solver.force_gc()
            solver.solve()
            solver.solve((1, 2))
            minimised += solver.stats.minimised_literals
            midsearch += solver.stats.midsearch_reductions
        assert midsearch > 0
        assert minimised >= 0  # populated field, non-negative by contract

    def test_lifetime_counters_are_monotone(self):
        cnf = random_hard_cnf(7, num_vars=40)
        solver = IncrementalSolver(cnf)
        previous = solver.stats.snapshot()
        for assumptions in [(), (1,), (-1, 2), ()]:
            solver.solve(assumptions)
            current = solver.stats.snapshot()
            delta = current - previous
            for field_name in (
                "propagations",
                "conflicts",
                "decisions",
                "restarts",
                "reductions",
                "midsearch_reductions",
                "minimised_literals",
                "solves",
            ):
                assert getattr(delta, field_name) >= 0, field_name
            assert delta.solves == 1
            previous = current
