"""Weighted partial MaxSAT on top of the incremental CDCL solver.

Two strategies, mirroring the two realisations the paper cites:

* ``increasing`` — the Echo loop [Macedo & Cunha, FASE'13], core-boosted
  [Berg, Demirović & Stuckey, CPAIOR'19]: disjoint unsatisfiable cores
  [Davies & Bacchus, CP'11] prove a lower bound, and the search ends
  there when the cores' first model meets it. Otherwise it continues
  core-guided with OLL [Morgado, Dodaro & Marques-Silva, CP'14], as RC2
  runs it [Ignatiev, Morgado & Marques-Silva, JSAT 2019]: each core of
  two or more literals gets a counter over them, whose output "more
  than 1 violated" becomes a soft literal carrying the core's least
  weight, and a later core holding an output "more than k" extends that
  counter to k + 1. The first satisfiable answer is optimal, at the
  lower bound. Every call runs under assumptions, so nothing is
  re-encoded; nor is the caller's shared prefix of base assumptions
  re-propagated, since the solver keeps the assumption levels two
  consecutive calls share, and a counter's clauses load without
  touching the levels below its inputs'. Nor are the cores of earlier
  searches proved again: the session remembers a bounded number of
  them, and a search frees every one whose literals it still assumes
  before its first solve (:meth:`MaxSatSession._disjoint_cores`).
* ``decreasing`` — linear SAT-UNSAT search as in target-oriented model
  finding [Cunha, Macedo & Guimarães, FASE'14]: find any model, then
  repeatedly assume "strictly cheaper" until UNSAT; the last model is
  optimal.

Each soft clause has a relaxation literal, true when the clause may be
violated: a unit soft clause ``(l)`` is relaxed by ``-l`` itself, as in
RC2, and only a longer one gets a fresh variable ``r`` and the clause
``(C | r)``. A literal relaxing several soft clauses carries their
summed weight. A query may pass its own unit soft literals
(``objective``) instead of the construction-time soft clauses: an
enforcement session asks for each new state's closest repair this way.
The distance bounds of ``decreasing``, :meth:`MaxSatSession.at_most`
and enumeration replicate the relaxation literals by weight inside one
totalizer, built on demand: a bound ``b`` only ever encodes the outputs
``o1..o(b+1)``, so a heavy weight costs leaves, not a quadratic
counter. A query objective's relaxation literals enter that totalizer
steered, through a diff variable ``d <-> (v XOR o)`` per variable
whose origin ``o`` the query assumes (:meth:`MaxSatSession._steer`), so
every state of a session shares one totalizer instead of adding its
own. The ``increasing`` search asks no bound and steers nothing.

All queries of one optimisation run — and of any follow-up model
enumeration — go through a single :class:`MaxSatSession`, and one
:class:`~repro.solver.sat.IncrementalSolver` persists across every probe
and blocking clause, carrying its learnt clauses and heuristic state
from call to call. Every totalizer — the distance ones and the OLL core
counters — is the iterative one of Martins, Joshi, Manquinho & Lynce,
"Incremental Cardinality Constraints for MaxSAT" (CP 2014): a bound
above every bound asked so far extends it in place, and the session
loads the extension's clauses — definitional over fresh variables —
into the warm solver, the same way it loads blocking clauses: through
:meth:`~repro.solver.sat.IncrementalSolver.load`, which trusts the
session CNF's validation and keeps the decision levels the batch does
not touch.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Mapping, Sequence

from repro.errors import SolverError
from repro.solver.card import Totalizer
from repro.solver.cnf import CNF, Lit, is_int
from repro.solver.sat import IncrementalSolver, SatResult

INCREASING = "increasing"
DECREASING = "decreasing"


@dataclass(frozen=True)
class SoftClause:
    """A clause we would like to satisfy, at ``weight`` cost if violated."""

    literals: tuple[Lit, ...]
    weight: int = 1

    def __post_init__(self) -> None:
        if not self.literals:
            raise SolverError("soft clause needs at least one literal")
        if not is_int(self.weight) or self.weight < 0:
            raise SolverError(
                f"soft clause weight must be an int >= 0, got {self.weight!r}"
            )


@dataclass(frozen=True)
class MaxSatResult:
    """An optimal solution: total violated soft weight plus assignment."""

    satisfiable: bool
    cost: int = 0
    assignment: dict[int, bool] | None = None


class MaxSatSession:
    """A persistent MaxSAT session over one hard CNF.

    Picks the relaxation literals of ``soft`` at construction (a unit
    soft clause's negated literal; a fresh variable and one clause only
    for a longer one), so a session over unit soft clauses allocates
    nothing beyond its hard CNF until a bound or a core counter is
    needed; every query is an assumption-based call on the same
    incremental solver. A query's ``objective`` (unit soft literal ->
    weight) replaces ``soft`` for that query. :meth:`at_most` builds
    only the counter outputs its bound reads, over steered inputs for an
    objective (:meth:`_steer`); the ``increasing`` search asks no bound
    and builds OLL core counters (:meth:`_relax`). Both kinds are kept
    under their sorted input literals. The input ``hard`` CNF is never
    mutated.

    >>> session = MaxSatSession(CNF(3), [SoftClause((-v,)) for v in (1, 2, 3)])
    >>> session.at_most(session.total_weight)  # no cap: builds nothing
    []
    >>> result = session.solve_optimal(max_cost=1, assumptions=[1])
    >>> result.satisfiable, result.cost
    (True, 1)
    >>> session.solve(session.at_most(1) + [1, 2]).satisfiable
    False
    >>> session.solve_optimal(objective={1: 1, 2: 1}).cost  # prefer x1, x2
    0
    """

    #: Process-wide count of OLL core counters built (see :meth:`_relax`);
    #: ``Totalizer.built`` counts them too, next to the distance totalizers.
    counters_built = 0

    #: Process-wide count of remembered cores freed without a solve
    #: (see :meth:`_disjoint_cores`).
    cores_reused = 0

    #: How many failed-assumption cores one session remembers.
    CORE_LIMIT = 64

    def __init__(self, hard: CNF, soft: Sequence[SoftClause] = ()) -> None:
        self._working = hard.copy()
        originals = self._working.num_vars
        #: Relaxation literal (true: its soft clause may be violated) ->
        #: the summed weight of the ``soft`` clauses it relaxes.
        self._weights: dict[Lit, int] = {}
        for clause in soft:
            if clause.weight == 0:
                continue
            for lit in clause.literals:
                if not is_int(lit) or lit == 0:
                    raise SolverError(f"soft literal {lit!r} is not a nonzero int")
                if abs(lit) > originals:
                    raise SolverError("soft clause references unknown variable")
            if len(clause.literals) == 1:
                relax = -clause.literals[0]
            else:
                relax = self._working.new_var()
                self._working.add_clause(list(clause.literals) + [relax])
            self._weights[relax] = self._weights.get(relax, 0) + clause.weight
        self.total_weight = sum(self._weights.values())
        #: Core counters and distance totalizers, by sorted input literals.
        self._counters: dict[tuple[Lit, ...], Totalizer] = {}
        #: Variable -> (origin, diff, first weight): the steered inputs of
        #: query objectives' distance totalizers (:meth:`_steer`).
        self._diffs: dict[int, tuple[int, int, int]] = {}
        #: Failed-assumption cores of earlier core phases, oldest first.
        self._cores: dict[tuple[Lit, ...], None] = {}
        self._solver = IncrementalSolver(self._working)

    @property
    def solver(self) -> IncrementalSolver:
        """The persistent solver.

        Exposed so callers holding a session can run extra
        assumption-based queries — e.g. the consistency oracle of an
        enforcement session — against the same learnt-clause state.
        """
        return self._solver

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def solve(self, assumptions: Sequence[Lit] = ()) -> SatResult:
        """One SAT call over the session database under ``assumptions``."""
        return self._solver.solve(assumptions)

    def add_clause(self, literals: Iterable[Lit]) -> None:
        """Permanently add a clause (e.g. an enumeration blocking clause)."""
        self._working.add_clause(literals)
        self._solver.load(self._working, len(self._working) - 1)

    def new_var(self) -> int:
        """Allocate a fresh session variable (e.g. a retraction selector).

        Clauses can never be removed from the session, so callers that
        need *retractable* constraints — shared enforcement groundings
        whose enumeration blocking clauses must not outlive one
        enumeration — guard them with a fresh selector variable and
        assume it only while the constraint should bind.
        """
        var = self._working.new_var()
        self._solver.ensure_vars(var)
        return var

    def at_most(
        self,
        bound: int,
        objective: Mapping[Lit, int] | None = None,
        assumptions: Sequence[Lit] = (),
    ) -> list[Lit]:
        """Assumption literals capping the violated weight at ``bound``.

        Extends the objective's totalizer (:meth:`_distance`) to the
        ``bound + 1`` outputs the cap reads and loads the new clauses; a
        cap of at least the total weight builds nothing. ``assumptions``
        are the base assumptions every solve under the cap makes too.
        """
        if not is_int(bound) or bound < 0:
            raise SolverError(f"cost bound must be an int >= 0, got {bound!r}")
        return self._at_most(bound, self._relaxations(objective), assumptions)

    def _at_most(
        self, bound: int, weights: Mapping[Lit, int], base: Sequence[Lit]
    ) -> list[Lit]:
        if bound >= sum(weights.values()):
            return []
        loaded = len(self._working)
        steer: list[Lit] = []
        if weights is not self._weights:
            weights, steer = self._steer(weights, base)
        assumption = self._distance(weights).at_most_assumption(bound)
        self._solver.load(self._working, loaded)
        return steer + assumption

    def _steer(
        self, weights: Mapping[Lit, int], base: Sequence[Lit]
    ) -> tuple[dict[Lit, int], list[Lit]]:
        """A query objective's relaxation literals as steered totalizer
        inputs, and the assumptions steering them.

        Each variable ``v`` gets, once per session, an origin ``o`` and a
        diff ``d`` with ``d <-> (v XOR o)``: assuming ``-o`` makes ``d``
        the relaxation literal ``v``, assuming ``o`` makes it ``-v``. A
        variable steered before that ``base`` assumes instead (a state's
        creation budget) is steered to its assumed value, so its diff is
        false. The inputs then depend on neither the polarities a state
        picks nor its budget, and one totalizer, extended in place,
        serves every state, as long as the weights stay put."""
        diffs: dict[Lit, int] = {}
        steer: list[Lit] = []
        pinned = [lit for lit in base if abs(lit) in self._diffs]
        for relax, weight in (*weights.items(), *((-lit, 0) for lit in pinned)):
            var = abs(relax)
            if var not in self._diffs:
                origin, diff = self._working.new_var(), self._working.new_var()
                for clause in (
                    (-diff, var, origin), (-diff, -var, -origin),
                    (diff, -var, origin), (diff, var, -origin),
                ):
                    self._working.add_clause(clause)
                self._diffs[var] = (origin, diff, weight)
            origin, diff, first = self._diffs[var]
            if diff in diffs:
                if weight:
                    raise SolverError(f"objective holds both polarities of {var}")
                continue  # assumed and in the objective: counted once
            diffs[diff] = weight or first
            steer.append(-origin if relax > 0 else origin)
        return diffs, steer

    def _relaxations(self, objective: Mapping[Lit, int] | None) -> dict[Lit, int]:
        if objective is None:
            return self._weights
        return {-lit: weight for lit, weight in objective.items() if weight}

    def _distance(self, weights: Mapping[Lit, int]) -> Totalizer:
        """The totalizer over ``weights``' relaxation literals, each
        replicated by its weight."""
        key = tuple(sorted(r for r, w in weights.items() for _ in range(w)))
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Totalizer(self._working, key)
        return counter

    # ------------------------------------------------------------------
    # Optimisation
    # ------------------------------------------------------------------
    def solve_optimal(
        self,
        mode: str = INCREASING,
        max_cost: int | None = None,
        assumptions: Sequence[Lit] = (),
        objective: Mapping[Lit, int] | None = None,
    ) -> MaxSatResult:
        """Minimise the violated soft weight subject to the hard clauses.

        ``max_cost`` bounds the search (useful when the caller only cares
        about repairs up to some distance); when the optimum exceeds it
        the result is reported unsatisfiable. ``assumptions`` are base
        assumptions added to every probe, and ``objective`` (unit soft
        literal -> weight) replaces the construction-time soft clauses.
        Bounds are explored via assumptions, never asserted.
        """
        if mode not in (INCREASING, DECREASING):
            raise SolverError(f"unknown MaxSAT mode {mode!r}")
        if max_cost is not None and (not is_int(max_cost) or max_cost < 0):
            raise SolverError(
                f"max_cost must be >= 0 (an int) or None, got {max_cost!r}"
            )
        base = list(assumptions)
        weights = self._relaxations(objective)
        total = sum(weights.values())
        if total == 0:
            result = self.solve(base)
            return MaxSatResult(result.satisfiable, 0, result.assignment)
        ceiling = total if max_cost is None else min(max_cost, total)
        if mode == INCREASING:
            return self._increasing(ceiling, base, weights)
        return self._decreasing(ceiling, base, weights)

    def _increasing(self, ceiling: int, base: list[Lit], weights) -> MaxSatResult:
        cores: list[list[Lit]] = []
        lower, result = self._disjoint_cores(ceiling, base, weights, cores)
        if result is not None and _cost(weights, result) > lower:
            result = self._oll(ceiling, base, weights, cores)
        if result is None:
            return MaxSatResult(False)
        return MaxSatResult(True, _cost(weights, result), result.assignment)

    def _disjoint_cores(
        self, ceiling: int, base: list[Lit], weights, cores: list | None = None
    ) -> tuple[int, SatResult | None]:
        """A lower bound on the optimum, and the first satisfiable answer
        (``None`` if no model within ``ceiling`` exists). Each solve
        assumes every relaxation literal not yet freed false; a core
        costs at least its least weight, and is disjoint from the
        earlier ones, so the sum never exceeds the optimum. A core
        member the base assumes too is never violated, but the other
        members still hold a violation, and the least weight over all
        of them is no more than over those. Each core found is appended
        to ``cores`` without the members freed before: only the base can
        have put those in, so the rest still hold a violation, and the
        appended cores are disjoint.

        Before the first solve, the cores earlier searches found are
        freed again wherever every literal of theirs is still assumed:
        the solver never drops a problem clause (learnt-clause GC and
        level-0 pruning keep the database equivalent; counters,
        extensions and blocking clauses only add to it), so such a core
        is still a failed-assumption core, exactly as if this search's
        solver had just returned it. Its relaxation part is read under
        this search's ``weights``; the smallest part goes first, then the
        most recently found. A core is remembered as the solver returns
        it, base literals included, when none of its relaxation literals
        was freed before in its search."""
        lower = 0
        free: set[int] = set()
        remembered = iter(self._remembered(base, weights))
        while True:
            core = next((part for part in remembered if free.isdisjoint(part)), None)
            if core is not None:
                MaxSatSession.cores_reused += 1
            else:
                result = self.solve(
                    base + [-relax for relax in weights if relax not in free]
                )
                if result.satisfiable:
                    return lower, result
                core = [-lit for lit in result.core if -lit in weights]
                if free.isdisjoint(core):
                    self._remember(result.core)
            if not core:
                return lower, None
            if cores is not None:
                cores.append([relax for relax in core if relax not in free])
            lower += min(weights[relax] for relax in core)
            if lower > ceiling:
                return lower, None
            free.update(core)

    def _remember(self, core: tuple[Lit, ...]) -> None:
        """Record a failed-assumption ``core``; the oldest beyond
        :attr:`CORE_LIMIT` go."""
        self._cores.pop(core, None)
        self._cores[core] = None
        if len(self._cores) > self.CORE_LIMIT:
            del self._cores[next(iter(self._cores))]

    def _remembered(self, base: list[Lit], weights) -> list[tuple[Lit, ...]]:
        """The relaxation parts, under ``weights``, of the remembered
        cores whose other literals ``base`` assumes: smallest first,
        then most recent."""
        assumed = set(base)
        usable = sorted(
            (len(part), -index, part)
            for index, core in enumerate(self._cores)
            if all(lit in assumed or -lit in weights for lit in core)
            for part in [tuple(-lit for lit in core if -lit in weights)]
        )
        return [part for _size, _index, part in usable]

    def _oll(self, ceiling: int, base: list[Lit], weights, cores) -> SatResult | None:
        """The optimum's first model, continuing from the disjoint
        ``cores`` (``None`` if the optimum exceeds ``ceiling``).

        OLL [Morgado, Dodaro & Marques-Silva, CP 2014], as RC2 runs it:
        the objective is kept as residual weights on "violated" literals
        — relaxation literals and core-counter outputs — and every solve
        assumes each literal of positive weight false. A core is relaxed
        by :meth:`_relax`, which raises the lower bound by its least
        weight; so the first satisfiable answer violates nothing of
        positive weight, and its cost is the lower bound: the optimum.
        """
        weights = dict(weights)
        outputs: dict[Lit, tuple[Totalizer, int]] = {}
        lower = sum(self._relax(core, weights, outputs) for core in cores)
        while lower <= ceiling:
            result = self.solve(base + [-lit for lit in weights])
            if result.satisfiable:
                return result
            core = [-lit for lit in result.core if -lit in weights]
            if not core:
                return None
            lower += self._relax(core, weights, outputs)
        return None

    def _relax(
        self,
        core: list[Lit],
        weights: dict[Lit, int],
        outputs: dict[Lit, tuple[Totalizer, int]],
    ) -> int:
        """Reformulate the objective around ``core``; its least weight.

        Each member loses the least weight ``w`` (and is dropped at 0).
        A core of two or more literals gets a counter over them (cached
        per session), whose output "more than 1 violated" carries ``w``;
        a member that is such an output "more than k" passes ``w`` on to
        its counter's "more than k + 1". The clauses the counters grow
        are loaded as one batch.
        """
        least = min(weights[lit] for lit in core)
        loaded = len(self._working)

        def soft(counter: Totalizer, bound: int) -> None:
            (assumption,) = counter.at_most_assumption(bound)
            weights[-assumption] = weights.get(-assumption, 0) + least
            outputs[-assumption] = (counter, bound)

        for lit in core:
            weights[lit] -= least
            if not weights[lit]:
                del weights[lit]
            if lit in outputs:
                counter, bound = outputs[lit]
                if bound + 1 < len(counter.literals):
                    soft(counter, bound + 1)
        if len(core) > 1:
            key = tuple(sorted(core))
            counter = self._counters.get(key)
            if counter is None:
                counter = self._counters[key] = Totalizer(self._working, key)
                MaxSatSession.counters_built += 1
            soft(counter, 1)
        self._solver.load(self._working, loaded)
        return least

    def _decreasing(self, ceiling: int, base: list[Lit], weights) -> MaxSatResult:
        best: SatResult | None = None
        best_cost = ceiling + 1
        bound = ceiling
        while True:
            result = self.solve(base + self._at_most(bound, weights, base))
            if not result.satisfiable:
                break
            cost = _cost(weights, result)
            best = result
            best_cost = cost
            if cost == 0:
                break
            bound = cost - 1
        if best is None:
            return MaxSatResult(False)
        return MaxSatResult(True, best_cost, best.assignment)

    def enumerate_optimal(
        self,
        project: Sequence[int],
        mode: str = INCREASING,
        limit: int = 64,
        assumptions: Sequence[Lit] = (),
        retract: bool = False,
        objective: Mapping[Lit, int] | None = None,
    ) -> tuple[int, list[dict[int, bool]]]:
        """All optimum-cost assignments, distinct on the ``project`` variables.

        Finds the optimum of ``objective`` (default: the construction-time
        soft clauses) under the base ``assumptions``, then re-solves
        under the optimal bound, blocking each found projection, until
        UNSAT or ``limit`` solutions; raises :class:`SolverError` when
        the hard clauses are unsatisfiable. Only the projection is
        blocked: auxiliary (definition/totalizer/relaxation) variables vary
        freely without changing the decoded solution. ``retract`` guards
        the blocking clauses with a fresh selector (allocated after the
        optimum solve) that only this enumeration assumes, so the session
        stays reusable for every later query.
        """
        if not is_int(limit) or limit < 0:
            raise SolverError(f"limit must be an int >= 0, got {limit!r}")
        first = self.solve_optimal(mode, None, assumptions, objective)
        if not first.satisfiable:
            raise SolverError("enumerate_optimal needs satisfiable hard clauses")
        project = [abs(v) for v in project]
        guard = [self.new_var()] if retract else []
        query = (
            list(assumptions)
            + self.at_most(first.cost, objective, assumptions)
            + guard
        )
        solutions: list[dict[int, bool]] = []
        while len(solutions) < limit:
            result = self.solve(query)
            if not result.satisfiable:
                break
            assert result.assignment is not None
            projection = {v: result.assignment[v] for v in project}
            solutions.append(projection)
            # Block this projection: at least one projected var must differ.
            self.add_clause(
                [-g for g in guard]
                + [-v if value else v for v, value in projection.items()]
            )
        return first.cost, solutions


def solve_maxsat(
    hard: CNF,
    soft: Sequence[SoftClause],
    mode: str = INCREASING,
    max_cost: int | None = None,
) -> MaxSatResult:
    """Minimise the violated soft weight subject to the hard clauses.

    Convenience wrapper building a throwaway :class:`MaxSatSession`;
    callers issuing follow-up queries should hold on to a session
    instead.
    """
    return MaxSatSession(hard, soft).solve_optimal(
        mode=mode, max_cost=max_cost
    )


def _cost(weights: Mapping[Lit, int], result: SatResult) -> int:
    """The summed weight of the relaxation literals true in ``result``."""
    assignment = result.assignment
    assert assignment is not None
    return sum(
        weight
        for relax, weight in weights.items()
        if assignment[abs(relax)] == (relax > 0)
    )


def enumerate_optimal(
    hard: CNF,
    soft: Sequence[SoftClause],
    project: Sequence[int],
    mode: str = INCREASING,
    limit: int = 64,
) -> tuple[int, list[dict[int, bool]]]:
    """:meth:`MaxSatSession.enumerate_optimal` on a throwaway session."""
    return MaxSatSession(hard, soft).enumerate_optimal(
        project, mode=mode, limit=limit
    )


def verify_soft_cost(
    soft: Sequence[SoftClause], assignment: dict[int, bool]
) -> int:
    """The violated soft weight of ``assignment`` (test helper)."""
    cost = 0
    for clause in soft:
        satisfied = any(
            (assignment[abs(lit)] if lit > 0 else not assignment[abs(lit)])
            for lit in clause.literals
        )
        if not satisfied:
            cost += clause.weight
    return cost
