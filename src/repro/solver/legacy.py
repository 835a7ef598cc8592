"""The object-based reference CDCL core (test-only).

:class:`LegacySolver` is the historical core the flat
:class:`~repro.solver.sat.IncrementalSolver` was rewritten from: clauses
are Python lists in a list-of-lists database, watches a dict keyed by
signed literal, truth values a per-variable ``values`` column. It is
kept as the readable reference that the cross-core differential battery
(``tests/test_solver_backends.py``) compares the production core
against — the two are trace-identical:
same decisions, same learnt clauses, same models, same per-call stats.
That includes the one search-state rule of the flat core that is not
data layout: a call keeps the assumption levels it shares with the
previous call, so both cores propagate the same literals per call.

Nothing in production constructs it. Tests build it directly, or
substitute it for the production core by monkeypatching
``repro.solver.maxsat.IncrementalSolver``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from collections.abc import Iterable

from repro.errors import SolverError
from repro.solver.cnf import CNF, Lit
from repro.solver.sat import IncrementalSolver, SatResult


class LegacySolver(IncrementalSolver):
    """The object-based CDCL core, behaviour-identical to the flat one.

    Inherits the public surface (``solve``, ``new_var``, the force
    hooks, the Luby schedule and every tuning constant) and replaces the
    whole internal representation. ``_solve`` carries its own copy of
    the assumption-prefix rule, written against signed literals, so the
    cross-core battery checks the flat core's copy instead of sharing it.
    """

    def __init__(self, cnf: CNF | None = None, gc: bool = True) -> None:
        super().__init__(gc=gc)
        self.num_vars = 0
        self.clauses: list[list[Lit]] = []
        # Learnt-clause metadata, parallel to ``clauses``: ``lbd`` is 0
        # for problem clauses (never GC candidates), ``act`` their bump
        # activity.
        self.clause_lbd: list[int] = []
        self.clause_act: list[float] = []
        self.num_learnts = 0
        self.max_learnts = float(self.GC_FIRST)
        # values[v]: 0 unassigned, 1 true, -1 false (indexed by variable).
        self.values: list[int] = [0]
        self.levels: list[int] = [0]
        self.reasons: list[int | None] = [None]
        self.activity: list[float] = [0.0]
        self.phase: list[bool] = [False]
        self.watches: dict[Lit, list[int]] = {}
        self.trail: list[Lit] = []
        self.trail_lim: list[int] = []
        self.propagated = 0
        self.activity_inc = 1.0
        self.clause_inc = 1.0
        # VSIDS order: a max-heap of (-activity, var) with lazy stale
        # entries. Invariant: every unassigned variable has at least one
        # entry carrying its current activity (pushed on creation, on
        # every bump, and on unassignment), so popping the first entry
        # whose variable is unassigned yields the lowest-index variable
        # of maximal activity.
        self._heap: list[tuple[float, int]] = []
        self.empty_clause = False
        self.units: list[Lit] = []
        self._units_applied = 0
        self._assumptions: tuple[Lit, ...] = ()
        if cnf is not None:
            self.ensure_vars(cnf.num_vars)
            for clause in cnf.clauses:
                self._add_clause(list(clause))

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------
    def ensure_vars(self, n: int) -> None:
        """Grow the variable range to at least ``1..n``."""
        if n <= self.num_vars:
            return
        grow = n - self.num_vars
        self.values.extend([0] * grow)
        self.levels.extend([0] * grow)
        self.reasons.extend([None] * grow)
        self.activity.extend([0.0] * grow)
        self.phase.extend([False] * grow)
        for var in range(self.num_vars + 1, n + 1):
            heappush(self._heap, (0.0, var))
        self.num_vars = n

    # ------------------------------------------------------------------
    # Clause database
    # ------------------------------------------------------------------
    def add_clause(self, literals: Iterable[Lit]) -> None:
        """Add a clause; usable between :meth:`solve` calls.

        Backtracks to the root level first so the watched-literal
        invariants hold for the new clause.
        """
        clause = list(literals)
        for lit in clause:
            if not isinstance(lit, int) or isinstance(lit, bool):
                raise SolverError(f"literal {lit!r} is not an int")
            if lit == 0:
                raise SolverError("0 is not a literal")
            if abs(lit) > self.num_vars:
                raise SolverError(
                    f"literal {lit} references variable beyond num_vars={self.num_vars}"
                )
        self._backtrack(0)
        self._add_clause(clause)

    def _add_clause(self, literals: list[Lit], lbd: int = 0) -> int | None:
        """Attach a clause, deduplicated; returns its index or None.

        Tautologies and clauses satisfied at level 0 are dropped;
        literals false at level 0 are pruned (level-0 assignments are
        permanent); empty clauses mark the instance UNSAT; unit clauses
        are queued for level-0 assignment at the next solve. ``lbd > 0``
        marks a learnt clause (a GC candidate unless glue or locked).
        """
        seen: set[Lit] = set()
        unique: list[Lit] = []
        for lit in literals:
            if -lit in seen:
                return None  # tautology
            if lit not in seen:
                seen.add(lit)
                unique.append(lit)
        pruned: list[Lit] = []
        for lit in unique:
            var = abs(lit)
            if self.values[var] != 0 and self.levels[var] == 0:
                if self._lit_value(lit) == 1:
                    return None  # permanently satisfied
                continue  # permanently false: drop the literal
            pruned.append(lit)
        if not pruned:
            self.empty_clause = True
            return None
        if len(pruned) == 1:
            self.units.append(pruned[0])
            return None
        index = len(self.clauses)
        self.clauses.append(pruned)
        self.clause_lbd.append(lbd)
        self.clause_act.append(0.0)
        if lbd > 0:
            self.num_learnts += 1
        self.watches.setdefault(pruned[0], []).append(index)
        self.watches.setdefault(pruned[1], []).append(index)
        return index

    # ------------------------------------------------------------------
    # Learnt-clause database reduction
    # ------------------------------------------------------------------
    def _reduce_learnts(self) -> None:
        """Drop the weakest half of the deletable learnt clauses.

        Same policy as the flat core (see its docstring); surviving
        indices are compacted and every index-bearing structure
        (watches, reasons) is remapped.
        """
        locked = {
            self.reasons[abs(lit)]
            for lit in self.trail
            if self.reasons[abs(lit)] is not None
        }
        removable = [
            index
            for index in range(len(self.clauses))
            if self.clause_lbd[index] > self.GLUE_LBD and index not in locked
        ]
        removable.sort(
            key=lambda i: (self.clause_act[i], -self.clause_lbd[i], -i)
        )
        drop = set(removable[: len(removable) // 2])
        if not drop:
            self.max_learnts *= self.GC_GROWTH
            return
        remap: dict[int, int] = {}
        clauses: list[list[Lit]] = []
        lbds: list[int] = []
        acts: list[float] = []
        for index, clause in enumerate(self.clauses):
            if index in drop:
                continue
            remap[index] = len(clauses)
            clauses.append(clause)
            lbds.append(self.clause_lbd[index])
            acts.append(self.clause_act[index])
        self.clauses = clauses
        self.clause_lbd = lbds
        self.clause_act = acts
        self.watches = {}
        for index, clause in enumerate(self.clauses):
            self.watches.setdefault(clause[0], []).append(index)
            self.watches.setdefault(clause[1], []).append(index)
        for lit in self.trail:
            var = abs(lit)
            reason = self.reasons[var]
            if reason is not None:
                self.reasons[var] = remap[reason]
        self.num_learnts -= len(drop)
        self.stats.reductions += 1
        if self._decision_level() > 0:
            self.stats.midsearch_reductions += 1
        self.stats.learnts_dropped += len(drop)
        self.stats.learnts_kept += self.num_learnts
        self.max_learnts *= self.GC_GROWTH

    # ------------------------------------------------------------------
    # Assignment plumbing
    # ------------------------------------------------------------------
    def _lit_value(self, lit: Lit) -> int:
        value = self.values[abs(lit)]
        return value if lit > 0 else -value

    def _assign(self, lit: Lit, reason: int | None) -> None:
        var = abs(lit)
        self.values[var] = 1 if lit > 0 else -1
        self.levels[var] = self._decision_level()
        self.reasons[var] = reason
        self.phase[var] = lit > 0
        self.trail.append(lit)

    def _backtrack(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        cut = self.trail_lim[level]
        for lit in self.trail[cut:]:
            var = abs(lit)
            self.values[var] = 0
            self.reasons[var] = None
            heappush(self._heap, (-self.activity[var], var))
        del self.trail[cut:]
        del self.trail_lim[level:]
        self.propagated = min(self.propagated, len(self.trail))

    # ------------------------------------------------------------------
    # Unit propagation (two watched literals)
    # ------------------------------------------------------------------
    def _propagate(self) -> int | None:
        """Propagate queued assignments; return conflicting clause index."""
        while self.propagated < len(self.trail):
            lit = self.trail[self.propagated]
            self.propagated += 1
            self.stats.propagations += 1
            false_lit = -lit
            watch_list = self.watches.get(false_lit, [])
            kept: list[int] = []
            i = 0
            while i < len(watch_list):
                index = watch_list[i]
                i += 1
                clause = self.clauses[index]
                # Normalise: watched literals live at positions 0 and 1.
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                other = clause[0]
                if self._lit_value(other) == 1:
                    kept.append(index)
                    continue
                moved = False
                for j in range(2, len(clause)):
                    if self._lit_value(clause[j]) != -1:
                        clause[1], clause[j] = clause[j], clause[1]
                        self.watches.setdefault(clause[1], []).append(index)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(index)
                if self._lit_value(other) == -1:
                    kept.extend(watch_list[i:])
                    self.watches[false_lit] = kept
                    return index
                self._assign(other, index)
            self.watches[false_lit] = kept
        return None

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------
    def _analyze(self, conflict: int) -> tuple[list[Lit], int]:
        """Derive a first-UIP learnt clause and its backjump level."""
        learnt: list[Lit] = []
        seen = [False] * (self.num_vars + 1)
        counter = 0
        lit: Lit | None = None
        self._bump_clause(conflict)
        reason_clause: list[Lit] = list(self.clauses[conflict])
        index = len(self.trail)
        current_level = self._decision_level()
        while True:
            for q in reason_clause:
                var = abs(q)
                if seen[var] or self.levels[var] == 0:
                    continue
                if q == lit:
                    continue
                seen[var] = True
                self._bump(var)
                if self.levels[var] == current_level:
                    counter += 1
                else:
                    learnt.append(q)
            # Walk back the trail to the next marked literal.
            while True:
                index -= 1
                lit = self.trail[index]
                if seen[abs(lit)]:
                    break
            counter -= 1
            seen[abs(lit)] = False
            if counter == 0:
                break
            reason_index = self.reasons[abs(lit)]
            assert reason_index is not None
            self._bump_clause(reason_index)
            reason_clause = [q for q in self.clauses[reason_index] if q != lit]
        learnt = [-lit] + self._minimise(learnt, seen)
        learnt = self._minimise_binary(learnt)
        if len(learnt) == 1:
            return learnt, 0
        # Backjump to the second-highest level in the clause.
        levels = sorted((self.levels[abs(q)] for q in learnt[1:]), reverse=True)
        backjump = levels[0]
        # Put a literal of the backjump level in watch position 1.
        for j in range(1, len(learnt)):
            if self.levels[abs(learnt[j])] == backjump:
                learnt[1], learnt[j] = learnt[j], learnt[1]
                break
        return learnt, backjump

    def _minimise(self, literals: list[Lit], seen: list[bool]) -> list[Lit]:
        """Drop literals implied by the rest (self-subsuming resolution)."""
        kept = []
        marked = {abs(l) for l in literals}
        for lit in literals:
            reason_index = self.reasons[abs(lit)]
            if reason_index is None:
                kept.append(lit)
                continue
            redundant = True
            for q in self.clauses[reason_index]:
                var = abs(q)
                if q == -lit or self.levels[var] == 0:
                    continue
                if var not in marked:
                    redundant = False
                    break
            if not redundant:
                kept.append(lit)
        return kept

    def _minimise_binary(self, learnt: list[Lit]) -> list[Lit]:
        """Binary self-subsuming resolution, gated as in the flat core."""
        if len(learnt) < 2 or len(learnt) > self.BIN_MIN_CLAUSE:
            return learnt
        asserting = learnt[0]
        watch_list = self.watches.get(asserting, ())
        if len(watch_list) > self.BIN_MIN_WATCHES:
            return learnt
        marked = set(learnt[1:])
        removable: set[Lit] = set()
        for index in watch_list:
            clause = self.clauses[index]
            if len(clause) != 2:
                continue
            other = clause[1] if clause[0] == asserting else clause[0]
            if -other in marked:
                removable.add(-other)
        if not removable:
            return learnt
        self.stats.minimised_literals += len(removable)
        return [asserting] + [q for q in learnt[1:] if q not in removable]

    def _analyze_final(self, failed: Lit) -> tuple[Lit, ...]:
        """The failed-assumption core behind an implied ``-failed``."""
        core = {failed}
        if self._decision_level() > 0:
            seen = [False] * (self.num_vars + 1)
            seen[abs(failed)] = True
            for lit in reversed(self.trail[self.trail_lim[0] :]):
                var = abs(lit)
                if not seen[var]:
                    continue
                seen[var] = False
                reason_index = self.reasons[var]
                if reason_index is None:
                    core.add(lit)
                    continue
                for q in self.clauses[reason_index]:
                    if abs(q) != var and self.levels[abs(q)] > 0:
                        seen[abs(q)] = True
        return tuple(sorted(core, key=lambda l: (abs(l), l)))

    def _bump(self, var: int) -> None:
        activity = self.activity[var] + self.activity_inc
        self.activity[var] = activity
        if activity > 1e100:
            for v in range(1, self.num_vars + 1):
                self.activity[v] *= 1e-100
            self.activity_inc *= 1e-100
            self._rebuild_heap()
        elif self.values[var] == 0:
            # Assigned variables get a fresh entry at unassignment; only
            # unassigned ones need their entry refreshed here (in the
            # conflict-analysis hot path, bumped variables are on the
            # trail, so this push almost never fires).
            heappush(self._heap, (-activity, var))

    def _bump_clause(self, index: int) -> None:
        if self.clause_lbd[index] == 0:
            return  # problem clause: never a GC candidate, no activity
        activity = self.clause_act[index] + self.clause_inc
        self.clause_act[index] = activity
        if activity > 1e20:
            for i in range(len(self.clause_act)):
                self.clause_act[i] *= 1e-20
            self.clause_inc *= 1e-20

    def _rebuild_heap(self) -> None:
        self._heap = [
            (-self.activity[var], var)
            for var in range(1, self.num_vars + 1)
            if self.values[var] == 0
        ]
        heapify(self._heap)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def _decide(self) -> Lit | None:
        """Pop the unassigned variable of maximal activity (lazy heap)."""
        heap = self._heap
        if len(heap) > 4 * self.num_vars + 64:
            self._rebuild_heap()
            heap = self._heap
        values = self.values
        while heap:
            _, var = heappop(heap)
            if values[var] == 0:
                return var if self.phase[var] else -var
        return None

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _solve(self, assumptions: tuple[Lit, ...]) -> SatResult:
        # The flat core's rule: keep the assumption levels shared with
        # the previous call (add_clause has backtracked to 0 if needed).
        previous = self._assumptions
        limit = min(len(assumptions), len(previous), self._decision_level())
        keep = 0
        while keep < limit and assumptions[keep] == previous[keep]:
            keep += 1
        self._backtrack(keep)
        if not self._settle_root_level():
            return SatResult(False, core=())
        self._assumptions = assumptions
        restarts = 0
        while True:
            result = self._search(self._restart_budget(restarts))
            if result is not None:
                return result
            self.stats.restarts += 1
            restarts += 1
            self._backtrack(0)
            if self.gc and self.num_learnts >= self.max_learnts:
                self._reduce_learnts()

    def _settle_root_level(self) -> bool:
        """Apply pending unit clauses and propagate at level 0."""
        if self.empty_clause:
            return False
        while self._units_applied < len(self.units):
            lit = self.units[self._units_applied]
            self._units_applied += 1
            value = self._lit_value(lit)
            if value == -1:
                self.empty_clause = True
                return False
            if value == 0:
                self._assign(lit, None)
        if self._propagate() is not None:
            self.empty_clause = True
            return False
        return True

    def _search(self, conflict_budget: int) -> SatResult | None:
        """Search until SAT, UNSAT, or budget exhaustion (restart)."""
        conflicts = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts += 1
                if self._decision_level() == 0:
                    self.empty_clause = True
                    return SatResult(False, core=())
                learnt, backjump = self._analyze(conflict)
                # LBD before backtracking, while levels are still live.
                lbd = len({self.levels[abs(q)] for q in learnt})
                self._backtrack(backjump)
                if len(learnt) == 1:
                    # A root-level fact: persists across solves.
                    value = self._lit_value(learnt[0])
                    if value == -1:
                        self.empty_clause = True
                        return SatResult(False, core=())
                    if value == 0:
                        self._assign(learnt[0], None)
                else:
                    index = self._add_clause(learnt, lbd=max(1, lbd))
                    if index is not None:
                        self._assign(learnt[0], index)
                self.activity_inc /= self.ACTIVITY_DECAY
                self.clause_inc /= self.CLAUSE_DECAY
                if self.gc and self.num_learnts >= self.max_learnts:
                    # Assumption-aware mid-search reduction.
                    self._reduce_learnts()
                if conflicts >= conflict_budget:
                    return None  # restart
                continue
            # Re-establish assumptions, one decision level per assumption;
            # backjumps may undo them, so this runs at decision time.
            level = self._decision_level()
            if level < len(self._assumptions):
                lit = self._assumptions[level]
                value = self._lit_value(lit)
                if value == -1:
                    return SatResult(False, core=self._analyze_final(lit))
                self.trail_lim.append(len(self.trail))
                if value == 0:
                    self._assign(lit, None)
                continue
            full = len(self.trail) == self.num_vars
            decision = None if full else self._decide()
            if decision is None:
                if not self._model:
                    return SatResult(True)
                assignment = {
                    var: self.values[var] == 1
                    for var in range(1, self.num_vars + 1)
                }
                return SatResult(True, assignment)
            self.stats.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._assign(decision, None)
