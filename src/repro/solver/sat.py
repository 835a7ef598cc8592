"""A CDCL SAT solver with persistent incremental solving.

Conflict-driven clause learning with the standard modern ingredients:

* two-watched-literal unit propagation;
* first-UIP conflict analysis with learnt-clause minimisation
  (self-subsuming resolution against reason clauses);
* VSIDS variable activities kept in a binary max-heap with lazy stale
  entries (decisions are O(log n) pops, not O(n) scans), decayed via the
  activity-increment trick — no rescale loop in the hot path;
* phase saving with Luby-sequence restarts;
* learnt-clause database reduction: each learnt clause carries its LBD
  (literal block distance) and an activity; when the database outgrows
  its budget the weakest half is dropped — never glue clauses (LBD <= 2)
  and never *locked* clauses (reasons of current assignments). The
  reduction is *assumption-aware and mid-search*: it fires the moment
  the budget overflows, at whatever decision level the search is at
  (assumption-implied assignments lock their reasons exactly like root
  facts), instead of waiting for the next restart boundary — which
  matters for the long assumption-laden solves of MaxSAT bound sweeps.

It is the engine behind bounded model finding for *model
transformation* instances, whose CNFs are thousands, not millions, of
clauses. Correctness is property-tested against the truth-table oracle
in :mod:`repro.solver.brute`, and every answer of the test batteries is
certified (below).

Flat layout
-----------

The hot path touches no dicts, no per-clause Python lists and no method
calls:

* **Literal codes** — a signed literal ``l`` becomes the int
  ``l << 1`` (positive) or ``(-l) << 1 | 1`` (negative), so negation is
  ``code ^ 1`` and the variable is ``code >> 1``. Truth values live in
  two code-indexed bit columns — ``vt[code]`` (literal is true) and
  ``vf[code]`` (literal is false), both polarities updated per
  assignment — so a truth lookup is a bare truthiness test.
* **One int arena for the whole clause database** — problem and learnt
  clauses alike are slices of a single int list. A clause ref ``cref``
  points at its first literal; ``arena[cref - 2]`` holds the LBD (0 for
  problem clauses) and ``arena[cref - 1]`` the size. Reason "pointers"
  are plain ints with ``0`` as the null sentinel (the first cref is 2).
* **Watch lists indexed by literal code** — a list of lists.
  Propagation runs two-phase: it walks a watch list with no index
  bookkeeping at all until the first clause actually moves away (the
  common case is none does), and only then switches to in-place
  compaction behind a write index. Ternary clauses — the bulk of every
  workload here — take a branchless one-probe path instead of the
  generic scan.
* **Parallel trail arrays** — the trail holds literal codes; levels,
  reasons and activities are parallel per-variable lists, and the saved
  phase is stored directly as the preferred decision *code*
  (``phase_code``), so a decision is a single subscript.
* **A non-redundant VSIDS heap** — ``heap_act[var]`` tracks the
  priority of the var's freshest heap entry; unassignment re-pushes
  only when the activity has changed since. The heap's *output* is
  canonical — the unassigned variable of maximal activity, ties to the
  lowest index — so dropping redundant entries cannot change which
  variable any pop returns, only how much stale traffic the heap
  carries.

The search trajectory is part of the contract: perfbench's per-pass
work counts and the bytes of a reply (which of several optimal repairs
it names) follow it, so a speed change must keep every decision, learnt
clause, model and failed-assumption core. (The classic "blocker
literal" trick, for instance, is deliberately absent: skipping a
satisfied clause without normalising its watch positions changes
literal order inside clauses and hence downstream learnt clauses.)

**Certified answers.** There is one core, and its answers are checked,
not compared with a twin's. ``tests/test_solver_backends.py`` runs a
recording subclass that logs every input clause, every learnt clause
and every answer, and a reverse-unit-propagation (RUP) checker on plain
occurrence lists, sharing no code with this module, certifies the log:
each learnt clause follows by unit propagation from the clauses before
it, each model satisfies every clause and assumption, and each
failed-assumption core is a subset of the assumptions whose negation
follows by unit propagation. A refuted MaxSAT bound is thereby a
checked refutation, not trust in a search trajectory.

Incremental solving
-------------------

:class:`IncrementalSolver` is the persistent interface: one instance
keeps its clause database, learnt clauses, variable activities and saved
phases alive across any number of :meth:`IncrementalSolver.solve` calls.
Between calls the instance accepts new clauses (:meth:`add_clause`) and
new variables (:meth:`new_var`), which is what makes assumption-driven
exploration cheap — the enforcement engines encode the fixed
transformation constraints once and probe thousands of candidate repairs
as assumption sets, each probe profiting from everything learnt by the
previous ones. UNSAT answers under assumptions carry a *failed core*
(``SatResult.core``): a subset of the assumptions that is already
unsatisfiable together with the clause database.

Decision level ``i + 1`` always opens with assumption ``i``, so a
call keeps the assumption levels it shares with the previous call: it
backtracks only to the end of the common prefix of the two assumption
sequences, not to level 0, and propagates just the new tail. MaxSAT
bound probes differ from one another only in their last assumption, so
their long shared prefix is propagated once (the assumption-reuse idea
of Hickey & Bacchus, "Speeding Up Assumption-Based SAT", SAT 2019).
The solver orders them itself (any order is sound): the previous
call's literals that stay come first, in their old order, so a literal
that flips moves behind the stable ones and its later flips keep every
level in front of it. The caller's order stands when it already keeps
every level it can (the fast path), and when the first literal it drops
from the previous order is no longer assumed at all, flipped or not (a
relaxation literal a core freed, the old generation selector after
:mod:`repro.enforce.session` re-grounds): no order keeps more then.
A clause added between calls (:meth:`~IncrementalSolver.add_clause` or
the bulk loader :meth:`~IncrementalSolver.load`) keeps those levels
too, up to the lowest one at which a literal of the new clauses is
assigned: below it every new clause is wholly unassigned, so a kept
level never meets a clause that would have propagated on it. Only a
clause that comes out unit or empty backtracks to level 0, where
pending unit clauses are settled.

``gc=False`` disables learnt-clause reduction; the GC stress tests use
that plain arm as their reference.

Statistics
----------

Every solver keeps a :class:`SolverStats` in ``IncrementalSolver.stats``
and every :meth:`~IncrementalSolver.solve` call attaches its own delta
as ``SatResult.stats``. Fields:

* ``propagations`` — literals dequeued by unit propagation;
* ``conflicts`` / ``decisions`` / ``restarts`` — search-loop work;
* ``reductions`` — learnt-database GC sweeps (``midsearch_reductions``
  counts the subset that fired away from the root level);
* ``learnts_kept`` / ``learnts_dropped`` — learnt clauses surviving /
  deleted across those sweeps (locked and glue clauses are always kept);
* ``minimised_literals`` — literals removed from learnt clauses by
  binary self-subsuming resolution (a learnt clause ``p | q1 | ... | qn``
  resolved against a database binary clause ``p | ~qi`` drops ``qi``);
* ``solves`` / ``solver_builds`` — API-level call and construction
  counts;
* ``undone`` — assignments undone between searches: by a solve's
  backtrack to the assumption levels it shares with the previous one,
  and by a clause load's backtrack. They are propagated again later, so
  this is the work incremental solving failed to keep.

The one-shot :func:`solve` helper remains for callers with a single
throwaway query; it simply builds a fresh instance per call. Prefer the
incremental interface whenever the same (growing) clause database is
queried more than once — MaxSAT bound sweeps, model enumeration,
candidate-repair screening.
"""

from __future__ import annotations

import gc

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from collections.abc import Iterable, Sequence

from repro.errors import SolverError
from repro.solver.cnf import CNF, Lit


def luby(i: int) -> int:
    """The ``i``-th term (1-based) of the Luby restart sequence.

    1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ... — the universally
    optimal schedule of Luby, Sinclair & Zuckerman (1993).
    """
    if i < 1:
        raise SolverError(f"Luby index must be >= 1, got {i}")
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


@dataclass
class SolverStats:
    """Work counters, kept per solver instance and globally aggregated."""

    propagations: int = 0
    conflicts: int = 0
    decisions: int = 0
    restarts: int = 0
    reductions: int = 0
    midsearch_reductions: int = 0
    learnts_kept: int = 0
    learnts_dropped: int = 0
    minimised_literals: int = 0
    solves: int = 0
    solver_builds: int = 0
    undone: int = 0

    def snapshot(self) -> "SolverStats":
        return SolverStats(**vars(self))

    def __sub__(self, other: "SolverStats") -> "SolverStats":
        theirs = vars(other)
        return SolverStats(**{k: v - theirs[k] for k, v in vars(self).items()})

    def add(self, other: "SolverStats") -> None:
        """Add ``other``'s counters into this one."""
        mine = vars(self)
        for k, v in vars(other).items():
            mine[k] += v


#: Aggregate counters across every solver instance in the process; the
#: benchmarks and the translation-count tests read deltas of this.
GLOBAL_STATS = SolverStats()


def global_stats() -> SolverStats:
    """A snapshot of the process-wide solver counters."""
    return GLOBAL_STATS.snapshot()


@dataclass(frozen=True)
class SatResult:
    """Outcome of a solve call.

    ``assignment`` maps every variable ``1..num_vars`` to a boolean when
    satisfiable, and is ``None`` otherwise — or when the answer was
    solved with ``model=False``.

    ``core`` is only set on UNSAT answers: a subset of the assumption
    literals whose conjunction with the clause database is already
    unsatisfiable (empty when the database is unsatisfiable on its own).

    ``stats`` is this call's work delta (see the module docstring); it
    never participates in equality.
    """

    satisfiable: bool
    assignment: dict[int, bool] | None = None
    core: tuple[Lit, ...] | None = None
    stats: SolverStats | None = field(default=None, compare=False)

    def value(self, var: int) -> bool:
        if self.assignment is None:
            raise SolverError(
                f"{'SAT' if self.satisfiable else 'UNSAT'} result has no "
                "assignment (only a SAT answer solved with model=True has one)"
            )
        return self.assignment[var]


def solve(cnf: CNF, assumptions: Iterable[Lit] = ()) -> SatResult:
    """Decide satisfiability of ``cnf`` under optional ``assumptions``.

    Assumptions are enforced as if unit clauses had been added, without
    mutating ``cnf``. One-shot: builds a fresh solver per call — use
    :class:`IncrementalSolver` directly to amortise across calls.

    >>> cnf = CNF(num_vars=2, clauses=[(1, 2)])
    >>> solve(cnf).satisfiable
    True
    >>> result = solve(cnf, assumptions=[-1, -2])
    >>> result.satisfiable, result.core
    (False, (-1, -2))
    """
    return IncrementalSolver(cnf).solve(assumptions)


def _signed(code: int) -> Lit:
    """The signed literal of a literal code."""
    return -(code >> 1) if code & 1 else code >> 1


class IncrementalSolver:
    """A persistent CDCL solver over a growable clause database.

    The instance survives across :meth:`solve` calls: learnt clauses,
    variable activities, saved phases and the permanent (level-0)
    assignment all carry over, so repeated queries over the same database
    get monotonically cheaper. Clauses and variables may be added between
    calls; clauses may never be removed by callers (encode retractable
    constraints as assumptions over selector variables instead) — only
    the internal learnt-clause GC deletes, and it only deletes learnt
    clauses that are neither locked (a current reason) nor glue.

    The public surface is signed DIMACS-style literals in,
    :class:`SatResult` out; literal codes (module docstring) are an
    internal representation only. A literal is an ``int`` other than 0
    and not a ``bool``; anything else raises :class:`SolverError`.

    A call keeps the assumption levels it shares with the previous call
    (module docstring), so repeating a probe that failed on its last
    assumption re-propagates nothing:

    >>> chain = IncrementalSolver(CNF(num_vars=3, clauses=[(-1, 2), (-2, -3)]))
    >>> first = chain.solve([1, 3])
    >>> first.core, first.stats.propagations
    ((1, 3), 3)
    >>> chain.solve([1, 3]).stats.propagations
    0

    Clauses and assumptions can change between calls:

    >>> solver = IncrementalSolver(CNF(num_vars=2, clauses=[(1, 2)]))
    >>> solver.solve([-1]).value(2)
    True
    >>> selector = solver.new_var()          # a retractable constraint:
    >>> solver.add_clause([-selector, -2])   # selector -> not x2
    >>> solver.solve([-1, selector]).satisfiable
    False
    >>> solver.failed_assumptions()
    (-1, 3)
    >>> solver.solve([-1]).satisfiable       # retracted: selector unassumed
    True
    """

    LUBY_UNIT = 64
    ACTIVITY_DECAY = 0.95
    CLAUSE_DECAY = 0.999
    GLUE_LBD = 2
    GC_FIRST = 300
    GC_GROWTH = 1.3
    BIN_MIN_CLAUSE = 30
    BIN_MIN_WATCHES = 256

    def __init__(self, cnf: CNF | None = None, gc: bool = True) -> None:
        self.gc = gc
        self._forced_restart = False
        self._last_core: tuple[Lit, ...] | None = None
        self._model = True
        self.stats = SolverStats(solver_builds=1)
        GLOBAL_STATS.solver_builds += 1
        self.num_vars = 0
        # Clause arena: [lbd, size, lit, lit, ...] per clause; crefs in
        # insertion order (strictly increasing) in ``cref_list``.
        self.arena: list[int] = []
        self.cref_list: list[int] = []
        # Learnt-clause activities, keyed by cref (problem clauses carry
        # no activity — an absent key reads as 0.0).
        self.clause_act: dict[int, float] = {}
        self.num_learnts = 0
        self.max_learnts = float(self.GC_FIRST)
        # Per-code columns (indices 0/1 are the unused variable 0):
        self.vt: list[int] = [0, 0]  # 1 iff the coded literal is true
        self.vf: list[int] = [0, 0]  # 1 iff the coded literal is false
        self.watches: list[list[int]] = [[], []]
        # Per-variable columns:
        self.levels: list[int] = [0]
        self.reasons: list[int] = [0]
        self.activity: list[float] = [0.0]
        self.phase_code: list[int] = [1]  # preferred decision code
        self.trail: list[int] = []  # literal codes
        self.trail_lim: list[int] = []
        self.propagated = 0
        self.activity_inc = 1.0
        self.clause_inc = 1.0
        # VSIDS max-heap of (-activity, var). ``heap_act[var]`` is the
        # activity of the var's freshest unpopped entry (None once that
        # entry is popped): pushes are skipped when it already matches.
        self._heap: list[tuple[float, int]] = []
        self.heap_act: list[float | None] = [None]
        self.empty_clause = False
        self.units: list[int] = []  # pending unit codes
        self._units_applied = 0
        self._assumption_codes: tuple[int, ...] = ()
        if cnf is not None:
            self.load(cnf)

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        """Allocate a fresh variable."""
        self.ensure_vars(self.num_vars + 1)
        return self.num_vars

    def solve(
        self, assumptions: Iterable[Lit] = (), model: bool = True
    ) -> SatResult:
        """Decide the database under ``assumptions``; state persists.

        ``model=False`` skips materialising the satisfying assignment —
        for verdict-only callers (e.g. per-candidate screening) this
        saves an O(num_vars) dict build per SAT answer.

        Python's cyclic garbage collector is suspended for the duration
        of the call: the search allocates heavily (heap entries, reason
        slices) but creates no reference cycles, so generation-0 sweeps
        triggered mid-solve are pure pause time (~15% of a long solve).
        The caller's collector state is restored on exit either way.
        """
        assumed = tuple(assumptions)
        top = self.num_vars
        for lit in assumed:
            if type(lit) is int and lit and -top <= lit <= top:
                continue  # the common case: a plain in-range int
            if not isinstance(lit, int) or isinstance(lit, bool):
                raise SolverError(f"assumption {lit!r} is not an int literal")
            if lit == 0:
                raise SolverError("0 is not a literal")
            if abs(lit) > self.num_vars:
                raise SolverError(f"assumption {lit} out of range")
        before = self.stats.snapshot()
        self.stats.solves += 1
        self._model = model
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            result = self._solve(assumed)
        except BaseException:
            # An interrupted search may leave its deepest level half
            # propagated: the next call must keep no assumption level.
            self._backtrack(0)
            raise
        finally:
            if gc_was_enabled:
                gc.enable()
            delta = self.stats - before
            GLOBAL_STATS.add(delta)
        self._last_core = None if result.satisfiable else result.core
        return SatResult(result.satisfiable, result.assignment, result.core, delta)

    def failed_assumptions(self) -> tuple[Lit, ...] | None:
        """The failed-assumption core of the most recent :meth:`solve`.

        ``None`` after a satisfiable answer (or before any solve); the
        same tuple as ``SatResult.core`` otherwise — a subset of the
        assumptions already unsatisfiable with the clause database,
        sorted by variable (empty when the database alone is UNSAT).
        """
        return self._last_core

    def force_restart(self) -> None:
        """Test/ops hook: make the next restart fire after one conflict.

        One-shot — the request is consumed at the next restart boundary
        and the Luby schedule resumes, so forcing restarts cannot
        livelock the search (a standing one-conflict budget plus
        :meth:`force_gc` would revisit the same conflicts forever on
        hard instances). Stress suites drive the core to its restart
        edge cases through this hook without reaching into scheduler
        internals.
        """
        self._forced_restart = True

    def force_gc(self) -> None:
        """Test/ops hook: reduce the learnt database at every chance.

        Enables GC (even on a ``gc=False`` instance) and pins its budget
        to zero, so every conflict and restart boundary triggers a
        reduction sweep. Counterpart of :meth:`force_restart`.
        """
        self.gc = True
        self.max_learnts = 0.0

    def _restart_budget(self, restarts: int) -> int:
        """The conflict budget before the next restart."""
        if self._forced_restart:
            self._forced_restart = False
            return 1
        return self.LUBY_UNIT * luby(restarts + 1)

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------
    def ensure_vars(self, n: int) -> None:
        """Grow the variable range to at least ``1..n``."""
        if n <= self.num_vars:
            return
        grow = n - self.num_vars
        self.vt.extend([0] * (2 * grow))
        self.vf.extend([0] * (2 * grow))
        self.watches.extend([] for _ in range(2 * grow))
        self.levels.extend([0] * grow)
        self.reasons.extend([0] * grow)
        self.activity.extend([0.0] * grow)
        self.phase_code.extend(
            (var << 1) | 1 for var in range(self.num_vars + 1, n + 1)
        )
        self.heap_act.extend([0.0] * grow)
        heap = self._heap
        for var in range(self.num_vars + 1, n + 1):
            heappush(heap, (0.0, var))
        self.num_vars = n

    # ------------------------------------------------------------------
    # Clause database
    # ------------------------------------------------------------------
    def add_clause(self, literals: Iterable[Lit]) -> None:
        """Add a clause; usable between :meth:`solve` calls.

        Validates every literal, then attaches the clause as a batch of
        one (:meth:`load` describes what is kept of the trail).
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
        self._attach([clause])

    def load(self, cnf: CNF, start: int = 0) -> None:
        """Attach ``cnf.clauses[start:]``, which ``cnf`` validated.

        The bulk path: no literal is checked again. Grows the variables
        to ``cnf.num_vars`` and attaches the clauses as one batch. The
        batch keeps every decision level below the lowest one at which
        one of its literals is assigned (a literal assigned at level 0
        does not count: attaching prunes it), so clauses over fresh
        variables — totalizer extensions, core counters — keep the whole
        trail. A clause that comes out unit or empty backtracks to level
        0, where the next solve settles it.
        """
        self.ensure_vars(cnf.num_vars)
        clauses = cnf.clauses[start:]
        if clauses:
            self._attach(clauses)

    def _attach(self, clauses: list[Sequence[Lit]]) -> None:
        """Attach clauses between searches (:meth:`load`).

        On a fresh solver (empty trail) no literal is settled at level 0,
        so a clause over two or more distinct variables passes every rule
        of :meth:`_add_codes` unchanged and is watched directly; one set
        size settles duplicates and tautologies.
        """
        if self.trail_lim:
            vt = self.vt
            vf = self.vf
            levels = self.levels
            lowest = len(self.trail_lim) + 1
            for clause in clauses:
                for lit in clause:
                    var = lit if lit > 0 else -lit
                    if (vt[var << 1] or vf[var << 1]) and 0 < levels[var] < lowest:
                        lowest = levels[var]
            self._undo(lowest - 1)
        units = len(self.units)
        add = self._add_codes
        watch = self._watch
        fresh = not self.trail
        for clause in clauses:
            codes = [(l << 1) if l > 0 else ((-l) << 1) | 1 for l in clause]
            if fresh and len(codes) > 1 and len(set(map(abs, clause))) == len(codes):
                watch(codes, 0)
            else:
                add(codes)
        if self.empty_clause or len(self.units) > units:
            self._undo(0)

    def _undo(self, level: int) -> None:
        """Backtrack to ``level`` between searches, counting the undone
        assignments (``stats.undone``)."""
        size = len(self.trail)
        self._backtrack(level)
        self.stats.undone += size - len(self.trail)

    def _add_codes(self, codes: list[int], lbd: int = 0) -> int | None:
        """Attach a clause of literal codes; returns its cref or None.

        Tautologies and clauses satisfied at level 0 are dropped;
        literals false at level 0 are pruned (level-0 assignments are
        permanent); empty clauses mark the instance UNSAT; unit clauses
        are queued for level-0 assignment at the next solve. ``lbd > 0``
        marks a learnt clause (a GC candidate unless glue or locked).
        The attached clause goes to :meth:`_watch`.
        """
        vt = self.vt
        vf = self.vf
        levels = self.levels
        seen: set[int] = set()
        pruned: list[int] = []
        # Single pass: dedup, tautology check and root-level pruning
        # (no state is touched before an early return).
        for code in codes:
            if code ^ 1 in seen:
                return None  # tautology
            if code in seen:
                continue
            seen.add(code)
            if (vt[code] or vf[code]) and levels[code >> 1] == 0:
                if vt[code]:
                    return None  # permanently satisfied
                continue  # permanently false: drop the literal
            pruned.append(code)
        if not pruned:
            self.empty_clause = True
            return None
        if len(pruned) == 1:
            self.units.append(pruned[0])
            return None
        return self._watch(pruned, lbd)

    def _watch(self, codes: list[int], lbd: int) -> int:
        """Store a clause of two or more settled codes as a fresh arena
        slice watched on its first two codes; returns its cref."""
        arena = self.arena
        arena.append(lbd)
        arena.append(len(codes))
        cref = len(arena)
        arena.extend(codes)
        self.cref_list.append(cref)
        if lbd > 0:
            self.num_learnts += 1
            self.clause_act[cref] = 0.0
        self.watches[codes[0]].append(cref)
        self.watches[codes[1]].append(cref)
        return cref

    # ------------------------------------------------------------------
    # Learnt-clause database reduction
    # ------------------------------------------------------------------
    def _reduce_learnts(self) -> None:
        """Drop the weakest half of the deletable learnt clauses.

        Runs at *any* decision level — mid-search, under assumptions —
        not only at restart boundaries: the locked set is the reason
        clauses of every literal currently on the trail, which covers
        assumption-implied assignments at their levels exactly like
        root-level facts (assumption awareness). Locked clauses, glue
        clauses (LBD <= ``GLUE_LBD``) and problem clauses are never
        deleted. Victims are ranked by activity, then LBD, then recency
        (cref order). The arena is rebuilt compacted with watched-literal
        positions preserved, and crefs in watches and reasons remapped,
        so the propagation invariants hold without backtracking.
        """
        arena = self.arena
        reasons = self.reasons
        locked = {
            reasons[code >> 1]
            for code in self.trail
            if reasons[code >> 1] != 0
        }
        clause_act = self.clause_act
        removable = [
            cref
            for cref in self.cref_list
            if arena[cref - 2] > self.GLUE_LBD and cref not in locked
        ]
        removable.sort(
            key=lambda c: (clause_act.get(c, 0.0), -arena[c - 2], -c)
        )
        drop = set(removable[: len(removable) // 2])
        if not drop:
            self.max_learnts *= self.GC_GROWTH
            return
        remap: dict[int, int] = {}
        new_arena: list[int] = []
        new_crefs: list[int] = []
        new_act: dict[int, float] = {}
        for cref in self.cref_list:
            if cref in drop:
                continue
            size = arena[cref - 1]
            new_arena.append(arena[cref - 2])
            new_arena.append(size)
            new_cref = len(new_arena)
            new_arena.extend(arena[cref : cref + size])
            remap[cref] = new_cref
            new_crefs.append(new_cref)
            act = clause_act.get(cref)
            if act is not None:
                new_act[new_cref] = act
        self.arena = new_arena
        self.cref_list = new_crefs
        self.clause_act = new_act
        for watch_list in self.watches:
            del watch_list[:]
        watches = self.watches
        for cref in new_crefs:
            watches[new_arena[cref]].append(cref)
            watches[new_arena[cref + 1]].append(cref)
        for code in self.trail:
            var = code >> 1
            reason = reasons[var]
            if reason != 0:
                reasons[var] = remap[reason]
        self.num_learnts -= len(drop)
        self.stats.reductions += 1
        if self.trail_lim:
            self.stats.midsearch_reductions += 1
        self.stats.learnts_dropped += len(drop)
        self.stats.learnts_kept += self.num_learnts
        self.max_learnts *= self.GC_GROWTH

    # ------------------------------------------------------------------
    # Assignment plumbing
    # ------------------------------------------------------------------
    def _assign_code(self, code: int, reason: int) -> None:
        var = code >> 1
        self.vt[code] = 1
        self.vf[code ^ 1] = 1
        self.levels[var] = len(self.trail_lim)
        self.reasons[var] = reason
        self.phase_code[var] = code
        self.trail.append(code)

    def _backtrack(self, level: int) -> None:
        if len(self.trail_lim) <= level:
            return
        cut = self.trail_lim[level]
        vt = self.vt
        vf = self.vf
        reasons = self.reasons
        activity = self.activity
        heap = self._heap
        heap_act = self.heap_act
        trail = self.trail
        for code in trail[cut:]:
            vt[code] = 0
            vf[code ^ 1] = 0
            var = code >> 1
            reasons[var] = 0
            # Re-push only if the activity moved since the freshest
            # entry — the heap's pop order is canonical either way.
            a = activity[var]
            if heap_act[var] != a:
                heappush(heap, (-a, var))
                heap_act[var] = a
        del trail[cut:]
        del self.trail_lim[level:]
        if self.propagated > len(trail):
            self.propagated = len(trail)

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------
    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """Derive a first-UIP learnt clause (as codes) and its backjump.

        The VSIDS bump is inlined (activity bookkeeping plus a heap
        push when the variable is unassigned); the overflow rescale is
        the cold :meth:`_rescale_activity`.
        """
        arena = self.arena
        levels = self.levels
        reasons = self.reasons
        trail = self.trail
        activity = self.activity
        heap = self._heap
        heap_act = self.heap_act
        vt = self.vt
        vf = self.vf
        inc = self.activity_inc
        learnt: list[int] = []
        seen = bytearray(self.num_vars + 1)
        counter = 0
        code = -1  # sentinel: never equals a literal code
        if arena[conflict - 2]:  # learnt (lbd > 0): bump its activity
            self._bump_clause(conflict)
        reason_lits = arena[conflict : conflict + arena[conflict - 1]]
        index = len(trail)
        current_level = len(self.trail_lim)
        while True:
            for q in reason_lits:
                var = q >> 1
                if seen[var] or levels[var] == 0:
                    continue
                if q == code:
                    continue
                seen[var] = 1
                a = activity[var] + inc
                activity[var] = a
                if a > 1e100:
                    self._rescale_activity()
                    inc = self.activity_inc
                    heap = self._heap
                else:
                    c = var << 1
                    if not vt[c] and not vf[c]:
                        heappush(heap, (-a, var))
                        heap_act[var] = a
                if levels[var] == current_level:
                    counter += 1
                else:
                    learnt.append(q)
            # Walk back the trail to the next marked literal.
            while True:
                index -= 1
                code = trail[index]
                if seen[code >> 1]:
                    break
            counter -= 1
            seen[code >> 1] = 0
            if counter == 0:
                break
            reason_cref = reasons[code >> 1]
            if arena[reason_cref - 2]:  # learnt: bump its activity
                self._bump_clause(reason_cref)
            reason_lits = arena[reason_cref : reason_cref + arena[reason_cref - 1]]
        learnt = [code ^ 1] + self._minimise(learnt, seen)
        learnt = self._minimise_binary(learnt)
        if len(learnt) == 1:
            return learnt, 0
        # Backjump to the second-highest level in the clause.
        by_level = sorted((levels[q >> 1] for q in learnt[1:]), reverse=True)
        backjump = by_level[0]
        # Put a literal of the backjump level in watch position 1.
        for j in range(1, len(learnt)):
            if levels[learnt[j] >> 1] == backjump:
                learnt[1], learnt[j] = learnt[j], learnt[1]
                break
        return learnt, backjump

    def _minimise(self, literals: list[int], seen: bytearray) -> list[int]:
        """Drop literals implied by the rest (self-subsuming resolution)."""
        arena = self.arena
        reasons = self.reasons
        levels = self.levels
        kept = []
        marked = {q >> 1 for q in literals}
        for code in literals:
            reason_cref = reasons[code >> 1]
            if reason_cref == 0:
                kept.append(code)
                continue
            redundant = True
            negated = code ^ 1
            for q in arena[reason_cref : reason_cref + arena[reason_cref - 1]]:
                var = q >> 1
                if q == negated or levels[var] == 0:
                    continue
                if var not in marked:
                    redundant = False
                    break
            if not redundant:
                kept.append(code)
        return kept

    def _minimise_binary(self, learnt: list[int]) -> list[int]:
        """Shrink the learnt clause by binary self-subsuming resolution.

        For the asserting literal ``p = learnt[0]``, every binary
        database clause ``(p | x)`` resolves with the learnt clause on
        ``~x``: the resolvent drops ``~x`` and adds nothing new (``p``
        is already present), so any learnt literal whose negation is
        binary-implied by ``~p`` can be deleted. This is the Glucose
        ``binResMinimize`` step; it composes with the reason-based
        minimisation of :meth:`_minimise`, which cannot see clauses off
        the current trail.

        Gated like Glucose: only small learnt clauses are worth the
        scan, and a hub literal watched by thousands of long clauses
        must not turn the conflict hot path into a linear sweep.
        """
        if len(learnt) < 2 or len(learnt) > self.BIN_MIN_CLAUSE:
            return learnt
        asserting = learnt[0]
        watch_list = self.watches[asserting]
        if len(watch_list) > self.BIN_MIN_WATCHES:
            return learnt
        arena = self.arena
        marked = set(learnt[1:])
        removable: set[int] = set()
        for cref in watch_list:
            if arena[cref - 1] != 2:
                continue
            first = arena[cref]
            other = arena[cref + 1] if first == asserting else first
            if (other ^ 1) in marked:
                removable.add(other ^ 1)
        if not removable:
            return learnt
        self.stats.minimised_literals += len(removable)
        return [asserting] + [q for q in learnt[1:] if q not in removable]

    def _analyze_final(self, failed: int) -> tuple[Lit, ...]:
        """The failed-assumption core behind an implied ``failed ^ 1``.

        Walks reasons back from the falsified assumption; decisions met
        on the way are (by construction of the search loop) earlier
        assumptions, and together with ``failed`` they form a subset of
        the assumptions already unsatisfiable with the clause database.
        The result is decoded back to signed literals, sorted by
        variable.
        """
        core = {failed}
        if self.trail_lim:
            arena = self.arena
            reasons = self.reasons
            levels = self.levels
            seen = bytearray(self.num_vars + 1)
            seen[failed >> 1] = 1
            for code in reversed(self.trail[self.trail_lim[0] :]):
                var = code >> 1
                if not seen[var]:
                    continue
                seen[var] = 0
                reason_cref = reasons[var]
                if reason_cref == 0:
                    core.add(code)
                    continue
                for q in arena[reason_cref : reason_cref + arena[reason_cref - 1]]:
                    if (q >> 1) != var and levels[q >> 1] > 0:
                        seen[q >> 1] = 1
        return tuple(
            sorted((_signed(code) for code in core), key=lambda l: (abs(l), l))
        )

    def _rescale_activity(self) -> None:
        """Scale all activities down on overflow (cold path)."""
        activity = self.activity
        for var in range(1, self.num_vars + 1):
            activity[var] *= 1e-100
        self.activity_inc *= 1e-100
        self._rebuild_heap()

    def _bump_clause(self, cref: int) -> None:
        if self.arena[cref - 2] == 0:
            return  # problem clause: never a GC candidate, no activity
        clause_act = self.clause_act
        activity = clause_act.get(cref, 0.0) + self.clause_inc
        clause_act[cref] = activity
        if activity > 1e20:
            for c in clause_act:
                clause_act[c] *= 1e-20
            self.clause_inc *= 1e-20

    def _rebuild_heap(self) -> None:
        vt = self.vt
        vf = self.vf
        activity = self.activity
        heap_act = self.heap_act
        heap: list[tuple[float, int]] = []
        for var in range(1, self.num_vars + 1):
            c = var << 1
            if not vt[c] and not vf[c]:
                a = activity[var]
                heap.append((-a, var))
                heap_act[var] = a
            else:
                heap_act[var] = None
        heapify(heap)
        self._heap = heap

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _solve(self, assumptions: tuple[Lit, ...]) -> SatResult:
        codes = tuple(
            (l << 1) if l > 0 else ((-l) << 1) | 1 for l in assumptions
        )
        # Keep the assumption levels shared with the previous call (level
        # i + 1 opens with assumption i). A clause load may have cut the
        # trail below them; a unit or empty clause left none to keep.
        previous = self._assumption_codes
        limit = min(len(codes), len(previous), len(self.trail_lim))
        keep = 0
        while keep < limit and codes[keep] == previous[keep]:
            keep += 1
        if keep < limit and (
            previous[keep] in codes or previous[keep] ^ 1 in codes
        ):
            # The first literal the caller's order drops moved or flipped:
            # stable literals first. A moved one keeps its level now; a
            # flipped one moves behind the stable ones, so its next flip
            # keeps them. A literal merely gone (a freed relaxation
            # literal, an old generation selector) leaves the order as is.
            rest = dict.fromkeys(codes)
            codes = (
                *(code for code in previous if rest.pop(code, 0) is None),
                *rest,
            )
            limit = min(limit, len(codes))
            keep = 0
            while keep < limit and codes[keep] == previous[keep]:
                keep += 1
        self._undo(keep)
        if not self._settle_root_level():
            return SatResult(False, core=())
        self._assumption_codes = codes
        restarts = 0
        while True:
            result = self._search(self._restart_budget(restarts), restarts == 0)
            if result is not None:
                return result
            self.stats.restarts += 1
            restarts += 1
            self._backtrack(0)
            if self.gc and self.num_learnts >= self.max_learnts:
                self._reduce_learnts()

    def _settle_root_level(self) -> bool:
        """Assign pending unit clauses at level 0.

        False when the database is already refuted: an empty clause, or
        a unit whose literal is false. :meth:`_search`'s opening pass
        propagates the units.
        """
        if self.empty_clause:
            return False
        vt = self.vt
        vf = self.vf
        while self._units_applied < len(self.units):
            code = self.units[self._units_applied]
            self._units_applied += 1
            if vf[code]:
                self.empty_clause = True
                return False
            if not vt[code]:
                self._assign_code(code, 0)
        return True

    def _search(self, conflict_budget: int, first: bool) -> SatResult | None:
        """Search until SAT, UNSAT, or budget exhaustion (restart).

        This is the one hot loop: unit propagation, the heap decision
        and the decision assignment are written out in it, so every hot
        name is bound to a local exactly once per :meth:`_solve` round
        instead of once per propagation pass — at ~20 passes per
        decision the rebinding preambles and call frames are a
        measurable slice of a solve. Locals are re-fetched at the two
        points the underlying objects are replaced rather than mutated:
        the arena after a learnt-database reduction, the heap after an
        activity-rescale rebuild.

        Propagation walks each watch list with zero bookkeeping until
        the first clause moves away (phase one — the common case is that
        none does and the list needs no mutation at all); from that
        point the remainder is compacted in place behind a write index
        (phase two).

        ``first`` marks a call's first round. Its opening pass
        propagates the unit clauses :meth:`_settle_root_level` assigned,
        and a conflict there is the database refuting itself at level
        0, not search work: ``stats.conflicts`` does not count it.
        (Later level-0 conflicts follow a learnt unit, and count.)
        """
        vt = self.vt
        vf = self.vf
        watches = self.watches
        arena = self.arena
        trail = self.trail
        trail_append = trail.append
        trail_lim = self.trail_lim
        levels = self.levels
        reasons = self.reasons
        phase_code = self.phase_code
        heap = self._heap
        heap_act = self.heap_act
        stats = self.stats
        assumption_codes = self._assumption_codes
        n_assumptions = len(assumption_codes)
        num_vars = self.num_vars
        conflicts = 0
        while True:
            # ---- unit propagation (two watched literals) ----
            conflict = -1
            level = len(trail_lim)
            start = self.propagated
            propagated = start
            pending = len(trail)
            while propagated < pending:
                code = trail[propagated]
                propagated += 1
                false_code = code ^ 1
                wl = watches[false_code]
                moved = -1
                for cref in wl:
                    first = arena[cref]
                    if first == false_code:
                        other = arena[cref + 1]
                        arena[cref] = other
                        arena[cref + 1] = false_code
                    else:
                        other = first
                    if vt[other]:
                        continue
                    size = arena[cref - 1]
                    if size == 3:
                        q = arena[cref + 2]
                        if not vf[q]:
                            arena[cref + 1] = q
                            arena[cref + 2] = false_code
                            watches[q].append(cref)
                            moved = cref
                            break
                    else:
                        j = cref + 2
                        end = cref + size
                        while j < end:
                            q = arena[j]
                            if not vf[q]:
                                arena[cref + 1] = q
                                arena[j] = false_code
                                watches[q].append(cref)
                                moved = cref
                                break
                            j += 1
                        if moved >= 0:
                            break
                    if vf[other]:
                        # Conflict with the list untouched.
                        conflict = cref
                        break
                    var = other >> 1
                    vt[other] = 1
                    vf[other ^ 1] = 1
                    levels[var] = level
                    reasons[var] = cref
                    phase_code[var] = other
                    trail_append(other)
                    pending += 1
                if conflict >= 0:
                    break
                if moved < 0:
                    continue
                # Phase two: compact the list behind a write index.
                w = wl.index(moved)
                i = w + 1
                n = len(wl)
                while i < n:
                    cref = wl[i]
                    i += 1
                    first = arena[cref]
                    if first == false_code:
                        other = arena[cref + 1]
                        arena[cref] = other
                        arena[cref + 1] = false_code
                    else:
                        other = first
                    if vt[other]:
                        wl[w] = cref
                        w += 1
                        continue
                    size = arena[cref - 1]
                    if size == 3:
                        q = arena[cref + 2]
                        if not vf[q]:
                            arena[cref + 1] = q
                            arena[cref + 2] = false_code
                            watches[q].append(cref)
                            continue
                    else:
                        j = cref + 2
                        end = cref + size
                        moved_here = False
                        while j < end:
                            q = arena[j]
                            if not vf[q]:
                                arena[cref + 1] = q
                                arena[j] = false_code
                                watches[q].append(cref)
                                moved_here = True
                                break
                            j += 1
                        if moved_here:
                            continue
                    wl[w] = cref
                    w += 1
                    if vf[other]:
                        # Conflict: keep the unprocessed tail.
                        wl[w:] = wl[i:n]
                        conflict = cref
                        break
                    var = other >> 1
                    vt[other] = 1
                    vf[other ^ 1] = 1
                    levels[var] = level
                    reasons[var] = cref
                    phase_code[var] = other
                    trail_append(other)
                    pending += 1
                if conflict >= 0:
                    break
                del wl[w:]
            self.propagated = propagated
            stats.propagations += propagated - start
            # ---- conflict handling ----
            if conflict >= 0:
                if not trail_lim:
                    # Before any conflict of a call's first round, a
                    # level-0 conflict is the settling pass's.
                    if conflicts or not first:
                        stats.conflicts += 1
                    self.empty_clause = True
                    return SatResult(False, core=())
                stats.conflicts += 1
                conflicts += 1
                learnt, backjump = self._analyze(conflict)
                heap = self._heap  # an activity rescale rebuilds it
                # LBD before backtracking, while levels are still live.
                lbd = len({levels[q >> 1] for q in learnt})
                self._backtrack(backjump)
                if len(learnt) == 1:
                    # A root-level fact: persists across solves.
                    fact = learnt[0]
                    if vf[fact]:
                        self.empty_clause = True
                        return SatResult(False, core=())
                    if not vt[fact]:
                        self._assign_code(fact, 0)
                else:
                    cref = self._add_codes(learnt, lbd=max(1, lbd))
                    if cref is not None:
                        self._assign_code(learnt[0], cref)
                self.activity_inc /= self.ACTIVITY_DECAY
                self.clause_inc /= self.CLAUSE_DECAY
                if self.gc and self.num_learnts >= self.max_learnts:
                    # Assumption-aware mid-search reduction: shed the
                    # weakest learnts the moment the budget overflows,
                    # instead of dragging the oversized database to the
                    # next restart boundary (current reasons — including
                    # assumption-implied ones — stay locked).
                    self._reduce_learnts()
                    arena = self.arena  # the reduction rebuilds it
                if conflicts >= conflict_budget:
                    return None  # restart
                continue
            # Re-establish assumptions, one decision level per assumption;
            # backjumps may undo them, so this runs at decision time.
            level = len(trail_lim)
            if level < n_assumptions:
                code = assumption_codes[level]
                if vf[code]:
                    return SatResult(False, core=self._analyze_final(code))
                trail_lim.append(len(trail))
                if not vt[code]:
                    self._assign_code(code, 0)
                continue
            # ---- decision: the unassigned variable of maximal activity ----
            decision = -1
            # A full trail is a model: no need to drain the heap's stale
            # entries to find that out (its pop order is canonical).
            if len(trail) < num_vars:
                if len(heap) > 4 * num_vars + 64:
                    self._rebuild_heap()
                    heap = self._heap
                while heap:
                    negact, var = heappop(heap)
                    if heap_act[var] == -negact:
                        heap_act[var] = None
                    c = var << 1
                    if vt[c] or vf[c]:
                        continue
                    decision = phase_code[var]
                    break
            if decision < 0:
                if not self._model:
                    return SatResult(True)
                assignment = {
                    var: vt[var << 1] == 1 for var in range(1, num_vars + 1)
                }
                return SatResult(True, assignment)
            stats.decisions += 1
            trail_lim.append(len(trail))
            # _assign_code, written out; phase_code[var] already holds
            # the decision literal itself, so no phase write is needed.
            var = decision >> 1
            vt[decision] = 1
            vf[decision ^ 1] = 1
            levels[var] = len(trail_lim)
            reasons[var] = 0
            trail_append(decision)
