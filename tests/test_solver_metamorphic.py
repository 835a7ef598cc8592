"""Metamorphic regressions: incremental vs one-shot solving.

For every hand case of ``test_solver_sat.py`` the persistent
:class:`~repro.solver.sat.IncrementalSolver` must agree with the
one-shot :func:`~repro.solver.sat.solve`:

* on a **fresh instance** (the incremental machinery adds nothing and
  must change nothing), and
* **after an unrelated prior solve** on the same instance — the case's
  clauses are embedded at a variable offset behind an unrelated
  satisfiable sub-formula that has already been solved (including one
  failed-assumption probe), so any state leaking between queries
  (stale trail entries, mis-scoped learnt clauses, phase corruption)
  flips a verdict.

``TestMetamorphicLaws`` holds the CDCL core to the semantic-invariance
laws: clause permutation, literal renaming and assumption-order
invariance. (The certified battery in ``tests/test_solver_backends.py``
checks the core's answers themselves by reverse unit propagation.)
"""

import random

import pytest

from repro.solver.brute import check_assignment
from repro.solver.cnf import CNF, Lit
from repro.solver.sat import IncrementalSolver, solve


def cnf_of(num_vars: int, clauses) -> CNF:
    cnf = CNF(num_vars)
    for clause in clauses:
        cnf.add_clause(clause)
    return cnf


def php(pigeons: int, holes: int) -> CNF:
    cnf = CNF(pigeons * holes)
    var = lambda p, h: p * holes + h + 1
    for p in range(pigeons):
        cnf.add_clause([var(p, h) for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add_clause([-var(p1, h), -var(p2, h)])
    return cnf


def empty_clause_case() -> CNF:
    cnf = CNF(1)
    cnf.clauses.append(())
    return cnf


#: (name, cnf, assumptions) — mirrors every TestHandCases/TestAssumptions
#: instance of test_solver_sat.py.
CASES: list[tuple[str, CNF, tuple[Lit, ...]]] = [
    ("empty-cnf", CNF(0), ()),
    ("single-unit", cnf_of(1, [[1]]), ()),
    ("contradictory-units", cnf_of(1, [[1], [-1]]), ()),
    ("empty-clause", empty_clause_case(), ()),
    ("tautology", cnf_of(1, [[1, -1]]), ()),
    ("implication-chain", cnf_of(3, [[-1, 2], [-2, 3], [1]]), ()),
    ("simple-unsat", cnf_of(2, [[1, 2], [1, -2], [-1, 2], [-1, -2]]), ()),
    ("pigeonhole-3-2", php(3, 2), ()),
    ("assumption-polarity", cnf_of(2, [[1, 2]]), (-1,)),
    ("contradictory-assumption", cnf_of(1, [[1]]), (-1,)),
    ("propagated-assumption-conflict", cnf_of(2, [[1], [-1, 2]]), (-2,)),
    ("assumption-pair", cnf_of(3, [[1, 2, 3]]), (-1, -2)),
]

IDS = [name for name, _, _ in CASES]


def shifted(cnf: CNF, offset: int) -> list[list[Lit]]:
    return [
        [lit + offset if lit > 0 else lit - offset for lit in clause]
        for clause in cnf.clauses
    ]


@pytest.mark.parametrize("name,cnf,assumptions", CASES, ids=IDS)
class TestMetamorphicAgreement:
    def test_fresh_instance_agrees_with_oneshot(self, name, cnf, assumptions):
        oneshot = solve(cnf, assumptions)
        incremental = IncrementalSolver(cnf).solve(assumptions)
        assert incremental.satisfiable == oneshot.satisfiable
        if incremental.satisfiable:
            from repro.solver.brute import check_assignment

            assert check_assignment(cnf, incremental.assignment)
        else:
            assert set(incremental.core) <= set(assumptions)

    def test_agrees_after_unrelated_prior_solve(self, name, cnf, assumptions):
        """State-leak detection: embed the case behind an already-solved
        unrelated sub-formula and demand the identical verdict."""
        solver = IncrementalSolver()
        u1, u2 = solver.new_var(), solver.new_var()
        solver.add_clause([u1, u2])
        solver.add_clause([-u1, u2])
        # Unrelated prior solves: one SAT, one failed-assumption UNSAT.
        assert solver.solve().satisfiable
        prior = solver.solve([-u2])
        assert not prior.satisfiable and prior.core == (-u2,)
        # Embed the case at offset 2 and re-ask the original question.
        offset = 2
        solver.ensure_vars(offset + cnf.num_vars)
        for clause in shifted(cnf, offset):
            solver.add_clause(clause)
        shifted_assumptions = [
            lit + offset if lit > 0 else lit - offset for lit in assumptions
        ]
        oneshot = solve(cnf, assumptions)
        incremental = solver.solve(shifted_assumptions)
        assert incremental.satisfiable == oneshot.satisfiable, name
        if not incremental.satisfiable:
            assert set(incremental.core) <= set(shifted_assumptions)
        # And the embedding is stable: ask again, same answer.
        assert solver.solve(shifted_assumptions).satisfiable == oneshot.satisfiable

    def test_assumptions_leave_no_residue(self, name, cnf, assumptions):
        """Solving under assumptions then without them equals a fresh
        unassumed solve — assumptions must never be baked in."""
        solver = IncrementalSolver(cnf)
        solver.solve(assumptions)
        after = solver.solve()
        fresh = solve(cnf)
        assert after.satisfiable == fresh.satisfiable


#: The nontrivial hand cases (empty formulas teach a permutation law
#: nothing) plus seeded random 3-CNFs near the solvable/unsolvable mix.
_LAW_CASES: list[tuple[str, CNF, tuple[Lit, ...]]] = [
    (name, cnf, assumptions)
    for name, cnf, assumptions in CASES
    if cnf.num_vars >= 2
]
for _seed in range(4):
    _rng = random.Random(_seed)
    _n = _rng.randint(10, 24)
    _cnf = CNF(_n)
    for _ in range(int(_n * 4.2)):
        _vs = _rng.sample(range(1, _n + 1), 3)
        _cnf.add_clause([v if _rng.random() < 0.5 else -v for v in _vs])
    _assume = tuple(
        v if _rng.random() < 0.5 else -v for v in _rng.sample(range(1, _n + 1), 2)
    )
    _LAW_CASES.append((f"random-{_seed}", _cnf, _assume))

_LAW_IDS = [name for name, _, _ in _LAW_CASES]


def _solve_on(cnf: CNF, assumptions) -> "tuple":
    result = IncrementalSolver(cnf).solve(assumptions)
    core = None if result.core is None else frozenset(result.core)
    return result.satisfiable, result.assignment, core


def _renamed(cnf: CNF, mapping: dict[int, int]) -> CNF:
    out = CNF(cnf.num_vars)
    for clause in cnf.clauses:
        out.add_clause(
            [
                mapping[lit] if lit > 0 else -mapping[-lit]
                for lit in clause
            ]
        )
    return out


@pytest.mark.parametrize("name,cnf,assumptions", _LAW_CASES, ids=_LAW_IDS)
class TestMetamorphicLaws:
    """Semantic invariances the core must satisfy."""

    def test_clause_permutation_invariance(self, name, cnf, assumptions):
        """Permuting clause order never flips the verdict; models stay
        models, cores stay subsets of the assumptions."""
        base_sat, _, _ = _solve_on(cnf, assumptions)
        rng = random.Random(sum(name.encode()))
        for _ in range(2):
            clauses = list(cnf.clauses)
            rng.shuffle(clauses)
            permuted = CNF(cnf.num_vars)
            for clause in clauses:
                permuted.add_clause(list(clause))
            sat, model, core = _solve_on(permuted, assumptions)
            assert sat == base_sat, name
            if sat:
                assert check_assignment(permuted, model)
            else:
                assert core <= frozenset(assumptions)

    def test_literal_renaming_invariance(self, name, cnf, assumptions):
        """A variable permutation relabels the question, not the answer."""
        base_sat, _, _ = _solve_on(cnf, assumptions)
        rng = random.Random(sum(name.encode()))
        variables = list(range(1, cnf.num_vars + 1))
        shuffled = variables[:]
        rng.shuffle(shuffled)
        mapping = dict(zip(variables, shuffled))
        renamed = _renamed(cnf, mapping)
        renamed_assumptions = tuple(
            mapping[lit] if lit > 0 else -mapping[-lit] for lit in assumptions
        )
        sat, model, core = _solve_on(renamed, renamed_assumptions)
        assert sat == base_sat, name
        if sat:
            assert check_assignment(renamed, model)
        else:
            assert core <= frozenset(renamed_assumptions)

    def test_assumption_order_invariance(self, name, cnf, assumptions):
        """Assumptions are a set to the semantics: any order gives the
        same verdict and the same failed core (as a set)."""
        orderings = [assumptions, tuple(reversed(assumptions))]
        outcomes = []
        for ordering in orderings:
            sat, model, core = _solve_on(cnf, ordering)
            outcomes.append((sat, core))
            if sat:
                assert check_assignment(cnf, model)
        verdicts = {sat for sat, _ in outcomes}
        assert len(verdicts) == 1, name
        if not outcomes[0][0]:
            cores = {core for _, core in outcomes}
            for core in cores:
                assert core <= frozenset(assumptions)
