"""Tests for the CDCL SAT solver against hand cases and the brute oracle."""

import pytest
from hypothesis import given, settings

from repro.errors import SolverError
from repro.solver.brute import brute_solve, check_assignment, count_models
from repro.solver.cnf import CNF, VarPool
from repro.solver.sat import IncrementalSolver, solve
from tests.strategies import cnfs


def cnf_of(num_vars, clauses):
    cnf = CNF(num_vars)
    for clause in clauses:
        cnf.add_clause(clause)
    return cnf


class TestCnfContainer:
    def test_literal_validation(self):
        cnf = CNF(2)
        with pytest.raises(SolverError):
            cnf.add_clause([0])
        with pytest.raises(SolverError):
            cnf.add_clause([3])

    def test_dimacs_roundtrip(self):
        cnf = cnf_of(3, [[1, -2], [2, 3], [-1]])
        again = CNF.from_dimacs(cnf.to_dimacs())
        assert again.num_vars == 3
        assert again.clauses == cnf.clauses

    def test_dimacs_parse_errors(self):
        with pytest.raises(SolverError):
            CNF.from_dimacs("1 2 0")  # clause before header
        with pytest.raises(SolverError):
            CNF.from_dimacs("p cnf 2 1\n1 2")  # missing terminator

    def test_var_pool_reuse(self):
        cnf = CNF()
        pool = VarPool(cnf)
        a = pool.var("x")
        assert pool.var("x") == a
        assert pool.name_of(a) == "x"
        assert pool.name_of(-a) == "x"
        assert pool.has("x") and not pool.has("y")
        assert len(pool) == 1


class TestHandCases:
    def test_empty_cnf_is_sat(self):
        assert solve(CNF(0)).satisfiable

    def test_single_unit(self):
        result = solve(cnf_of(1, [[1]]))
        assert result.satisfiable and result.value(1) is True

    def test_contradictory_units(self):
        assert not solve(cnf_of(1, [[1], [-1]])).satisfiable

    def test_empty_clause_unsat(self):
        cnf = CNF(1)
        cnf.clauses.append(())
        assert not solve(cnf).satisfiable

    def test_tautology_ignored(self):
        assert solve(cnf_of(1, [[1, -1]])).satisfiable

    def test_implication_chain(self):
        # x1 -> x2 -> x3, x1 forced.
        cnf = cnf_of(3, [[-1, 2], [-2, 3], [1]])
        result = solve(cnf)
        assert result.satisfiable
        assert result.value(1) and result.value(2) and result.value(3)

    def test_simple_unsat(self):
        cnf = cnf_of(2, [[1, 2], [1, -2], [-1, 2], [-1, -2]])
        assert not solve(cnf).satisfiable

    def test_pigeonhole_3_into_2_unsat(self):
        """PHP(3,2): three pigeons, two holes — classic UNSAT instance
        requiring actual conflict-driven search."""
        cnf = CNF(6)  # var(p, h) = 2*p + h + 1 for p in 0..2, h in 0..1
        var = lambda p, h: 2 * p + h + 1
        for p in range(3):
            cnf.add_clause([var(p, 0), var(p, 1)])
        for h in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    cnf.add_clause([-var(p1, h), -var(p2, h)])
        assert not solve(cnf).satisfiable

    def test_unsat_result_has_no_assignment(self):
        result = solve(cnf_of(1, [[1], [-1]]))
        with pytest.raises(SolverError):
            result.value(1)

    def test_model_free_sat_result_says_why_it_has_no_assignment(self):
        result = IncrementalSolver(cnf_of(1, [[1]])).solve(model=False)
        assert result.satisfiable and result.assignment is None
        with pytest.raises(SolverError, match=r"^SAT result .* model=True"):
            result.value(1)


class TestAssumptions:
    def test_assumption_forces_polarity(self):
        cnf = cnf_of(2, [[1, 2]])
        result = solve(cnf, assumptions=[-1])
        assert result.satisfiable
        assert result.value(1) is False and result.value(2) is True

    def test_contradictory_assumption(self):
        cnf = cnf_of(1, [[1]])
        assert not solve(cnf, assumptions=[-1]).satisfiable

    def test_assumptions_do_not_mutate_cnf(self):
        cnf = cnf_of(1, [[1, -1]])
        before = list(cnf.clauses)
        solve(cnf, assumptions=[1])
        assert cnf.clauses == before

    def test_out_of_range_assumption(self):
        with pytest.raises(SolverError):
            solve(CNF(1), assumptions=[5])

    def test_propagated_assumption_conflict(self):
        # unit clause forces 1; assumption -1 contradicts after propagation
        cnf = cnf_of(2, [[1], [-1, 2]])
        assert not solve(cnf, assumptions=[-2]).satisfiable


class TestAgainstBruteForce:
    @given(cnf=cnfs())
    @settings(max_examples=300, deadline=None)
    def test_sat_verdict_matches_oracle(self, cnf):
        expected = brute_solve(cnf).satisfiable
        result = solve(cnf)
        assert result.satisfiable == expected
        if result.satisfiable:
            assert check_assignment(cnf, result.assignment)

    @given(cnf=cnfs(max_vars=5, max_clauses=8))
    @settings(max_examples=100, deadline=None)
    def test_assumption_consistency(self, cnf):
        """Solving under assumption v must match adding the unit clause."""
        result_assumed = solve(cnf, assumptions=[1])
        with_unit = cnf.copy()
        with_unit.add_clause([1])
        assert result_assumed.satisfiable == solve(with_unit).satisfiable


class TestBruteForce:
    def test_count_models(self):
        assert count_models(cnf_of(2, [[1, 2]])) == 3

    def test_refuses_large_instances(self):
        with pytest.raises(SolverError):
            brute_solve(CNF(30))
