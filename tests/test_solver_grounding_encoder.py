"""The grounder's clause encoder: one clause per binding, one-directional
definitions.

A directional check grounds each source binding to the single clause
``[-selector] + [-g for g in guard] + [conclusion]``, where the
conclusion is a disjunction of template conjunctions defined through
aux literals that only *imply* what they stand for (``t -> a`` and
``c -> t1 | ... | tm``), cached by literal tuple on the
``GroundingContext``.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.engine import Checker
from repro.featuremodels import configuration, feature_model, paper_transformation
from repro.solver.bounded import Grounder, GroundingContext, Scope
from repro.solver.maxsat import MaxSatSession
from repro.solver.sat import solve

_ATOMS = 4


def _directions(transformation):
    checker = Checker(transformation)
    return [
        (relation, dependency)
        for relation in transformation.top_relations()
        for dependency in checker.directions_of(relation)
    ]


def _paper_models():
    return {
        "fm": feature_model({"core": True, "log": True}),  # cf2 lacks log
        "cf1": configuration(["core", "log"], name="cf1"),
        "cf2": configuration(["core"], name="cf2"),
    }


def _grounder(context):
    """A grounder of the paper tuple onto ``context``, with cf2 the
    target."""
    transformation = paper_transformation(2)
    return Grounder(
        transformation,
        _paper_models(),
        frozenset({"cf2"}),
        _directions(transformation),
        scope=Scope(extra_objects=1),
        context=context,
    )


_literal = st.builds(
    lambda index, positive: index if positive else -index,
    st.integers(1, _ATOMS),
    st.booleans(),
)


class TestBindingClause:
    @given(
        guard=st.lists(_literal, max_size=3),
        disjuncts=st.lists(st.lists(_literal, min_size=1, max_size=3), max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_sat_exactly_when_guard_implies_conclusion(self, guard, disjuncts):
        """For every assignment of the atoms, the emitted clauses plus the
        atom and selector assumptions are SAT exactly when guard ->
        conclusion holds (an empty disjunction is false)."""
        context = GroundingContext()
        grounder = _grounder(context)
        atoms = [context.pool.var(("atom", i)) for i in range(_ATOMS)]

        def lit(code):
            return atoms[abs(code) - 1] if code > 0 else -atoms[abs(code) - 1]

        conclusion = (
            context.disjunction(
                tuple(context.conjunction(tuple(map(lit, d))) for d in disjuncts)
            )
            if disjuncts
            else None
        )
        grounder._imply([lit(g) for g in guard], conclusion)
        for bits in itertools.product((False, True), repeat=_ATOMS):
            holds = lambda code: bits[abs(code) - 1] == (code > 0)
            expected = not all(map(holds, guard)) or any(
                all(map(holds, d)) for d in disjuncts
            )
            assumptions = [a if bit else -a for a, bit in zip(atoms, bits)]
            assumptions.append(grounder.selector)
            assert solve(context.cnf, assumptions).satisfiable == expected
            # Unselected, the binding clause binds nothing.
            assert solve(context.cnf, assumptions[:-1]).satisfiable

    def test_false_conclusion_under_a_true_guard_refutes_the_selector(self):
        context = GroundingContext()
        grounder = _grounder(context)
        before = len(context.cnf)
        grounder._imply([], None)
        assert context.cnf.clauses[before:] == [(-grounder.selector,)]

    def test_definitions_are_cached_by_literal_tuple(self):
        context = GroundingContext()
        a, b, c = (context.pool.var(name) for name in "abc")
        t = context.conjunction((a, b))
        assert context.conjunction((a, b)) == t
        assert context.conjunction((a,)) == a
        assert context.disjunction((t, c)) == context.disjunction((t, c))
        assert context.disjunction((c,)) == c
        # A conjunction and a disjunction over one tuple are different aux.
        assert context.disjunction((a, b)) != t
        assert context.cnf.clauses[-1] == (-context.disjunctions[(a, b)], a, b)


class TestSharedContext:
    def test_second_generation_reuses_definitions(self):
        """A second grounding of the same state onto a shared context
        reuses every cached conjunction and disjunction: it adds no
        definitional clause, only clauses its own selectors guard, and
        answers the same optimum."""
        context = GroundingContext()
        first = _grounder(context)
        first_result = first.ground()
        conjunctions = dict(context.conjunctions)
        disjunctions = dict(context.disjunctions)
        assert conjunctions and disjunctions
        before = len(context.cnf)
        second = _grounder(context)
        second_result = second.ground()
        assert context.conjunctions == conjunctions
        assert context.disjunctions == disjunctions
        guards = {-second.selector, -second.symmetry_selector}
        added = context.cnf.clauses[before:]
        assert added and all(guards & set(clause) for clause in added)

        def optimum(result):
            session = MaxSatSession(result.cnf)
            objective, budget = result.origin_assumptions(_paper_models())
            return session.solve_optimal(
                assumptions=result.base_assumptions() + budget,
                objective=objective,
            ).cost

        # cf2 gains a log object: its alive and name atoms.
        assert optimum(second_result) == optimum(first_result) == 2

    def test_decoding_allocates_no_variable(self):
        context = GroundingContext()
        grounder = _grounder(context)
        grounder.ground()
        num_vars = context.cnf.num_vars
        decoded = grounder.decode({v: False for v in range(1, num_vars + 1)})
        assert context.cnf.num_vars == num_vars
        assert decoded["cf2"].size() == 0
