"""Tests for checking dependencies and Horn entailment.

Includes the paper's own entailment examples (section 2.2/2.3) and a
property-based comparison against truth-table Horn semantics.
"""

import itertools

import pytest
from hypothesis import given, settings

from repro.deps.dependency import (
    Dependency,
    dependency,
    format_dependencies,
    parse_dependencies,
    parse_dependency,
    standard_dependencies,
    validate_against_domains,
)
from repro.deps.horn import (
    Query,
    closure,
    entails,
    entails_all,
    entails_query,
    minimal_equivalent,
    query_multi_target,
    query_union_source,
)
from repro.errors import DependencyError
from repro.featuremodels import paper_transformation
from tests.strategies import dependencies, dependency_sets


class TestDependency:
    def test_target_in_sources_rejected(self):
        with pytest.raises(DependencyError):
            Dependency(("a", "b"), "a")

    def test_empty_target_rejected(self):
        with pytest.raises(DependencyError):
            Dependency(("a",), "")

    def test_empty_sources_allowed(self):
        dep = Dependency((), "a")
        assert dep.sources == frozenset()

    def test_domains(self):
        assert Dependency(("a", "b"), "c").domains() == {"a", "b", "c"}

    def test_total_order(self):
        deps = [
            Dependency(("b",), "a"),
            Dependency(("a",), "b"),
            Dependency(("a", "b"), "c"),
        ]
        ordered = sorted(deps)
        assert ordered == sorted(reversed(deps))
        assert str(ordered[0]) == "a -> b"

    def test_str(self):
        assert str(Dependency(("cf1", "cf2"), "fm")) == "cf1 cf2 -> fm"
        assert str(Dependency((), "fm")) == "() -> fm"

    def test_keyword_constructor(self):
        assert dependency("a", "b", target="c") == Dependency(("a", "b"), "c")


class TestParsing:
    def test_parse_simple(self):
        assert parse_dependency("cf1 cf2 -> fm") == Dependency(("cf1", "cf2"), "fm")

    def test_parse_empty_sources(self):
        assert parse_dependency("-> fm") == Dependency((), "fm")
        assert parse_dependency("() -> fm") == Dependency((), "fm")

    def test_parse_commas_tolerated(self):
        assert parse_dependency("a, b -> c") == Dependency(("a", "b"), "c")

    def test_parse_missing_arrow(self):
        with pytest.raises(DependencyError, match="->"):
            parse_dependency("a b c")

    def test_parse_multi_target_rejected(self):
        with pytest.raises(DependencyError, match="one target"):
            parse_dependency("a -> b c")

    def test_parse_many(self):
        deps = parse_dependencies("a -> b; b -> c\n c -> d")
        assert len(deps) == 3

    def test_format_roundtrip(self):
        deps = frozenset({Dependency(("a",), "b"), Dependency(("b",), "c")})
        assert parse_dependencies(format_dependencies(deps)) == deps


class TestStandardDependencies:
    def test_binary_case(self):
        deps = standard_dependencies(["m1", "m2"])
        assert deps == {Dependency(("m2",), "m1"), Dependency(("m1",), "m2")}

    def test_ternary_case_matches_paper(self):
        """For (cf1, cf2, fm) the standard runs three directional tests,
        each against all other domains (section 2)."""
        deps = standard_dependencies(["cf1", "cf2", "fm"])
        assert Dependency(("cf1", "cf2"), "fm") in deps
        assert Dependency(("cf2", "fm"), "cf1") in deps
        assert Dependency(("cf1", "fm"), "cf2") in deps
        assert len(deps) == 3

    def test_unannotated_relation_defaults_to_the_standard_set(self):
        """Section 2.2's conservativity hinge: the paper's MF without
        ``depends`` runs exactly the standard directional tests."""
        relation = paper_transformation(2, annotated=False).relation("MF")
        assert relation.effective_dependencies() == standard_dependencies(
            relation.domain_params()
        )

    def test_duplicates_rejected(self):
        with pytest.raises(DependencyError):
            standard_dependencies(["a", "a"])

    def test_empty_rejected(self):
        with pytest.raises(DependencyError):
            standard_dependencies([])

    def test_validate_against_domains(self):
        deps = {Dependency(("a",), "b")}
        validate_against_domains(deps, ["a", "b"])
        with pytest.raises(DependencyError, match="undeclared"):
            validate_against_domains(deps, ["a"])


class TestHornEntailment:
    def test_reflexive(self):
        assert entails([], Dependency(("a",), "a2")) is False
        assert entails([Dependency(("a",), "b")], Dependency(("a",), "b"))

    def test_paper_transitivity_example(self):
        """Section 2.3: {M1->M2, M2->M3} |- M1->M3 legitimises R_{M1->M3}."""
        deps = [Dependency(("m1",), "m2"), Dependency(("m2",), "m3")]
        assert entails(deps, Dependency(("m1",), "m3"))

    def test_paper_illegal_call_example(self):
        """Section 2.3: R = {M1->M2} must not call S = {M2->M1}."""
        assert not entails([Dependency(("m1",), "m2")], Dependency(("m2",), "m1"))

    def test_paper_multi_target_example(self):
        """Section 2.2: {M1->M2, M1->M3} |- M1 -> M2 M3."""
        deps = [Dependency(("m1",), "m2"), Dependency(("m1",), "m3")]
        assert entails_query(deps, query_multi_target(["m1"], ["m2", "m3"]))
        assert not entails_query(deps, query_multi_target(["m2"], ["m1"]))

    def test_paper_union_source_example(self):
        """Section 2.2: {M1->M3, M2->M3} |- M1 | M2 -> M3."""
        deps = [Dependency(("m1",), "m3"), Dependency(("m2",), "m3")]
        assert entails_query(deps, query_union_source([["m1"], ["m2"]], "m3"))
        # One clause alone does not give the union-source dependency.
        assert not entails_query(
            [Dependency(("m1",), "m3")], query_union_source([["m1"], ["m2"]], "m3")
        )

    @pytest.mark.parametrize("n", [100, 300, 1000, 3000, 10000])
    def test_long_chain_entailment(self, n):
        """Dependencies are Horn clauses, so forward chaining decides
        d0 -> dn through n clauses (every other step has two premises).
        The paper's linear-time claim is not timed here: a wall-clock
        bound measures the host, and ``closure`` counts down each
        clause premise once by construction."""
        deps = [
            Dependency(
                (f"d{i}",) if i % 2 == 0 else (f"d{i}", f"d{i - 1}"), f"d{i + 1}"
            )
            for i in range(n)
        ]
        assert entails(deps, Dependency(("d0",), f"d{n}"))

    def test_wider_sources_still_entail(self):
        deps = [Dependency(("m1",), "m2")]
        assert entails(deps, Dependency(("m1", "m3"), "m2"))

    def test_entails_all(self):
        deps = standard_dependencies(["a", "b", "c"])
        assert entails_all(deps, deps)

    def test_closure(self):
        deps = [Dependency(("a",), "b"), Dependency(("b",), "c")]
        assert closure(deps, ["a"]) == {"a", "b", "c"}
        assert closure(deps, ["b"]) == {"b", "c"}

    def test_closure_with_empty_source_clause(self):
        deps = [Dependency((), "a"), Dependency(("a",), "b")]
        assert closure(deps, []) == {"a", "b"}

    def test_minimal_equivalent_drops_redundant(self):
        deps = frozenset(
            {
                Dependency(("a",), "b"),
                Dependency(("b",), "c"),
                Dependency(("a",), "c"),  # implied by the other two
            }
        )
        minimal = minimal_equivalent(deps)
        assert Dependency(("a",), "c") not in minimal
        assert len(minimal) == 2

    @given(deps=dependency_sets(), query=dependencies())
    @settings(max_examples=150, deadline=None)
    def test_against_truth_table(self, deps, query):
        """Forward chaining agrees with propositional Horn semantics."""
        domains = sorted({d for dep in deps for d in dep.domains()} | query.domains())
        expected = True
        for bits in itertools.product((False, True), repeat=len(domains)):
            valuation = dict(zip(domains, bits))
            clauses_hold = all(
                (not all(valuation[s] for s in dep.sources)) or valuation[dep.target]
                for dep in deps
            )
            premise = all(valuation[s] for s in query.sources)
            if clauses_hold and premise and not valuation[query.target]:
                expected = False
                break
        assert entails(deps, query) == expected


class TestQuery:
    def test_query_validation(self):
        with pytest.raises(DependencyError):
            Query([], ["a"])
        with pytest.raises(DependencyError):
            Query([["a"]], [])
        with pytest.raises(DependencyError, match="sources"):
            Query([["a"]], ["a"])

    def test_query_str(self):
        q = Query([["m1"], ["m2"]], ["m3"])
        assert str(q) == "m1 | m2 -> m3"
