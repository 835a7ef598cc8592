"""Tests for invocation direction typing (paper, section 2.3)."""

import pytest

from repro.deps.dependency import Dependency
from repro.deps.typecheck import (
    CallSite,
    check_invocation,
    check_transformation_invocations,
    restrict_direction,
)
from repro.errors import DependencyError


class TestRestrictDirection:
    def test_restricts_sources_to_callee_domains(self):
        direction = Dependency(("m1", "m2"), "m3")
        induced = restrict_direction(direction, ["m1", "m3"])
        assert induced == Dependency(("m1",), "m3")

    def test_missing_target_domain_rejected(self):
        """The paper's example: a relation over CF^k has no FM direction."""
        direction = Dependency(("cf1", "cf2"), "fm")
        with pytest.raises(DependencyError, match="cannot be run"):
            restrict_direction(direction, ["cf1", "cf2"])


class TestCheckInvocation:
    def test_legal_direct_match(self):
        reason = check_invocation(
            Dependency(("m1",), "m2"), ["m1", "m2"], [Dependency(("m1",), "m2")]
        )
        assert reason is None

    def test_paper_entailed_direction(self):
        """R = {M1->M2, M2->M3} may be called as R_{M1->M3}."""
        callee_deps = [Dependency(("m1",), "m2"), Dependency(("m2",), "m3")]
        reason = check_invocation(
            Dependency(("m1",), "m3"), ["m1", "m2", "m3"], callee_deps
        )
        assert reason is None

    def test_paper_illegal_opposite(self):
        """R = {M1->M2} must not call S = {M2->M1}."""
        reason = check_invocation(
            Dependency(("m1",), "m2"), ["m1", "m2"], [Dependency(("m2",), "m1")]
        )
        assert reason is not None
        assert "do not entail" in reason

    def test_missing_domain_reported(self):
        """The paper's S over CF^k only: no call towards FM is legal."""
        for sources in (("cf1",), ("cf1", "cf2")):
            reason = check_invocation(
                Dependency(sources, "fm"),
                ["cf1", "cf2"],
                [Dependency(("cf1",), "cf2")],
            )
            assert reason is not None
            assert "cannot be run" in reason


class TestTransformationInvocations:
    def _tables(self):
        domains = {
            "R": ["m1", "m2"],
            "S": ["m1", "m2"],
        }
        deps = {
            "R": [Dependency(("m1",), "m2")],
            "S": [Dependency(("m2",), "m1")],
        }
        return domains, deps

    def test_illegal_call_flagged(self):
        domains, deps = self._tables()
        issues = check_transformation_invocations(
            domains, deps, [CallSite("R", "S", "where")]
        )
        assert len(issues) == 1
        assert issues[0].caller == "R"
        assert issues[0].callee == "S"
        assert "do not entail" in str(issues[0])

    def test_legal_call_passes(self):
        domains, deps = self._tables()
        deps["S"] = [Dependency(("m1",), "m2")]
        issues = check_transformation_invocations(
            domains, deps, [CallSite("R", "S", "when")]
        )
        assert issues == []

    def test_every_caller_direction_checked(self):
        domains = {"R": ["m1", "m2"], "S": ["m1", "m2"]}
        deps = {
            "R": [Dependency(("m1",), "m2"), Dependency(("m2",), "m1")],
            "S": [Dependency(("m1",), "m2")],  # cannot run m2 -> m1
        }
        issues = check_transformation_invocations(
            domains, deps, [CallSite("R", "S")]
        )
        assert len(issues) == 1
        assert issues[0].direction == Dependency(("m2",), "m1")

    def test_long_call_cycle_is_clean(self):
        """200 relations R ≡ {M1->M2, M2->M3}, each calling the next in a
        cycle: every call direction is entailed, so nothing is flagged."""
        n = 200
        domains = {f"R{i}": ["m1", "m2", "m3"] for i in range(n)}
        deps = {
            f"R{i}": [Dependency(("m1",), "m2"), Dependency(("m2",), "m3")]
            for i in range(n)
        }
        sites = [CallSite(f"R{i}", f"R{(i + 1) % n}") for i in range(n)]
        assert check_transformation_invocations(domains, deps, sites) == []

    def test_unknown_relations_reported(self):
        issues = check_transformation_invocations(
            {"R": ["m1"]}, {"R": []}, [CallSite("R", "Ghost"), CallSite("Ghost2", "R")]
        )
        reasons = {i.reason for i in issues}
        assert any("unknown callee" in r for r in reasons)
        assert any("unknown caller" in r for r in reasons)
