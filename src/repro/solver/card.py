"""Totalizer cardinality encoding (Bailleux & Boufkhad).

Builds, for input literals ``l1..ln``, a balanced tree whose root
exposes *unary counter* outputs ``o1..on`` with ``oi ⟺ at least i
inputs are true`` (both implication directions are encoded). Cardinality
bounds are then single unit clauses — which is what lets the enforcement
engines tighten or loosen distance bounds cheaply.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import SolverError
from repro.solver.cnf import CNF, Lit


class Totalizer:
    """A totalizer over ``literals``; exposes sorted unary outputs.

    >>> cnf = CNF(); a, b = cnf.new_var(), cnf.new_var()
    >>> tot = Totalizer(cnf, [a, b])
    >>> len(tot.outputs)
    2
    """

    #: Process-wide construction count; the translation-count tests read
    #: deltas to assert encodings are built once per session, not per call.
    built = 0

    def __init__(self, cnf: CNF, literals: Sequence[Lit]) -> None:
        if not literals:
            raise SolverError("totalizer needs at least one literal")
        Totalizer.built += 1
        self._cnf = cnf
        self.literals = tuple(literals)
        self.outputs = self._build(list(literals))

    def _build(self, literals: list[Lit]) -> list[Lit]:
        if len(literals) == 1:
            return literals
        mid = len(literals) // 2
        left = self._build(literals[:mid])
        right = self._build(literals[mid:])
        return self._merge(left, right)

    def _merge(self, left: list[Lit], right: list[Lit]) -> list[Lit]:
        a, b = len(left), len(right)
        outputs = [self._cnf.new_var() for _ in range(a + b)]
        for i in range(a + 1):
            for j in range(b + 1):
                k = i + j
                if k >= 1:
                    # left>=i and right>=j  =>  out>=i+j
                    clause = [outputs[k - 1]]
                    if i >= 1:
                        clause.append(-left[i - 1])
                    if j >= 1:
                        clause.append(-right[j - 1])
                    self._cnf.add_clause(clause)
                if k < a + b:
                    # left<=i and right<=j  =>  out<=i+j
                    clause = [-outputs[k]]
                    if i < a:
                        clause.append(left[i])
                    if j < b:
                        clause.append(right[j])
                    self._cnf.add_clause(clause)
        return outputs

    # ------------------------------------------------------------------
    # Bounds
    # ------------------------------------------------------------------
    def at_most_assumption(self, k: int) -> list[Lit]:
        """Assumption literals enforcing ``count <= k`` (empty if trivial)."""
        if k < 0:
            raise SolverError(f"negative cardinality bound {k}")
        if k >= len(self.outputs):
            return []
        return [-self.outputs[k]]

    def at_least_assumption(self, k: int) -> list[Lit]:
        """Assumption literals enforcing ``count >= k``."""
        if k <= 0:
            return []
        if k > len(self.outputs):
            raise SolverError(
                f"cannot require {k} of {len(self.outputs)} literals"
            )
        return [self.outputs[k - 1]]

    def assert_at_least(self, k: int) -> None:
        """Permanently assert ``count >= k``."""
        for lit in self.at_least_assumption(k):
            self._cnf.add_clause([lit])


class TotalizerCache:
    """Memoised totalizer builds over one shared CNF.

    A totalizer's counter tree is *definitional* — the clauses tie the
    output literals to the input count and assert nothing by themselves
    — so a build over the same input literals can be reused by any later
    grounding onto the same CNF. :class:`repro.solver.bounded.GroundingContext`
    keeps one of these so re-grounding a question (after an
    out-of-universe edit) only builds counters for literal sets it has
    never seen.
    """

    def __init__(self, cnf: CNF) -> None:
        self._cnf = cnf
        self._built: dict[tuple[Lit, ...], Totalizer] = {}

    def get(self, literals: Sequence[Lit]) -> Totalizer:
        """The totalizer over ``literals``, built at most once."""
        key = tuple(literals)
        totalizer = self._built.get(key)
        if totalizer is None:
            totalizer = Totalizer(self._cnf, key)
            self._built[key] = totalizer
        return totalizer

    def __len__(self) -> int:
        return len(self._built)


def at_most_one_pairwise(
    cnf: CNF, literals: Sequence[Lit], emit=None
) -> None:
    """The quadratic at-most-one encoding (fine for small groups).

    ``emit`` overrides how each clause is added — e.g. the grounder's
    deduplicating context-aware sink — and defaults to
    ``cnf.add_clause``.
    """
    add = cnf.add_clause if emit is None else emit
    for i in range(len(literals)):
        for j in range(i + 1, len(literals)):
            add([-literals[i], -literals[j]])


def exactly_one(cnf: CNF, literals: Sequence[Lit]) -> None:
    """Exactly-one via pairwise at-most-one plus the covering clause."""
    if not literals:
        raise SolverError("exactly_one needs at least one literal")
    cnf.add_clause(list(literals))
    at_most_one_pairwise(cnf, literals)
