"""Totalizer cardinality encoding (Bailleux & Boufkhad), built on demand.

For input literals ``l1..ln`` a balanced tree of counters computes
*unary counter* outputs ``o1..on`` with ``oi ⟺ at least i inputs are
true`` (both implication directions are encoded). Cardinality bounds
are then single assumption literals — which is what lets the
enforcement engines tighten or loosen distance bounds cheaply.

The tree is *iterative* in the sense of Martins, Joshi, Manquinho &
Lynce, "Incremental Cardinality Constraints for MaxSAT" (CP 2014): the
constructor lays out the balanced tree and encodes nothing, and each
bound asks only for the outputs it reads — ``count <= k`` needs
``o1..o(k+1)``, ``count >= k`` needs ``o1..ok``. Asking for more
outputs later extends every node in place, adding only the clauses
whose target index is new. Those clauses all mention a fresh output
variable, so they are definitional: an extension never removes a model
of the clauses already emitted, and a solver that has answered queries
over them stays sound after loading the extension.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import SolverError
from repro.solver.cnf import CNF, Lit


class _Node:
    """One counter of the tree: ``outputs[i]`` ⟺ at least ``i+1`` of
    its ``size`` leaves are true, for the outputs built so far."""

    __slots__ = ("left", "right", "size", "outputs")

    def __init__(
        self, left: _Node | None, right: _Node | None, size: int, outputs: list[Lit]
    ) -> None:
        self.left = left
        self.right = right
        self.size = size
        self.outputs = outputs


class Totalizer:
    """A totalizer over ``literals``; builds its sorted unary outputs on demand.

    >>> cnf = CNF(); a, b, c = cnf.new_var(), cnf.new_var(), cnf.new_var()
    >>> tot = Totalizer(cnf, [a, b, c])
    >>> len(tot.outputs), len(cnf)
    (0, 0)
    >>> tot.at_most_assumption(0) == [-tot.outputs[0]]
    True
    >>> len(tot.outputs)
    1
    >>> tot.at_most_assumption(3)  # count <= 3 always holds: builds nothing
    []
    >>> tot.at_least_assumption(3) == [tot.outputs[2]]
    True
    >>> len(tot.outputs)
    3
    """

    #: Process-wide construction count; the translation-count tests read
    #: deltas to assert encodings are built once per session, not per call.
    #: Extending the outputs of an existing totalizer is not a build.
    built = 0

    def __init__(self, cnf: CNF, literals: Sequence[Lit]) -> None:
        if not literals:
            raise SolverError("totalizer needs at least one literal")
        Totalizer.built += 1
        self._cnf = cnf
        self.literals = tuple(literals)
        self._root = self._tree(self.literals)

    @property
    def outputs(self) -> list[Lit]:
        """The root outputs built so far: ``outputs[i]`` ⟺ count > ``i``."""
        return self._root.outputs

    def _tree(self, literals: Sequence[Lit]) -> _Node:
        if len(literals) == 1:
            return _Node(None, None, 1, [literals[0]])
        mid = len(literals) // 2
        return _Node(
            self._tree(literals[:mid]), self._tree(literals[mid:]),
            len(literals), [],
        )

    def _extend(self, node: _Node, wanted: int) -> None:
        """Build ``node``'s outputs up to ``min(wanted, size)``.

        Children are extended first; then the node gets its new output
        variables and exactly the clauses whose target index ``t`` is
        new (``old < t <= new``): ``left >= i and right >= j`` implies
        ``out >= t`` for ``i + j = t``, and ``left <= i and right <= j``
        implies ``out <= i + j`` for ``i + j = t - 1``. A node already
        that large was extended together with its whole subtree.
        """
        old = len(node.outputs)
        new = min(wanted, node.size)
        if new <= old:
            return
        left, right = node.left, node.right
        assert left is not None and right is not None
        self._extend(left, new)
        self._extend(right, new)
        outputs = node.outputs
        outputs.extend(self._cnf.new_var() for _ in range(new - old))
        lo, ro = left.outputs, right.outputs
        a, b = left.size, right.size
        add = self._cnf.add_clause
        for i in range(min(a, new) + 1):
            for j in range(max(0, old - i), min(b, new - i) + 1):
                k = i + j
                if k > old:
                    # left>=i and right>=j  =>  out>=i+j
                    clause = [outputs[k - 1]]
                    if i >= 1:
                        clause.append(-lo[i - 1])
                    if j >= 1:
                        clause.append(-ro[j - 1])
                    add(clause)
                if k < new:
                    # left<=i and right<=j  =>  out<=i+j
                    clause = [-outputs[k]]
                    if i < a:
                        clause.append(lo[i])
                    if j < b:
                        clause.append(ro[j])
                    add(clause)

    # ------------------------------------------------------------------
    # Bounds
    # ------------------------------------------------------------------
    def at_most_assumption(self, k: int) -> list[Lit]:
        """Assumption literals enforcing ``count <= k`` (empty if trivial).

        Builds the outputs up to ``o(k+1)`` first; a trivial bound
        (``k >= len(literals)``) builds nothing.
        """
        if k < 0:
            raise SolverError(f"negative cardinality bound {k}")
        if k >= len(self.literals):
            return []
        self._extend(self._root, k + 1)
        return [-self.outputs[k]]

    def at_least_assumption(self, k: int) -> list[Lit]:
        """Assumption literals enforcing ``count >= k`` (builds up to ``ok``)."""
        if k <= 0:
            return []
        if k > len(self.literals):
            raise SolverError(
                f"cannot require {k} of {len(self.literals)} literals"
            )
        self._extend(self._root, k)
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
    grounding onto the same CNF; a later grounding that asks a larger
    bound extends the cached counter in place. :class:`repro.solver.bounded.GroundingContext`
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
