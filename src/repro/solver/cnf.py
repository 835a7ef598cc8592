"""CNF containers and variable pools.

Literals follow the DIMACS convention: a variable is a positive integer,
its negation the corresponding negative integer. :class:`VarPool` hands
out variables keyed by arbitrary hashable names so encoders never juggle
raw integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Hashable, Iterable, Iterator

from repro.errors import SolverError

#: A literal: nonzero int, sign is polarity.
Lit = int
#: A clause: tuple of literals (disjunction).
Clause = tuple[Lit, ...]


def is_int(value: object) -> bool:
    """True for an ``int`` that is not a ``bool`` (``True`` is no literal)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class CNF:
    """A conjunction of clauses over variables ``1..num_vars``."""

    num_vars: int = 0
    clauses: list[Clause] = field(default_factory=list)

    def new_var(self) -> int:
        """Allocate a fresh variable."""
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, literals: Iterable[Lit]) -> None:
        """Add one clause; validates literals against ``num_vars``."""
        clause = tuple(literals)
        top = self.num_vars
        for lit in clause:
            if type(lit) is int and lit and -top <= lit <= top:
                continue  # the common case: a plain in-range int
            if not isinstance(lit, int) or isinstance(lit, bool):
                raise SolverError(f"literal {lit!r} is not an int")
            if lit == 0:
                raise SolverError("0 is not a literal")
            if abs(lit) > self.num_vars:
                raise SolverError(
                    f"literal {lit} references variable beyond num_vars={self.num_vars}"
                )
        self.clauses.append(clause)

    def copy(self) -> "CNF":
        """An independent copy (clause tuples are shared, list is not)."""
        duplicate = CNF(self.num_vars)
        duplicate.clauses = list(self.clauses)
        return duplicate

    def __len__(self) -> int:
        return len(self.clauses)

    def to_dimacs(self) -> str:
        """Serialise in DIMACS CNF format."""
        lines = [f"p cnf {self.num_vars} {len(self.clauses)}"]
        for clause in self.clauses:
            lines.append(" ".join(str(l) for l in clause) + " 0")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_dimacs(text: str) -> "CNF":
        """Parse DIMACS CNF text."""
        cnf = CNF()
        declared_vars = None
        pending: list[int] = []
        for raw_line in text.splitlines():
            line = raw_line.strip()
            if not line or line.startswith("c"):
                continue
            if line.startswith("p"):
                parts = line.split()
                if len(parts) != 4 or parts[1] != "cnf":
                    raise SolverError(f"bad DIMACS header: {line!r}")
                declared_vars = int(parts[2])
                cnf.num_vars = declared_vars
                continue
            for token in line.split():
                lit = int(token)
                if lit == 0:
                    cnf.add_clause(pending)
                    pending = []
                else:
                    if declared_vars is None:
                        raise SolverError("clause before DIMACS header")
                    pending.append(lit)
        if pending:
            raise SolverError("trailing literals without terminating 0")
        return cnf


class VarPool:
    """Allocates CNF variables keyed by hashable names.

    >>> cnf = CNF()
    >>> pool = VarPool(cnf)
    >>> a = pool.var(("alive", "f1"))
    >>> pool.var(("alive", "f1")) == a
    True
    """

    def __init__(self, cnf: CNF) -> None:
        self._cnf = cnf
        self._by_name: dict[Hashable, int] = {}
        self._by_var: dict[int, Hashable] = {}

    def var(self, name: Hashable) -> int:
        """The variable for ``name``, allocated on first use."""
        existing = self._by_name.get(name)
        if existing is not None:
            return existing
        fresh = self._cnf.new_var()
        self._by_name[name] = fresh
        self._by_var[fresh] = name
        return fresh

    def has(self, name: Hashable) -> bool:
        return name in self._by_name

    def name_of(self, var: int) -> Hashable | None:
        """The name of ``var``, or ``None`` for anonymous (auxiliary) vars."""
        return self._by_var.get(abs(var))

    def names(self) -> Iterator[Hashable]:
        return iter(self._by_name)

    def __len__(self) -> int:
        return len(self._by_name)
