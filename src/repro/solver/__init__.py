"""Bounded model finding: the reproduction's Alloy/Kodkod analogue.

Echo embeds QVT-R checking semantics into Alloy and searches for
consistent models at increasing distance from the originals (later via a
PMax-SAT solver). This package supplies the same machinery from scratch:

* :mod:`repro.solver.cnf` — literals, clauses, DIMACS;
* :mod:`repro.solver.sat` — the one CDCL SAT core (flat arrays:
  watched literals, VSIDS heap, first-UIP learning, Luby restarts) with
  a persistent incremental interface (assumption solving, between-call
  clause addition, failed cores); the tests certify each of its answers
  by reverse unit propagation;
* :mod:`repro.solver.brute` — a truth-table reference solver (test oracle);
* :mod:`repro.solver.tseitin` — propositional formulas to CNF;
* :mod:`repro.solver.card` — totalizer cardinality encoding;
* :mod:`repro.solver.maxsat` — weighted partial MaxSAT (increasing-bound
  search, the Echo loop; and decreasing linear search);
* :mod:`repro.solver.bounded` — grounding of directional checks over a
  bounded universe into propositional constraints.
"""

from repro.solver.cnf import CNF, Lit, VarPool
from repro.solver.sat import IncrementalSolver, SatResult, SolverStats, solve
from repro.solver.tseitin import (
    PFALSE,
    PTRUE,
    PAnd,
    PIff,
    PImplies,
    PNot,
    POr,
    PVar,
    to_cnf,
)

__all__ = [
    "CNF",
    "Lit",
    "VarPool",
    "solve",
    "IncrementalSolver",
    "SatResult",
    "SolverStats",
    "PVar",
    "PAnd",
    "POr",
    "PNot",
    "PImplies",
    "PIff",
    "PTRUE",
    "PFALSE",
    "to_cnf",
]
