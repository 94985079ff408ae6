"""Boolean satisfiability subsystem.

The paper's probe generator converts the Hit/Distinguish/Collect
constraints into plain CNF and feeds them to PicoSAT, using a custom
Cython conversion and the DIMACS format (§7).  This package is the
pure-Python equivalent:

* :mod:`repro.sat.cnf` — a CNF container with variable allocation and
  flat one-dimensional clause storage (the paper found vector-of-vectors
  allocation to be the conversion bottleneck; we keep the flat layout).
* :mod:`repro.sat.encode` — formula-level building blocks: conjunction,
  disjunction with Tseitin auxiliary variables, and the asserted
  if-then-else chain in linear size.
* :mod:`repro.sat.solver` — a DPLL solver with two-watched-literal
  propagation, false-first decisions in variable order and
  chronological backtracking (the PicoSAT stand-in).  The paper's
  CDCL is not needed: the Hit ∧ Collect cube fold leaves the solver a
  residue that rarely meets a conflict.  Like the paper's, every probe
  is one fresh, one-shot solve (§5, §7).
"""

from repro.sat.cnf import CNF, Lit
from repro.sat.encode import (
    assert_if_chain,
    clause_and,
    clause_or,
)
from repro.sat.solver import SatResult, SatSolver, solve

__all__ = [
    "CNF",
    "Lit",
    "assert_if_chain",
    "clause_and",
    "clause_or",
    "SatResult",
    "SatSolver",
    "solve",
]
