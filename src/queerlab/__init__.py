"""queerlab: exact computations with strict partitions, Schur P/Q functions,
Hecke-Clifford (super)algebras, and the queer matrix algebra A(n,m).

Every layer runs on ints but `jets`, the one module that imports
`Cyclo8Scalar`, the Gaussian rationals Q(zeta), zeta a square root of -1;
`spoly` runs on whatever coefficients it is given. A(n,m) takes its left
odd operators as zeta times the ones the half tensor product induces, so
that their matrices are integral. Every coefficient is exact and nothing is
ever rounded.
"""

# Every module is imported here, not lazily: bench/tracer.py wraps each layer
# it finds in sys.modules once `queerlab.cli` is imported.
from . import scalars, partitions, linalg, spoly, symfunc, heckeclifford, queer, amodule, dimcheck, jets

__version__ = "0.1.0"
