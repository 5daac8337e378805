"""queerlab: exact computations with strict partitions, Schur P/Q functions,
Hecke-Clifford (super)algebras, and the queer matrix algebra A(n,m).

All arithmetic happens in the Gaussian rationals Q(zeta), zeta a square root
of -1, so every coefficient is exact and nothing is ever rounded.
"""

# Every module is imported here, not lazily: bench/tracer.py wraps each layer
# it finds in sys.modules once `queerlab.cli` is imported.
from .scalars import Cyclo8Scalar, ONE, ZERO, ZETA
from .partitions import (
    StrictPartition,
    contains,
    delta,
    enumerate_strict,
    staircase,
)
from .linalg import Echelon
from .spoly import p_mul
from .symfunc import (
    Q_poly,
    cauchy_check,
    expand_in_Q,
    gamma_product,
    induct_mult,
    pieri,
)
from .heckeclifford import (
    IsotypicTable,
    decompose_regular,
    verify_tensor_ideal_theorem,
)
from .queer import dim_T
from .amodule import one_box_steps, singular_vectors
from .dimcheck import hom_dim_check
from .jets import phi_map, psi_map

__version__ = "0.1.0"
