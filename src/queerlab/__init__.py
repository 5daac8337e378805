"""queerlab: exact computations with strict partitions, Schur P/Q functions,
Hecke-Clifford (super)algebras, and the queer matrix algebra A(n,m).

All arithmetic happens in the Gaussian rationals Q(zeta), zeta a square root
of -1, so every coefficient is exact and nothing is ever rounded.
"""

from .scalars import Cyclo8Scalar, ONE, ZERO, ZETA
from .partitions import (
    PosetIdeal,
    StrictPartition,
    contains,
    delta,
    enumerate_strict,
    ideal_member,
    staircase,
)
from .symfunc import (
    GammaElement,
    Q_poly,
    cauchy_check,
    expand_in_Q,
    gamma_product,
    induct_mult,
    pieri,
)
from .heckeclifford import (
    HCElement,
    IsotypicTable,
    braid,
    decompose_regular,
    iota,
    sigma_step,
    transpose,
    two_sided_closure,
    verify_tensor_ideal_theorem,
)
from .queer import QnElement, act_on_U, act_on_V, bracket, chevalley, dim_T, hk_decompose
from .amodule import (
    SuperPoly,
    act,
    determinantal_ideal_check,
    ideal_closure,
    m_stability_check,
    singular_vectors,
    summand_membership,
    verify_main_theorem,
    weight_space,
)
from .dimcheck import hom_dim_check
from .jets import phi_map, psi_map

__version__ = "0.1.0"
