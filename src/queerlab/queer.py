"""The queer Lie (super)algebra q_n on V = C^{n|n}: Sergeev-dual dimensions
of its simple polynomial representations T_lambda.

Its basis operators X_ab, Y_ab, the keys (kind, a, b), act through
`amodule._monomial_image`: on A(n,m), and on the line algebras A(n,1) and
A(1,m), which are S(V) and S(W) (`amodule._sing_system`)."""

from __future__ import annotations

from math import factorial

from .heckeclifford import decompose_regular
from .partitions import StrictPartition, delta


class ActionError(RuntimeError):
    """An action left the space it must preserve."""


# ---------------------------------------------------------------------------
# dim T_{lambda,n} by Sergeev duality
# ---------------------------------------------------------------------------


def dim_T(lam: StrictPartition, n: int) -> int:
    """Total dimension of the simple polynomial representation T_{lambda,n},
    through Sergeev duality: e_lambda V^{(x)d}, d = |lambda|, is
    dim S^lambda / 2^delta(lambda) copies of T_{lambda,n}.

    e_lambda acts on V^{(x)d} as an idempotent, so that dimension is its trace.
    Each word of the signed class C_j is, with its class sign, a conjugate of
    the start permutation of C_j, so tr C_j = |C_j| tr(start_j). A
    permutation of odd cycle type fixes the (2n)^(number of cycles) labels
    constant on its cycles, each with Koszul sign +1 (an odd cycle is an even
    permutation). |C_j| is `IsotypicTable.weights[j]` = (C_j C_j)[1], and the
    coordinates of e_lambda are integers over d!, so the trace is a sum of k
    terms over d!.
    """
    table = decompose_regular(lam.size)
    block = table.blocks[lam]
    weights = zip(block.coords, table.weights, table.types)
    t = sum(c * w * (2 * n) ** len(ty) for c, w, ty in weights)
    dim, rem = divmod(t << delta(lam), factorial(lam.size) * block.dim_S)
    if rem:
        raise ActionError("isotypic trace %d/%d! not divisible by %d" % (t, lam.size, block.dim_S))
    return dim
