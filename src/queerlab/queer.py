"""The queer Lie (super)algebra q_n: its basis operators X_ab, Y_ab acting on
the tensor powers of V = C^{n|n}, and Sergeev-dual dimensions of T_lambda.

An operator is the key (kind, a, b) with kind "X" or "Y"; a tensor basis
vector is a tuple of ('e'|'f', i) labels."""

from __future__ import annotations

from math import factorial

from .heckeclifford import decompose_regular
from .partitions import StrictPartition, delta


class ActionError(RuntimeError):
    """An action left the space it must preserve."""


# ---------------------------------------------------------------------------
# V^{(x)d}, and dim T_{lambda,n} by Sergeev duality
# ---------------------------------------------------------------------------


def tensor_basis(n: int, d: int, weight=None):
    """Basis labels of V^{(x)d}: tuples of ('e'|'f', i), with i only where
    weight, if given, is nonzero."""
    live = [i for i in range(1, n + 1) if weight is None or weight[i - 1]]
    singles = [("e", i) for i in live] + [("f", i) for i in live]
    out = [()]
    for _ in range(d):
        out = [t + (s,) for t in out for s in singles]
    return out


def _label_parity(lab) -> int:
    return sum(1 for s in lab if s[0] == "f") % 2


def tensor_image(op: tuple, lab: tuple, square: int) -> dict:
    """The diagonal action of the basis operator op = (kind, a, b), X_ab or
    Y_ab of q_n, on the tensor basis vector lab, as {label: c}.

    X_ab sends e_b to e_a and f_b to f_a; Y_ab sends e_b to square * f_a and
    f_b to e_a, so Y_aa^2 = square * X_aa on V. The two real forms of q_n
    differ in that sign alone: square = 1 on the left factor of A(n,m) and
    -1 on the right (`amodule`). The odd Y_ab picks up a Koszul sign for
    each f factor before the slot it acts on. No coefficient cancels: the
    images of different slots are different labels, except under X_aa,
    which adds 1 per slot.
    """
    kind, a, b = op
    out = {}
    odd = False  # an odd number of f factors before slot t
    for t, (s, i) in enumerate(lab):
        if i == b:
            if kind == "X":
                single, c = (s, a), 1
            else:
                single, c = ("e" if s == "f" else "f", a), square if s == "e" else 1
                if odd:
                    c = -c
            key = lab[:t] + (single,) + lab[t + 1 :]
            out[key] = out.get(key, 0) + c
        odd ^= s == "f"
    return out


# ---------------------------------------------------------------------------
# S^dV, d <= 2: one copy of T_(d) inside V^{(x)d}
# ---------------------------------------------------------------------------


def sym_label(lab) -> bool:
    """Whether lab is a basis label of the super-symmetric power S^dV, d <= 2:
    sorted, with no f letter repeated. (u, u') stands for u (x) u' +
    (-1)^{|u||u'|} u' (x) u, and (e_i, e_i) for e_i (x) e_i."""
    return len(lab) < 2 or lab[0] < lab[1] or lab[0] == lab[1] and lab[0][0] == "e"


def sym_image(op: tuple, lab: tuple, square: int) -> tuple:
    """The image under op of the S^dV basis vector lab (`sym_label`), d <= 2,
    read at the labels of S^dV, as (label, c) pairs; `square` is the sign of
    `tensor_image`.

    S^dV is a submodule, so the image is super-symmetric: its coordinate at
    (t', t), t < t', is (-1)^{|t||t'|} times that at (t, t'), and at
    (f_i, f_i) it is 0. Each basis vector has coordinate 1 at its own label,
    so these coordinates are the image's coefficients in the basis.
    """
    out = tensor_image(op, lab, square)
    if len(lab) == 2 and lab[0] != lab[1]:
        sign = -1 if lab[0][0] == lab[1][0] == "f" else 1
        for t, c in tensor_image(op, lab[::-1], square).items():
            out[t] = out.get(t, 0) + sign * c
    return tuple((t, c) for t, c in out.items() if c and sym_label(t))


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
