"""The queer Lie (super)algebra q_n: basis, the action on V and on its tensor
powers, and Sergeev-dual dimensions of T_lambda."""

from __future__ import annotations

from dataclasses import dataclass, field

from .heckeclifford import decompose_regular
from .linalg import add_term
from .partitions import StrictPartition, delta
from .scalars import ONE, ZERO, _coerce


class ActionError(RuntimeError):
    """An action left the space it must preserve."""


def _mat_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        add_term(out, k, c)
    return out


def _mat_scale(a: dict, c) -> dict:
    c = _coerce(c)
    if c.is_zero():
        return {}
    return {k: c * x for k, x in a.items()}


@dataclass
class QnElement:
    """An element of q_n in block form {a, b} = (a b; -b a): X-part a, Y-part b."""

    n: int
    xmat: dict = field(default_factory=dict)  # (i, j) 1-based -> scalar
    ymat: dict = field(default_factory=dict)

    @staticmethod
    def X(n: int, i: int, j: int) -> "QnElement":
        return QnElement(n, {(i, j): ONE}, {})

    @staticmethod
    def Y(n: int, i: int, j: int) -> "QnElement":
        return QnElement(n, {}, {(i, j): ONE})

    def __add__(self, other):
        return QnElement(
            self.n, _mat_add(self.xmat, other.xmat), _mat_add(self.ymat, other.ymat)
        )

    def scale(self, c) -> "QnElement":
        return QnElement(self.n, _mat_scale(self.xmat, c), _mat_scale(self.ymat, c))

    def __sub__(self, other):
        return self + other.scale(-1)

    def __eq__(self, other):
        return (
            self.n == other.n and self.xmat == other.xmat and self.ymat == other.ymat
        )

    def is_zero(self):
        return not self.xmat and not self.ymat

    def parity(self):
        if self.xmat and not self.ymat:
            return 0
        if self.ymat and not self.xmat:
            return 1
        return None

    def homogeneous_parts(self):
        out = {}
        if self.xmat:
            out[0] = QnElement(self.n, self.xmat, {})
        if self.ymat:
            out[1] = QnElement(self.n, {}, self.ymat)
        return out

    def __repr__(self):
        bits = []
        for (i, j), c in sorted(self.xmat.items()):
            bits.append("%r*X%d%d" % (c, i, j))
        for (i, j), c in sorted(self.ymat.items()):
            bits.append("%r*Y%d%d" % (c, i, j))
        return " + ".join(bits) if bits else "0"


def act_on_V(x: QnElement, vec: dict) -> dict:
    """Action on C^{n|n} with basis labels ('e', i), ('f', i).

    X_ij e_k = d_jk e_i, X_ij f_k = d_jk f_i,
    Y_ij e_k = -d_jk f_i, Y_ij f_k = d_jk e_i.
    """
    out = {}
    for (kind, k), c in vec.items():
        for (i, j), m in x.xmat.items():
            if j == k:
                add_term(out, (kind, i), m * c)
        for (i, j), m in x.ymat.items():
            if j == k:
                if kind == "e":
                    add_term(out, ("f", i), -(m * c))
                else:
                    add_term(out, ("e", i), m * c)
    return out


# ---------------------------------------------------------------------------
# V^{(x)d}, and dim T_{lambda,n} by Sergeev duality
# ---------------------------------------------------------------------------


def tensor_basis(n: int, d: int):
    """Basis labels of V^{(x)d}: tuples of ('e'|'f', i)."""
    singles = [("e", i) for i in range(1, n + 1)] + [("f", i) for i in range(1, n + 1)]
    out = [()]
    for _ in range(d):
        out = [t + (s,) for t in out for s in singles]
    return out


def _label_parity(lab) -> int:
    return sum(1 for s in lab if s[0] == "f") % 2


def q_act_tensor(x: QnElement, vec: dict) -> dict:
    """Diagonal action of q_n on V^{(x)d} with Koszul signs."""
    out = {}
    for p, xh in x.homogeneous_parts().items():
        for lab, c in vec.items():
            for t in range(len(lab)):
                sign = 1
                if p:
                    pre = sum(1 for s in lab[:t] if s[0] == "f") % 2
                    sign = -1 if pre else 1
                img = act_on_V(xh, {lab[t]: c if sign == 1 else -c})
                for single, cc in img.items():
                    add_term(out, lab[:t] + (single,) + lab[t + 1 :], cc)
    return out


def dim_T(lam: StrictPartition, n: int) -> int:
    """Total dimension of the simple polynomial representation T_{lambda,n},
    through Sergeev duality: e_lambda V^{(x)d}, d = |lambda|, is
    dim S^lambda / 2^delta(lambda) copies of T_{lambda,n}.

    e_lambda acts on V^{(x)d} as an idempotent, so that dimension is its trace.
    Each word of the signed class C_j is, with its class sign, a conjugate of
    the start permutation of C_j, so tr C_j = |C_j| tr(start_j). A
    permutation of odd cycle type fixes the (2n)^(number of cycles) labels
    constant on its cycles, each with Koszul sign +1 (an odd cycle is an even
    permutation). |C_j| is `IsotypicTable.weights[j]` = (C_j C_j)[1], so the
    trace is a sum of k terms.
    """
    table = decompose_regular(lam.size)
    block = table.blocks[lam]
    t = ZERO
    for c, w, ty in zip(block.coords, table.weights, table.types):
        t = t + c * (w * (2 * n) ** len(ty))
    num = t.re * 2 ** delta(lam)
    if not t.is_integer() or num % block.dim_S:
        raise ActionError("isotypic trace %r not divisible as expected" % (t,))
    return num // block.dim_S
