"""The queer Lie (super)algebra q_n: basis, brackets, Chevalley automorphism,
actions on V, on U = half(V (x) W), and Sergeev-dual dimensions of T_lambda."""

from __future__ import annotations

from dataclasses import dataclass, field

from .heckeclifford import decompose_regular, _bits
from .linalg import add_term, numerators, span
from .partitions import StrictPartition, delta
from .scalars import Cyclo8Scalar, ONE, ZETA, _coerce


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


def _mat_transpose(a: dict) -> dict:
    return {(j, i): c for (i, j), c in a.items()}


def _mat_mul(a: dict, b: dict) -> dict:
    out = {}
    byrow = {}
    for (i, j), c in b.items():
        byrow.setdefault(i, []).append((j, c))
    for (i, j), c in a.items():
        for (k, c2) in byrow.get(j, ()):
            add_term(out, (i, k), c * c2)
    return out


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


def bracket(x: QnElement, y: QnElement) -> QnElement:
    """Super-commutator in the matrix realization."""
    out = QnElement(x.n)
    for px, xh in x.homogeneous_parts().items():
        for py, yh in y.homogeneous_parts().items():
            prod1 = _q_mult(xh, yh, px, py)
            prod2 = _q_mult(yh, xh, py, px)
            sign = -1 if px and py else 1
            out = out + prod1 - prod2.scale(sign)
    return out


def _q_mult(x: QnElement, y: QnElement, px: int, py: int) -> QnElement:
    """Matrix product of homogeneous block matrices, expressed in q_n again.

    {a,b}{a',b'} = (a b; -b a)(a' b'; -b' a') = {aa' - bb', ab' + ba'}.
    """
    a, b = x.xmat, x.ymat
    a2, b2 = y.xmat, y.ymat
    xpart = _mat_add(_mat_mul(a, a2), _mat_scale(_mat_mul(b, b2), -1))
    ypart = _mat_add(_mat_mul(a, b2), _mat_mul(b, a2))
    return QnElement(x.n, xpart, ypart)


def chevalley(x: QnElement) -> QnElement:
    """tau{a, b} = {-a^t, -zeta b^t}; order four."""
    return QnElement(
        x.n,
        _mat_scale(_mat_transpose(x.xmat), -1),
        _mat_scale(_mat_transpose(x.ymat), -ZETA),
    )


def chevalley_inverse(x: QnElement) -> QnElement:
    """tau^{-1}{a, b} = {-a^t, zeta b^t}."""
    return QnElement(
        x.n,
        _mat_scale(_mat_transpose(x.xmat), -1),
        _mat_scale(_mat_transpose(x.ymat), ZETA),
    )


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
# the half tensor product U inside V (x) W
# ---------------------------------------------------------------------------


class USpace:
    """U = half(V (x) W) with its basis v_ij (even), w_ij (odd).

    v_ij = (1+zeta) e_i (x) e_j + (1-zeta) f_i (x) f_j
    w_ij = (1+zeta) e_i (x) f_j + (1-zeta) f_i (x) e_j
    """

    def __init__(self, n: int, m: int):
        self.n = n
        self.m = m

    def labels(self):
        for i in range(1, self.n + 1):
            for j in range(1, self.m + 1):
                yield ("v", i, j)
                yield ("w", i, j)

    def parity(self, label) -> int:
        return 0 if label[0] == "v" else 1

    def to_ambient(self, vec: dict) -> dict:
        """Expand a v/w combination in the e/f (x) e/f basis."""
        out = {}
        op = ONE + ZETA
        om = ONE - ZETA
        for (kind, i, j), c in vec.items():
            if kind == "v":
                add_term(out, (("e", i), ("e", j)), op * c)
                add_term(out, (("f", i), ("f", j)), om * c)
            else:
                add_term(out, (("e", i), ("f", j)), op * c)
                add_term(out, (("f", i), ("e", j)), om * c)
        return out

    def from_ambient(self, amb: dict) -> dict:
        """Express an ambient vector in the v/w basis; error if outside U."""
        out = {}
        op = ONE + ZETA
        om = ONE - ZETA
        remaining = dict(amb)
        for key in list(remaining):
            (kind1, i), (kind2, j) = key
            if kind1 != "e":
                continue
            c = remaining.pop(key)
            label = ("v", i, j) if kind2 == "e" else ("w", i, j)
            coeff = c / op
            # the matching (1-zeta) partner component must be present exactly
            partner = (("f", i), ("f", j)) if kind2 == "e" else (("f", i), ("e", j))
            got = remaining.pop(partner, Cyclo8Scalar())
            if got != om * coeff:
                raise ActionError("vector leaves the half tensor product U")
            if not coeff.is_zero():
                out[label] = coeff
        if remaining:
            raise ActionError("vector leaves the half tensor product U")
        return out

    def act(self, side: str, x: QnElement, vec: dict) -> dict:
        """Action of (x, 0) or (0, x) on U via the ambient sign rule."""
        amb = self.to_ambient(vec)
        out_amb = {}
        for p, xh in x.homogeneous_parts().items():
            for (lab1, lab2), c in amb.items():
                if side == "left":
                    img = act_on_V(xh, {lab1: c})
                    for lab, cc in img.items():
                        add_term(out_amb, (lab, lab2), cc)
                else:
                    sign = -1 if p and lab1[0] == "f" else 1
                    img = act_on_V(xh, {lab2: c if sign == 1 else -c})
                    for lab, cc in img.items():
                        add_term(out_amb, (lab1, lab), cc)
        return self.from_ambient(out_amb)


def act_on_U(side: str, x: QnElement, u: dict, n: int, m: int) -> dict:
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    return USpace(n, m).act(side, x, u)


# ---------------------------------------------------------------------------
# h (+) k decomposition of q_n x q_n
# ---------------------------------------------------------------------------


def _upper(mat: dict) -> dict:
    return {(i, j): c for (i, j), c in mat.items() if i <= j}


def _strict_lower(mat: dict) -> dict:
    return {(i, j): c for (i, j), c in mat.items() if i > j}


def hk_decompose(g1: QnElement, g2: QnElement):
    """Unique (c, tau^{-1} c) + ((d, e)) with d upper and e strictly upper.

    Solves a1 + b1^t = d1 + e1^t and a2 + zeta b2^t = d2 + zeta e2^t by the
    upper/strictly-lower split, then c = a - d.
    """
    n = g1.n
    a1, a2 = g1.xmat, g1.ymat
    b1, b2 = g2.xmat, g2.ymat

    A1 = _mat_add(a1, _mat_transpose(b1))
    d1 = _upper(A1)
    e1 = _mat_transpose(_strict_lower(A1))
    c1 = _mat_add(a1, _mat_scale(d1, -1))

    A2 = _mat_add(a2, _mat_scale(_mat_transpose(b2), ZETA))
    d2 = _upper(A2)
    e2 = _mat_scale(_mat_transpose(_strict_lower(A2)), ZETA.inverse())
    c2 = _mat_add(a2, _mat_scale(d2, -1))

    c = QnElement(n, c1, c2)
    d = QnElement(n, d1, d2)
    e = QnElement(n, e1, e2)
    return c, (d, e)


def x_prime(n: int, i: int, j: int):
    """X'_ij = (X_ij, -X_ji), a basis element of h."""
    return (QnElement.X(n, i, j), QnElement.X(n, j, i).scale(-1))


def y_prime(n: int, i: int, j: int):
    """Y'_ij = (Y_ij, zeta Y_ji)."""
    return (QnElement.Y(n, i, j), QnElement.Y(n, j, i).scale(ZETA))


# ---------------------------------------------------------------------------
# Sergeev duality: H_d acting on V^{(x)d}, and dim T_{lambda,n}
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


def word_action(word: tuple, lab: tuple):
    """Apply a basis word of H_d to a tensor basis vector; returns (label, sign).

    The word alpha^mask * sigma acts by the signed slot permutation first,
    then the queer structure map on each masked slot, highest slot first.
    """
    mask, perm = word
    d = len(perm)
    # sigma: result[perm[t]] = lab[t], Koszul sign over inverted odd pairs
    sign = 1
    new = [None] * d
    for t in range(d):
        new[perm[t]] = lab[t]
    for t in range(d):
        for s in range(t + 1, d):
            if perm[t] > perm[s] and lab[t][0] == "f" and lab[s][0] == "f":
                sign = -sign
    cur = new
    # alpha_j for j in mask, applied highest index first; alpha is odd:
    # crossing the slots before j picks up their parity sign
    for j in sorted(_bits(mask), reverse=True):
        pre = sum(1 for s in cur[:j] if s[0] == "f") % 2
        if pre:
            sign = -sign
        kind, idx = cur[j]
        cur = cur[:j] + [("f" if kind == "e" else "e", idx)] + cur[j + 1 :]
    return tuple(cur), sign


def hc_apply(x, lab: tuple) -> dict:
    """Apply a Hecke-Clifford element to a tensor basis vector."""
    out = {}
    for w, c in x.terms.items():
        lab2, sign = word_action(w, lab)
        add_term(out, lab2, c if sign == 1 else -c)
    return out


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


_DIM_T_CACHE: dict = {}


def dim_T(lam: StrictPartition, n: int) -> int:
    """Total dimension of the simple polynomial representation T_{lambda,n},
    by brute force through the Sergeev double commutant on V^{(x)|lambda|}."""
    key = (lam, n)
    if key in _DIM_T_CACHE:
        return _DIM_T_CACHE[key]
    d = lam.size
    if d == 0:
        return 1
    table = decompose_regular(d)
    block = table.blocks[lam]
    ech = span(numerators(hc_apply(block.idempotent, lab)) for lab in tensor_basis(n, d))
    num = ech.rank * (2 ** delta(lam))
    if num % block.dim_S:
        raise ActionError("isotypic rank %d not divisible as expected" % ech.rank)
    out = num // block.dim_S
    _DIM_T_CACHE[key] = out
    return out
