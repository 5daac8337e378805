"""Two-route check of the Hom-dimension identity.

dim Hom(T_lam (x) T_mu, T_alpha (x) T_beta (x) A_r) is computed once by
brute-force singular-vector counting in V^{(x)a} (x) W^{(x)b} (x) A_r and
once by the sum over gamma of 2^{-delta(gamma)} f f with Grothendieck-ring
coefficients; both under the total-dimension convention.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .amodule import (
    _pad,
    act_terms,
    raising_operators,
    weight_space_monomials,
)
from .heckeclifford import decompose_regular
from .linalg import kernel_dim
from .partitions import StrictPartition, delta, enumerate_strict
from .queer import dim_T, tensor_basis, tensor_image, _label_parity
from .symfunc import induct_mult


class HomDimError(RuntimeError):
    pass


def _labels_by_weight(k: int, d: int, weight) -> dict:
    """Labels of the d-th tensor power of C^{k|k} on the indices where weight
    is nonzero, grouped by their own weight."""
    out = {}
    for lab in tensor_basis(k, d, weight):
        w = [0] * k
        for (_, i) in lab:
            w[i - 1] += 1
        out.setdefault(tuple(w), []).append(lab)
    return out


# (n, m, side, raising operator, is monomial, tensor label or monomial) ->
# its image, as a Gaussian-integer vector; shared by every case of a sweep
_IMAGES: dict = {}


def _image(n: int, m: int, side: str, op: tuple, x, is_mono: bool) -> dict:
    key = (n, m, side, op, is_mono, x)
    if key not in _IMAGES:
        _IMAGES[key] = act_terms(side, op, {x: (1, 0)}, n, m) if is_mono else tensor_image(op, x)
    return _IMAGES[key]


@lru_cache(maxsize=None)
def _induced(mu: StrictPartition, nu: StrictPartition) -> dict:
    """`induct_mult(mu, nu)`, once per pair; callers must not mutate it."""
    return induct_mult(mu, nu)


def _sing_system(n: int, m: int, a: int, b: int, r: int, wrow, wcol):
    """(constraint rows, unknowns) whose kernel is the even half of the
    (wrow, wcol)-singular slice of V^{(x)a} (x) W^{(x)b} (x) A_r: the
    unknowns are the weight-space basis triples (v, w, mono) of even total
    parity, each row is one coordinate of one raising operator's image, and
    a row is a Gaussian-integer dict keyed by the unknowns' indices.

    The even half is all that needs solving (Cheng and Wang, AMS GSM 144,
    ch. 1-3). Its kernel is half the singular slice at every nonzero weight
    and all of it at the zero weight (`_sing_dim` applies the factor):
    - no row mixes parities: X_ab is even and Y_ab odd, so every unknown of
      a row has the parity of the row's target plus that of its operator;
    - the odd Cartan element Hbar_i = Y_ii of the left factor, for an i with
      wrow_i != 0, maps singular vectors to singular vectors, as [hbar, n+]
      lies in n+; the right Y_jj does the same where only wcol is nonzero;
    - Hbar_i^2 = -X_ii in these signs (Y_ii sends e_i to -f_i and f_i to
      e_i), which acts on the slice as the nonzero scalar -wrow_i: Hbar_i is
      an odd isomorphism from the even singular vectors onto the odd ones;
    - the only zero weight is a = b = r = 0, whose slice is the even scalar
      line.
    The full system on both parities is the test oracle `sing_system_full`.

    The system is built on the support of the weight: no label or monomial
    of the slice uses an index where (wrow, wcol) is 0, and no raising
    operator that lowers such an index writes a row (`raising_operators`).
    The unknowns and rows, in the n x m layout, are the even block of the
    full-rank system, which has no other row; how many there are depends on
    the weight, not on n and m.
    """
    vlabs = _labels_by_weight(n, a, wrow)
    wlabs = _labels_by_weight(m, b, wcol)
    parity = {
        lab: _label_parity(lab) for labs in (*vlabs.values(), *wlabs.values()) for lab in labs
    }
    # basis of the target weight slice: even triples with weights summing right
    basis = []
    for wv, vl in vlabs.items():
        for ww, wl in wlabs.items():
            need_rows = tuple(x - y for x, y in zip(wrow, wv))
            need_cols = tuple(x - y for x, y in zip(wcol, ww))
            if any(c < 0 for c in need_rows) or any(c < 0 for c in need_cols):
                continue
            monos = weight_space_monomials(n, m, r, (need_rows, need_cols))
            for v in vl:
                for w2 in wl:
                    p = parity[v] + parity[w2]
                    basis.extend((v, w2, mono) for mono in monos if not (p + len(mono[1])) % 2)
    if not basis:
        return [], []
    # A raising operator changes the weight of the factor it acts on, so the
    # targets of one triple are distinct and each row entry is written once.
    constraints = {}
    for side, op in raising_operators((wrow, wcol)):
        godd = op[0] == "Y"
        # this operator's image of each label and each monomial, looked up once
        lab_images, mono_images = {}, {}
        for col, (vlab, wlab, mono) in enumerate(basis):
            pv = parity[vlab]
            lab = vlab if side == "left" else wlab
            image = lab_images.get(lab)
            if image is None:
                image = lab_images[lab] = _image(n, m, side, op, lab, False)
            if side == "left":
                for vlab2, c in image.items():
                    constraints.setdefault((side, op, (vlab2, wlab, mono)), {})[col] = c
            else:
                flip = godd and pv % 2
                for wlab2, (x, y) in image.items():
                    row = constraints.setdefault((side, op, (vlab, wlab2, mono)), {})
                    row[col] = (-x, -y) if flip else (x, y)
            image = mono_images.get(mono)
            if image is None:
                image = mono_images[mono] = _image(n, m, side, op, mono, True)
            flip = godd and (pv + parity[wlab]) % 2
            for mono2, (x, y) in image.items():
                row = constraints.setdefault((side, op, (vlab, wlab, mono2)), {})
                row[col] = (-x, -y) if flip else (x, y)
    return list(constraints.values()), basis


def _sing_dim(n: int, m: int, a: int, b: int, r: int, wrow, wcol) -> int:
    """Dimension of the (wrow, wcol)-singular slice of V^{(x)a} (x) W^{(x)b}
    (x) A_r: twice the kernel of the even half (`_sing_system`), or once at
    the zero weight."""
    half = kernel_dim(*_sing_system(n, m, a, b, r, wrow, wcol))
    return 2 * half if any(wrow) or any(wcol) else half


@lru_cache(maxsize=None)
def sing_space_dim(n: int, m: int, nu: StrictPartition) -> int:
    """sigma(nu): dimension of the (nu,nu)-bisingular slice of A at degree
    |nu|, the singular slice of V^{(x)0} (x) W^{(x)0} (x) A_|nu|; once per
    (n, m, nu)."""
    if nu.length > min(n, m):
        return 0
    return _sing_dim(n, m, 0, 0, nu.size, _pad(nu.parts, n), _pad(nu.parts, m))


def copy_singular_dim(n: int, m: int, nu: StrictPartition) -> int:
    """s(nu): singular-space dimension of one copy of T_nu, from
    sigma(nu) = s(nu)^2 2^{-delta(nu)}."""
    sig = sing_space_dim(n, m, nu)
    s2 = sig * (2 ** delta(nu))
    s = isqrt(s2)
    if s * s != s2:
        raise HomDimError("sigma(%r) = %d is not of the form s^2 2^-delta" % (nu, sig))
    return s


class HomDimCase:
    __slots__ = ("lam", "mu", "alpha", "beta", "r", "brute", "formula", "details")

    def __init__(
        self,
        lam: StrictPartition,
        mu: StrictPartition,
        alpha: StrictPartition,
        beta: StrictPartition,
        r: int,
        brute: int,
        formula: int,
        details: dict,
    ):
        self.lam = lam
        self.mu = mu
        self.alpha = alpha
        self.beta = beta
        self.r = r
        self.brute = brute
        self.formula = formula
        self.details = details

    @property
    def passed(self):
        return self.brute == self.formula

    def to_dict(self):
        return {
            "lambda": self.lam.serialize(),
            "mu": self.mu.serialize(),
            "alpha": self.alpha.serialize(),
            "beta": self.beta.serialize(),
            "r": self.r,
            "brute_force": self.brute,
            "formula": self.formula,
            "pass": self.passed,
            **self.details,
        }


def hom_dim_check(
    lam: StrictPartition,
    mu: StrictPartition,
    alpha: StrictPartition,
    beta: StrictPartition,
    n: int = 3,
    m: int = 3,
    r_max: int = 3,
) -> HomDimCase:
    """Both sides of the Hom-dimension identity for one case.

    Brute force realizes T_alpha (x) T_beta inside V^{(x)|alpha|} (x)
    W^{(x)|beta|}, which is alpha-isotypic for |alpha| <= 2 (the only strict
    partitions of 1 and 2 are (1) and (2)); this is asserted via dimensions.

    Each singular slice is counted on its even half (`_sing_dim`): at a
    nonzero weight the odd half has the same dimension, and the zero weight
    is the even scalar line. No row of the system mixes parities; the odd
    Cartan element Y_ii (or the right Y_jj) keeps singular vectors singular,
    since [hbar, n+] lies in n+; its square -X_ii is the nonzero scalar
    -wrow_i on the slice, so it maps the even half onto the odd half; and
    the only zero weight is a = b = r = 0 (proof in `_sing_system`).
    """
    a, b = alpha.size, beta.size
    if a > 2 or b > 2:
        raise ValueError("brute-force realization needs |alpha|, |beta| <= 2")
    if lam.size - a != mu.size - b:
        # degree mismatch: both sides must vanish; the brute-force slice is
        # computed honestly (it is empty already at the weight level)
        rv = lam.size - a
        brute = 0
        if 0 <= rv <= r_max:
            wrow = _pad(lam.parts, n)
            wcol = _pad(mu.parts, m)
            brute = _sing_dim(n, m, a, b, rv, wrow, wcol)
        return HomDimCase(
            lam, mu, alpha, beta, -1, brute, 0, {"degree_mismatch": True}
        )
    r = lam.size - a
    if r < 0 or r > r_max:
        raise ValueError("r out of range")
    if max(lam.length, mu.length, alpha.length, beta.length) > min(n, m):
        raise ValueError("partition length exceeds truncation rank")

    # formula side: sum over gamma of 2^{-d(gamma)} f^lam_{alpha gamma} f^mu_{beta gamma}
    total = Fraction(0)
    f_detail = {}
    for gamma in enumerate_strict(r):
        if gamma.length > min(n, m):
            continue
        m1 = _induced(alpha, gamma).get(lam, 0)
        m2 = _induced(beta, gamma).get(mu, 0)
        f1 = m1 * 2 ** delta(lam)
        f2 = m2 * 2 ** delta(mu)
        total += Fraction(f1 * f2, 2 ** delta(gamma))
        if f1 * f2:
            f_detail[gamma.serialize()] = [f1, f2, delta(gamma)]
    if total.denominator != 1:
        raise HomDimError("formula side is not integral: %s" % total)
    formula = int(total)

    # brute-force side
    table_a = decompose_regular(a) if a else None
    table_b = decompose_regular(b) if b else None
    c_alpha = 1 if a == 0 else table_a.blocks[alpha].dim_S // (2 ** delta(alpha))
    c_beta = 1 if b == 0 else table_b.blocks[beta].dim_S // (2 ** delta(beta))
    # tensor powers must be single-block for this realization
    if (2 * n) ** a != c_alpha * dim_T(alpha, n):
        raise HomDimError("V^%d is not alpha-isotypic at rank %d" % (a, n))
    if (2 * m) ** b != c_beta * dim_T(beta, m):
        raise HomDimError("W^%d is not beta-isotypic at rank %d" % (b, m))
    wrow = _pad(lam.parts, n)
    wcol = _pad(mu.parts, m)
    sing = _sing_dim(n, m, a, b, r, wrow, wcol)
    s_l = copy_singular_dim(n, m, lam)
    s_m = copy_singular_dim(n, m, mu)
    num = sing * (2 ** (delta(lam) + delta(mu)))
    den = c_alpha * c_beta * s_l * s_m
    if num % den:
        raise HomDimError(
            "brute-force count %d/%d is not integral (sing=%d)" % (num, den, sing)
        )
    brute = num // den
    details = {
        "sing_dim": sing,
        "c_alpha": c_alpha,
        "c_beta": c_beta,
        "s_lambda": s_l,
        "s_mu": s_m,
        "gamma_terms": f_detail,
    }
    return HomDimCase(lam, mu, alpha, beta, r, brute, formula, details)


def hom_dim_sweep(n: int = 3, m: int = 3, max_ab: int = 2, r_max: int = 2):
    """All cases with |alpha|, |beta| <= max_ab and 0 <= r <= r_max."""
    cases = []
    small = [p for k in range(max_ab + 1) for p in enumerate_strict(k)]
    for alpha in small:
        for beta in small:
            for r in range(r_max + 1):
                for lam in enumerate_strict(alpha.size + r):
                    if lam.length > min(n, m):
                        continue
                    for mu in enumerate_strict(beta.size + r):
                        if mu.length > min(n, m):
                            continue
                        cases.append(hom_dim_check(lam, mu, alpha, beta, n, m, max(r_max, 3)))
    return cases
