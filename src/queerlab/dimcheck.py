"""Two-route check of the Hom-dimension identity.

dim Hom(T_lam (x) T_mu, T_alpha (x) T_beta (x) A_r) is computed once by
brute-force singular-vector counting in V^{(x)a} (x) W^{(x)b} (x) A_r and
once by the sum over gamma of 2^{-delta(gamma)} f f with Grothendieck-ring
coefficients; both under the total-dimension convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .amodule import (
    _pad,
    act_terms,
    raising_operators,
    singular_vectors,
    weight_space_monomials,
)
from .heckeclifford import decompose_regular
from .linalg import add_term, kernel_dim
from .partitions import StrictPartition, delta, enumerate_strict
from .queer import QnElement, act_on_V, tensor_basis, _label_parity
from .scalars import ONE
from .symfunc import induct_mult


class HomDimError(RuntimeError):
    pass


def _tensor_weight(lab, n: int):
    w = [0] * n
    for (_, i) in lab:
        w[i - 1] += 1
    return tuple(w)


def _act_V_tensor(g: QnElement, lab: tuple, coeff):
    """Diagonal action on one tensor basis vector, as a dict."""
    out = {}
    for p, gh in g.homogeneous_parts().items():
        for t in range(len(lab)):
            c = coeff
            if p and sum(1 for s in lab[:t] if s[0] == "f") % 2:
                c = -c
            for single, cc in act_on_V(gh, {lab[t]: c}).items():
                add_term(out, lab[:t] + (single,) + lab[t + 1 :], cc)
    return out


def _sing_dim_big(n: int, m: int, a: int, b: int, r: int, wrow, wcol) -> int:
    """dim of the (wrow, wcol)-singular slice of V^{(x)a} (x) W^{(x)b} (x) A_r."""
    return kernel_dim(*_sing_system(n, m, a, b, r, wrow, wcol))


def _sing_system(n: int, m: int, a: int, b: int, r: int, wrow, wcol):
    """(constraint rows, unknowns) whose kernel is the (wrow, wcol)-singular
    slice of V^{(x)a} (x) W^{(x)b} (x) A_r: the unknowns are the weight-space
    basis triples, and each row is one coordinate of one raising operator's
    image."""
    vlabs = {}
    for lab in tensor_basis(n, a):
        vlabs.setdefault(_tensor_weight(lab, n), []).append(lab)
    wlabs = {}
    for lab in tensor_basis(m, b):
        wlabs.setdefault(_tensor_weight(lab, m), []).append(lab)
    # A_r monomials grouped by biweight
    from .amodule import all_biweights

    amonos = {}
    for w in all_biweights(n, m, r):
        monos = weight_space_monomials(n, m, r, w)
        if monos:
            amonos[w] = monos
    # basis of the target weight slice: triples with weights summing right
    basis = []
    for wv, vl in vlabs.items():
        for ww, wl in wlabs.items():
            need_rows = tuple(x - y for x, y in zip(wrow, wv))
            need_cols = tuple(x - y for x, y in zip(wcol, ww))
            if any(c < 0 for c in need_rows) or any(c < 0 for c in need_cols):
                continue
            monos = amonos.get((need_rows, need_cols))
            if not monos:
                continue
            for v in vl:
                for w2 in wl:
                    for mono in monos:
                        basis.append((v, w2, mono))
    if not basis:
        return [], []
    constraints = {}
    ops = raising_operators(n, m)
    for op_id, (side, g) in enumerate(ops):
        godd = g.parity() == 1
        # the images of the tensor labels and the A_r monomials under g,
        # each computed once for all the triples that share it
        slot = 0 if side == "left" else 1
        lab_img = {lab: _act_V_tensor(g, lab, ONE) for lab in {k[slot] for k in basis}}
        mono_img = {mono: act_terms(side, g, {mono: ONE}, n, m) for mono in {k[2] for k in basis}}
        for key in basis:
            vlab, wlab, mono = key
            pv = _label_parity(vlab)
            pw = _label_parity(wlab)
            img = {}
            if side == "left":
                for vlab2, c in lab_img[vlab].items():
                    add_term(img, (vlab2, wlab, mono), c)
                sign = -1 if godd and (pv + pw) % 2 else 1
                for mono2, c in mono_img[mono].items():
                    add_term(img, (vlab, wlab, mono2), c if sign == 1 else -c)
            else:
                sign1 = -1 if godd and pv % 2 else 1
                for wlab2, c in lab_img[wlab].items():
                    add_term(img, (vlab, wlab2, mono), c if sign1 == 1 else -c)
                sign2 = -1 if godd and (pv + pw) % 2 else 1
                for mono2, c in mono_img[mono].items():
                    add_term(img, (vlab, wlab, mono2), c if sign2 == 1 else -c)
            for tgt, c in img.items():
                add_term(constraints.setdefault((op_id, tgt), {}), key, c)
    return list(constraints.values()), basis


def sing_space_dim(n: int, m: int, nu: StrictPartition) -> int:
    """sigma(nu): dimension of the (nu,nu)-bisingular slice of A at degree |nu|."""
    return len(singular_vectors(n, m, nu))


def copy_singular_dim(n: int, m: int, nu: StrictPartition) -> int:
    """s(nu): singular-space dimension of one copy of T_nu, from
    sigma(nu) = s(nu)^2 2^{-delta(nu)}."""
    sig = sing_space_dim(n, m, nu)
    s2 = sig * (2 ** delta(nu))
    s = isqrt(s2)
    if s * s != s2:
        raise HomDimError("sigma(%r) = %d is not of the form s^2 2^-delta" % (nu, sig))
    return s


@dataclass
class HomDimCase:
    lam: StrictPartition
    mu: StrictPartition
    alpha: StrictPartition
    beta: StrictPartition
    r: int
    brute: int
    formula: int
    details: dict

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
            brute = _sing_dim_big(n, m, a, b, rv, wrow, wcol)
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
        m1 = induct_mult(alpha, gamma).get(lam, 0)
        m2 = induct_mult(beta, gamma).get(mu, 0)
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
    from .queer import dim_T

    if (2 * n) ** a != c_alpha * dim_T(alpha, n):
        raise HomDimError("V^%d is not alpha-isotypic at rank %d" % (a, n))
    if (2 * m) ** b != c_beta * dim_T(beta, m):
        raise HomDimError("W^%d is not beta-isotypic at rank %d" % (b, m))
    wrow = _pad(lam.parts, n)
    wcol = _pad(mu.parts, m)
    sing = _sing_dim_big(n, m, a, b, r, wrow, wcol)
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
