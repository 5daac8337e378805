"""Two-route check of the Hom-dimension identity.

dim Hom(T_lam (x) T_mu, T_alpha (x) T_beta (x) A_r) is computed once by
brute-force singular-vector counting in S^aV (x) S^bW (x) A_r and once by
the sum over gamma of 2^{-delta(gamma)} f f with Grothendieck-ring
coefficients; both under the total-dimension convention.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from .amodule import _pad, _sing_system, singular_dim
from .heckeclifford import decompose_regular
from .linalg import kernel_dim
from .partitions import StrictPartition, delta, enumerate_strict
from .queer import dim_T, sym_label, tensor_basis
from .symfunc import induct_mult


class HomDimError(RuntimeError):
    pass


@lru_cache(maxsize=None)
def _induced(mu: StrictPartition, nu: StrictPartition) -> dict:
    """`induct_mult(mu, nu)`, once per pair; callers must not mutate it."""
    return induct_mult(mu, nu)


@lru_cache(maxsize=None)
def _sym_dim(k: int, d: int) -> int:
    """dim S^d C^{k|k}, d <= 2: the number of its labels (`queer.sym_label`)."""
    return sum(map(sym_label, tensor_basis(k, d)))


def _sing_dim(n: int, m: int, a: int, b: int, r: int, wrow, wcol) -> int:
    """Dimension of the (wrow, wcol)-singular slice of S^aV (x) S^bW (x) A_r:
    twice the kernel of the even half (`_sing_system`), or once at the zero
    weight."""
    half = kernel_dim(*_sing_system(n, m, a, b, r, wrow, wcol))
    return 2 * half if any(wrow) or any(wcol) else half


def copy_singular_dim(n: int, m: int, nu: StrictPartition) -> int:
    """s(nu): singular-space dimension of one copy of T_nu, from
    sigma(nu) = s(nu)^2 2^{-delta(nu)}, where sigma(nu) is the dimension of
    the (nu,nu)-bisingular slice of A_|nu|."""
    sig = singular_dim(n, m, nu)
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

    Brute force realizes T_alpha (x) T_beta as S^aV (x) S^bW, a = |alpha|,
    b = |beta| <= 2. The only strict partitions of 1 and 2 are (1) and (2),
    so V^{(x)a} is c_alpha copies of T_alpha (Sergeev duality; Cheng and
    Wang, AMS GSM 144, ch. 3), and its submodule S^aV is one copy as soon as
    its dimension is dim T_alpha. Both facts are asserted via dimensions:
    (2n)^a = c_alpha dim T_alpha and dim S^aV = dim T_alpha. The report's
    `sing_dim` is the count on the full powers, c_alpha c_beta times the
    one-copy count.

    Each singular slice is counted on its even half (`_sing_dim`): at a
    nonzero weight the odd half has the same dimension, and the zero weight
    is the even scalar line. No row of the system mixes parities; the odd
    Cartan element Y_ii (or the right Y_jj) keeps singular vectors singular,
    since [hbar, n+] lies in n+; its square -X_ii is the nonzero scalar
    -wrow_i on the slice, so it maps the even half onto the odd half; and
    the only zero weight is a = b = r = 0 (proof in `amodule._sing_system`).
    """
    a, b = alpha.size, beta.size
    if a > 2 or b > 2:
        raise ValueError("brute-force realization needs |alpha|, |beta| <= 2")
    if lam.size - a != mu.size - b:
        raise ValueError("|lambda| - |alpha| and |mu| - |beta| differ")
    r = lam.size - a
    if r < 0 or r > r_max:
        raise ValueError("r out of range")
    if max(lam.length, mu.length, alpha.length, beta.length) > min(n, m):
        raise ValueError("partition length exceeds truncation rank")

    # formula side: sum over gamma of 2^{-d(gamma)} f^lam_{alpha gamma}
    # f^mu_{beta gamma}, summed twice over in ints, as d(gamma) is 0 or 1
    twice = 0
    f_detail = {}
    for gamma in enumerate_strict(r):
        if gamma.length > min(n, m):
            continue
        m1 = _induced(alpha, gamma).get(lam, 0)
        m2 = _induced(beta, gamma).get(mu, 0)
        f1 = m1 * 2 ** delta(lam)
        f2 = m2 * 2 ** delta(mu)
        twice += 2 * f1 * f2 >> delta(gamma)
        if f1 * f2:
            f_detail[gamma.serialize()] = [f1, f2, delta(gamma)]
    formula, rem = divmod(twice, 2)
    if rem:
        raise HomDimError("formula side is not integral: %d/2" % twice)

    # brute-force side
    table_a = decompose_regular(a) if a else None
    table_b = decompose_regular(b) if b else None
    c_alpha = 1 if a == 0 else table_a.blocks[alpha].dim_S // (2 ** delta(alpha))
    c_beta = 1 if b == 0 else table_b.blocks[beta].dim_S // (2 ** delta(beta))
    # tensor powers must be single-block, and S^aV one copy of the block
    for k, d, c, nu in ((n, a, c_alpha, alpha), (m, b, c_beta, beta)):
        dim = dim_T(nu, k)
        if (2 * k) ** d != c * dim:
            raise HomDimError("V^{(x)%d} is not %r-isotypic at rank %d" % (d, nu, k))
        if _sym_dim(k, d) != dim:
            raise HomDimError("S^%dV is not one copy of T_%r at rank %d" % (d, nu, k))
    wrow = _pad(lam.parts, n)
    wcol = _pad(mu.parts, m)
    one = _sing_dim(n, m, a, b, r, wrow, wcol)
    s_l = copy_singular_dim(n, m, lam)
    s_m = copy_singular_dim(n, m, mu)
    num = one * (2 ** (delta(lam) + delta(mu)))
    den = s_l * s_m
    if num % den:
        raise HomDimError(
            "brute-force count %d/%d is not integral (one copy: %d)" % (num, den, one)
        )
    brute = num // den
    details = {
        "sing_dim": c_alpha * c_beta * one,
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
