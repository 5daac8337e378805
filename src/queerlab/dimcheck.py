"""Two-route check of the Hom-dimension identity.

dim Hom(T_lam (x) T_mu, T_alpha (x) T_beta (x) A_r) is computed once by
brute-force singular-vector counting in S^aV (x) S^bW (x) A_r and once by
the sum over gamma of 2^{-delta(gamma)} f f with Grothendieck-ring
coefficients; both under the total-dimension convention.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, isqrt

from .amodule import _pad, _sing_system, contravariance_check, singular_dim
from .heckeclifford import decompose_regular
from .linalg import kernel_dim
from .partitions import StrictPartition, delta, enumerate_strict
from .queer import dim_T
from .symfunc import induct_mult


class HomDimError(RuntimeError):
    pass


R_MAX = 3  # the largest r = |lambda| - |alpha| that `hom_dim_check` accepts


@lru_cache(maxsize=None)
def _induced(mu: StrictPartition, nu: StrictPartition) -> dict:
    """`induct_mult(mu, nu)`, once per pair; callers must not mutate it."""
    return induct_mult(mu, nu)


def _sym_dim(k: int, d: int) -> int:
    """dim S^d C^{k|k}, the line algebra A(k,1)_d: a monomial is j of its k
    odd generators times a monomial of degree d - j in its k even ones."""
    return sum(comb(k, j) * comb(k + d - j - 1, d - j) for j in range(min(k, d) + 1))


@lru_cache(maxsize=None)
def _copies(nu: StrictPartition, k: int) -> int:
    """c_nu, the number of copies of T_nu in V^{(x)d}, d = |nu| <= 2, at rank
    k, once per (nu, k), after checking that V^{(x)d} is nu-isotypic and
    that S^dV is one copy of T_nu, both by dimensions (`hom_dim_check`)."""
    d = nu.size
    c = decompose_regular(d).blocks[nu].dim_S // 2 ** delta(nu) if d else 1
    dim = dim_T(nu, k)
    if (2 * k) ** d != c * dim:
        raise HomDimError("V^{(x)%d} is not %r-isotypic at rank %d" % (d, nu, k))
    if _sym_dim(k, d) != dim:
        raise HomDimError("S^%dV is not one copy of T_%r at rank %d" % (d, nu, k))
    return c


def _sing_dim(n: int, m: int, a: int, b: int, r: int, wrow, wcol) -> int:
    """Dimension of the (wrow, wcol)-singular slice of S^aV (x) S^bW (x) A_r:
    twice the kernel of the even half (`_sing_system`), or once at the zero
    weight."""
    half = kernel_dim(*_sing_system(n, m, a, b, r, wrow, wcol))
    return 2 * half if any(wrow) or any(wcol) else half


def copy_singular_dim(k: int, nu: StrictPartition) -> int:
    """s(nu): singular-space dimension of one copy of T_nu, from
    sigma(nu) = s(nu)^2 2^{-delta(nu)}, where sigma(nu) is the dimension of
    the (nu,nu)-bisingular slice of A(k,k)_|nu|."""
    sig = singular_dim(k, nu)
    s2 = sig * (2 ** delta(nu))
    s = isqrt(s2)
    if s * s != s2:
        raise HomDimError("sigma(%r) = %d is not of the form s^2 2^-delta" % (nu, sig))
    return s


def hom_dim_check(
    lam: StrictPartition,
    mu: StrictPartition,
    alpha: StrictPartition,
    beta: StrictPartition,
    n: int = 3,
    m: int = 3,
) -> dict:
    """Both sides of the Hom-dimension identity for one case, as the report's
    dict: the case, both sides and whether they agree, then the detail keys.

    Brute force realizes T_alpha (x) T_beta as S^aV (x) S^bW, a = |alpha|,
    b = |beta| <= 2, the line algebras A(n,1)_a and A(1,m)_b
    (`amodule._sing_system`). The only strict partitions of 1 and 2 are (1)
    and (2), so V^{(x)a} is c_alpha copies of T_alpha (Sergeev duality; Cheng
    and Wang, AMS GSM 144, ch. 3), and its submodule S^aV is one copy as
    soon as its dimension is dim T_alpha. Both facts are asserted via
    dimensions, once per (alpha, n) (`_copies`): (2n)^a = c_alpha dim
    T_alpha and dim S^aV = dim T_alpha. The report's `sing_dim` is the count
    on the full powers, c_alpha c_beta times the one-copy count. Each slice,
    and each sigma, is solved at the ranks of its support, l(lam) and l(mu)
    (1 for the empty partition).

    Each singular slice is counted on its even half (`_sing_dim`): at a
    nonzero weight the odd half has the same dimension, and the zero weight
    is the even scalar line. No row of the system mixes parities; the odd
    Cartan element Y_ii (or the right Y_jj) keeps singular vectors singular,
    since [hbar, n+] lies in n+; its square X_ii is the nonzero scalar
    wrow_i on the slice, so it maps the even half onto the odd half; and
    the only zero weight is a = b = r = 0 (proof in `amodule._sing_system`).
    """
    a, b = alpha.size, beta.size
    if a > 2 or b > 2:
        raise ValueError("brute-force realization needs |alpha|, |beta| <= 2")
    if lam.size - a != mu.size - b:
        raise ValueError("|lambda| - |alpha| and |mu| - |beta| differ")
    r = lam.size - a
    if r < 0 or r > R_MAX:
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
    c_alpha = _copies(alpha, n)
    c_beta = _copies(beta, m)
    # no unknown of the slice uses an index past l(lam) or l(mu), and no
    # raising operator lowers one, so each system is built at those ranks
    k, l = max(lam.length, 1), max(mu.length, 1)
    one = _sing_dim(k, l, a, b, r, _pad(lam.parts, k), _pad(mu.parts, l))
    s_l = copy_singular_dim(k, lam)
    s_m = copy_singular_dim(l, mu)
    num = one * (2 ** (delta(lam) + delta(mu)))
    den = s_l * s_m
    if num % den:
        raise HomDimError(
            "brute-force count %d/%d is not integral (one copy: %d)" % (num, den, one)
        )
    brute = num // den
    return {
        "lambda": lam.serialize(),
        "mu": mu.serialize(),
        "alpha": alpha.serialize(),
        "beta": beta.serialize(),
        "r": r,
        "brute_force": brute,
        "formula": formula,
        "pass": brute == formula,
        "sing_dim": c_alpha * c_beta * one,
        "c_alpha": c_alpha,
        "c_beta": c_beta,
        "s_lambda": s_l,
        "s_mu": s_m,
        "gamma_terms": f_detail,
    }


def _sweep(n: int, m: int):
    """(lam, mu, alpha, beta) of every case of `hom_dim_sweep`, in its order."""
    bound = 2  # on |alpha|, |beta| and r, so no partition is longer than 2
    small = [p for k in range(bound + 1) for p in enumerate_strict(k)]
    for alpha in small:
        for beta in small:
            for r in range(bound + 1):
                for lam in enumerate_strict(alpha.size + r):
                    if lam.length > min(n, m):
                        continue
                    for mu in enumerate_strict(beta.size + r):
                        if mu.length <= min(n, m):
                            yield lam, mu, alpha, beta


def hom_dim_sweep(n: int = 3, m: int = 3):
    """All cases with |alpha|, |beta| <= 2 and 0 <= r <= 2 (`_sweep`)."""
    return [hom_dim_check(*case, n, m) for case in _sweep(n, m)]


def sweep_contravariance_check(n: int = 3, m: int = 3) -> int:
    """`amodule.contravariance_check` on each shape whose monomials the
    systems of `hom_dim_sweep` act on: A(k, l) for A_r, at the ranks k, l
    of a case's support (`hom_dim_check`), A(k, 1) for S^aV and A(1, l) for
    S^bW. The sweep pairs each lam with itself, so the (k, k) at which sigma
    is solved are among them. Returns the number of entries compared."""
    shapes = set()
    for lam, mu, _, _ in _sweep(n, m):
        k, l = max(lam.length, 1), max(mu.length, 1)
        shapes |= {(k, 1), (1, l), (k, l)}
    return sum(contravariance_check(k, l) for k, l in sorted(shapes))
