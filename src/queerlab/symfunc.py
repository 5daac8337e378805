"""The ring Gamma of Schur Q-functions, on integer coefficients.

A symmetric polynomial f in N variables is held as its table {alpha:
[x^alpha]f}, alpha running over the partitions with at most N parts, written
without zero parts: a symmetric polynomial is fixed by its coefficients at
partitions, its expansion in the monomial basis (Macdonald, Symmetric
Functions and Hall Polynomials, 2nd ed., I.2). Each coefficient of Q_lambda
is read off the one-variable branching rule, a sum over interlacing chains
of strict partitions (III.5). `q_expansion`, the two-row recursion and
first-row Pfaffian expansion in the generators q_r, is what `dump
q-expansion` prints (tests/oracles.py multiplies it out in full
polynomials, and holds an independent marked-shifted-tableau enumeration).
Products are expanded back by triangular elimination against the
lex-leading keys of the P_mu = 2^{-l(mu)} Q_mu, which have integer
coefficients, so every coefficient is an int. A product of degree d is
expanded in l_max(d) variables: Q_nu vanishes in N variables when l(nu) >
N, and the Q_nu with l(nu) <= N stay linearly independent (Macdonald,
III.8), so l_max(d) variables see every Q_nu of degree d and nothing else.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product
from math import lcm

from .linalg import add_term
from .partitions import (
    StrictPartition,
    add_box_candidates,
    delta,
    enumerate_partitions,
    enumerate_strict,
    l_max,
    odd_partitions,
    z,
)


class NotInGammaSpan(ValueError):
    """A symmetric polynomial outside the span of the Q_mu."""


@lru_cache(maxsize=None)
def _partitions(k: int, N: int) -> tuple:
    """The partitions of k with at most N parts: the keys of a degree-k table."""
    return tuple(alpha for alpha in enumerate_partitions(k) if len(alpha) <= N)


def _is_key(key: tuple, size: int, N: int) -> bool:
    """Whether key is a partition of size with at most N parts, with no zero part."""
    return (
        len(key) <= N
        and sum(key) == size
        and all(p > 0 for p in key)
        and all(p >= q for p, q in zip(key, key[1:]))
    )


def _sorted_key(expo) -> tuple:
    """The partition that an exponent (or a q-key) sorts to, zero parts dropped."""
    return tuple(sorted(filter(None, expo), reverse=True))


@lru_cache(maxsize=None)
def _splits(alpha: tuple, a: int) -> tuple:
    """The exponents beta <= alpha with |beta| = a, as ((sorted beta, sorted
    alpha - beta), how many beta give that pair)."""
    out = Counter(
        (_sorted_key(beta), _sorted_key(p - b for p, b in zip(alpha, beta)))
        for beta in product(*(range(p + 1) for p in alpha))
        if sum(beta) == a
    )
    return tuple(out.items())


def _table_mul(f: dict, g: dict, N: int) -> dict:
    """The table of f g in N variables, for homogeneous tables f and g.

    [x^alpha](f g) sums f[sorted beta] g[sorted alpha - beta] over the
    exponents beta <= alpha with |beta| = deg f, since f and g are symmetric.
    """
    if not f or not g:
        return {}
    a = sum(next(iter(f)))
    out = {}
    for alpha in _partitions(a + sum(next(iter(g))), N):
        c = 0
        for (beta, gamma), n in _splits(alpha, a):
            fb = f.get(beta)
            if fb:
                c += n * fb * g.get(gamma, 0)
        if c:
            out[alpha] = c
    return out


def _qdict_mul(d1: dict, d2: dict) -> dict:
    out = {}
    for k1, c1 in d1.items():
        for k2, c2 in d2.items():
            add_term(out, _sorted_key(k1 + k2), c1 * c2)
    return out


@lru_cache(maxsize=None)
def _two_row_q(a: int, b: int) -> tuple:
    """Q_(a,b) as a formal polynomial in the q_r, for a > b >= 0."""
    out = {}
    add_term(out, _sorted_key((a, b)), 1)
    for i in range(1, b + 1):
        add_term(out, _sorted_key((a + i, b - i)), 2 * (-1) ** i)
    return tuple(sorted(out.items()))


@lru_cache(maxsize=None)
def q_expansion(lam: StrictPartition) -> tuple:
    """Q_lambda expanded in products of the q_r (frozen dict of q-index tuples).

    Two rows use the recursion Q_(a,b) = q_a q_b + 2 sum_i (-1)^i q_{a+i} q_{b-i};
    longer shapes expand a Pfaffian along the first row, padding a zero part
    when the length is odd.
    """
    parts = lam.parts
    if len(parts) == 0:
        return (((), 1),)
    if len(parts) == 1:
        return (((parts[0],), 1),)
    if len(parts) == 2:
        return _two_row_q(parts[0], parts[1])
    padded = parts if len(parts) % 2 == 0 else parts + (0,)
    out = {}
    for j in range(1, len(padded)):
        head = dict(_two_row_q(padded[0], padded[j]))
        rest_parts = tuple(p for t, p in enumerate(padded) if t not in (0, j) and p > 0)
        rest = dict(q_expansion(StrictPartition(rest_parts)))
        sign = (-1) ** (j + 1)  # (-1)^j for 1-based column j+1
        for k, c in _qdict_mul(head, rest).items():
            add_term(out, k, sign * c)
    return tuple(sorted(out.items()))


@lru_cache(maxsize=None)
def _interlaced(lam: tuple, size: int) -> tuple:
    """The strict mu with |mu| = size and lam_1 >= mu_1 >= lam_2 >= mu_2 >=
    ..., each with its one-variable weight 2^{a(lambda/mu)}."""
    ranges = [range(low, p + 1) for p, low in zip(lam, lam[1:] + (0,))]
    return tuple(
        (mu, _strip_weight(lam, mu))
        for mu in map(_sorted_key, product(*ranges))
        if sum(mu) == size and len(set(mu)) == len(mu)
    )


def _strip_weight(lam: tuple, mu: tuple) -> int:
    """2^{a(lambda/mu)}: a counts the columns j of the unshifted horizontal
    strip lambda/mu that hold a box while column j + 1 does not, the
    diagonals of the shifted strip. Row i holds the columns mu_i + 1 ..
    lambda_i, so it ends such a run unless row i - 1 starts at lambda_i + 1."""
    a = 0
    for i, p in enumerate(lam):
        m = mu[i] if i < len(mu) else 0
        if m < p and (i == 0 or mu[i - 1] != p):
            a += 1
    return 1 << a


@lru_cache(maxsize=None)
def _coeff(lam: tuple, alpha: tuple) -> int:
    """[x^alpha]Q_lambda for a partition alpha with no zero part, in any
    number of variables at least l(alpha).

    Q_lambda(x_1..x_k) = sum_mu Q_mu(x_1..x_{k-1}) 2^{a(lambda/mu)}
    x_k^{|lambda| - |mu|} over the mu interlacing lambda (Macdonald, III.5,
    the one-variable Q_{lambda/mu}); x_k carries the last part of alpha, and
    Q_mu is symmetric, so the rest of alpha stays a sorted key.
    """
    if len(lam) > len(alpha):
        return 0
    if not alpha:
        return 1
    rest = alpha[:-1]
    return sum(w * _coeff(mu, rest) for mu, w in _interlaced(lam, sum(rest)))


_QPOLY_CACHE: dict = {}


def Q_poly(lam: StrictPartition, N: int) -> dict:
    """The table {alpha: [x^alpha]Q_lambda} of Q_lambda in N variables, each
    coefficient read off the one-variable branching rule (`_coeff`).

    Memoized in a plain dict (atomic get/set under the GIL) so the CLI can
    seed it from the versioned cache file. Callers must not change a table.
    """
    key = (lam, N)
    out = _QPOLY_CACHE.get(key)
    if out is None:
        coeffs = ((alpha, _coeff(lam.parts, alpha)) for alpha in _partitions(lam.size, N))
        out = _QPOLY_CACHE[key] = {alpha: c for alpha, c in coeffs if c}
    return out


class InconsistentMultiplicity(ArithmeticError):
    """A Q-coordinate of a product in Gamma failed to be an integer, or a
    Grothendieck-ring coefficient a nonnegative integer."""


def expand_in_Q(f: dict, N: int) -> dict[StrictPartition, int]:
    """{mu: 2^{l(mu)} [Q_mu] f}: the P-basis coordinates of the table f in N
    variables, a symmetric polynomial in the span of the Q_mu.

    Triangular elimination against the lex-leading key mu of P_mu = Q_mu /
    2^{l(mu)}, whose table has integer coefficients and 1 at mu (Macdonald,
    III.8), so an int table never leaves the ints. Raises NotInGammaSpan on
    a residual the elimination cannot reach.
    """
    residual = dict(f)
    found = {}
    while residual:
        k = max(residual)
        try:
            mu = StrictPartition(k)
        except ValueError:
            raise NotInGammaSpan("leading key %r is not a strict partition" % (k,))
        if mu.length > N:
            raise NotInGammaSpan(
                "length %d exceeds variable count %d; expansion unfaithful"
                % (mu.length, N)
            )
        c = found[mu] = residual[k]
        shift = mu.length
        for kk, cc in Q_poly(mu, N).items():
            s = residual.get(kk, 0) - c * (cc >> shift)
            if s:
                residual[kk] = s
            else:
                residual.pop(kk, None)
        # a no-op on a table with 1 at mu; on any other it ends the loop
        residual.pop(k, None)
    return found


def gamma_product(lam: StrictPartition, mu: StrictPartition) -> dict[StrictPartition, int]:
    """{nu: [Q_nu] Q_lambda Q_mu}, the product in Gamma in the Q-basis.

    The product is expanded in l_max(|lambda| + |mu|) variables, the fewest
    in which every Q_nu of that degree survives, and each P-coordinate is
    shifted down by l(nu); a remainder is an InconsistentMultiplicity.
    """
    N = l_max(lam.size + mu.size)
    out = {}
    for nu, c in expand_in_Q(_table_mul(Q_poly(lam, N), Q_poly(mu, N), N), N).items():
        q, rem = divmod(c, 1 << nu.length)
        if rem:
            raise InconsistentMultiplicity(
                "non-integral coefficient %d/2^%d of Q_%r in Q_%r Q_%r" % (c, nu.length, nu, lam, mu)
            )
        out[nu] = q
    return out


def pieri(lam: StrictPartition) -> dict[StrictPartition, int]:
    """Coefficients of Q_1 * Q_lambda: 2 on same-length mu, 1 on longer mu."""
    out = {}
    for mu in add_box_candidates(lam):
        out[mu] = 2 if mu.length == lam.length else 1
    return out


def induct_mult(
    mu: StrictPartition, nu: StrictPartition
) -> dict[StrictPartition, int]:
    """Coefficients m^lambda in [S_mu]*[S_nu] = sum m^lambda [S_lambda].

    Characteristic-map bookkeeping: ch[S_lambda] = 2^{(delta-l)/2} Q_lambda,
    so m^lambda = c_lambda * 2^{(d(mu)-l(mu)+d(nu)-l(nu)-d(lam)+l(lam))/2}
    where c are the Q-basis coefficients of Q_mu Q_nu.
    """
    out = {}
    for lam, c in gamma_product(mu, nu).items():
        e = delta(mu) - mu.length + delta(nu) - nu.length - delta(lam) + lam.length
        # c is a nonzero integer, so 2^{e/2} c is rational only for even e
        if e % 2:
            raise InconsistentMultiplicity(
                "irrational multiplicity 2^(%d/2)*%s at %r in [S_%r][S_%r]"
                % (e, c, lam, mu, nu)
            )
        m, rem = (c << e // 2, 0) if e >= 0 else divmod(c, 1 << -e // 2)
        if rem:
            raise InconsistentMultiplicity(
                "non-integral multiplicity %d/2^%d at %r in [S_%r][S_%r]" % (c, -e // 2, lam, mu, nu)
            )
        if m < 0:
            raise InconsistentMultiplicity(
                "negative multiplicity %d at %r in [S_%r][S_%r]" % (m, lam, mu, nu)
            )
        if m:
            out[lam] = m
    return out


# ---------------------------------------------------------------------------
# Cauchy kernel check
# ---------------------------------------------------------------------------


def _checked_table(lam: StrictPartition, N: int):
    """Q_poly(lam, N), or None unless each key is a partition of |lambda| with
    at most N parts and the coefficient at x^lambda is 2^{l(lambda)}."""
    table = Q_poly(lam, N)
    if table.get(lam.parts) != 1 << lam.length:
        return None
    return table if all(_is_key(k, lam.size, N) for k in table) else None


@lru_cache(maxsize=None)
def _power_coeff(rho: tuple, alpha: tuple) -> int:
    """[x^alpha]p_rho for a partition alpha with no zero part, in any number
    of variables at least l(alpha): the ways to send each part of rho to a
    variable so that the loads are alpha.

    The first part of rho goes to some x_j with alpha_j >= rho_1, and
    p_(rho_2, ...) is symmetric, so the rest of alpha stays a sorted key.
    """
    if not rho:
        return int(not alpha)
    r, rest = rho[0], rho[1:]
    loads = (_sorted_key(alpha[:j] + (a - r,) + alpha[j + 1 :]) for j, a in enumerate(alpha) if a >= r)
    return sum(_power_coeff(rest, left) for left in loads)


def _power_sum(rho: tuple, N: int) -> dict:
    """The table of the power sum p_rho = p_rho_1 p_rho_2 ... in N variables,
    each coefficient read off `_power_coeff`."""
    coeffs = ((alpha, _power_coeff(rho, alpha)) for alpha in _partitions(sum(rho), N))
    return {alpha: c for alpha, c in coeffs if c}


def _power_kernel(k: int, N: int):
    """A function (alpha, beta) -> [x^alpha y^beta] of the Cauchy kernel, for
    partitions alpha, beta of k with at most N parts.

    log (1+t)/(1-t) = 2 sum_{r odd} t^r / r, so the kernel is sum_rho
    2^{l(rho)} z_rho^{-1} p_rho(x) p_rho(y) over the rho of k into odd parts
    (Macdonald, III.8), summed over L = lcm(z_rho) and divided by L with
    `divmod`: on a remainder the function returns None, equal to no int.
    """
    types = odd_partitions(k)
    L = lcm(*map(z, types))
    terms = [(L // z(rho) << len(rho), _power_sum(rho, N)) for rho in types]

    def kernel(alpha: tuple, beta: tuple):
        c, rem = divmod(sum(w * p.get(alpha, 0) * p.get(beta, 0) for w, p in terms), L)
        return None if rem else c

    return kernel


def cauchy_check(d: int, N: int):
    """Verify prod_{i,j<=N} (1+x_i y_j)/(1-x_i y_j) = sum Q_lambda(x) P_lambda(y)
    through degree d in x_1..x_N and y_1..y_N, on dominant coefficients:
    None, or (k, k) for the least degree k at which a Q_lambda of size k
    fails its check or a coefficient of bidegree (k, k) differs.

    Both sides are symmetric in x, and separately in y, so they agree once
    their coefficients at x^alpha y^beta agree for every pair of partitions
    alpha, beta of each degree k <= d (Macdonald, Symmetric Functions and
    Hall Polynomials, 2nd ed., III.8, (8.13)); with N >= d every partition
    of k fits in N parts. The symmetry of the kernel is built in, and each
    Q_lambda is a table, symmetric by construction; its keys are checked to
    be partitions of |lambda| first (`_checked_table`). The identity alone
    does not fix the Q_lambda: it holds as well for -Q_lambda, and for any
    basis of degree k that a matrix orthogonal for the weights 2^{-l(lambda)}
    makes from them. So each Q_lambda must also carry 2^{l(lambda)} at
    x^lambda. The true Q_mu has no x^lambda unless mu dominates lambda, so
    taking lambda in descending lex order, that forces the matrix to be the
    identity matrix.

    The left side is read off the odd power sums (`_power_kernel`), the
    right side off the Q_poly tables, so the two share no formula; P_lambda
    is Q_lambda shifted down by l(lambda), so a table wrong at a key other
    than lambda is caught at (that key, lambda), where P_lambda holds 1.
    """
    if N < d:
        raise ValueError("need N >= d for a faithful truncation")
    for k in range(d + 1):
        dominant = []  # ([x^alpha]Q_lambda, [y^beta]P_lambda) by key
        for lam in enumerate_strict(k):
            q = _checked_table(lam, N)
            if q is None:
                return (k, k)
            dominant.append((q, {e: c >> lam.length for e, c in q.items()}))
        kernel = _power_kernel(k, N)
        shapes = enumerate_partitions(k)
        for alpha in shapes:
            for beta in shapes:
                rhs = sum(q.get(alpha, 0) * p.get(beta, 0) for q, p in dominant)
                if kernel(alpha, beta) != rhs:
                    return (k, k)
    return None


# ---------------------------------------------------------------------------
# cache file format: "Q <lambda> <N> : a1,..,al=c ...", each key a partition
# of |lambda| with at most N parts ("-" for the empty one), c an int
# divisible by 2^{l(lambda)}
# ---------------------------------------------------------------------------


def qpoly_cache_line(lam: StrictPartition, N: int) -> str:
    body = " ".join(
        "%s=%d" % (",".join(map(str, k)) or "-", c)
        for k, c in sorted(Q_poly(lam, N).items())
    )
    return "Q %s %d : %s" % (lam.serialize() or "-", N, body)


def parse_qpoly_cache_line(line: str):
    """(lambda, N, table) of a cache line; ValueError unless every key is a
    partition of |lambda| in at most N parts and every coefficient an int
    multiple of 2^{l(lambda)}, and 2^{l(lambda)} itself at x^lambda if
    l(lambda) <= N: `expand_in_Q` pivots on P_lambda = Q_lambda >> l(lambda)."""
    head, _, body = line.partition(":")
    tag, lamtxt, ntxt = head.split()
    if tag != "Q":
        raise ValueError("bad cache line: %r" % line)
    lam = StrictPartition.parse("" if lamtxt == "-" else lamtxt)
    N = int(ntxt)
    table = {}
    for item in body.split():
        keytxt, _, ctxt = item.partition("=")
        key = () if keytxt == "-" else tuple(int(t) for t in keytxt.split(","))
        if not _is_key(key, lam.size, N):
            raise ValueError("key %r is not a partition of %d in %d parts" % (key, lam.size, N))
        c = int(ctxt)
        if c % (1 << lam.length):
            raise ValueError("coefficient %d at %r is not divisible by 2^%d" % (c, key, lam.length))
        table[key] = c
    if lam.length <= N and table.get(lam.parts) != 1 << lam.length:
        raise ValueError("the coefficient at x^%r is not 2^%d" % (lam.parts, lam.length))
    return lam, N, table
