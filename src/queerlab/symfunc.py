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
    a residual the elimination cannot reach. The leading key falls at each
    pass since no P_mu has a key above mu: Q_poly builds none, and the cache
    loader and `cauchy_check` refuse one (`_table_fault`).
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


def _table_fault(lam: StrictPartition, N: int, table: dict):
    """Why `table` cannot be Q_lambda in N variables, or None: each key must
    be a partition of |lambda| in at most N parts and, as lambda dominates
    it, at or below lambda in lex order; each coefficient a multiple of
    2^{l(lambda)}, and 2^{l(lambda)} the one at x^lambda if l(lambda) <= N.
    So P_lambda = Q_lambda >> l(lambda) is exact, with leading term x^lambda,
    as `expand_in_Q` needs to end."""
    for key, c in table.items():
        if len(key) > N or sum(key) != lam.size or key != _sorted_key(key) or min(key, default=1) < 1:
            return "key %r is not a partition of %d in %d parts" % (key, lam.size, N)
        if key > lam.parts:
            return "key %r lies above %r in lex order" % (key, lam.parts)
        if c % (1 << lam.length):
            return "coefficient %d at %r is not divisible by 2^%d" % (c, key, lam.length)
    if lam.length <= N and table.get(lam.parts) != 1 << lam.length:
        return "the coefficient at x^%r is not 2^%d" % (lam.parts, lam.length)
    return None


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


def _power_sum_in_P(rho: tuple, N: int) -> dict[StrictPartition, int]:
    """{mu: [P_mu] p_rho}, the P-coordinates of the power sum p_rho in N
    variables: ints, read by `expand_in_Q` off the table `_power_sum`."""
    return expand_in_Q(_power_sum(rho, N), N)


def cauchy_check(d: int, N: int):
    """Verify prod_{i,j<=N} (1+x_i y_j)/(1-x_i y_j) = sum Q_lambda(x) P_lambda(y)
    through degree d in N variables each: None, or (k, k) for the least
    degree k at which a Q_lambda of size k fails `_table_fault` or the two
    sides differ.

    The part of degree k of the kernel is sum_rho 2^{l(rho)} z_rho^{-1}
    p_rho(x) p_rho(y) over the rho of k into odd parts, as log (1+t)/(1-t)
    = 2 sum_{r odd} t^r / r (Macdonald, Symmetric Functions and Hall
    Polynomials, 2nd ed., III.8). The checked P_lambda = Q_lambda >>
    l(lambda) hold 1 at lambda and no key above it, so the P_mu(x) P_nu(y)
    of degree k are independent (N >= d keeps every P_mu). If each p_rho is
    in the span of the P_mu, with b_rho,mu = [P_mu] p_rho (`_power_sum_in_P`),
    then, times L = lcm(z_rho), the identity holds iff for every pair mu, nu
    of strict partitions of k (each pair once, by symmetry)

        sum_rho (L / z_rho << l(rho)) b_rho,mu b_rho,nu = L << l(mu) if mu = nu, else 0,

    the orthogonality of the spin characters. A p_rho outside that span
    raises NotInGammaSpan and fails the identity too: the p_rho(y) are
    independent, so p_rho(x) is a part of the kernel, and every part of the
    right side lies in the span.

    The identity alone holds as well for P'_mu = sum_nu T_mu,nu P_nu if
    T^t D T = D, D = diag 2^{l(mu)}, as for -P_mu. The checked tables make T
    unitriangular in lex order, so D T = T^{-t} D is triangular both ways,
    hence diagonal, and T = 1: the check fixes every table.
    """
    if N < d:
        raise ValueError("need N >= d for a faithful truncation")
    for k in range(d + 1):
        strict = enumerate_strict(k)
        if any(_table_fault(lam, N, Q_poly(lam, N)) for lam in strict):
            return (k, k)
        types = odd_partitions(k)
        L = lcm(*map(z, types))
        try:
            rows = [(L // z(rho) << len(rho), _power_sum_in_P(rho, N)) for rho in types]
        except NotInGammaSpan:
            return (k, k)
        for i, mu in enumerate(strict):
            for nu in strict[i:]:
                lhs = sum(w * b.get(mu, 0) * b.get(nu, 0) for w, b in rows)
                if lhs != (L << mu.length if mu == nu else 0):
                    return (k, k)
    return None


# ---------------------------------------------------------------------------
# cache file format: "Q <lambda> <N> : a1,..,al=c ...", each key a partition
# of |lambda| with at most N parts ("-" for the empty one) at or below lambda
# in lex order, c an int divisible by 2^{l(lambda)}
# ---------------------------------------------------------------------------


def qpoly_cache_line(lam: StrictPartition, N: int) -> str:
    body = " ".join(
        "%s=%d" % (",".join(map(str, k)) or "-", c)
        for k, c in sorted(Q_poly(lam, N).items())
    )
    return "Q %s %d : %s" % (lam.serialize() or "-", N, body)


def parse_qpoly_cache_line(line: str):
    """(lambda, N, table) of a cache line; ValueError unless every
    coefficient is an int and the table passes `_table_fault`."""
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
        table[key] = int(ctxt)
    fault = _table_fault(lam, N, table)
    if fault:
        raise ValueError(fault)
    return lam, N, table
