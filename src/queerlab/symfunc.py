"""The ring Gamma of Schur Q-functions over exact rationals.

Q_lambda is built from the generators q_r by the two-row recursion and
first-row Pfaffian expansion (tests/oracles.py holds an independent
marked-shifted-tableau enumeration). Products are expanded back into the
Q-basis by triangular elimination against lex-leading monomials. A product
of degree d is expanded in l_max(d) variables: Q_nu vanishes in N variables
when l(nu) > N, and the Q_nu with l(nu) <= N stay linearly independent
(Macdonald, Symmetric Functions and Hall Polynomials, 2nd ed., III.8), so
l_max(d) variables see every Q_nu of degree d and nothing else.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from .partitions import (
    StrictPartition,
    add_box_candidates,
    delta,
    enumerate_partitions,
    enumerate_strict,
    l_max,
)


class NotInGammaSpan(ValueError):
    """A symmetric polynomial outside the span of the Q_mu."""


class NVarPoly:
    """Sparse polynomial in N variables with exact (int or Fraction)
    coefficients; every Q_lambda has int coefficients."""

    __slots__ = ("N", "terms")

    def __init__(self, N: int, terms=None):
        self.N = N
        self.terms = terms if terms is not None else {}

    @staticmethod
    def constant(N: int, c) -> "NVarPoly":
        return NVarPoly(N, {(0,) * N: c} if c else {})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return self.N == other.N and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return NVarPoly(self.N, out)

    def __neg__(self):
        return NVarPoly(self.N, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "NVarPoly":
        if not c:
            return NVarPoly(self.N)
        return NVarPoly(self.N, {k: c * x for k, x in self.terms.items()})

    def __mul__(self, other):
        # convolve on bit-packed exponent keys: no exponent of the product
        # exceeds its degree, so the degree's bit length per variable keeps
        # every sum of two keys from carrying into the next variable. At
        # least 5 bits: narrower keys gave the same heap but a 0.15 MiB
        # higher peak RSS on `verify cauchy --degree 5` (allocator layout)
        bits = max(5, (self.degree() + other.degree()).bit_length())
        N = self.N
        shifts = [bits * i for i in range(N)]

        def pack(k):
            key = 0
            for i, e in enumerate(k):
                if e:
                    key |= e << shifts[i]
            return key

        p2 = [(pack(k), c) for k, c in other.terms.items()]
        out = {}
        for k1, c1 in self.terms.items():
            kk1 = pack(k1)
            for k2, c2 in p2:
                k = kk1 + k2
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        mask = (1 << bits) - 1
        terms = {
            tuple((k >> sh) & mask for sh in shifts): c for k, c in out.items()
        }
        return NVarPoly(self.N, terms)

    def coefficient(self, expo: tuple):
        return self.terms.get(tuple(expo), 0)

    def degree(self) -> int:
        return max((sum(k) for k in self.terms), default=0)

    def is_symmetric(self) -> bool:
        """Check invariance under adjacent transpositions of the variables."""
        for i in range(self.N - 1):
            for k, c in self.terms.items():
                kk = list(k)
                kk[i], kk[i + 1] = kk[i + 1], kk[i]
                if self.terms.get(tuple(kk), 0) != c:
                    return False
        return True

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for k in sorted(self.terms, reverse=True):
            mono = "*".join(
                "x%d^%d" % (i + 1, e) if e > 1 else "x%d" % (i + 1)
                for i, e in enumerate(k)
                if e
            )
            bits.append("%s*%s" % (self.terms[k], mono) if mono else str(self.terms[k]))
        return " + ".join(bits)


@lru_cache(maxsize=None)
def _q_series(rmax: int, N: int) -> tuple:
    """q_0..q_rmax in N variables: coefficients of prod (1+x_i t)/(1-x_i t)."""
    levels = [{(0,) * N: 1}] + [{} for _ in range(rmax)]
    for i in range(N):
        new = [{} for _ in range(rmax + 1)]
        for r, layer in enumerate(levels):
            for k, c in layer.items():
                for j in range(0, rmax - r + 1):
                    # factor (1+x_i t)/(1-x_i t) = 1 + 2 x_i t + 2 x_i^2 t^2 + ...
                    cc = c if j == 0 else 2 * c
                    kk = k[:i] + (k[i] + j,) + k[i + 1 :]
                    tgt = new[r + j]
                    s = tgt.get(kk, 0) + cc
                    if s:
                        tgt[kk] = s
        levels = new
    return tuple(NVarPoly(N, lvl) for lvl in levels)


def q_gen(r: int, N: int) -> NVarPoly:
    """The generator q_r of Gamma in N variables (q_0 = 1)."""
    if r < 0:
        return NVarPoly(N)
    return _q_series(r, N)[r]


def _qkey_mul(t1: tuple, t2: tuple) -> tuple:
    return tuple(sorted(t1 + t2, reverse=True))


def _qdict_mul(d1: dict, d2: dict) -> dict:
    out = {}
    for k1, c1 in d1.items():
        for k2, c2 in d2.items():
            k = _qkey_mul(k1, k2)
            s = out.get(k, 0) + c1 * c2
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


@lru_cache(maxsize=None)
def _two_row_q(a: int, b: int) -> tuple:
    """Q_(a,b) as a formal polynomial in the q_r, for a > b >= 0."""
    out = {}

    def put(r1, r2, coeff):
        key = tuple(sorted((x for x in (r1, r2) if x > 0), reverse=True))
        s = out.get(key, 0) + coeff
        if s:
            out[key] = s
        else:
            out.pop(key, None)

    put(a, b, 1)
    for i in range(1, b + 1):
        put(a + i, b - i, 2 * (-1) ** i)
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
            s = out.get(k, 0) + sign * c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return tuple(sorted(out.items()))


_QPOLY_CACHE: dict = {}


def Q_poly(lam: StrictPartition, N: int) -> NVarPoly:
    """The Schur Q-polynomial Q_lambda in N variables.

    Memoized in a plain dict (atomic get/set under the GIL) so the CLI can
    seed it from the versioned cache file.
    """
    key = (lam, N)
    out = _QPOLY_CACHE.get(key)
    if out is None:
        out = NVarPoly(N)
        for qkey, coeff in q_expansion(lam):
            prod = NVarPoly.constant(N, 1)
            for r in qkey:
                prod = prod * q_gen(r, N)
            out = out + prod.scale(coeff)
        _QPOLY_CACHE[key] = out
    return out


class GammaElement:
    """A finite Q-basis linear combination with exact (int or Fraction)
    coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for lam, c in dict(terms).items():
                if c:
                    self.terms[lam] = c

    @staticmethod
    def basis(lam: StrictPartition) -> "GammaElement":
        return GammaElement({lam: 1})

    def __eq__(self, other):
        return self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for lam, c in other.terms.items():
            s = out.get(lam, 0) + c
            if s:
                out[lam] = s
            else:
                out.pop(lam, None)
        return GammaElement(out)

    def scale(self, c) -> "GammaElement":
        return GammaElement({lam: c * x for lam, x in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for lam in sorted(self.terms, key=lambda p: (p.size, p.parts)):
            bits.append("%s*Q%r" % (self.terms[lam], lam))
        return " + ".join(bits)


def expand_in_Q(f: NVarPoly, d: int | None = None) -> GammaElement:
    """Q-basis coordinates of a symmetric polynomial in the span of the Q_mu.

    Triangular elimination against the lex-leading monomial x^mu of Q_mu,
    whose coefficient is 2^{l(mu)}. Raises NotInGammaSpan on a residual
    the elimination cannot reach.
    """
    N = f.N
    residual = dict(f.terms)
    found = {}
    while residual:
        k = max(residual)
        expo = []
        for x in k:
            if x == 0:
                break
            expo.append(x)
        if any(k[len(expo) :]):
            raise NotInGammaSpan("leading monomial %r is not a strict partition" % (k,))
        try:
            mu = StrictPartition(tuple(expo))
        except ValueError:
            raise NotInGammaSpan("leading monomial %r is not a strict partition" % (k,))
        if mu.length > N:
            raise NotInGammaSpan(
                "length %d exceeds variable count %d; expansion unfaithful"
                % (mu.length, N)
            )
        c = _exact_quotient(residual[k], 1 << mu.length)
        found[mu] = found.get(mu, 0) + c
        for kk, cc in Q_poly(mu, N).terms.items():
            s = residual.get(kk, 0) - c * cc
            if s:
                residual[kk] = s
            else:
                residual.pop(kk, None)
    return GammaElement(found)


def gamma_product(f: GammaElement, g: GammaElement) -> GammaElement:
    """Product in Gamma, expanded back into the Q-basis.

    Each Q_lambda Q_mu is expanded in l_max(|lambda| + |mu|) variables, the
    fewest in which every Q_nu of that degree survives.
    """
    out = GammaElement()
    for lam, c1 in f.terms.items():
        for mu, c2 in g.terms.items():
            N = l_max(lam.size + mu.size)
            prod = Q_poly(lam, N) * Q_poly(mu, N)
            out = out + expand_in_Q(prod).scale(c1 * c2)
    return out


def pieri(lam: StrictPartition) -> dict[StrictPartition, int]:
    """Coefficients of Q_1 * Q_lambda: 2 on same-length mu, 1 on longer mu."""
    out = {}
    for mu in add_box_candidates(lam):
        out[mu] = 2 if mu.length == lam.length else 1
    return out


class InconsistentMultiplicity(ArithmeticError):
    """A Grothendieck-ring coefficient failed to be a nonnegative integer."""


def induct_mult(
    mu: StrictPartition, nu: StrictPartition
) -> dict[StrictPartition, int]:
    """Coefficients m^lambda in [S_mu]*[S_nu] = sum m^lambda [S_lambda].

    Characteristic-map bookkeeping: ch[S_lambda] = 2^{(delta-l)/2} Q_lambda,
    so m^lambda = c_lambda * 2^{(d(mu)-l(mu)+d(nu)-l(nu)-d(lam)+l(lam))/2}
    where c are the Q-basis coefficients of Q_mu Q_nu.
    """
    prod = gamma_product(GammaElement.basis(mu), GammaElement.basis(nu))
    out = {}
    for lam, c in prod.terms.items():
        e = (
            delta(mu)
            - mu.length
            + delta(nu)
            - nu.length
            - delta(lam)
            + lam.length
        )
        # c is a nonzero rational, so 2^{e/2} c is rational only for even e
        if e % 2:
            raise InconsistentMultiplicity(
                "irrational multiplicity 2^(%d/2)*%s at %r in [S_%r][S_%r]"
                % (e, c, lam, mu, nu)
            )
        val = Fraction(2) ** (e // 2) * c
        if val.denominator != 1:
            raise InconsistentMultiplicity(
                "non-integral multiplicity %s at %r in [S_%r][S_%r]" % (val, lam, mu, nu)
            )
        m = int(val)
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


def _exact_quotient(c, den: int):
    """c / den as an int when the division is exact, else as a Fraction.

    In the Cauchy check Q_lambda has integer coefficients divisible by
    2^{l(lambda)}, so a Fraction appears only for a corrupted Q_lambda; it
    can never equal an int kernel coefficient, and so shows as a mismatch.
    """
    num, rem = divmod(c.numerator, c.denominator * den)
    return Fraction(c) / den if rem else num


def _dominant_coefficients(lam: StrictPartition, N: int):
    """[x^alpha]Q_lambda at each partition alpha, or None unless Q_lambda in N
    variables is symmetric, of degree |lambda|, with 2^{l(lambda)} at x^lambda.

    One pass over the terms: each has degree |lambda| and the coefficient at
    its exponent sorted descending, and the terms fill exactly the orbits of
    the dominant exponents, so no monomial is missing either.
    """
    terms = Q_poly(lam, N).terms
    if terms.get(lam.parts + (0,) * (N - lam.length)) != 1 << lam.length:
        return None
    dominant, orbits = {}, 0
    for expo, c in terms.items():
        key = tuple(sorted(expo, reverse=True))
        if sum(expo) != lam.size or terms.get(key) != c:
            return None
        if key == expo:
            dominant[expo] = c
            orbits += factorial(N) // prod(map(factorial, Counter(expo).values()))
    return dominant if orbits == len(terms) else None


class CauchyReport:
    def __init__(self, ok, degree, variables, first_failure=None):
        self.ok = ok
        self.degree = degree
        self.variables = variables
        self.first_failure = first_failure  # (xdeg, ydeg) or None

    def __repr__(self):
        if self.ok:
            return "CauchyReport(ok through degree %d, N=%d)" % (
                self.degree,
                self.variables,
            )
        return "CauchyReport(FAIL at bidegree %r)" % (self.first_failure,)


def _cauchy_kernel():
    """A function (alpha, beta) -> [x^alpha y^beta] of the Cauchy kernel, for
    partitions alpha, beta of one size, with no zero parts.

    The coefficient sums 2^(nonzero entries) over the nonnegative integer
    matrices with row sums alpha and column sums beta, since (1+t)/(1-t) =
    1 + 2 sum_{k>=1} t^k. It is counted row by row, memoized on the rows
    left and the column sums left, sorted descending since permuting the
    columns permutes the matrices. The memo lives as long as the function.
    """
    memo = {}

    def kernel(rows: tuple, cols: tuple) -> int:
        if not rows:
            return 1
        key = (rows, cols)
        total = memo.get(key)
        if total is None:
            total = 0
            fillings = [((), 0, 1)]  # (column sums left, row sum placed, weight)
            for c in cols:
                fillings = [
                    (left + (c - e,), placed + e, 2 * weight if e else weight)
                    for left, placed, weight in fillings
                    for e in range(min(c, rows[0] - placed) + 1)
                ]
            for left, placed, weight in fillings:
                if placed == rows[0]:
                    rest = tuple(sorted(filter(None, left), reverse=True))
                    total += weight * kernel(rows[1:], rest)
            memo[key] = total
        return total

    return kernel


def cauchy_check(d: int, N: int) -> CauchyReport:
    """Verify prod_{i,j<=N} (1+x_i y_j)/(1-x_i y_j) = sum Q_lambda(x) P_lambda(y)
    through degree d in x_1..x_N and y_1..y_N, on dominant coefficients.

    Both sides are symmetric in x, and separately in y, so they agree once
    their coefficients at x^alpha y^beta agree for every pair of partitions
    alpha, beta of each degree k <= d (Macdonald, Symmetric Functions and
    Hall Polynomials, 2nd ed., III.8, (8.13)); with N >= d every partition
    of k fits in N parts. The symmetry of the kernel is built in; that of
    each Q_lambda is checked term by term first (`_dominant_coefficients`).
    The identity alone does not fix the Q_lambda: it holds as well for
    -Q_lambda, and for any basis of degree k that a matrix orthogonal for
    the weights 2^{-l(lambda)} makes from them. So each Q_lambda must also
    carry 2^{l(lambda)} at x^lambda. The true Q_mu has no x^lambda unless mu
    dominates lambda, so taking lambda in descending lex order, that forces
    the matrix to be the identity matrix.

    The kernel coefficient is counted by `_cauchy_kernel`. The right side
    reads [x^alpha]Q_lambda and [y^beta]P_lambda off Q_poly, P_lambda
    as the exact quotient by 2^{l(lambda)}.

    first_failure is (k, k) for the least degree k at which a Q_lambda of
    size k fails its check or a coefficient of bidegree (k, k) differs.
    """
    if N < d:
        raise ValueError("need N >= d for a faithful truncation")
    kernel = _cauchy_kernel()
    for k in range(d + 1):
        dominant = []  # ([x^alpha]Q_lambda, [y^beta]P_lambda) by exponent
        for lam in enumerate_strict(k):
            q = _dominant_coefficients(lam, N)
            if q is None:
                return CauchyReport(False, d, N, first_failure=(k, k))
            den = 1 << lam.length
            dominant.append((q, {e: _exact_quotient(c, den) for e, c in q.items()}))
        shapes = [(a, a + (0,) * (N - len(a))) for a in enumerate_partitions(k)]
        for alpha, x in shapes:
            for beta, y in shapes:
                rhs = sum(q.get(x, 0) * p.get(y, 0) for q, p in dominant)
                if kernel(alpha, beta) != rhs:
                    return CauchyReport(False, d, N, first_failure=(k, k))
    return CauchyReport(True, d, N)


# ---------------------------------------------------------------------------
# cache file format: "Q <lambda> <N> : e1,..,eN=c/1 ...", c an int
# ---------------------------------------------------------------------------


def qpoly_cache_line(lam: StrictPartition, N: int) -> str:
    p = Q_poly(lam, N)
    body = " ".join(
        "%s=%d/%d" % (",".join(map(str, k)), c.numerator, c.denominator)
        for k, c in sorted(p.terms.items())
    )
    return "Q %s %d : %s" % (lam.serialize() or "-", N, body)


def parse_qpoly_cache_line(line: str):
    head, _, body = line.partition(":")
    tag, lamtxt, ntxt = head.split()
    if tag != "Q":
        raise ValueError("bad cache line: %r" % line)
    lam = StrictPartition.parse("" if lamtxt == "-" else lamtxt)
    N = int(ntxt)
    terms = {}
    for item in body.split():
        expo, _, frac = item.partition("=")
        num, _, den = frac.partition("/")
        if int(den) != 1:
            raise ValueError("non-integral coefficient %r in cache line" % frac)
        # in 0 variables the exponent list is empty
        terms[tuple(int(t) for t in expo.split(",") if t)] = int(num)
    return lam, N, NVarPoly(N, terms)
