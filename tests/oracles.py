"""Brute-force oracles that the fast paths of `queerlab` are tested against.

`NVarPoly` holds a full polynomial in N variables, every monomial, where
`symfunc` holds a symmetric polynomial as its table of dominant coefficients
(`dominant` reads that table off a full polynomial, `orbit_poly` expands a
table back). `full_Q_poly` multiplies out the full generators `q_gen` along
`symfunc.q_expansion`, and `tableau_oracle_Q` builds Q_lambda from marked
shifted tableaux, apart from the q_r recursion. `cauchy_kernel_truncated`
and `cauchy_rhs_truncated` expand both sides of the Cauchy identity in all
2N variables x_1..x_N, y_1..y_N, where `symfunc.cauchy_check` compares
dominant coefficients only.
"""

from functools import lru_cache
from itertools import permutations

from queerlab.partitions import StrictPartition, enumerate_strict
from queerlab.symfunc import Q_poly, _exact_quotient, q_expansion


class NVarPoly:
    """Sparse polynomial in N variables with exact (int or Fraction)
    coefficients."""

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

    def scale(self, c) -> "NVarPoly":
        if not c:
            return NVarPoly(self.N)
        return NVarPoly(self.N, {k: c * x for k, x in self.terms.items()})

    def __mul__(self, other):
        # convolve on bit-packed exponent keys: no exponent of the product
        # exceeds its degree, so the degree's bit length per variable (at
        # least 5) keeps every sum of two keys from carrying into the next
        # variable
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


def full_Q_poly(lam: StrictPartition, N: int) -> NVarPoly:
    """Q_lambda in N variables, every monomial: the q_expansion of lambda
    multiplied out in full polynomials."""
    out = NVarPoly(N)
    for qkey, coeff in q_expansion(lam):
        prod = NVarPoly.constant(N, 1)
        for r in qkey:
            prod = prod * q_gen(r, N)
        out = out + prod.scale(coeff)
    return out


def dominant(poly: NVarPoly) -> dict:
    """The table of a polynomial: its coefficients at descending exponents,
    zero parts dropped. It is the whole polynomial when that is symmetric."""
    return {
        tuple(e for e in k if e): c
        for k, c in poly.terms.items()
        if list(k) == sorted(k, reverse=True)
    }


def orbit_poly(table: dict, N: int) -> NVarPoly:
    """The symmetric polynomial in N variables with the given table."""
    terms = {}
    for key, c in table.items():
        for expo in set(permutations(key + (0,) * (N - len(key)))):
            terms[expo] = c
    return NVarPoly(N, terms)


def tableau_oracle_Q(lam: StrictPartition, N: int) -> NVarPoly:
    """Monomial expansion of Q_lambda by enumerating marked shifted tableaux.

    Letters 1' < 1 < 2' < 2 < ... < N; rows and columns weakly increase,
    each unprimed letter at most once per column, each primed letter at
    most once per row. Primes are allowed on the diagonal (Q, not P).
    """
    parts = lam.parts
    cells = []
    for r, width in enumerate(parts):
        for c in range(r, r + width):
            cells.append((r, c))
    # letter encoding: rank 2k-1 = k', rank 2k = k (k = 1..N)
    terms = {}

    def value(rank):
        return (rank + 1) // 2

    def primed(rank):
        return rank % 2 == 1

    def fill(idx, assignment):
        if idx == len(cells):
            expo = [0] * N
            for rank in assignment.values():
                expo[value(rank) - 1] += 1
            k = tuple(expo)
            terms[k] = terms.get(k, 0) + 1
            return
        (r, c) = cells[idx]
        left = assignment.get((r, c - 1))
        up = assignment.get((r - 1, c))
        lo = 1
        if left is not None:
            lo = max(lo, left)
        if up is not None:
            lo = max(lo, up)
        for rank in range(lo, 2 * N + 1):
            if left is not None and rank == left and primed(rank):
                continue  # primed letters cannot repeat within a row
            if up is not None and rank == up and not primed(rank):
                continue  # unprimed letters cannot repeat within a column
            assignment[(r, c)] = rank
            fill(idx + 1, assignment)
        assignment.pop((r, c), None)

    fill(0, {})
    return NVarPoly(N, {k: c for k, c in terms.items() if c})


def pack_shift(N: int):
    # x_i exponent in bits [4i, 4i+4), y_j in [4(N+j), ...), degree on top
    return 4 * 2 * N


def pack_monomial(xexp, yexp, N):
    key = 0
    for i, e in enumerate(xexp):
        key |= e << (4 * i)
    for j, e in enumerate(yexp):
        key |= e << (4 * (N + j))
    key |= sum(xexp) << pack_shift(N)
    return key


def cauchy_kernel_truncated(d: int, N: int) -> dict:
    """prod_{i,j<=N} (1+x_i y_j)/(1-x_i y_j) through x-degree d, packed keys."""
    degshift = pack_shift(N)
    poly = {0: 1}
    for i in range(N):
        for j in range(N):
            base = (1 << (4 * i)) + (1 << (4 * (N + j))) + (1 << degshift)
            new = dict(poly)
            for key, c in poly.items():
                deg = key >> degshift
                c2 = 2 * c
                for k in range(1, d - deg + 1):
                    kk = key + k * base
                    new[kk] = new.get(kk, 0) + c2
            poly = new
    return poly


def cauchy_rhs_truncated(d: int, N: int) -> dict:
    """sum over strict |lambda| <= d of Q_lambda(x) P_lambda(y), packed keys.

    Runs on ints: P_lambda = Q_lambda / 2^{l(lambda)} is taken as the exact
    integer quotient.
    """
    out = {}
    zeros = (0,) * N
    for size in range(0, d + 1):
        for lam in enumerate_strict(size):
            den = 1 << lam.length
            qx, py = {}, {}
            for k, c in orbit_poly(Q_poly(lam, N), N).terms.items():
                qx[pack_monomial(k, zeros, N)] = _exact_quotient(c, 1)
                py[pack_monomial(zeros, k, N)] = _exact_quotient(c, den)
            for k1, c1 in qx.items():
                for k2, c2 in py.items():
                    k = k1 + k2
                    s = out.get(k, 0) + c1 * c2
                    if s:
                        out[k] = s
                    else:
                        out.pop(k, None)
    return out
