"""The Hecke-Clifford algebras H_n = C[S_n] x| Cl_n and their isotypic ideals.

Basis words are alpha_1^{e_1}...alpha_n^{e_n} * sigma (Clifford monomial
first, then permutation); products of basis words are single signed basis
words, so all heavy subspace work stays sparse.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, isqrt, lcm

from .linalg import Echelon, add_term, span
from .partitions import StrictPartition, delta, enumerate_strict, contains
from .scalars import Cyclo8Scalar, ONE, ZERO, ZETA, _coerce
from .symfunc import induct_mult


class DecompositionError(RuntimeError):
    """Exact splitting or labeling of the regular module failed."""


# permutations are tuples p with p[i] = image of letter i (0-indexed)


def perm_id(n: int) -> tuple:
    return tuple(range(n))


def perm_compose(p: tuple, q: tuple) -> tuple:
    """(p q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def perm_inverse(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _bits(mask: int):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def _sort_sign(seq) -> int:
    """Parity sign of the permutation sorting seq ascending (entries distinct)."""
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv & 1 else 1


def word_mult(w1: tuple, w2: tuple) -> tuple:
    """Product of two basis words; returns ((mask, perm), sign)."""
    c1, p1 = w1
    c2, p2 = w2
    sign = 1
    if c2:
        images = [p1[i] for i in _bits(c2)]
        sign = _sort_sign(images)
        moved = 0
        for v in images:
            moved |= 1 << v
        # alpha^{c1} * alpha^{moved}: anticommute, alpha_i^2 = 1
        for b in _bits(moved):
            higher = c1 >> (b + 1)
            if higher.bit_count() & 1:
                sign = -sign
        mask = c1 ^ moved
    else:
        mask = c1
    return (mask, perm_compose(p1, p2)), sign


class HCElement:
    """A sparse element of H_n over Q(zeta)."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for w, c in terms.items():
                c = _coerce(c)
                if not c.is_zero():
                    self.terms[w] = c

    @staticmethod
    def unit(n: int) -> "HCElement":
        return HCElement(n, {(0, perm_id(n)): ONE})

    @staticmethod
    def alpha(n: int, i: int) -> "HCElement":
        """The Clifford generator alpha_i (1-based)."""
        return HCElement(n, {(1 << (i - 1), perm_id(n)): ONE})

    @staticmethod
    def transposition(n: int, i: int) -> "HCElement":
        """The simple transposition s_i of letters i, i+1 (1-based)."""
        p = list(range(n))
        p[i - 1], p[i] = p[i], p[i - 1]
        return HCElement(n, {(0, tuple(p)): ONE})

    @staticmethod
    def permutation(n: int, p: tuple) -> "HCElement":
        return HCElement(n, {(0, tuple(p)): ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return self.n == other.n and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            add_term(out, w, c)
        return HCElement(self.n, out)

    def __neg__(self):
        return HCElement(self.n, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "HCElement":
        c = _coerce(c)
        if c.is_zero():
            return HCElement(self.n)
        return HCElement(self.n, {w: c * x for w, x in self.terms.items()})

    def __mul__(self, other):
        if self.n != other.n:
            raise ValueError("rank mismatch")
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w, sign = word_mult(w1, w2)
                c = c1 * c2
                add_term(out, w, c if sign == 1 else -c)
        return HCElement(self.n, out)

    def parity(self):
        ps = {w[0].bit_count() & 1 for w in self.terms}
        return ps.pop() if len(ps) == 1 else None

    def homogeneous_parts(self):
        parts = {0: {}, 1: {}}
        for w, c in self.terms.items():
            parts[w[0].bit_count() & 1][w] = c
        return {p: HCElement(self.n, t) for p, t in parts.items() if t}

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms):
            mask, p = w
            mono = "".join("a%d" % (i + 1) for i in _bits(mask))
            ptxt = "" if p == perm_id(self.n) else "s" + "".join(str(i) for i in p)
            bits.append("%r*%s" % (self.terms[w], (mono + ptxt) or "1"))
        return " + ".join(bits)


def transpose(x: HCElement) -> HCElement:
    """zeta^{k^2} sigma^{-1} alpha_{i_k} ... alpha_{i_1}, extended linearly."""
    out = {}
    for (mask, p), c in x.terms.items():
        k = mask.bit_count()
        coeff = c * (ZETA ** (k * k))
        if (k * (k - 1) // 2) & 1:
            coeff = -coeff  # reverse the ascending Clifford letters
        q = perm_inverse(p)
        images = [q[i] for i in _bits(mask)]
        if _sort_sign(images) < 0:
            coeff = -coeff
        moved = 0
        for v in images:
            moved |= 1 << v
        add_term(out, (moved, q), coeff)
    return HCElement(x.n, out)


def embed_left(x: HCElement, m: int, n: int) -> HCElement:
    """H_m -> H_{m+n} on the first m letters."""
    tail = tuple(range(m, m + n))
    return HCElement(
        m + n, {(mask, p + tail): c for (mask, p), c in x.terms.items()}
    )


def embed_right(y: HCElement, m: int, n: int) -> HCElement:
    """H_n -> H_{m+n} on the last n letters."""
    head = tuple(range(m))
    return HCElement(
        m + n,
        {
            (mask << m, head + tuple(v + m for v in p)): c
            for (mask, p), c in y.terms.items()
        },
    )


def iota(m: int, n: int, x: HCElement, y: HCElement) -> HCElement:
    """iota_{m,n}(x (x) y) in H_{m+n}."""
    if x.n != m or y.n != n:
        raise ValueError("rank mismatch")
    return embed_left(x, m, n) * embed_right(y, m, n)


def braid(m: int, n: int) -> HCElement:
    """The block swap tau_{m,n} as an algebra element of H_{m+n}."""
    p = [0] * (m + n)
    for i in range(m):
        p[i] = i + n
    for i in range(m, m + n):
        p[i] = i - m
    return HCElement.permutation(m + n, tuple(p))


def all_words(n: int):
    perms = _all_perms(n)
    return [(mask, p) for mask in range(1 << n) for p in perms]


def _all_perms(n: int):
    if n == 0:
        return [()]
    out = []

    def rec(prefix, rest):
        if not rest:
            out.append(tuple(prefix))
            return
        for i, v in enumerate(rest):
            rec(prefix + [v], rest[:i] + rest[i + 1 :])

    rec([], list(range(n)))
    return out


@lru_cache(maxsize=None)
def _inverse_words(n: int) -> dict:
    """w -> (w', sign) with w * w' = sign * 1, for every basis word of H_n.

    For w = alpha^mask sigma, w' = sigma^{-1} alpha^mask = alpha^{sigma^{-1}(mask)}
    sigma^{-1} up to sign, and no other word multiplies w to a multiple of 1.
    """
    out = {}
    for w in all_words(n):
        mask, p = w
        q = perm_inverse(p)
        moved = 0
        for i in _bits(mask):
            moved |= 1 << q[i]
        inv = (moved, q)
        unit, sign = word_mult(w, inv)
        assert unit == (0, perm_id(n))
        out[w] = (inv, sign)
    return out


def product_coefficient(x: HCElement, y: HCElement, w=None) -> Cyclo8Scalar:
    """(x*y)[w], the coefficient of the word w (default: the unit) in x*y,
    without forming x*y.

    Only one word v of y meets a word u of x in w: u*v = +-w forces
    v = +-u^{-1} w. So this costs one dict lookup per term of x. Left
    multiplication by a basis word u has a nonzero diagonal entry only when
    u = 1, so the trace of left multiplication by x*y on H_n is
    2^n n! * product_coefficient(x, y).
    """
    inv = _inverse_words(x.n)
    total = Cyclo8Scalar()
    for u, c in x.terms.items():
        v, sign = inv[u]
        if w is not None:
            v, s = word_mult(v, w)
            sign *= s
        d = y.terms.get(v)
        if d is not None:
            total = total + c * d if sign == 1 else total - c * d
    return total


def generators(n: int) -> list[HCElement]:
    gens = []
    if n >= 1:
        gens.append(HCElement.alpha(n, 1))
    for i in range(1, n):
        gens.append(HCElement.transposition(n, i))
    return gens


def two_sided_closure(n: int, elements) -> Echelon:
    """Smallest subspace containing the elements closed under left/right
    multiplication by H_n, as an echelon of word-coordinate vectors."""
    gens = generators(n)
    ech = Echelon()
    queue = []
    for x in elements:
        v = dict(x.terms) if isinstance(x, HCElement) else dict(x)
        if ech.insert(v):
            queue.append(v)
    full = (1 << n) * factorial(n)
    while queue and ech.rank < full:
        x = HCElement(n, queue.pop())
        for g in gens:
            for prod in (g * x, x * g):
                if ech.insert(prod.terms):
                    queue.append(dict(prod.terms))
    return ech


def sigma_step(n: int, subspace: Echelon) -> Echelon:
    """Two-sided ideal of H_{n+1} generated by iota_{1,n}(1 (x) J)."""
    shifted = []
    for row in subspace.rows.values():
        shifted.append(embed_right(HCElement(n, row), 1, n))
    return two_sided_closure(n + 1, shifted)


# ---------------------------------------------------------------------------
# isotypic decomposition of the regular module
# ---------------------------------------------------------------------------


@dataclass
class IsotypicBlock:
    label: StrictPartition
    dim_J: int
    dim_S: int
    type: str  # "M" or "Q"
    idempotent: HCElement


@dataclass
class IsotypicTable:
    n: int
    blocks: dict

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "blocks": [
                    {
                        "lambda": b.label.serialize(),
                        "dim_J": b.dim_J,
                        "dim_S": b.dim_S,
                        "type": b.type,
                    }
                    for b in sorted(self.blocks.values(), key=lambda b: b.label.parts)
                ],
            },
            indent=2,
        )


def _center_basis(n: int, parity: int) -> list[HCElement]:
    """Elements of the given parity commuting with all of H_n (ordinary sense).

    Each generator g has g^2 = 1, so z is central iff g z g = z, and g w g is
    a signed basis word for each word w. A central element is therefore
    constant up to those signs on each orbit of the words under the
    generators, and vanishes on an orbit whose signs contradict each other.
    Each consistent orbit gives one basis element, scaled to 1 at its last
    word in `all_words` order: the echelon kernel basis of the commutation
    constraints.
    """
    words = [w for w in all_words(n) if w[0].bit_count() % 2 == parity]
    position = {w: i for i, w in enumerate(words)}
    gens = [next(iter(g.terms)) for g in generators(n)]
    seen = set()
    basis = []
    for start in words:
        if start in seen:
            continue
        signs = {start: 1}
        queue = [start]
        consistent = True
        while queue:
            w = queue.pop()
            for g in gens:
                u, s1 = word_mult(g, w)
                v, s2 = word_mult(u, g)
                s = signs[w] * s1 * s2
                if v not in signs:
                    signs[v] = s
                    queue.append(v)
                elif signs[v] != s:
                    consistent = False
        seen.update(signs)
        if consistent:
            last = max(signs, key=position.__getitem__)
            basis.append(
                (position[last], HCElement(n, {w: s * signs[last] for w, s in signs.items()}))
            )
    return [b for _, b in sorted(basis, key=lambda t: t[0])]


def _rational_roots(coeffs: list) -> list | None:
    """Roots of a monic rational polynomial, or None if any factor is nonlinear.

    coeffs are Fractions, lowest degree first. Roots come with multiplicity.
    By the rational-root theorem a root p/q in lowest terms of the integer
    polynomial D*f has p | a_0 and q | a_d; each root found is divided out
    before the next search, so the search fails exactly when what is left
    has no linear factor over Q.
    """
    poly = [Fraction(c) for c in coeffs]
    roots = []
    while len(poly) > 1 and poly[0] == 0:
        roots.append(Fraction(0))
        poly = poly[1:]
    while len(poly) > 1:
        den = lcm(*(c.denominator for c in poly))
        a0 = abs(int(poly[0] * den))
        ad = abs(int(poly[-1] * den))
        root = next(
            (
                r
                for p in _divisors(a0)
                for q in _divisors(ad)
                for r in (Fraction(p, q), Fraction(-p, q))
                if _horner(poly, r) == 0
            ),
            None,
        )
        if root is None:
            return None
        roots.append(root)
        poly = _deflate(poly, root)
    return roots


def _divisors(k: int) -> list[int]:
    small = [d for d in range(1, isqrt(k) + 1) if k % d == 0]
    return small + [k // d for d in reversed(small) if d * d != k]


def _horner(poly: list, t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * t + c
    return acc


def _deflate(poly: list, root: Fraction) -> list:
    """poly / (t - root) for a root of poly, lowest degree first."""
    out = [Fraction(0)] * (len(poly) - 1)
    acc = Fraction(0)
    for i in range(len(poly) - 1, 0, -1):
        acc = acc * root + poly[i]
        out[i - 1] = acc
    return out


def _split_center(n: int, z0: list[HCElement], seed: int, retries: int = 32):
    """Primitive idempotents of the even center, by random splitting elements.

    The work stays inside the k-dimensional center. The echelon rows r_j of
    z0 have pivot words p_j and a central c equals sum_j c[p_j] r_j, so
    elements are coordinate vectors and the structure constants are the
    coefficients (r_a r_b)[p_j], read without forming the products.
    """
    k = len(z0)
    unit = HCElement.unit(n)
    if k == 1:
        return [unit]
    ech = span(b.terms for b in z0)
    pivots = sorted(ech.rows)
    rows = [HCElement(n, ech.rows[p]) for p in pivots]
    consts = [[[product_coefficient(ra, rb, p) for p in pivots] for rb in rows] for ra in rows]

    def mul(x, y):
        out = [ZERO] * k
        for a, xa in enumerate(x):
            for b, yb in enumerate(y):
                if xa.is_zero() or yb.is_zero():
                    continue
                c = xa * yb
                out = [o + c * t for o, t in zip(out, consts[a][b])]
        return out

    def coords(x):
        return [x.terms.get(p, ZERO) for p in pivots]

    one = coords(unit)
    z0_coords = [coords(b) for b in z0]
    rng = random.Random(seed)
    for attempt in range(retries):
        coeffs = [rng.randint(-3, 3) for _ in range(k)]
        z = [sum((c * b[j] for c, b in zip(coeffs, z0_coords)), ZERO) for j in range(k)]
        roots = _rational_roots(_min_poly(z, one, mul))
        if roots is None or len(set(roots)) != k:
            continue  # collision or irrational eigenvalue; fresh randomness
        roots = [Cyclo8Scalar.from_fraction(c) for c in sorted(set(roots))]
        idems = []
        for c in roots:
            e = one
            for c2 in roots:
                if c2 != c:
                    inv = (c - c2).inverse()
                    e = mul(e, [(zj - c2 * oj) * inv for zj, oj in zip(z, one)])
            if mul(e, e) != e:
                raise DecompositionError("non-idempotent central projector")
            idems.append(e)
        out = []
        total = HCElement(n)
        for e in idems:
            elem = HCElement(n)
            for c, r in zip(e, rows):
                elem = elem + r.scale(c)
            out.append(elem)
            total = total + elem
        if total != unit:
            raise DecompositionError("central idempotents do not sum to 1")
        return out
    raise DecompositionError(
        "center splitting failed after %d random attempts (irrational central "
        "characters?)" % retries
    )


def _min_poly(z: list, one: list, mul) -> list[Fraction]:
    """Monic minimal polynomial of z, lowest degree first, from the first
    linear dependence among the coordinate vectors of 1, z, z^2, ...

    Each power carries a marker key (1, d); once its coordinates reduce to
    zero, the markers left hold the coefficients of the dependence.
    """
    ech = Echelon()
    power = one
    for d in range(len(one) + 1):
        vec = {(0, j): c for j, c in enumerate(power) if not c.is_zero()}
        vec[(1, d)] = ONE
        rest = ech.reduce(vec)
        if all(key[0] == 1 for key in rest):
            poly = [rest.get((1, i), ZERO) for i in range(d + 1)]
            if not all(c.is_rational() for c in poly):
                raise DecompositionError("irrational central minimal polynomial")
            return [c.as_fraction() for c in poly]
        ech.insert(rest)
        power = mul(power, z)
    raise DecompositionError("no minimal polynomial found")  # pragma: no cover


def _trace_rank(x: HCElement, y: HCElement) -> int:
    """Rank of left multiplication by the idempotent x*y on H_n, as its trace."""
    t = product_coefficient(x, y) * ((1 << x.n) * factorial(x.n))
    if not t.is_integer():
        raise DecompositionError("regular trace %r is not an integer" % (t,))
    return t.re


_TABLE_CACHE: dict = {}


def decompose_regular(n: int, seed: int = 0) -> IsotypicTable:
    """Two-sided isotypic decomposition of H_n with strict-partition labels."""
    key = (n, seed)
    if key in _TABLE_CACHE:
        return _TABLE_CACHE[key]
    if n == 0:
        unit = HCElement.unit(0)
        blocks = {
            StrictPartition(()): IsotypicBlock(StrictPartition(()), 1, 1, "M", unit)
        }
        table = IsotypicTable(0, blocks)
        _TABLE_CACHE[key] = table
        return table

    z_even = _center_basis(n, 0)
    expected = len(enumerate_strict(n))
    if len(z_even) != expected:
        raise DecompositionError(
            "even center of H_%d has dimension %d, expected %d"
            % (n, len(z_even), expected)
        )
    idems = _split_center(n, z_even, seed)
    # e*o is central and odd, so it vanishes iff its coefficients at the
    # pivot words of the odd center do
    z_odd = _center_basis(n, 1)
    odd_pivots = list(span(o.terms for o in z_odd).rows)

    unit = HCElement.unit(n)
    blocks_raw = []
    for e in idems:
        dim_J = _trace_rank(e, unit)
        is_q = any(
            not product_coefficient(e, o, p).is_zero() for o in z_odd for p in odd_pivots
        )
        dim_S2 = dim_J * (2 if is_q else 1)
        dim_S = isqrt(dim_S2)
        if dim_S * dim_S != dim_S2:
            raise DecompositionError("dim J^lambda = %d is not of the expected form" % dim_J)
        blocks_raw.append((e, dim_J, dim_S, is_q))

    if sum(b[1] for b in blocks_raw) != (1 << n) * factorial(n):
        raise DecompositionError("isotypic dimensions do not sum to dim H_n")

    # inductive labeling by restriction multiplicities against rank n-1
    prev = decompose_regular(n - 1, seed=seed)
    one_box = StrictPartition((1,))
    pieri_cache = {
        nu: induct_mult(one_box, nu) for nu in prev.blocks
    }
    blocks = {}
    restricted = {
        nu: embed_left(pb.idempotent, n - 1, 1) for nu, pb in prev.blocks.items()
    }
    for e, dim_J, dim_S, is_q in blocks_raw:
        # e is central, so f*e is an idempotent and dim f*J = rank of L_{f*e}
        observed = {nu: _trace_rank(f, e) for nu, f in restricted.items()}
        t_copies = dim_J // dim_S
        candidates = []
        for lam in enumerate_strict(n):
            if delta(lam) != (1 if is_q else 0):
                continue
            predicted = {}
            for nu, pb in prev.blocks.items():
                m = pieri_cache[nu].get(lam, 0)
                num = m * 2 ** delta(lam) * pb.dim_S * t_copies
                den = 2 ** delta(nu)
                if num % den:
                    break
                predicted[nu] = num // den
            else:
                if predicted == observed:
                    candidates.append(lam)
        if len(candidates) != 1:
            raise DecompositionError(
                "ambiguous or impossible labeling: candidates %r for block of dim %d"
                % (candidates, dim_J)
            )
        lam = candidates[0]
        blocks[lam] = IsotypicBlock(lam, dim_J, dim_S, "Q" if is_q else "M", e)
    table = IsotypicTable(n, blocks)
    _TABLE_CACHE[key] = table
    return table


# ---------------------------------------------------------------------------
# theorem verification
# ---------------------------------------------------------------------------


@dataclass
class SigmaCase:
    lam: StrictPartition
    m: int
    predicted: list
    observed: list
    dims_match: bool

    @property
    def passed(self) -> bool:
        return self.dims_match and set(self.predicted) == set(self.observed)

    def to_dict(self):
        return {
            "lambda": self.lam.serialize(),
            "m": self.m,
            "predicted_support": [p.serialize() for p in self.predicted],
            "observed_support": [p.serialize() for p in self.observed],
            "pass": self.passed,
        }


def verify_tensor_ideal_theorem(n_max: int = 4, seed: int = 0) -> list[SigmaCase]:
    """Check Sigma^m(J^lambda) = (+) of J^mu over mu containing lambda.

    Sigma^m(J^lambda) is the two-sided ideal of H_{n0+m} generated by the
    idempotent x = iota_{m,n0}(1 (x) e_lambda). H_n is semisimple, so that
    ideal is the sum of the blocks J^mu with e_mu * x != 0. Each e_mu * x is
    an idempotent (e_mu is central), so it is nonzero iff its rank, the
    regular trace, is; and the ranks of the parts must add up to that of x.
    """
    tables = {r: decompose_regular(r, seed=seed) for r in range(n_max + 1)}
    cases = []
    for n0 in range(0, n_max + 1):
        for lam in enumerate_strict(n0):
            e = tables[n0].blocks[lam].idempotent
            for m in range(0, n_max - n0 + 1):
                rank = n0 + m
                x = embed_right(e, m, n0)
                predicted = [
                    mu for mu in enumerate_strict(rank) if contains(lam, mu)
                ]
                ranks = {
                    mu: _trace_rank(blk.idempotent, x)
                    for mu, blk in tables[rank].blocks.items()
                }
                observed = [mu for mu, r in ranks.items() if r]
                dims_ok = sum(ranks.values()) == _trace_rank(x, HCElement.unit(rank))
                cases.append(SigmaCase(lam, m, predicted, observed, dims_ok))
    return cases


@dataclass
class BraidSignCase:
    m: int
    n: int
    x_parity: int
    y_parity: int
    empirical_sign: int
    paper_mn_sign: int

    @property
    def matches_parity_law(self):
        return self.empirical_sign == (-1) ** (self.x_parity * self.y_parity)

    @property
    def matches_paper_mn(self):
        return self.empirical_sign == self.paper_mn_sign


def braid_conjugation_cases(m: int, n: int) -> list[BraidSignCase]:
    """Empirical sign in tau iota(x,y) tau^{-1} = sign * iota(y,x) on basis words."""
    tau = braid(m, n)
    tau_inv = braid(n, m)
    out = []
    for wx in all_words(m):
        for wy in all_words(n):
            x = HCElement(m, {wx: ONE})
            y = HCElement(n, {wy: ONE})
            lhs = tau * iota(m, n, x, y) * tau_inv
            rhs = iota(n, m, y, x)
            if lhs == rhs:
                sign = 1
            elif lhs == -rhs:
                sign = -1
            else:
                raise DecompositionError("braid conjugation is not +-iota(y,x)")
            out.append(
                BraidSignCase(
                    m,
                    n,
                    wx[0].bit_count() & 1,
                    wy[0].bit_count() & 1,
                    sign,
                    (-1) ** (m * n),
                )
            )
    return out
