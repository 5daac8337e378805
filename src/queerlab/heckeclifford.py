"""The Hecke-Clifford algebras H_n = C[S_n] x| Cl_n and their isotypic ideals.

Basis words are alpha_1^{e_1}...alpha_n^{e_n} * sigma (Clifford monomial
first, then permutation); products of basis words are single signed basis
words, so all heavy subspace work stays sparse.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import factorial, isqrt

from .partitions import StrictPartition, delta, enumerate_strict, contains
from .scalars import Cyclo8Scalar, ONE, ZERO
from .symfunc import induct_mult


class DecompositionError(RuntimeError):
    """Exact splitting or labeling of the regular module failed."""


# permutations are tuples p with p[i] = image of letter i (0-indexed)


def perm_compose(p: tuple, q: tuple) -> tuple:
    """(p q)(i) = p(q(i))."""
    return tuple(map(p.__getitem__, q))


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


def all_words(n: int):
    perms = list(permutations(range(n)))
    return [(mask, p) for mask in range(1 << n) for p in perms]


# ---------------------------------------------------------------------------
# isotypic decomposition of the regular module
# ---------------------------------------------------------------------------


def _odd_cycles(p: tuple):
    """The cycles of p, each from its least letter, or None if one has even length."""
    cycles, seen = [], set()
    for i in range(len(p)):
        if i not in seen:
            cycle = [i]
            while p[cycle[-1]] != i:
                cycle.append(p[cycle[-1]])
            if not len(cycle) & 1:
                return None
            seen.update(cycle)
            cycles.append(cycle)
    return cycles


@lru_cache(maxsize=None)
def _signed_classes(n: int) -> tuple:
    """The even center of H_n (ordinary sense) as signed class sums C_j:
    (starts, types, index).

    alpha_1 and the s_i square to 1, so z is central iff g z g = z for each
    of them, and g w g is a signed basis word. For w = alpha^mask sigma,
    alpha_a w alpha_a toggles the bits a and sigma(a) of the mask, with the
    sign of the number of bits below a plus the number above sigma(a) once a
    is toggled. So the parity of the bits on each cycle of sigma is an
    invariant, and the classes on which these signs agree are those of odd
    cycle type with an even number of bits on each cycle, one per strict
    partition of n (Stembridge, Adv. Math. 74, 1989). Every other even word
    has coefficient 0 in every central element.

    types[j] is the cycle type of C_j, and starts[j] = (0, p) its word with
    coefficient 1, p the first permutation of that type in lexicographic
    order; the classes are numbered in that order. index maps each
    permutation p of odd cycle type to (j, signs): the word alpha^mask p is
    in C_j with coefficient signs[mask] = +-1. A central c is
    sum_j c[starts[j]] C_j.
    """
    starts, types, index = [], [], {}
    for p in permutations(range(n)):
        cycles = _odd_cycles(p)
        if cycles is None:
            continue
        t = tuple(sorted(map(len, cycles), reverse=True))
        if t not in types:
            types.append(t)
            starts.append((0, p))
        j = types.index(t)
        # conjugate by alpha_a for each letter a but the last of each cycle:
        # these toggles span the masks with an even number of bits per cycle
        signs = {0: 1}
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:]):
                for mask, s in list(signs.items()):
                    below = (mask & (1 << a) - 1).bit_count()
                    above = ((mask ^ 1 << a) >> b + 1).bit_count()
                    signs[mask ^ 1 << a ^ 1 << b] = -s if (below + above) & 1 else s
        index[p] = (j, signs)
    return starts, types, index


class IsotypicBlock:
    __slots__ = ("label", "dim_J", "dim_S", "type", "coords")

    def __init__(self, label: StrictPartition, dim_J: int, dim_S: int, type: str, coords: list):
        self.label = label
        self.dim_J = dim_J
        self.dim_S = dim_S
        self.type = type  # "M" or "Q"
        self.coords = coords  # e_lambda = sum_j coords[j] C_j, over `_signed_classes`


class IsotypicTable:
    __slots__ = ("n", "blocks", "types", "weights", "support")

    def __init__(self, n: int, blocks: dict, types: list, weights: list, support: int):
        self.n = n
        self.blocks = blocks
        self.types = types  # the cycle type of each class C_j
        self.weights = weights  # (C_j C_j)[1], one per class
        self.support = support  # the number of words in the classes

    def to_dict(self) -> dict:
        return {
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
        }


def _content_values(n: int) -> dict:
    """lambda -> v(lambda) = sum_i (lambda_i - 1) lambda_i (lambda_i + 1) / 3
    for the strict partitions of n, in `enumerate_strict` order.

    v(lambda) is the sum of c(c + 1) over the boxes of the shifted diagram,
    c = column - row: the scalar by which the Casimir acts on J^lambda. Two
    partitions sharing a value cannot be told apart by it, so that raises
    DecompositionError (first at n = 15: (9,5,1) and (8,7) both give 280).
    """
    values = {}
    for lam in enumerate_strict(n):
        v = sum((p - 1) * p * (p + 1) for p in lam.parts) // 3
        clash = next((mu for mu, u in values.items() if u == v), None)
        if clash is not None:
            raise DecompositionError(
                "the Casimir of H_%d takes the value %d on both %s and %s"
                % (n, v, clash.parts, lam.parts)
            )
        values[lam] = v
    return values


def casimir_coords(n: int) -> list:
    """The class coordinates of z = sum_k M_k^2 over the odd Jucys-Murphy
    elements M_k = sum_{j<k} (1 + alpha_j alpha_k) s_{jk} (Nazarov, Adv. Math.
    127, 1997). z is central and acts on J^lambda by `_content_values(n)[lambda]`.

    z is n(n-1) times the unit plus the class of the 3-cycles (z = 0 for
    n <= 1): each ((1 + alpha_j alpha_k) s_{jk})^2 is 2, and the cross terms
    of the M_k^2 sum to the signed 3-cycle class.
    """
    one, three = (1,) * n, (3,) + (1,) * (n - 3)
    return [Cyclo8Scalar.from_int(n * (n - 1) * (t == one) + (t == three)) for t in _signed_classes(n)[1]]


def _split_center(n: int, values: dict) -> tuple:
    """(lambda -> the coordinates of e_lambda, the structure constants).

    e_lambda = prod_{mu != lambda} (z - v(mu)) / (v(lambda) - v(mu)) for the
    Casimir z and its block values v = `values`. The work stays inside the
    k-dimensional center, on the `_signed_classes` coordinates.

    The structure constants consts[a][b][j] = (C_a C_b)[starts[j]] are
    integers. A word u meets starts[j] only with the word u' starts[j], u'
    the inverse word of u (u u' = t * 1, t = +-1). C_a holds u' with
    C_a[u'] = t C_a[u]: this holds at the start word, and conjugation by a
    generator keeps it. So (C_a C_b)[starts[j]] is the sum of
    C_a[u'] C_b[u' starts[j]] over the words u' of C_a, and for
    u' = alpha^mask p that word is alpha^mask (p q), q the permutation of
    starts[j]: one lookup of p q per permutation p and j.
    """
    starts, _, index = _signed_classes(n)
    k = len(starts)
    consts = [[[0] * k for _ in range(k)] for _ in range(k)]
    for p, (a, signs) in index.items():
        for j, (_, q) in enumerate(starts):
            hit = index.get(perm_compose(p, q))
            if hit is not None:
                b, other = hit
                consts[a][b][j] += sum(s * other.get(mask, 0) for mask, s in signs.items())

    def mul(x, y):
        out = [ZERO] * k
        for a, xa in enumerate(x):
            for b, yb in enumerate(y):
                if xa.is_zero() or yb.is_zero():
                    continue
                c = xa * yb
                out = [o + c * t for o, t in zip(out, consts[a][b])]
        return out

    one = [ONE] + [ZERO] * (k - 1)  # starts[0] is the unit word
    z = casimir_coords(n)
    out = {}
    for lam, v in values.items():
        e = one
        for mu, u in values.items():
            if mu != lam:
                inv = Cyclo8Scalar.from_int(v - u).inverse()
                e = mul(e, [(zj - u * oj) * inv for zj, oj in zip(z, one)])
        # the closed form for the values of z is checked, not assumed
        if mul(e, e) != e:
            raise DecompositionError("non-idempotent central projector for %s" % (lam.parts,))
        out[lam] = e
    return out, consts


def _trace_rank(small: IsotypicTable, x: list, big: IsotypicTable, y: list) -> int:
    """Rank of left multiplication by the idempotent x*y on H_N, N = big.n,
    as its trace 2^N N! (x*y)[1] (a word u has L_u diagonal only if u = 1).

    x = sum_i x_i C_i is central in H_k, k = small.n, and embedded on k of the
    N letters; y = sum_j y_j C_j is central in H_N. The embedded C_i lies in
    the class of H_N whose cycle type adds N - k fixed points, with the same
    signs, and (C_i C_j)[1] = 0 for j != i, since the inverse of a word is in
    its own class. So (x*y)[1] is a sum of k terms x_i y_i' (C_i C_i)[1].
    """
    pad = (1,) * (big.n - small.n)
    t = ZERO
    for xi, ti, w in zip(x, small.types, small.weights):
        t = t + xi * y[big.types.index(ti + pad)] * w
    t = t * ((1 << big.n) * factorial(big.n))
    if not t.is_integer():
        raise DecompositionError("regular trace %r is not an integer" % (t,))
    return t.re


_TABLE_CACHE: dict = {}


def decompose_regular(n: int) -> IsotypicTable:
    """Two-sided isotypic decomposition of H_n with strict-partition labels.

    Each block is labelled by the value of the Casimir on it; its type, read
    off dim J^lambda, and its restriction ranks to H_{n-1} are then checked
    against that label.
    """
    if n in _TABLE_CACHE:
        return _TABLE_CACHE[n]
    values = _content_values(n)
    starts, types, index = _signed_classes(n)
    if len(starts) != len(values):
        raise DecompositionError(
            "even center of H_%d has dimension %d, expected %d"
            % (n, len(starts), len(values))
        )
    idems, consts = _split_center(n, values)
    weights = [consts[j][j][0] for j in range(len(types))]
    table = IsotypicTable(n, {}, types, weights, sum(len(signs) for _, signs in index.values()))
    unit = [ONE] + [ZERO] * (len(types) - 1)  # starts[0] is the unit word
    prev = decompose_regular(n - 1) if n else None
    induced = {nu: induct_mult(StrictPartition((1,)), nu) for nu in (prev.blocks if n else ())}
    for lam, e in idems.items():
        # a simple block is M(p|q), of dimension (p+q)^2, or Q(d), of
        # dimension 2 d^2: exactly one of dim_J and 2 dim_J is a square
        dim_J = _trace_rank(table, e, table, unit)
        is_q = dim_J > 0 and isqrt(dim_J) ** 2 != dim_J
        dim_S2 = dim_J * (2 if is_q else 1)
        dim_S = isqrt(max(dim_S2, 0))
        if dim_J < 1 or dim_S * dim_S != dim_S2:
            raise DecompositionError("dim J^lambda = %d is not of the expected form" % dim_J)
        if is_q != (delta(lam) == 1):
            raise DecompositionError(
                "block %s is of type %s, but delta = %d"
                % (lam.parts, "Q" if is_q else "M", delta(lam))
            )
        # cross-check the label by restriction: e is central, so f*e is an
        # idempotent and dim f*J = rank of L_{f*e}, which induction by one
        # box predicts
        for nu, product in induced.items():
            pb = prev.blocks[nu]
            predicted = product.get(lam, 0) * 2 ** delta(lam) * pb.dim_S * (dim_J // dim_S)
            observed = _trace_rank(prev, pb.coords, table, e)
            if observed * 2 ** delta(nu) != predicted:
                raise DecompositionError(
                    "block %s restricts to rank %d on %s, predicted %d/%d"
                    % (lam.parts, observed, nu.parts, predicted, 2 ** delta(nu))
                )
        table.blocks[lam] = IsotypicBlock(lam, dim_J, dim_S, "Q" if is_q else "M", e)

    if sum(b.dim_J for b in table.blocks.values()) != (1 << n) * factorial(n):
        raise DecompositionError("isotypic dimensions do not sum to dim H_n")
    _TABLE_CACHE[n] = table
    return table


# ---------------------------------------------------------------------------
# theorem verification
# ---------------------------------------------------------------------------


class SigmaCase:
    __slots__ = ("lam", "m", "predicted", "observed", "dims_match")

    def __init__(
        self, lam: StrictPartition, m: int, predicted: list, observed: list, dims_match: bool
    ):
        self.lam = lam
        self.m = m
        self.predicted = predicted
        self.observed = observed
        self.dims_match = dims_match

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


def verify_tensor_ideal_theorem(n_max: int = 4) -> list[SigmaCase]:
    """Check Sigma^m(J^lambda) = (+) of J^mu over mu containing lambda.

    Sigma^m(J^lambda) is the two-sided ideal of H_{n0+m} generated by the
    idempotent x = iota_{m,n0}(1 (x) e_lambda). H_n is semisimple, so that
    ideal is the sum of the blocks J^mu with e_mu * x != 0. Each e_mu * x is
    an idempotent (e_mu is central), so it is nonzero iff its rank, the
    regular trace, is; and the ranks of the parts must add up to that of x.
    """
    tables = {r: decompose_regular(r) for r in range(n_max + 1)}
    cases = []
    for n0 in range(0, n_max + 1):
        small = tables[n0]
        for lam in enumerate_strict(n0):
            e = small.blocks[lam].coords
            for m in range(0, n_max - n0 + 1):
                big = tables[n0 + m]
                predicted = [mu for mu in enumerate_strict(n0 + m) if contains(lam, mu)]
                ranks = {mu: _trace_rank(small, e, big, b.coords) for mu, b in big.blocks.items()}
                observed = [mu for mu, r in ranks.items() if r]
                unit = [ONE] + [ZERO] * (len(big.types) - 1)
                dims_ok = sum(ranks.values()) == _trace_rank(small, e, big, unit)
                cases.append(SigmaCase(lam, m, predicted, observed, dims_ok))
    return cases


class BraidSignCase:
    __slots__ = ("m", "n", "x_parity", "y_parity", "empirical_sign", "paper_mn_sign")

    def __init__(
        self, m: int, n: int, x_parity: int, y_parity: int, empirical_sign: int, paper_mn_sign: int
    ):
        self.m = m
        self.n = n
        self.x_parity = x_parity
        self.y_parity = y_parity
        self.empirical_sign = empirical_sign
        self.paper_mn_sign = paper_mn_sign

    @property
    def matches_parity_law(self):
        return self.empirical_sign == (-1) ** (self.x_parity * self.y_parity)

    @property
    def matches_paper_mn(self):
        return self.empirical_sign == self.paper_mn_sign


def _iota_word(m: int, n: int, wx: tuple, wy: tuple) -> tuple:
    """iota_{m,n}(wx (x) wy) for basis words wx of H_m and wy of H_n: wx on
    the first m letters of H_{m+n} times wy on the last n, as ((mask, perm), sign)."""
    (cx, px), (cy, py) = wx, wy
    left = (cx, px + tuple(range(m, m + n)))
    right = (cy << m, tuple(range(m)) + tuple(v + m for v in py))
    return word_mult(left, right)


def braid_conjugation_cases(m: int, n: int) -> list[BraidSignCase]:
    """Empirical sign in tau iota(x,y) tau^{-1} = sign * iota(y,x) on basis
    words, tau = tau_{m,n} the block swap of H_{m+n} and tau^{-1} = tau_{n,m}."""
    tau = (0, tuple(range(n, m + n)) + tuple(range(n)))
    tau_inv = (0, tuple(range(m, m + n)) + tuple(range(m)))
    out = []
    for wx in all_words(m):
        for wy in all_words(n):
            w, s1 = _iota_word(m, n, wx, wy)
            w, s2 = word_mult(tau, w)
            w, s3 = word_mult(w, tau_inv)
            rhs, s4 = _iota_word(n, m, wy, wx)
            if w != rhs:
                raise DecompositionError("braid conjugation is not +-iota(y,x)")
            out.append(
                BraidSignCase(
                    m,
                    n,
                    wx[0].bit_count() & 1,
                    wy[0].bit_count() & 1,
                    s1 * s2 * s3 * s4,
                    (-1) ** (m * n),
                )
            )
    return out
