"""The Hecke-Clifford algebras H_n = C[S_n] x| Cl_n and their isotypic ideals.

Basis words are alpha_1^{e_1}...alpha_n^{e_n} * sigma (Clifford monomial
first, then permutation); products of basis words are single signed basis
words. The isotypic ideals are read off the even center, a central element
being its k coordinates on the signed class sums; no word list is formed.
The central idempotents come in closed form from the spin character table,
the coefficients of the Q_lambda in the odd power sums p_t of Gamma, and the
Casimir checks them.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import factorial, isqrt

from .partitions import StrictPartition, contains, delta, enumerate_strict, l_max, odd_partitions, z
from .symfunc import _power_sum, expand_in_Q, induct_mult


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


def _class_size(t: tuple) -> int:
    """|C_t| = n!/z_t 2^(n - l(t)): the permutations of type t, each with the
    2^(c-1) masks even on each of its cycles of length c."""
    return factorial(sum(t)) // z(t) << sum(t) - len(t)


def _class_word(mask: int, p: tuple):
    """(t, +-1): the class C_t holding alpha^mask p and the word's coefficient
    in it; None if no central element holds the word.

    z is central iff g z g = z for alpha_1 and each s_i, as they square to 1.
    alpha_a (alpha^mask sigma) alpha_a toggles the bits a and sigma(a) of the
    mask, with the sign of the number of bits below a plus the number above
    sigma(a) once a is toggled. So the even center is spanned by one signed
    class sum per odd cycle type, holding the words with an even number of
    bits on each cycle (Stembridge, Adv. Math. 74, 1989), and 1 at its words
    alpha^0 p, which the s_i permute with sign +1. Walking each cycle from
    its least letter, the toggles at every letter but the last reach each
    such mask once: the toggle at a is taken iff the mask has odd parity on
    the cycle up to a, and the sign is theirs in that order.
    """
    lengths, seen, built, sign = [], 0, 0, 1
    for start in range(len(p)):
        if seen >> start & 1:
            continue
        a, length, odd = start, 1, mask >> start & 1
        seen |= 1 << start
        while p[a] != start:
            b = p[a]
            if odd:
                below = (built & (1 << a) - 1).bit_count()
                above = ((built ^ 1 << a) >> b + 1).bit_count()
                if (below + above) & 1:
                    sign = -sign
                built ^= 1 << a | 1 << b
            odd ^= mask >> b & 1
            seen |= 1 << b
            a, length = b, length + 1
        if odd or not length & 1:
            return None
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True)), sign


class IsotypicBlock:
    __slots__ = ("label", "dim_J", "dim_S", "type", "coords")

    def __init__(self, label: StrictPartition, dim_J: int, dim_S: int, type: str, coords: list):
        self.label = label
        self.dim_J = dim_J
        self.dim_S = dim_S
        self.type = type  # "M" or "Q"
        self.coords = coords  # e_lambda = sum_j coords[j] C_j / n!, C_j of type types[j]


class IsotypicTable:
    __slots__ = ("n", "blocks", "types", "index", "weights")

    def __init__(self, n: int, blocks: dict, types: list, weights: list):
        self.n = n
        self.blocks = blocks
        self.types = types  # the cycle type of each class C_j
        self.index = {t: j for j, t in enumerate(types)}  # the j of each type
        self.weights = weights  # (C_j C_j)[1] = |C_j|, one per class

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
    blocks may share a value (first at n = 15: (9,5,1) and (8,7) both give
    280), so the values check the blocks and do not label them.
    """
    return {lam: sum((p - 1) * p * (p + 1) for p in lam.parts) // 3 for lam in enumerate_strict(n)}


def casimir_rows(n: int) -> list:
    """rows[i][b] = the coefficient of C_i in z C_b, for the Casimir z =
    sum_k M_k^2 over the odd Jucys-Murphy elements M_k = sum_{j<k} (1 +
    alpha_j alpha_k) s_{jk} (Nazarov, Adv. Math. 127, 1997), which acts on
    J^lambda by `_content_values(n)[lambda]`.

    z is n(n-1) plus the class C_3 of the 3-cycles: each ((1 + alpha_j
    alpha_k) s_{jk})^2 is 2, and the cross terms sum to C_3. C_i holds 1 at
    q_i, its permutation on consecutive letters. A word u of C_3 meets q_i
    only with u' q_i, u u' = t * 1 (t = +-1), and C_3[u'] = t C_3[u]; so
    (C_3 C_b)[q_i] sums C_3[u'] C_b[alpha^mask (p q_i)] over the 8 C(n, 3)
    words u' = alpha^mask p of C_3.
    """
    types = odd_partitions(n)
    index = {t: j for j, t in enumerate(types)}
    starts = []
    for t in types:
        q = []
        for length in t:
            q += [*range(len(q) + 1, len(q) + length), len(q)]
        starts.append(tuple(q))
    rows = [[n * (n - 1) * (i == b) for b in range(len(types))] for i in range(len(types))]
    for x, y, w in combinations(range(n), 3):
        for a, b, c in ((x, y, w), (x, w, y)):
            p = list(range(n))
            p[a], p[b], p[c] = b, c, a
            for mask in (0, 1 << a | 1 << b, 1 << b | 1 << c, 1 << a | 1 << c):
                hits = [_class_word(mask, perm_compose(p, q)) for q in starts]
                sign = hits[0][1]  # q_0 = 1: the coefficient C_3[u']
                for row, hit in zip(rows, hits):
                    if hit is not None:
                        row[index[hit[0]]] += sign * hit[1]
    return rows


def _spin_characters(n: int, types: list) -> dict:
    """lambda -> [2^L c_lambda(t) for t in types], L = l_max(n): c_lambda(t)
    = [Q_lambda] p_t, the coefficient of Q_lambda in the power sum p_t, for
    the strict partitions lambda of n in `enumerate_strict` order.

    p_t is the `symfunc` table `_power_sum(t, L)`, in L variables, where
    every Q_lambda of degree n survives and they stay independent;
    `expand_in_Q` reads its P-coordinates, the ints 2^l(lambda) c_lambda(t)
    (Macdonald, III.8), and l(lambda) <= L.
    """
    N = l_max(n)
    out = {lam: [] for lam in enumerate_strict(n)}
    for t in types:
        coeffs = expand_in_Q(_power_sum(t, N), N)
        for lam, row in out.items():
            row.append(coeffs.get(lam, 0) << N - lam.length)
    return out


def _trace_rank(small: IsotypicTable, x: list, big: IsotypicTable, y: list) -> int:
    """Rank of left multiplication by the idempotent x*y on H_N, N = big.n,
    as its trace 2^N N! (x*y)[1] (a word u has L_u diagonal only if u = 1).

    x = sum_i x_i C_i / k! is central in H_k, k = small.n, and embedded on k
    of the N letters; y = sum_j y_j C_j / N! is central in H_N. The embedded
    C_i lies in the class of H_N whose cycle type adds N - k fixed points,
    with the same signs, and (C_i C_j)[1] = 0 for j != i, since the inverse
    of a word is in its own class. So the trace is 2^N / k! times a sum of k
    terms x_i y_i' (C_i C_i)[1].
    """
    pad = (1,) * (big.n - small.n)
    t = sum(xi * y[big.index[ti + pad]] * w for xi, ti, w in zip(x, small.types, small.weights))
    rank, rem = divmod(t << big.n, factorial(small.n))
    if rem:
        raise DecompositionError("regular trace %d/%d is not an integer" % (t << big.n, factorial(small.n)))
    return rank


def _check_orthogonal(table: IsotypicTable):
    """The orthogonality trace: raise unless the regular trace of e_lambda
    e_mu, 2^n n! (e_lambda e_mu)[1], is that of e_lambda for mu = lambda and
    0 otherwise. As (C_i C_j)[1] is |C_i| for j = i and 0 otherwise, on the
    integer numerators over n! the sum over classes of e_lambda[j] e_mu[j]
    |C_j| must be n! e_lambda[0], or 0."""
    blocks = list(table.blocks.values())
    for i, a in enumerate(blocks):
        for b in blocks[i:]:
            t = sum(x * y * w for x, y, w in zip(a.coords, b.coords, table.weights))
            if t != (factorial(table.n) * a.coords[0] if a is b else 0):
                what = (a.label.parts, b.label.parts, t, table.n)
                raise DecompositionError("e_%s e_%s fails the orthogonality trace: it holds %d/(%d!)^2 at 1" % what)


_TABLE_CACHE: dict = {}


def decompose_regular(n: int) -> IsotypicTable:
    """Two-sided isotypic decomposition of H_n with strict-partition labels.

    Each e_lambda is read off the spin character table, as the integer
    numerators over n! of e_lambda[t] = 2^(l(t) + l(lambda)) c_lambda(1^n)
    c_lambda(t) / n!, divided exactly by 2^2L from the numerators 2^L
    c_lambda of `_spin_characters`. As the regular trace is 2^n n! x[1], the
    central idempotent of an ungraded simple module U holds dim U tr_U(q_t)
    / 2^n n! at q_t. D^lambda, of dimension d and trace chi, is one such U, or two of
    dimension d/2 if of type Q, so e_lambda[t] = d chi(q_t) / 2^(n +
    delta(lambda)) n!. By Sergeev duality V^(x)n, V = C^(N|N), is the sum of the
    2^-delta(lambda) T_lambda (x) D^lambda, T_lambda of character
    2^((delta(lambda) - l(lambda))/2) Q_lambda, and diag(x|x) q_t has the
    trace 2^l(t) p_t(x) there (2 p_r(x) per odd cycle of length r). So chi(t)
    = 2^(l(t) + (l(lambda) + delta(lambda))/2) c_lambda(t) and d = chi(1^n).
    Each e_lambda is then checked: the Casimir acts on it by v(lambda), they
    sum to the unit, each block's type, read off dim J^lambda, matches
    delta(lambda), its restriction ranks to H_{n-1} match induction, and
    e_lambda e_mu has the regular trace of e_lambda for mu = lambda and 0
    otherwise (`_check_orthogonal`).
    """
    if n in _TABLE_CACHE:
        return _TABLE_CACHE[n]
    types = odd_partitions(n)
    table = IsotypicTable(n, {}, types, [_class_size(t) for t in types])
    rows = casimir_rows(n)
    values = _content_values(n)
    total = [0] * len(types)
    prev = decompose_regular(n - 1) if n else None
    induced = {nu: induct_mult(StrictPartition((1,)), nu) for nu in (prev.blocks if n else ())}
    den = 1 << 2 * l_max(n)
    for lam, c in _spin_characters(n, types).items():
        e = [divmod(c[0] * x << len(t) + lam.length, den) for x, t in zip(c, types)]
        if any(rem for _, rem in e):
            raise DecompositionError("e_%s is not integral over %d!" % (lam.parts, n))
        e = [q for q, _ in e]
        if [sum(r * x for r, x in zip(row, e)) for row in rows] != [values[lam] * x for x in e]:
            raise DecompositionError("the Casimir does not act on e_%s by %d" % (lam.parts, values[lam]))
        total = [a + x for a, x in zip(total, e)]
        # a simple block is M(p|q), of dimension (p+q)^2, or Q(d), of
        # dimension 2 d^2: exactly one of dim_J and 2 dim_J is a square.
        # dim_J is the regular trace of e, 2^n n! e[1], and C_0 is the unit
        dim_J = e[0] << n
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

    if total != [factorial(n)] + [0] * (len(types) - 1):
        raise DecompositionError("the central idempotents of H_%d do not sum to the unit" % n)
    if sum(b.dim_J for b in table.blocks.values()) != (1 << n) * factorial(n):
        raise DecompositionError("isotypic dimensions do not sum to dim H_n")
    _check_orthogonal(table)
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
                unit = [factorial(big.n)] + [0] * (len(big.types) - 1)
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
