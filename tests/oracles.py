"""Brute-force oracles and test-only paper checks that `queerlab` is
tested against. None of this runs on a CLI path.

`NVarPoly` holds a full polynomial in N variables, every monomial, where
`symfunc` holds a symmetric polynomial as its table of dominant coefficients
(`dominant` reads that table off a full polynomial, `orbit_poly` expands a
table back). `full_Q_poly` multiplies out the full generators `q_gen` along
`symfunc.q_expansion`, and `tableau_oracle_Q` builds Q_lambda from marked
shifted tableaux, apart from the q_r recursion. `cauchy_kernel_truncated`
and `cauchy_rhs_truncated` expand both sides of the Cauchy identity in all
2N variables x_1..x_N, y_1..y_N, where `symfunc.cauchy_check` compares
dominant coefficients only.

`numerators` brings a Cyclo8Scalar vector into an `Echelon`, and
`scalar_rows` reads an `Echelon` back as Cyclo8Scalar rows at pivot 1.

In H_n, `HCElement` is a general element over Q(zeta), with the embeddings
`embed_left`, `embed_right`, `iota` and the block swaps `braid`, where the
CLI multiplies signed basis words (`braid_signs_by_elements` is its braid
sign note on elements). `orbit_center_basis` finds the even center by a
search over all words, and `_signed_classes` enumerates its signed classes
over all n! permutations, where the CLI reads one word's class and sign at a
time (`_class_word`) and the class sizes in closed form;
`product_coefficient` and `regular_trace_rank` read products and traces off
expanded elements, where the CLI works in class coordinates; `casimir`
builds the Casimir from words and `class_element` and `idempotent` expand
central elements to words, where the CLI keeps both as class coordinates;
`split_center` splits the center by a Lagrange product in the Casimir, where
the CLI reads the central idempotents off the spin character table;
`two_sided_closure` and `sigma_step` build ideals by literal closure, where
the CLI reads the blocks off regular traces; and `transpose` is the paper's
anti-automorphism. `word_action` and `hc_apply` let H_d act on V^{(x)d}, and
`dim_T_by_echelon` reads dim T_lambda off the echelon rank of e_lambda
V^{(x)d}, where the CLI takes the trace of e_lambda.

In q_n, `QnElement` is a general element, acting on V by `act_on_V` and on
V^{(x)d} by `q_act_tensor`, where the CLI acts with the basis operators as
keys (kind, a, b) (`queer.tensor_image`); `bracket`, `chevalley`, the half
tensor product `USpace` and `hk_decompose` check the structure behind phi
and psi.

In A(n,m), `SuperPoly` is a general element over Q(zeta) and `m_generators`
lists the generators of the maximal ideal m, where the CLI works on
Gaussian-integer vectors and `spoly` dicts; `_a_generators` lists the
generators of A(n,n) as `spoly` dicts, and `phi_apply` applies phi to any
element of A(n,n), where `verify phi-psi` reads phi off the parities of its
images; `act` acts on a `SuperPoly` as
a sum of `act_terms` over the entries of the operator. `summand` closes the
singular vectors of L_lambda under the simple lowering operators into a
`GradedSubspace`, `EquivariantIdeal` echelons the ideal it generates one
weight component at a time, and `one_box_steps_by_closure` reads a row of
the one-box relation off that ideal, where the CLI pairs singular vectors
under the Fischer form; `ideal_closure` closes an ideal under every
operator, `lowering_operators` closes a summand under all lowering
operators, `membership_cases_for` and `determinantal_ideal_check` read
membership off the ideal built directly to the truncation degree (the CLI
walks the one-box relation), and `m_stability_check` checks that h
preserves m. `sing_system_full` builds the singular system of the
Hom-dimension check on the full rank, every label of V^{(x)a} (x) W^{(x)b}
(the CLI builds it on S^aV (x) S^bW, whose labels `sym_terms` expands into
tensor terms), biweight and raising operator, and both parities, and `solve_singular_full` solves the singular
vectors of L_lambda on both parities, where the CLI builds the even half on
the support of its weight and maps it by Y_11;
`weight_space_monomials_all_cells` lists a weight space by walking every
cell of the n x m grid, where the CLI walks only the cells the weight
reaches; `monomial_image_all_cells` acts on a monomial by walking every
cell and summing the terms in a dict, where the CLI reads only the row or
column the operator lowers.

`build_parser` is the argparse parser the CLI once read its command line
with, where the CLI reads argv against `FLAGS`, `STR_FLAGS` and `TARGETS`
(`cli.parse_argv`).
"""

import argparse
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial, lcm, prod

from queerlab.amodule import (
    MembershipCase,
    _cell,
    _pad,
    _tables,
    act_terms,
    raising_operators,
    singular_vectors,
    weight_space_monomials,
)
from queerlab.cli import FLAGS, TARGETS
from queerlab.heckeclifford import (
    IsotypicBlock,
    _bits,
    _content_values,
    _sort_sign,
    all_words,
    casimir_rows,
    decompose_regular,
    word_mult,
)
from queerlab.jets import _substitute, phi_map
from queerlab.linalg import Echelon, add_term, kernel_basis, span
from queerlab.partitions import StrictPartition, all_strict_upto, contains, delta, enumerate_strict, staircase
from queerlab.queer import ActionError, _label_parity, tensor_basis, tensor_image
from queerlab.scalars import Cyclo8Scalar, ONE, ZETA, _coerce
from queerlab.spoly import insert_odd, mono_degree, mono_mul, p_add, p_mul, p_scale
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


# ---------------------------------------------------------------------------
# echelons
# ---------------------------------------------------------------------------


def kernel_basis_keyed(constraints, unknowns: list) -> list[dict]:
    """`linalg.kernel_basis` for rows keyed by the unknowns themselves: the
    rows are re-keyed to the unknowns' indices, and the kernel vectors back."""
    order = {u: i for i, u in enumerate(unknowns)}
    rows = [{order[k]: c for k, c in row.items()} for row in constraints]
    return [{unknowns[i]: c for i, c in vec.items()} for vec in kernel_basis(rows, len(unknowns))]


def numerators(vec: dict) -> dict:
    """The Cyclo8Scalar vector times the lcm of its denominators, as
    {key: (re, im)}: a nonzero multiple spans the same line, and a vector
    with integral entries keeps its values."""
    den = 1
    for c in vec.values():
        if c.den != 1:
            den = lcm(den, c.den)
    if den == 1:
        return {k: (c.re, c.im) for k, c in vec.items()}
    return {k: (c.re * (den // c.den), c.im * (den // c.den)) for k, c in vec.items()}


def scalar_rows(ech: Echelon) -> dict:
    """pivot key -> row of ech as a Cyclo8Scalar dict, ONE at the pivot; new
    on each call."""
    return {
        p: {k: Cyclo8Scalar(x, y, num[p][0]) for k, (x, y) in num.items()}
        for p, num in ech.nums.items()
    }


def in_span(ech: Echelon, num: dict) -> bool:
    """num lies in the row space of ech: its residual is zero."""
    return not ech._residual(num)


def contains_space(big: Echelon, small: Echelon) -> bool:
    return all(in_span(big, num) for num in small.nums.values())


# ---------------------------------------------------------------------------
# Hecke-Clifford algebras: the center by orbits, traces by words, the
# transpose and literal two-sided ideals
# ---------------------------------------------------------------------------


def perm_id(n: int) -> tuple:
    return tuple(range(n))


class HCElement:
    """A sparse element of H_n over Q(zeta); the CLI multiplies signed basis
    words with `word_mult` instead."""

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
    def alpha(n: int, i: int) -> "HCElement":
        """The Clifford generator alpha_i (1-based)."""
        return HCElement(n, {(1 << (i - 1), perm_id(n)): ONE})

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


def braid_signs_by_elements(m: int, n: int) -> list:
    """The sign in tau iota(x,y) tau^{-1} = sign * iota(y,x) for each pair of
    basis words, in `all_words` order, from products of elements; the CLI
    multiplies the signed words."""
    tau = braid(m, n)
    tau_inv = braid(n, m)
    signs = []
    for wx in all_words(m):
        for wy in all_words(n):
            lhs = tau * iota(m, n, HCElement(m, {wx: ONE}), HCElement(n, {wy: ONE})) * tau_inv
            rhs = iota(n, m, HCElement(n, {wy: ONE}), HCElement(m, {wx: ONE}))
            assert lhs == rhs or lhs == -rhs
            signs.append(1 if lhs == rhs else -1)
    return signs


def hc_unit(n: int) -> HCElement:
    return HCElement(n, {(0, perm_id(n)): ONE})


def transposition(n: int, i: int) -> HCElement:
    """The simple transposition s_i of letters i, i+1 (1-based)."""
    p = list(range(n))
    p[i - 1], p[i] = p[i], p[i - 1]
    return HCElement.permutation(n, tuple(p))


def generators(n: int) -> list[HCElement]:
    """alpha_1 and the simple transpositions, which generate H_n."""
    gens = []
    if n >= 1:
        gens.append(HCElement.alpha(n, 1))
    for i in range(1, n):
        gens.append(transposition(n, i))
    return gens


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
    (starts, types, index), by a walk over all n! permutations.

    types[j] is the cycle type of C_j, and starts[j] = (0, p) its word with
    coefficient 1, p the first permutation of that type in lexicographic
    order; the classes are numbered in that order, which is not the order of
    `heckeclifford._class_types` from n = 7 on. index maps each permutation p
    of odd cycle type to (j, signs): the word alpha^mask p is in C_j with
    coefficient signs[mask] = +-1. A central c is sum_j c[starts[j]] C_j.
    See `heckeclifford._class_word` for why these are the classes and signs.
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


def orbit_center_basis(n: int) -> list[tuple]:
    """The even center of H_n (ordinary sense), as (word, element) pairs, by
    a search over all 2^n n! words.

    Each generator g has g^2 = 1, so z is central iff g z g = z, and g w g is
    a signed basis word for each word w. A central element is therefore
    constant up to those signs on each orbit of the words under the
    generators, and vanishes on an orbit whose signs contradict each other.
    Each consistent orbit of even words gives one element, its signed orbit
    sum, equal to 1 at the orbit's first word in `all_words` order.
    """
    gens = [next(iter(g.terms)) for g in generators(n)]
    seen = set()
    pairs = []
    for start in all_words(n):
        if start in seen or start[0].bit_count() & 1:
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
            pairs.append((start, HCElement(n, signs)))
    return pairs


def perm_inverse(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _inverse_word(w: tuple) -> tuple:
    """(w', sign) with w * w' = sign * 1, for a basis word w.

    For w = alpha^mask sigma, w' = sigma^{-1} alpha^mask = alpha^{sigma^{-1}(mask)}
    sigma^{-1} up to sign, and no other word multiplies w to a multiple of 1.
    """
    mask, p = w
    q = perm_inverse(p)
    moved = 0
    for i in _bits(mask):
        moved |= 1 << q[i]
    inv = (moved, q)
    unit, sign = word_mult(w, inv)
    assert unit == (0, perm_id(len(p)))
    return inv, sign


def product_coefficient(x: HCElement, y: HCElement, w=None) -> Cyclo8Scalar:
    """(x*y)[w], the coefficient of the word w (default: the unit) in x*y,
    without forming x*y: u*v = +-w forces v = +-u^{-1} w, so this costs one
    lookup per term of x."""
    total = Cyclo8Scalar()
    for u, c in x.terms.items():
        v, sign = _inverse_word(u)
        if w is not None:
            v, s = word_mult(v, w)
            sign *= s
        d = y.terms.get(v)
        if d is not None:
            total = total + c * d if sign == 1 else total - c * d
    return total


def regular_trace_rank(x: HCElement, y: HCElement) -> int:
    """Rank of left multiplication by the idempotent x*y on H_n, as its trace
    2^n n! (x*y)[1], summed over the smaller support: (x*y)[1] = (y*x)[1]."""
    if len(y.terms) < len(x.terms):
        x, y = y, x
    t = product_coefficient(x, y) * ((1 << x.n) * factorial(x.n))
    assert t.im == 0 and t.den == 1, t
    return t.re


def transpose(x: HCElement) -> HCElement:
    """zeta^{k^2} sigma^{-1} alpha_{i_k} ... alpha_{i_1}, extended linearly."""
    out = {}
    for (mask, p), c in x.terms.items():
        k = mask.bit_count()
        coeff = c * (ONE, ZETA, -ONE, -ZETA)[k * k % 4]
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


def two_sided_closure(n: int, elements) -> Echelon:
    """Smallest subspace containing the elements closed under left/right
    multiplication by H_n, as an echelon of word-coordinate vectors."""
    gens = generators(n)
    ech = Echelon()
    queue = []
    for x in elements:
        v = dict(x.terms) if isinstance(x, HCElement) else dict(x)
        if ech.insert(numerators(v)):
            queue.append(v)
    full = (1 << n) * factorial(n)
    while queue and ech.rank < full:
        x = HCElement(n, queue.pop())
        for g in gens:
            for prod in (g * x, x * g):
                if ech.insert(numerators(prod.terms)):
                    queue.append(dict(prod.terms))
    return ech


def sigma_step(n: int, subspace: Echelon) -> Echelon:
    """Two-sided ideal of H_{n+1} generated by iota_{1,n}(1 (x) J)."""
    shifted = [embed_right(HCElement(n, row), 1, n) for row in scalar_rows(subspace).values()]
    return two_sided_closure(n + 1, shifted)


def casimir(n: int) -> HCElement:
    """z = sum_k M_k^2 built from words, over the odd Jucys-Murphy elements
    M_k = sum_{j<k} (1 + alpha_j alpha_k) s_{jk} (Nazarov, Adv. Math. 127,
    1997); the CLI takes its class coordinates in closed form."""
    unit = hc_unit(n)
    z = HCElement(n)
    for k in range(2, n + 1):
        m = HCElement(n)
        for j in range(1, k):
            p = list(range(n))
            p[j - 1], p[k - 1] = k - 1, j - 1
            s_jk = HCElement.permutation(n, tuple(p))
            m = m + (unit + HCElement.alpha(n, j) * HCElement.alpha(n, k)) * s_jk
        z = z + m * m
    return z


def class_element(n: int, c: dict) -> HCElement:
    """sum_t c[t] C_t expanded to words of H_n, each with its class sign; c
    maps the cycle type t of each class to its coefficient."""
    _, types, index = _signed_classes(n)
    return HCElement(
        n,
        {
            (mask, p): c[types[j]] if s == 1 else -c[types[j]]
            for p, (j, signs) in index.items()
            for mask, s in signs.items()
        },
    )


def idempotent(block: IsotypicBlock) -> HCElement:
    """e_lambda expanded to words of H_n, n = |lambda|, its coordinates read
    by cycle type as numerators over n!."""
    n = block.label.size
    coords = (Cyclo8Scalar(x, 0, factorial(n)) for x in block.coords)
    return class_element(n, dict(zip(decompose_regular(n).types, coords)))


def _project(rows: list, values: list, x: list) -> list:
    """prod (z - u) over the u in values, applied to the integer vector x."""
    for u in values:
        x = [sum(r * y for r, y in zip(row, x)) - u * xi for row, xi in zip(rows, x)]
    return x


def split_center(n: int) -> dict:
    """lambda -> the class coordinates of e_lambda = p(z) 1, p(z) =
    prod_{mu != lambda} (z - v(mu)) / (v(lambda) - v(mu)) for the Casimir z
    and its block values v, as Fractions, by the matrix `casimir_rows(n)`:
    the Lagrange split of the center, on integers over one denominator, where
    the CLI reads e_lambda off the spin character table. It needs the values
    distinct, so n <= 14.
    """
    values = _content_values(n)
    rows = casimir_rows(n)
    unit = [1] + [0] * (len(rows) - 1)  # C_0 is the unit
    out = {}
    for lam, v in values.items():
        others = [u for mu, u in values.items() if mu != lam]
        e, d = _project(rows, others, unit), prod(v - u for u in others)
        # e e = p(z) e: the closed form for the values of z is checked, not
        # assumed
        assert _project(rows, others, e) == [d * x for x in e], lam
        out[lam] = [Fraction(x, d) for x in e]
    return out


# ---------------------------------------------------------------------------
# Sergeev duality: H_d acting on V^{(x)d}
# ---------------------------------------------------------------------------


def word_action(word: tuple, lab: tuple):
    """Apply a basis word of H_d to a tensor basis vector; returns (label, sign).

    The word alpha^mask * sigma acts by the signed slot permutation first,
    then the queer structure map on each masked slot, highest slot first.
    """
    mask, perm = word
    d = len(perm)
    # sigma: result[perm[t]] = lab[t], Koszul sign over inverted odd pairs
    sign = 1
    new = [None] * d
    for t in range(d):
        new[perm[t]] = lab[t]
    for t in range(d):
        for s in range(t + 1, d):
            if perm[t] > perm[s] and lab[t][0] == "f" and lab[s][0] == "f":
                sign = -sign
    cur = new
    # alpha_j for j in mask, applied highest index first; alpha is odd:
    # crossing the slots before j picks up their parity sign
    for j in sorted(_bits(mask), reverse=True):
        pre = sum(1 for s in cur[:j] if s[0] == "f") % 2
        if pre:
            sign = -sign
        kind, idx = cur[j]
        cur = cur[:j] + [("f" if kind == "e" else "e", idx)] + cur[j + 1 :]
    return tuple(cur), sign


def hc_apply(x: HCElement, lab: tuple) -> dict:
    """Apply a Hecke-Clifford element to a tensor basis vector."""
    out = {}
    for w, c in x.terms.items():
        lab2, sign = word_action(w, lab)
        add_term(out, lab2, c if sign == 1 else -c)
    return out


def dim_T_by_echelon(lam: StrictPartition, n: int) -> int:
    """dim T_{lambda,n} from the echelon rank of e_lambda V^{(x)d}, d = |lambda|,
    spanned by the images of all (2n)^d tensor basis vectors; the CLI reads
    the same rank off the trace of e_lambda in class coordinates."""
    d = lam.size
    block = decompose_regular(d).blocks[lam]
    e = idempotent(block)
    rank = span(numerators(hc_apply(e, lab)) for lab in tensor_basis(n, d)).rank
    num = rank * 2 ** delta(lam)
    assert num % block.dim_S == 0, (lam, n, rank)
    return num // block.dim_S


# ---------------------------------------------------------------------------
# q_n: brackets, the Chevalley automorphism, U and the h (+) k decomposition
# ---------------------------------------------------------------------------


def _mat_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        add_term(out, k, c)
    return out


def _mat_scale(a: dict, c) -> dict:
    c = _coerce(c)
    if c.is_zero():
        return {}
    return {k: c * x for k, x in a.items()}


@dataclass
class QnElement:
    """An element of q_n in block form {a, b} = (a b; -b a): X-part a, Y-part b.
    The CLI acts with the basis operators only, as keys (kind, a, b)."""

    n: int
    xmat: dict = field(default_factory=dict)  # (i, j) 1-based -> scalar
    ymat: dict = field(default_factory=dict)

    @staticmethod
    def X(n: int, i: int, j: int) -> "QnElement":
        return QnElement(n, {(i, j): ONE}, {})

    @staticmethod
    def Y(n: int, i: int, j: int) -> "QnElement":
        return QnElement(n, {}, {(i, j): ONE})

    def __add__(self, other):
        return QnElement(
            self.n, _mat_add(self.xmat, other.xmat), _mat_add(self.ymat, other.ymat)
        )

    def scale(self, c) -> "QnElement":
        return QnElement(self.n, _mat_scale(self.xmat, c), _mat_scale(self.ymat, c))

    def __sub__(self, other):
        return self + other.scale(-1)

    def __eq__(self, other):
        return (
            self.n == other.n and self.xmat == other.xmat and self.ymat == other.ymat
        )

    def is_zero(self):
        return not self.xmat and not self.ymat

    def parity(self):
        if self.xmat and not self.ymat:
            return 0
        if self.ymat and not self.xmat:
            return 1
        return None

    def homogeneous_parts(self):
        out = {}
        if self.xmat:
            out[0] = QnElement(self.n, self.xmat, {})
        if self.ymat:
            out[1] = QnElement(self.n, {}, self.ymat)
        return out

    def __repr__(self):
        bits = []
        for (i, j), c in sorted(self.xmat.items()):
            bits.append("%r*X%d%d" % (c, i, j))
        for (i, j), c in sorted(self.ymat.items()):
            bits.append("%r*Y%d%d" % (c, i, j))
        return " + ".join(bits) if bits else "0"


def act_on_V(x: QnElement, vec: dict) -> dict:
    """Action on C^{n|n} with basis labels ('e', i), ('f', i).

    X_ij e_k = d_jk e_i, X_ij f_k = d_jk f_i,
    Y_ij e_k = -d_jk f_i, Y_ij f_k = d_jk e_i.
    """
    out = {}
    for (kind, k), c in vec.items():
        for (i, j), m in x.xmat.items():
            if j == k:
                add_term(out, (kind, i), m * c)
        for (i, j), m in x.ymat.items():
            if j == k:
                if kind == "e":
                    add_term(out, ("f", i), -(m * c))
                else:
                    add_term(out, ("e", i), m * c)
    return out


def q_act_tensor(x: QnElement, vec: dict) -> dict:
    """Diagonal action of q_n on V^{(x)d} with Koszul signs."""
    out = {}
    for p, xh in x.homogeneous_parts().items():
        for lab, c in vec.items():
            for t in range(len(lab)):
                sign = 1
                if p:
                    pre = sum(1 for s in lab[:t] if s[0] == "f") % 2
                    sign = -1 if pre else 1
                img = act_on_V(xh, {lab[t]: c if sign == 1 else -c})
                for single, cc in img.items():
                    add_term(out, lab[:t] + (single,) + lab[t + 1 :], cc)
    return out


def _mat_transpose(a: dict) -> dict:
    return {(j, i): c for (i, j), c in a.items()}


def _mat_mul(a: dict, b: dict) -> dict:
    out = {}
    byrow = {}
    for (i, j), c in b.items():
        byrow.setdefault(i, []).append((j, c))
    for (i, j), c in a.items():
        for (k, c2) in byrow.get(j, ()):
            add_term(out, (i, k), c * c2)
    return out


def _q_mult(x: QnElement, y: QnElement) -> QnElement:
    """Matrix product of block matrices, expressed in q_n again.

    {a,b}{a',b'} = (a b; -b a)(a' b'; -b' a') = {aa' - bb', ab' + ba'}.
    """
    a, b = x.xmat, x.ymat
    a2, b2 = y.xmat, y.ymat
    xpart = _mat_add(_mat_mul(a, a2), _mat_scale(_mat_mul(b, b2), -1))
    ypart = _mat_add(_mat_mul(a, b2), _mat_mul(b, a2))
    return QnElement(x.n, xpart, ypart)


def bracket(x: QnElement, y: QnElement) -> QnElement:
    """Super-commutator in the matrix realization."""
    out = QnElement(x.n)
    for px, xh in x.homogeneous_parts().items():
        for py, yh in y.homogeneous_parts().items():
            sign = -1 if px and py else 1
            out = out + _q_mult(xh, yh) - _q_mult(yh, xh).scale(sign)
    return out


def chevalley(x: QnElement) -> QnElement:
    """tau{a, b} = {-a^t, -zeta b^t}; order four."""
    return QnElement(
        x.n,
        _mat_scale(_mat_transpose(x.xmat), -1),
        _mat_scale(_mat_transpose(x.ymat), -ZETA),
    )


def chevalley_inverse(x: QnElement) -> QnElement:
    """tau^{-1}{a, b} = {-a^t, zeta b^t}."""
    return QnElement(
        x.n,
        _mat_scale(_mat_transpose(x.xmat), -1),
        _mat_scale(_mat_transpose(x.ymat), ZETA),
    )


class USpace:
    """U = half(V (x) W) with its basis v_ij (even), w_ij (odd).

    v_ij = (1+zeta) e_i (x) e_j + (1-zeta) f_i (x) f_j
    w_ij = (1+zeta) e_i (x) f_j + (1-zeta) f_i (x) e_j
    """

    def __init__(self, n: int, m: int):
        self.n = n
        self.m = m

    def labels(self):
        for i in range(1, self.n + 1):
            for j in range(1, self.m + 1):
                yield ("v", i, j)
                yield ("w", i, j)

    def parity(self, label) -> int:
        return 0 if label[0] == "v" else 1

    def to_ambient(self, vec: dict) -> dict:
        """Expand a v/w combination in the e/f (x) e/f basis."""
        out = {}
        op = ONE + ZETA
        om = ONE - ZETA
        for (kind, i, j), c in vec.items():
            if kind == "v":
                add_term(out, (("e", i), ("e", j)), op * c)
                add_term(out, (("f", i), ("f", j)), om * c)
            else:
                add_term(out, (("e", i), ("f", j)), op * c)
                add_term(out, (("f", i), ("e", j)), om * c)
        return out

    def from_ambient(self, amb: dict) -> dict:
        """Express an ambient vector in the v/w basis; error if outside U."""
        out = {}
        op = ONE + ZETA
        om = ONE - ZETA
        remaining = dict(amb)
        for key in list(remaining):
            (kind1, i), (kind2, j) = key
            if kind1 != "e":
                continue
            c = remaining.pop(key)
            label = ("v", i, j) if kind2 == "e" else ("w", i, j)
            coeff = c * op.inverse()
            # the matching (1-zeta) partner component must be present exactly
            partner = (("f", i), ("f", j)) if kind2 == "e" else (("f", i), ("e", j))
            got = remaining.pop(partner, Cyclo8Scalar())
            if got != om * coeff:
                raise ActionError("vector leaves the half tensor product U")
            if not coeff.is_zero():
                out[label] = coeff
        if remaining:
            raise ActionError("vector leaves the half tensor product U")
        return out

    def act(self, side: str, x: QnElement, vec: dict) -> dict:
        """Action of (x, 0) or (0, x) on U via the ambient sign rule."""
        amb = self.to_ambient(vec)
        out_amb = {}
        for p, xh in x.homogeneous_parts().items():
            for (lab1, lab2), c in amb.items():
                if side == "left":
                    img = act_on_V(xh, {lab1: c})
                    for lab, cc in img.items():
                        add_term(out_amb, (lab, lab2), cc)
                else:
                    sign = -1 if p and lab1[0] == "f" else 1
                    img = act_on_V(xh, {lab2: c if sign == 1 else -c})
                    for lab, cc in img.items():
                        add_term(out_amb, (lab1, lab), cc)
        return self.from_ambient(out_amb)


def act_on_U(side: str, x: QnElement, u: dict, n: int, m: int) -> dict:
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    return USpace(n, m).act(side, x, u)


def _upper(mat: dict) -> dict:
    return {(i, j): c for (i, j), c in mat.items() if i <= j}


def _strict_lower(mat: dict) -> dict:
    return {(i, j): c for (i, j), c in mat.items() if i > j}


def hk_decompose(g1: QnElement, g2: QnElement):
    """Unique (c, tau^{-1} c) + ((d, e)) with d upper and e strictly upper.

    Solves a1 + b1^t = d1 + e1^t and a2 + zeta b2^t = d2 + zeta e2^t by the
    upper/strictly-lower split, then c = a - d.
    """
    n = g1.n
    a1, a2 = g1.xmat, g1.ymat
    b1, b2 = g2.xmat, g2.ymat

    A1 = _mat_add(a1, _mat_transpose(b1))
    d1 = _upper(A1)
    e1 = _mat_transpose(_strict_lower(A1))
    c1 = _mat_add(a1, _mat_scale(d1, -1))

    A2 = _mat_add(a2, _mat_scale(_mat_transpose(b2), ZETA))
    d2 = _upper(A2)
    e2 = _mat_scale(_mat_transpose(_strict_lower(A2)), ZETA.inverse())
    c2 = _mat_add(a2, _mat_scale(d2, -1))

    return QnElement(n, c1, c2), (QnElement(n, d1, d2), QnElement(n, e1, e2))


def x_prime(n: int, i: int, j: int):
    """X'_ij = (X_ij, -X_ji), a basis element of h."""
    return (QnElement.X(n, i, j), QnElement.X(n, j, i).scale(-1))


def y_prime(n: int, i: int, j: int):
    """Y'_ij = (Y_ij, zeta Y_ji)."""
    return (QnElement.Y(n, i, j), QnElement.Y(n, j, i).scale(ZETA))


# ---------------------------------------------------------------------------
# A(n,m): the action on SuperPoly, literal closures, m-stability
# ---------------------------------------------------------------------------


class SuperPoly:
    """A sparse element of A(n,m) over Q(zeta)."""

    __slots__ = ("n", "m", "terms")

    def __init__(self, n: int, m: int, terms=None):
        self.n = n
        self.m = m
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                c = _coerce(c)
                if not c.is_zero():
                    self.terms[mono] = c

    @staticmethod
    def x(n: int, m: int, i: int, j: int) -> "SuperPoly":
        e = [0] * (n * m)
        e[_cell(i, j, m)] = 1
        return SuperPoly(n, m, {(tuple(e), ()): ONE})

    @staticmethod
    def y(n: int, m: int, i: int, j: int) -> "SuperPoly":
        return SuperPoly(n, m, {((0,) * (n * m), (_cell(i, j, m),)): ONE})

    @staticmethod
    def one(n: int, m: int) -> "SuperPoly":
        return SuperPoly(n, m, {((0,) * (n * m), ()): ONE})

    def __add__(self, other):
        return SuperPoly(self.n, self.m, p_add(self.terms, other.terms))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "SuperPoly":
        return SuperPoly(self.n, self.m, p_scale(self.terms, c))

    def __mul__(self, other):
        if (self.n, self.m) != (other.n, other.m):
            raise ValueError("rank mismatch")
        return SuperPoly(self.n, self.m, p_mul(self.terms, other.terms))

    def __eq__(self, other):
        return self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (e, o), c in sorted(self.terms.items()):
            mono = []
            for idx, ex in enumerate(e):
                if ex:
                    i, j = divmod(idx, self.m)
                    mono.append(
                        "x%d%d^%d" % (i + 1, j + 1, ex) if ex > 1 else "x%d%d" % (i + 1, j + 1)
                    )
            for idx in o:
                i, j = divmod(idx, self.m)
                mono.append("y%d%d" % (i + 1, j + 1))
            bits.append("%r*%s" % (c, "*".join(mono) or "1"))
        return " + ".join(bits)


def m_generators(n: int) -> list[SuperPoly]:
    """x_ij - delta_ij and y_ij for A(n,n)."""
    gens = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            g = SuperPoly.x(n, n, i, j)
            if i == j:
                g = g - SuperPoly.one(n, n)
            gens.append(g)
            gens.append(SuperPoly.y(n, n, i, j))
    return gens


def _a_generators(n: int) -> list:
    """x_ij and y_ij of A(n,n), in the order x_11, y_11, x_12, ..., as
    `spoly` dicts over the n*n cells in row-major order."""
    zero = (0,) * (n * n)
    gens = []
    for c in range(n * n):
        gens.append({(zero[:c] + (1,) + zero[c + 1 :], ()): ONE})
        gens.append({(zero, (c,)): ONE})
    return gens


def phi_apply(n: int, order: int, terms: dict) -> dict:
    """phi on an element of A(n,n), a `spoly` dict over the n*n cells (i, j)
    in row-major order, extended multiplicatively."""
    ring, images = phi_map(n, order)
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    return _substitute(
        ring,
        terms,
        [images[("x",) + ij] for ij in cells],
        [images[("y",) + ij] for ij in cells],
    )


def act(side: str, g: QnElement, p: SuperPoly) -> SuperPoly:
    """The action of (g, 0) or (0, g) on p: the sum over the entries c of g
    of c times `act_terms` of that entry's basis operator."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    rank = p.n if side == "left" else p.m
    if g.n != rank:
        raise ValueError("operator rank %d does not match side rank %d" % (g.n, rank))
    # linear: act on p times the lcm of its denominators, and divide back
    den = lcm(1, *(c.den for c in p.terms.values()))
    num = numerators(p.terms)
    out = {}
    for kind, mat in (("X", g.xmat), ("Y", g.ymat)):
        for (a, b), c in mat.items():
            for k, (x, y) in act_terms(side, (kind, a, b), num, p.n, p.m).items():
                add_term(out, k, c * Cyclo8Scalar(x, y, den))
    return SuperPoly(p.n, p.m, out)


class TruncationError(ValueError):
    pass


def mono_biweight(mono, n: int, m: int):
    """(row sums, column sums) of the combined x,y exponents."""
    rows = [0] * n
    cols = [0] * m
    e, o = mono
    for idx, ex in enumerate(e):
        if ex:
            i, j = divmod(idx, m)
            rows[i] += ex
            cols[j] += ex
    for idx in o:
        i, j = divmod(idx, m)
        rows[i] += 1
        cols[j] += 1
    return tuple(rows), tuple(cols)


@dataclass
class GradedSubspace:
    """Weight-graded subspace of Gaussian-integer vectors: components keyed
    by (degree, biweight)."""

    n: int
    m: int
    components: dict = field(default_factory=dict)

    def extend(self, vecs) -> list:
        """Insert a batch, each vector into its component as one
        `Echelon.extend` batch; return the vectors that raised the rank."""
        groups = {}
        for vec in vecs:
            if vec:
                groups.setdefault(self._key(vec), []).append(vec)
        raised = []
        for key, group in groups.items():
            raised += self.components.setdefault(key, Echelon()).extend(group)
        return raised

    def insert(self, vec: dict) -> bool:
        return bool(self.extend([vec]))

    def _key(self, vec: dict):
        """(degree, biweight) of vec's component, read off one monomial."""
        mono = next(iter(vec))
        return mono_degree(mono), mono_biweight(mono, self.n, self.m)

    def component(self, d, w) -> Echelon:
        return self.components.get((d, w), Echelon())

    def contains(self, vec: dict) -> bool:
        return not vec or in_span(self.component(*self._key(vec)), vec)


def _simple_lowering_operators(n: int, m: int):
    """X_{i+1,i} and Y_{i+1,i} of both factors, as (side, (kind, i + 1, i),
    i - 1): each moves one unit of weight from row (column) i to row
    (column) i + 1."""
    return [
        (side, (kind, i + 1, i), i - 1)
        for side, rank in (("left", n), ("right", m))
        for i in range(1, rank)
        for kind in ("X", "Y")
    ]


def _tail_sums(w) -> list:
    """[w_1 + w_2 + ..., w_2 + ..., ..., w_k, 0] for w = (w_1, ..., w_k)."""
    out = [0] * (len(w) + 1)
    for k in range(len(w) - 1, -1, -1):
        out[k] = out[k + 1] + w[k]
    return out


def summand(n: int, m: int, lam: StrictPartition, support_cap=None) -> GradedSubspace:
    """The lambda summand of the Cauchy decomposition at degree |lambda|,
    generated from its singular vectors by operator closure.

    The singular space is stable under both Cartans, so closing under the
    strictly-lowering operators alone spans the summand. Every lowering
    operator is a supercommutator of simple ones ([X32, X21] = X31,
    [X32, Y21] = Y31, ...), so a span closed under the simple lowering
    operators X_{i+1,i}, Y_{i+1,i} is closed under all of them. Left and
    right operators supercommute, so closing under the left ones and then
    the right ones closes under both, and a component takes images from one
    side only. On a side, each operator raises sum_k k w_k of that side's
    weight w by one: the closure runs level by level, one batch a level.

    support_cap = (T_1, T_2, ...) keeps only the components whose row sums
    and column sums w satisfy w_k + w_{k+1} + ... <= T_k for every k, with
    T_k = 0 past the end of the tuple; None keeps every component. A simple
    lowering operator moves one unit of weight from row (column) i to i + 1,
    so along the closure every tail sum can only grow: a component inside
    the bound is reached only through components inside it, and equals its
    uncapped value. An ideal slice at a target biweight only consumes
    components with pointwise-smaller weight, whose tail sums are at most the
    target's, so a bound taken over the targets loses no membership check.
    An operator whose source row (column) is empty, or whose move would lift
    a tail sum past its bound, is skipped before its image is computed.

    The monomial images are tabled for the length of one closure.
    """
    size = max(n, m) + 1
    if support_cap is None:
        bound = [lam.size] * size
    else:
        bound = (list(support_cap) + [0] * size)[:size]
    space = GradedSubspace(n, m)
    found = []
    if all(t <= b for t, b in zip(_tail_sums(lam.parts), bound)):
        found = space.extend(singular_vectors(n, m, lam))
    table = {}
    for side in ("left", "right"):
        ops = [(op, i) for s, op, i in _simple_lowering_operators(n, m) if s == side]
        level = found
        while level:
            images = []
            for vec in level:
                w = mono_biweight(next(iter(vec)), n, m)[side == "right"]
                tails = _tail_sums(w)
                for op, i in ops:
                    if w[i] and tails[i + 1] < bound[i + 1]:
                        images.append(act_terms(side, op, vec, n, m, table))
            level = space.extend(images)
            found = found + level
    return space


class EquivariantIdeal:
    """The ideal of A(n,m) generated by an operator-closed graded subspace.

    Since A_1 * (stable subspace) is again stable, the degree-d part is
    A_{d-d0} times the generators; components are computed per biweight on
    demand and cached. A monomial times a generator row is that row with
    every key multiplied by the monomial and its sign applied: the map on
    keys is injective, so nothing accumulates.
    """

    def __init__(self, n: int, m: int, gens: GradedSubspace, d_max: int):
        self.n = n
        self.m = m
        self.gens = gens
        self.d_max = d_max
        self._cache: dict = {}

    def component(self, d: int, w) -> Echelon:
        if d > self.d_max:
            raise TruncationError("degree %d beyond d_max %d" % (d, self.d_max))
        key = (d, w)
        if key in self._cache:
            return self._cache[key]
        n, m = self.n, self.m
        products = []
        rows_w, cols_w = w
        for (d0, w0), comp in self.gens.components.items():
            if d0 > d or comp.rank == 0:
                continue
            crows = tuple(a - b for a, b in zip(rows_w, w0[0]))
            ccols = tuple(a - b for a, b in zip(cols_w, w0[1]))
            if any(c < 0 for c in crows) or any(c < 0 for c in ccols):
                continue
            rows = comp.nums.values()
            for mono in weight_space_monomials(n, m, d - d0, (crows, ccols)):
                for row in rows:
                    prod = {}
                    for k, (x, y) in row.items():
                        r = mono_mul(mono, k)
                        if r is not None:
                            prod[r[0]] = (x, y) if r[1] == 1 else (-x, -y)
                    products.append(prod)
        ech = Echelon()
        ech.extend(products)
        self._cache[key] = ech
        return ech


def summand_membership(n: int, m: int, ideal: EquivariantIdeal, mu: StrictPartition) -> bool:
    """True iff the whole mu summand lies in the ideal (multiplicity-freeness
    reduces this to containment of the singular vectors)."""
    if mu.length > min(n, m):
        raise ValueError("l(mu) exceeds min(n, m); summand vanishes at this rank")
    sings = singular_vectors(n, m, mu)
    w = (_pad(mu.parts, n), _pad(mu.parts, m))
    comp = ideal.component(mu.size, w)
    return all(in_span(comp, s) for s in sings)


def candidate_tail_bounds(n: int, m: int, d_max: int) -> tuple:
    """The support cap of the checks at truncation d_max: T_k is the largest
    mu_k + mu_{k+1} + ... over the candidates mu of
    `all_strict_upto(d_max, min(n, m))`, for k = 1, ..., min(n, m)."""
    bounds = [0] * min(n, m)
    for mu in all_strict_upto(d_max, min(n, m)):
        for k, tail in enumerate(_tail_sums(mu.parts)[:-1]):
            bounds[k] = max(bounds[k], tail)
    return tuple(bounds)


def one_box_steps_by_closure(n: int, m: int, nu: StrictPartition) -> dict:
    """The row of `amodule.one_box_steps` read off the ideal of L_nu built
    to degree |nu| + 1, from the summand inside the support cap of the
    kappa of that size."""
    d = nu.size + 1
    ideal = EquivariantIdeal(n, m, summand(n, m, nu, candidate_tail_bounds(n, m, d)), d)
    return {
        kappa: summand_membership(n, m, ideal, kappa)
        for kappa in enumerate_strict(d)
        if kappa.length <= min(n, m)
    }


def all_biweights(n: int, m: int, d: int):
    """Every biweight (rows, cols) of A(n,m)_d."""
    rws = _compositions(d, n)
    cws = _compositions(d, m)
    return [(r, c) for r in rws for c in cws]


def _compositions(d: int, k: int):
    if k == 0:
        return [()] if d == 0 else []
    out = []

    def rec(left, acc):
        if len(acc) == k - 1:
            out.append(tuple(acc + [left]))
            return
        for v in range(left + 1):
            rec(left - v, acc + [v])

    rec(d, [])
    return out


def weight_space_monomials_all_cells(n: int, m: int, d: int, w) -> list:
    """`amodule.weight_space_monomials` by the walk over all n * m cells:
    each cell either skipped or taken as a y factor, then every x table with
    the remaining margins over all n rows and m columns."""
    rows, cols = w
    if sum(rows) != d or sum(cols) != d:
        return []
    out = []

    def supports(cell, rleft, cleft, acc):
        if cell == n * m:
            if sum(rleft) == sum(cleft):
                out.extend((table, tuple(acc)) for table in _tables(tuple(rleft), tuple(cleft)))
            return
        supports(cell + 1, rleft, cleft, acc)
        i, j = divmod(cell, m)
        if rleft[i] > 0 and cleft[j] > 0:
            rl = list(rleft)
            cl = list(cleft)
            rl[i] -= 1
            cl[j] -= 1
            supports(cell + 1, rl, cl, acc + [cell])

    supports(0, list(rows), list(cols), [])
    return out


def monomial_image_all_cells(side, kind, a, b, mono, n, m) -> tuple:
    """`amodule._monomial_image` by the walk over all n * m cells: every x
    exponent and every odd factor is tested against index b, and the terms
    are summed in a dict and filtered for zeros."""
    e, o = mono
    odd_op = kind == "Y"
    out = {}
    # x factors
    for idx, ex in enumerate(e):
        if not ex:
            continue
        i, j = divmod(idx, m)
        if side == "left":
            if b != i + 1:
                continue
            tcell = _cell(a, j + 1, m)
            re, im = (0, -ex) if odd_op else (ex, 0)
        else:
            if b != j + 1:
                continue
            tcell = _cell(i + 1, a, m)
            re, im = (-ex, 0) if odd_op else (ex, 0)
        e2 = list(e)
        e2[idx] -= 1
        if odd_op:
            # new odd factor enters in front of the existing odd block
            ins = insert_odd(o, tcell, 0)
            if ins is None:
                continue
            o2, sign = ins
            key = (tuple(e2), o2)
            if sign != 1:
                re, im = -re, -im
        else:
            e2[tcell] += 1
            key = (tuple(e2), o)
        s = out.get(key, (0, 0))
        out[key] = (s[0] + re, s[1] + im)
    # y factors
    for t, idx in enumerate(o):
        i, j = divmod(idx, m)
        if side == "left":
            if b != i + 1:
                continue
            tcell = _cell(a, j + 1, m)
            re, im = (0, -1) if odd_op else (1, 0)
        else:
            if b != j + 1:
                continue
            tcell = _cell(i + 1, a, m)
            re, im = 1, 0
        # crossing the t preceding odd factors with an odd operator
        if odd_op and t & 1:
            re, im = -re, -im
        o_rest = o[:t] + o[t + 1 :]
        if odd_op:
            e2 = list(e)
            e2[tcell] += 1
            key = (tuple(e2), o_rest)
        else:
            ins = insert_odd(o_rest, tcell, t)
            if ins is None:
                continue
            o2, sign = ins
            key = (e, o2)
            if sign != 1:
                re, im = -re, -im
        s = out.get(key, (0, 0))
        out[key] = (s[0] + re, s[1] + im)
    return tuple(kc for kc in out.items() if kc[1] != (0, 0))


def weight_space(n: int, m: int, d: int, w) -> GradedSubspace:
    """The degree-d, biweight-w component of A(n,m) as a graded subspace."""
    space = GradedSubspace(n, m)
    space.extend({mono: (1, 0)} for mono in weight_space_monomials(n, m, d, w))
    return space


def all_operators(n: int, m: int):
    """Every basis operator of both factors, as (side, (kind, a, b))."""
    return [
        (side, (kind, a, b))
        for side, rank in (("left", n), ("right", m))
        for a in range(1, rank + 1)
        for b in range(1, rank + 1)
        for kind in ("X", "Y")
    ]


def lowering_operators(n: int, m: int):
    """Strictly lower-triangular operators of both factors, as
    (side, (kind, a, b)) with a > b.

    `summand` closes under the simple ones only; the closure under all of
    these is its test oracle.
    """
    return [(side, op) for side, op in all_operators(n, m) if op[1] > op[2]]


def all_raising_operators(n: int, m: int):
    """X_{i,i+1} and Y_{i,i+1} of both factors at full rank, as
    (side, (kind, i, i + 1)), whatever the weight they act on."""
    return [
        (side, (kind, i, i + 1))
        for side, rank in (("left", n), ("right", m))
        for i in range(1, rank)
        for kind in ("X", "Y")
    ]


def solve_singular_full(n: int, m: int, lam: StrictPartition) -> list[dict]:
    """A kernel basis of the weight-(lam,lam) slice of A_|lam| under the
    raising operators, solved on both parities at once: one row per
    (operator, image monomial), one unknown per monomial of the slice.
    `amodule.singular_vectors` solves the even half and maps it by Y_11."""
    if lam.length > min(n, m):
        return []
    w = (_pad(lam.parts, n), _pad(lam.parts, m))
    monos = weight_space_monomials(n, m, lam.size, w)
    if not monos:
        return []
    constraints = {}
    for side, op in raising_operators(w):
        for mono in monos:
            for tgt, c in act_terms(side, op, {mono: (1, 0)}, n, m).items():
                constraints.setdefault((side, op, tgt), {})[mono] = c
    return kernel_basis_keyed(constraints.values(), monos)


def sym_terms(lab) -> list:
    """The tensor terms of the S^dV basis vector lab, d <= 2, as (label,
    sign) pairs: (u, u') is u (x) u' + (-1)^{|u||u'|} u' (x) u for u != u',
    and (u, u) is u (x) u."""
    if len(lab) < 2 or lab[0] == lab[1]:
        return [(lab, 1)]
    return [(lab, 1), (lab[::-1], (-1) ** (_label_parity(lab[:1]) * _label_parity(lab[1:])))]


def sing_system_full(n: int, m: int, a: int, b: int, r: int, wrow, wcol):
    """The singular system of `amodule._sing_system` on the full rank and
    on both parities: every label of V^{(x)a} and W^{(x)b}, the monomials of
    every biweight of A_r, and every raising operator on every unknown.
    Its kernel is c_alpha c_beta times the count `dimcheck._sing_dim` makes
    on S^aV (x) S^bW (x) A_r, and its even unknowns that are triples of
    `queer.sym_label`s are those of `_sing_system`, in the same order."""

    def by_weight(k, d):
        out = {}
        for lab in tensor_basis(k, d):
            w = [0] * k
            for (_, i) in lab:
                w[i - 1] += 1
            out.setdefault(tuple(w), []).append(lab)
        return out

    vlabs = by_weight(n, a)
    wlabs = by_weight(m, b)
    amonos = {w: weight_space_monomials(n, m, r, w) for w in all_biweights(n, m, r)}
    basis = []
    for wv, vl in vlabs.items():
        for ww, wl in wlabs.items():
            need_rows = tuple(x - y for x, y in zip(wrow, wv))
            need_cols = tuple(x - y for x, y in zip(wcol, ww))
            monos = amonos.get((need_rows, need_cols), ())
            basis.extend((v, w2, mono) for v in vl for w2 in wl for mono in monos)
    if not basis:
        return [], []
    constraints = {}
    for side, op in all_raising_operators(n, m):
        godd = op[0] == "Y"
        for col, (vlab, wlab, mono) in enumerate(basis):
            pv, pw = _label_parity(vlab), _label_parity(wlab)
            if side == "left":
                for vlab2, c in tensor_image(op, vlab).items():
                    constraints.setdefault((side, op, (vlab2, wlab, mono)), {})[col] = c
            else:
                flip = godd and pv % 2
                for wlab2, (x, y) in tensor_image(op, wlab).items():
                    row = constraints.setdefault((side, op, (vlab, wlab2, mono)), {})
                    row[col] = (-x, -y) if flip else (x, y)
            flip = godd and (pv + pw) % 2
            for mono2, (x, y) in act_terms(side, op, {mono: (1, 0)}, n, m).items():
                row = constraints.setdefault((side, op, (vlab, wlab, mono2)), {})
                row[col] = (-x, -y) if flip else (x, y)
    return list(constraints.values()), basis


def ideal_closure(n: int, m: int, gens: GradedSubspace, d_max: int) -> EquivariantIdeal:
    """The equivariant ideal generated by gens (operator-closed degreewise)."""
    closed = GradedSubspace(n, m)
    queue = closed.extend(row for comp in gens.components.values() for row in comp.nums.values())
    ops = all_operators(n, m)
    while queue:
        vec = queue.pop()
        queue += closed.extend(act_terms(side, g, vec, n, m) for side, g in ops)
    return EquivariantIdeal(n, m, closed, d_max)


def full_closure(ideal: EquivariantIdeal) -> GradedSubspace:
    """Every nonzero component of the ideal up to its d_max (the literal closure)."""
    out = GradedSubspace(ideal.n, ideal.m)
    degrees = sorted({d0 for (d0, _) in ideal.gens.components})
    if not degrees:
        return out
    for d in range(degrees[0], ideal.d_max + 1):
        for w in all_biweights(ideal.n, ideal.m, d):
            ech = ideal.component(d, w)
            if ech.rank:
                out.components[(d, w)] = ech
    return out


def membership_cases_for(n: int, m: int, lam: StrictPartition, d_max: int):
    """Membership row of the main-theorem matrix for one generator lambda,
    from the ideal of L_lambda built directly to degree d_max."""
    gens = summand(n, m, lam, candidate_tail_bounds(n, m, d_max))
    ideal = EquivariantIdeal(n, m, gens, d_max)
    cases = []
    for mu in all_strict_upto(d_max, min(n, m)):
        if mu.size < lam.size:
            observed = False
        else:
            observed = summand_membership(n, m, ideal, mu)
        cases.append(MembershipCase(lam, mu, contains(lam, mu), observed))
    return cases


@dataclass
class DeterminantalReport:
    r: int
    cases: list
    observed_quotient_lengths: list

    @property
    def passed(self):
        return all(c.passed for c in self.cases)


def determinantal_ideal_check(n: int, m: int, r: int, d_max: int) -> DeterminantalReport:
    """The staircase summand generates exactly the mu with l(mu) > r, from
    the ideal of the staircase built directly to degree d_max."""
    lam = staircase(r)
    if lam.size > d_max:
        raise ValueError("staircase size exceeds d_max")
    gens = summand(n, m, lam, candidate_tail_bounds(n, m, d_max))
    ideal = EquivariantIdeal(n, m, gens, d_max)
    cases = []
    outside = []
    for mu in all_strict_upto(d_max, min(n, m)):
        observed = (
            summand_membership(n, m, ideal, mu) if mu.size >= lam.size else False
        )
        predicted = mu.length > r
        cases.append(MembershipCase(lam, mu, predicted, observed))
        if not observed:
            outside.append(mu.length)
    return DeterminantalReport(r, cases, sorted(set(outside)))


def _in_m_span(p: SuperPoly, n: int) -> bool:
    """Is p a linear combination of the generators of the maximal ideal?"""
    const = Cyclo8Scalar()
    diag = Cyclo8Scalar()
    for (e, o), c in p.terms.items():
        d = sum(e) + len(o)
        if d == 0:
            const = c
        elif d != 1:
            return False
    for i in range(1, n + 1):
        e = [0] * (n * n)
        e[_cell(i, i, n)] = 1
        diag = diag + p.terms.get((tuple(e), ()), Cyclo8Scalar())
    return (const + diag).is_zero()


@dataclass
class StabilityReport:
    failures: list

    @property
    def passed(self):
        return not self.failures


def m_stability_check(n: int) -> StabilityReport:
    """Every X'_ij, Y'_ij maps every generator of m into the span of generators."""
    failures = []
    hbasis = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            hbasis.append(("X'", (i, j), x_prime(n, i, j)))
            hbasis.append(("Y'", (i, j), y_prime(n, i, j)))
    for name, idx, (gl, gr) in hbasis:
        for gen in m_generators(n):
            img = act("left", gl, gen) + act("right", gr, gen)
            if not _in_m_span(img, n):
                failures.append((name, idx, repr(gen)))
    return StabilityReport(failures)


# ---------------------------------------------------------------------------
# supercommutative polynomials
# ---------------------------------------------------------------------------


def p_truncate(p: dict, trunc: int) -> dict:
    return {m: c for m, c in p.items() if mono_degree(m) <= trunc}


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the CLI, from the same FLAGS and TARGETS."""
    common = argparse.ArgumentParser(add_help=False)
    for flag, (default, _, text) in FLAGS.items():
        common.add_argument(flag, type=int, default=default, help=text)
    common.add_argument("--out", type=str, default=None)
    common.add_argument(
        "--format", dest="fmt", choices=["json", "csv", "text"], default="text"
    )
    common.add_argument("--cache-dir", type=str, default=None)
    common.add_argument("--unsafe", action="store_true", help="lift the safe bounds")

    ap = argparse.ArgumentParser(
        prog="queerlab",
        description="Exact verification of Hecke-Clifford / queer-matrix theorems",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("pieri", parents=[common], help="check the Pieri rule against products")

    v = sub.add_parser("verify", parents=[common], help="run a theorem verification")
    v.add_argument("target", choices=[t for c, t in TARGETS if c == "verify"])

    d = sub.add_parser("dump", parents=[common], help="dump a computed table")
    d.add_argument("target", choices=[t for c, t in TARGETS if c == "dump"])
    d.add_argument("--lambda", dest="lam", type=str, default=None)
    return ap
