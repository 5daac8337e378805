"""The truncated bivariate queer algebra A(n,m) = Sym(half(V (x) W)).

Generators x_ij (even) and y_ij (odd) transform like the half-tensor basis
v_ij, w_ij. Everything is graded by total degree and by the torus biweight
(row sums, column sums), and all subspace work happens per weight component.
The basis operators X_ab, Y_ab of q_n and q_m act by writing Gaussian
integers, so all subspace work runs on Gaussian-integer vectors
{monomial: (re, im)}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import Echelon, kernel_basis
from .partitions import StrictPartition, all_strict_upto, enumerate_strict
from .spoly import insert_odd, mono_degree, mono_mul


class TruncationError(ValueError):
    pass


# a monomial of A(n,m) is ((x exponents, flattened n*m), (sorted y cells))


def _cell(i: int, j: int, m: int) -> int:
    return (i - 1) * m + (j - 1)


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


# ---------------------------------------------------------------------------
# the q_n x q_m action by superderivations
# ---------------------------------------------------------------------------

# generator tables, derived from the action on U (x ~ v, y ~ w):
#   left  X_ab: x_ij -> d_bi x_aj          y_ij -> d_bi y_aj
#   left  Y_ab: x_ij -> -zeta d_bi y_aj    y_ij -> -zeta d_bi x_aj
#   right X_ab: x_ij -> d_bj x_ia          y_ij -> d_bj y_ia
#   right Y_ab: x_ij -> -d_bj y_ia         y_ij -> +d_bj x_ia


def _monomial_image(side, kind, a, b, mono, n, m) -> tuple:
    """The derivation action of X_ab/Y_ab on one monomial, as
    (monomial, (re, im)) pairs."""
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


def act_terms(side: str, op: tuple, terms: dict, n: int, m: int, table=None) -> dict:
    """Superderivation action of the basis operator op = (kind, a, b), X_ab
    or Y_ab of the left or right factor, on a Gaussian-integer vector
    {monomial: (re, im)}.

    `table` maps (side, kind, a, b, monomial) to `_monomial_image`; a caller
    that acts on many vectors of one A(n,m) passes one dict, so each image is
    computed once and each output term costs one multiply-add.
    """
    if table is None:
        table = {}
    kind, a, b = op
    out = {}
    get = out.get
    for mono, (xr, xi) in terms.items():
        key = (side, kind, a, b, mono)
        img = table.get(key)
        if img is None:
            img = table[key] = _monomial_image(side, kind, a, b, mono, n, m)
        # a key new to out cannot cancel: both factors are nonzero
        for tgt, (sr, si) in img:
            ur, ui = get(tgt, (0, 0))
            re = ur + xr * sr - xi * si
            im = ui + xr * si + xi * sr
            if re or im:
                out[tgt] = (re, im)
            else:
                del out[tgt]
    return out


# ---------------------------------------------------------------------------
# weight spaces
# ---------------------------------------------------------------------------


def _tables(rows, cols):
    """All nonnegative integer matrices with the given margins."""
    n = len(rows)
    m = len(cols)
    out = []

    def rec(i, cols_left, acc):
        if i == n:
            if all(c == 0 for c in cols_left):
                out.append(tuple(acc))
            return
        # distribute rows[i] over m columns bounded by cols_left
        def dist(j, left, row):
            if j == m:
                if left == 0:
                    rec(i + 1, [c - r for c, r in zip(cols_left, row)], acc + row)
                return
            for v in range(0, min(left, cols_left[j]) + 1):
                dist(j + 1, left - v, row + [v])

        dist(0, rows[i], [])

    rec(0, list(cols), [])
    return out


_WEIGHT_MONOMIALS: dict = {}


def weight_space_monomials(n: int, m: int, d: int, w) -> list:
    """All monomials of A(n,m) with total degree d and biweight w."""
    rows, cols = w
    key = (n, m, d, tuple(rows), tuple(cols))
    monos = _WEIGHT_MONOMIALS.get(key)
    if monos is None:
        monos = _WEIGHT_MONOMIALS[key] = _weight_space_monomials(n, m, d, rows, cols)
    return list(monos)


def _weight_space_monomials(n, m, d, rows, cols) -> tuple:
    if sum(rows) != d or sum(cols) != d:
        return ()
    cells = list(range(n * m))
    out = []

    def supports(idx, rleft, cleft, acc):
        if idx == len(cells):
            xr = tuple(rleft)
            xc = tuple(cleft)
            if sum(xr) != sum(xc):
                return
            for table in _tables(xr, xc):
                out.append((table, tuple(acc)))
            return
        supports(idx + 1, rleft, cleft, acc)
        i, j = divmod(cells[idx], m)
        if rleft[i] > 0 and cleft[j] > 0:
            rl = list(rleft)
            cl = list(cleft)
            rl[i] -= 1
            cl[j] -= 1
            supports(idx + 1, rl, cl, acc + [cells[idx]])

    supports(0, list(rows), list(cols), [])
    return tuple(out)


# ---------------------------------------------------------------------------
# singular vectors and the lambda summand
# ---------------------------------------------------------------------------


def _pad(parts, k):
    return tuple(parts) + (0,) * (k - len(parts))


def raising_operators(n: int, m: int):
    """X_{i,i+1} and Y_{i,i+1} of both factors, as (side, (kind, i, i + 1))."""
    return [
        (side, (kind, i, i + 1))
        for side, rank in (("left", n), ("right", m))
        for i in range(1, rank)
        for kind in ("X", "Y")
    ]


_SINGULAR_CACHE: dict = {}


def singular_vectors(n: int, m: int, lam: StrictPartition) -> list[dict]:
    """Weight-(lam,lam) vectors killed by the raising operators of both sides,
    as primitive Gaussian-integer vectors.

    Each space is solved once per process; callers get fresh dicts.
    """
    key = (n, m, lam)
    basis = _SINGULAR_CACHE.get(key)
    if basis is None:
        basis = _SINGULAR_CACHE[key] = _solve_singular(n, m, lam)
    return [dict(v) for v in basis]


def _solve_singular(n: int, m: int, lam: StrictPartition) -> list[dict]:
    if lam.length > min(n, m):
        return []
    w = (_pad(lam.parts, n), _pad(lam.parts, m))
    monos = weight_space_monomials(n, m, lam.size, w)
    if not monos:
        return []
    # one row per (operator, image monomial); each entry is written once
    constraints = {}
    for op_id, (side, op) in enumerate(raising_operators(n, m)):
        for mono in monos:
            for tgt, c in act_terms(side, op, {mono: (1, 0)}, n, m).items():
                constraints.setdefault((op_id, tgt), {})[mono] = c
    return kernel_basis(constraints.values(), monos)


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
        return not vec or self.component(*self._key(vec)).contains(vec)


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

def all_biweights(n: int, m: int, d: int):
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


def summand_membership(n: int, m: int, ideal: EquivariantIdeal, mu: StrictPartition) -> bool:
    """True iff the whole mu summand lies in the ideal (multiplicity-freeness
    reduces this to containment of the singular vectors)."""
    if mu.length > min(n, m):
        raise ValueError("l(mu) exceeds min(n, m); summand vanishes at this rank")
    sings = singular_vectors(n, m, mu)
    w = (_pad(mu.parts, n), _pad(mu.parts, m))
    comp = ideal.component(mu.size, w)
    return all(comp.contains(s) for s in sings)


@dataclass
class MembershipCase:
    lam: StrictPartition
    mu: StrictPartition
    predicted: bool
    observed: bool

    @property
    def passed(self):
        return self.predicted == self.observed

    def to_dict(self):
        return {
            "lambda": self.lam.serialize(),
            "mu": self.mu.serialize(),
            "predicted": self.predicted,
            "observed": self.observed,
            "pass": self.passed,
        }


def candidate_tail_bounds(n: int, m: int, d_max: int) -> tuple:
    """The support cap of the checks at truncation d_max: T_k is the largest
    mu_k + mu_{k+1} + ... over the candidates mu of
    `all_strict_upto(d_max, min(n, m))`, for k = 1, ..., min(n, m)."""
    bounds = [0] * min(n, m)
    for mu in all_strict_upto(d_max, min(n, m)):
        for k, tail in enumerate(_tail_sums(mu.parts)[:-1]):
            bounds[k] = max(bounds[k], tail)
    return tuple(bounds)


def one_box_steps(n: int, m: int, nu: StrictPartition) -> dict:
    """{kappa: L_kappa lies in A_1 * L_nu} over the strict kappa of size
    |nu| + 1 and length <= min(n, m): one row of the one-box relation.

    The ideal of L_nu is built to degree |nu| + 1 only, from the summand
    inside the support cap of those kappa."""
    d = nu.size + 1
    ideal = EquivariantIdeal(n, m, summand(n, m, nu, candidate_tail_bounds(n, m, d)), d)
    return {
        kappa: summand_membership(n, m, ideal, kappa)
        for kappa in enumerate_strict(d)
        if kappa.length <= min(n, m)
    }


def ideal_summands(n: int, m: int, lam: StrictPartition, d_max: int, relation: dict) -> set:
    """The mu, |mu| <= d_max, whose summand lies in the ideal generated by
    L_lam, by a level-by-level walk along the one-box relation.

    A is generated in degree 1, so the ideal in degree d + 1 is A_1 times its
    degree-d part; A_d is multiplicity-free, so that part is the sum of the
    L_nu reached at level d, and the next level is every kappa one step from
    one of them. `relation` maps nu to `one_box_steps(n, m, nu)`; a row the
    walk needs and lacks is computed and added to it.
    """
    reached = level = {lam}
    for _ in range(lam.size, d_max):
        nxt = set()
        for nu in level:
            if nu not in relation:
                relation[nu] = one_box_steps(n, m, nu)
            nxt.update(kappa for kappa, inside in relation[nu].items() if inside)
        level = nxt
        reached |= level
    return reached
