"""The truncated bivariate queer algebra A(n,m) = Sym(half(V (x) W)).

Generators x_ij (even) and y_ij (odd) transform like the half-tensor basis
v_ij, w_ij. Everything is graded by total degree and by the torus biweight
(row sums, column sums), and all subspace work happens per weight component.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import Echelon, add_term, kernel_basis
from .partitions import StrictPartition, all_strict_upto, contains, staircase
from .queer import QnElement
from .scalars import Cyclo8Scalar, ONE, ZETA, _coerce
from .spoly import insert_odd, mono_degree, p_add, p_mul, p_scale


class TruncationError(ValueError):
    pass


# a monomial of A(n,m) is ((x exponents, flattened n*m), (sorted y cells))


def _cell(i: int, j: int, m: int) -> int:
    return (i - 1) * m + (j - 1)


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


def _act_monomial(side, kind, a, b, mono, coeff, n, m, out):
    """Accumulate the derivation action of X_ab/Y_ab on one monomial."""
    e, o = mono
    odd_op = kind == "Y"
    # x factors
    for idx, ex in enumerate(e):
        if not ex:
            continue
        i, j = divmod(idx, m)
        i += 1
        j += 1
        if side == "left":
            if b != i:
                continue
            ti, tj = a, j
            scal = -ZETA if odd_op else ONE
        else:
            if b != j:
                continue
            ti, tj = i, a
            scal = -ONE if odd_op else ONE
        c = coeff * scal * ex
        e2 = list(e)
        e2[idx] -= 1
        tcell = _cell(ti, tj, m)
        if odd_op:
            # new odd factor enters in front of the existing odd block
            ins = insert_odd(o, tcell, 0)
            if ins is None:
                continue
            o2, sign = ins
            key = (tuple(e2), o2)
            c = c if sign == 1 else -c
        else:
            e2[tcell] += 1
            key = (tuple(e2), o)
        add_term(out, key, c)
    # y factors
    for t, idx in enumerate(o):
        i, j = divmod(idx, m)
        i += 1
        j += 1
        if side == "left":
            if b != i:
                continue
            ti, tj = a, j
            scal = -ZETA if odd_op else ONE
        else:
            if b != j:
                continue
            ti, tj = i, a
            scal = ONE
        # crossing the t preceding odd factors with an odd operator
        c = coeff * scal
        if odd_op and t & 1:
            c = -c
        tcell = _cell(ti, tj, m)
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
            c = c if sign == 1 else -c
        add_term(out, key, c)


def _monomial_image(side, kind, a, b, mono, n, m) -> tuple:
    """The image of one monomial under X_ab/Y_ab, as (monomial, scalar) pairs.

    A scalar equal to 1 is stored as `ONE` itself, so `act_terms` can skip
    the multiplication by an identity test.
    """
    out = {}
    _act_monomial(side, kind, a, b, mono, ONE, n, m, out)
    return tuple((t, ONE if c == ONE else c) for t, c in out.items())


def act_terms(side: str, g: QnElement, terms: dict, n: int, m: int, table=None) -> dict:
    """Superderivation action of (g, 0) or (0, g) on a polynomial dict.

    `table` maps (side, kind, a, b, monomial) to `_monomial_image`; a caller
    that acts on many vectors of one A(n,m) passes one dict, so each image is
    computed once and each output term costs one multiply-add.
    """
    if table is None:
        table = {}
    out = {}
    for kind, mat in (("X", g.xmat), ("Y", g.ymat)):
        for (a, b), c in mat.items():
            for mono, cm in terms.items():
                key = (side, kind, a, b, mono)
                img = table.get(key)
                if img is None:
                    img = table[key] = _monomial_image(side, kind, a, b, mono, n, m)
                if not img:
                    continue
                cc = cm if c is ONE else c * cm
                for tgt, s in img:
                    add_term(out, tgt, cc if s is ONE else cc * s)
    return out


def act(side: str, g: QnElement, p: SuperPoly) -> SuperPoly:
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    rank = p.n if side == "left" else p.m
    if g.n != rank:
        raise ValueError("operator rank %d does not match side rank %d" % (g.n, rank))
    return SuperPoly(p.n, p.m, act_terms(side, g, p.terms, p.n, p.m))


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


def weight_space(n: int, m: int, d: int, w) -> "GradedSubspace":
    """The degree-d, biweight-w component of A(n,m) as a graded subspace."""
    space = GradedSubspace(n, m)
    for mono in weight_space_monomials(n, m, d, w):
        space.insert({mono: ONE})
    return space


# ---------------------------------------------------------------------------
# singular vectors and the lambda summand
# ---------------------------------------------------------------------------


def _pad(parts, k):
    return tuple(parts) + (0,) * (k - len(parts))


def raising_operators(n: int, m: int):
    ops = []
    for i in range(1, n):
        ops.append(("left", QnElement.X(n, i, i + 1)))
        ops.append(("left", QnElement.Y(n, i, i + 1)))
    for j in range(1, m):
        ops.append(("right", QnElement.X(m, j, j + 1)))
        ops.append(("right", QnElement.Y(m, j, j + 1)))
    return ops


def all_operators(n: int, m: int):
    ops = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            ops.append(("left", QnElement.X(n, i, j)))
            ops.append(("left", QnElement.Y(n, i, j)))
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            ops.append(("right", QnElement.X(m, i, j)))
            ops.append(("right", QnElement.Y(m, i, j)))
    return ops


def lowering_operators(n: int, m: int):
    """Strictly lower-triangular operators of both factors.

    `summand` closes under the simple ones only; the closure under all of
    these is its test oracle.
    """
    ops = []
    for i in range(1, n + 1):
        for j in range(1, i):
            ops.append(("left", QnElement.X(n, i, j)))
            ops.append(("left", QnElement.Y(n, i, j)))
    for i in range(1, m + 1):
        for j in range(1, i):
            ops.append(("right", QnElement.X(m, i, j)))
            ops.append(("right", QnElement.Y(m, i, j)))
    return ops


_SINGULAR_CACHE: dict = {}


def singular_vectors(n: int, m: int, lam: StrictPartition) -> list[dict]:
    """Weight-(lam,lam) vectors killed by the raising operators of both sides.

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
    constraints = {}
    for op_id, (side, g) in enumerate(raising_operators(n, m)):
        for mono in monos:
            img = act_terms(side, g, {mono: ONE}, n, m)
            for tgt, c in img.items():
                add_term(constraints.setdefault((op_id, tgt), {}), mono, c)
    return kernel_basis(list(constraints.values()), monos)


@dataclass
class GradedSubspace:
    """Weight-graded subspace: components keyed by (degree, biweight)."""

    n: int
    m: int
    components: dict = field(default_factory=dict)

    def insert(self, vec: dict) -> bool:
        if not vec:
            return False
        mono = next(iter(vec))
        d = mono_degree(mono)
        w = mono_biweight(mono, self.n, self.m)
        ech = self.components.get((d, w))
        if ech is None:
            ech = self.components[(d, w)] = Echelon()
        return ech.insert(vec)

    def component(self, d, w) -> Echelon:
        return self.components.get((d, w), Echelon())

    def dim(self) -> int:
        return sum(e.rank for e in self.components.values())

    def contains(self, vec: dict) -> bool:
        if not vec:
            return True
        mono = next(iter(vec))
        d = mono_degree(mono)
        w = mono_biweight(mono, self.n, self.m)
        return self.component(d, w).contains(vec)


def _simple_lowering_operators(n: int, m: int):
    """X_{i+1,i} and Y_{i+1,i} of both factors, as (side, operator, i - 1):
    each moves one unit of weight from row (column) i to row (column) i + 1."""
    ops = []
    for i in range(1, n):
        ops.append(("left", QnElement.X(n, i + 1, i), i - 1))
        ops.append(("left", QnElement.Y(n, i + 1, i), i - 1))
    for j in range(1, m):
        ops.append(("right", QnElement.X(m, j + 1, j), j - 1))
        ops.append(("right", QnElement.Y(m, j + 1, j), j - 1))
    return ops


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
    operators X_{i+1,i}, Y_{i+1,i} is closed under all of them. Their weights
    strictly descend, hence the worklist terminates without revisits.

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
    queue = []
    if all(t <= b for t, b in zip(_tail_sums(lam.parts), bound)):
        for vec in singular_vectors(n, m, lam):
            if space.insert(vec):
                queue.append(vec)
    ops = _simple_lowering_operators(n, m)
    table = {}
    while queue:
        vec = queue.pop()
        rows, cols = mono_biweight(next(iter(vec)), n, m)
        sides = {"left": (rows, _tail_sums(rows)), "right": (cols, _tail_sums(cols))}
        for side, g, i in ops:
            w, tails = sides[side]
            if not w[i] or tails[i + 1] >= bound[i + 1]:
                continue
            img = act_terms(side, g, vec, n, m, table)
            if img and space.insert(img):
                queue.append(img)
    return space


_SUMMAND_CACHE: dict = {}


def summand_cached(n: int, m: int, lam: StrictPartition, support_cap=None) -> GradedSubspace:
    key = (n, m, lam, support_cap)
    if key not in _SUMMAND_CACHE:
        _SUMMAND_CACHE[key] = summand(n, m, lam, support_cap)
    return _SUMMAND_CACHE[key]


class EquivariantIdeal:
    """The ideal of A(n,m) generated by an operator-closed graded subspace.

    Since A_1 * (stable subspace) is again stable, the degree-d part is
    A_{d-d0} times the generators; components are computed per biweight on
    demand and cached.
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
        ech = Echelon()
        rows_w, cols_w = w
        for (d0, w0), comp in self.gens.components.items():
            if d0 > d or comp.rank == 0:
                continue
            crows = tuple(a - b for a, b in zip(rows_w, w0[0]))
            ccols = tuple(a - b for a, b in zip(cols_w, w0[1]))
            if any(c < 0 for c in crows) or any(c < 0 for c in ccols):
                continue
            for mono in weight_space_monomials(n, m, d - d0, (crows, ccols)):
                mono_poly = {mono: ONE}
                for row in comp.rows.values():
                    ech.insert(p_mul(mono_poly, row))
        self._cache[key] = ech
        return ech

    def full_closure(self) -> GradedSubspace:
        """Materialize every component up to d_max (the literal closure)."""
        out = GradedSubspace(self.n, self.m)
        degrees = sorted({d0 for (d0, _) in self.gens.components})
        if not degrees:
            return out
        dmin = degrees[0]
        for d in range(dmin, self.d_max + 1):
            for w in all_biweights(self.n, self.m, d):
                ech = self.component(d, w)
                if ech.rank:
                    out.components[(d, w)] = ech
        return out


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


def ideal_closure(n: int, m: int, gens: GradedSubspace, d_max: int) -> EquivariantIdeal:
    """The equivariant ideal generated by gens (operator-closed degreewise)."""
    closed = GradedSubspace(n, m)
    queue = []
    for comp in gens.components.values():
        for row in comp.rows.values():
            if closed.insert(dict(row)):
                queue.append(dict(row))
    ops = all_operators(n, m)
    while queue:
        vec = queue.pop()
        for side, g in ops:
            img = act_terms(side, g, vec, n, m)
            if img and closed.insert(img):
                queue.append(img)
    return EquivariantIdeal(n, m, closed, d_max)


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


def membership_cases_for(n: int, m: int, lam: StrictPartition, d_max: int):
    """Membership row of the main-theorem matrix for one generator lambda."""
    gens = summand_cached(n, m, lam, candidate_tail_bounds(n, m, d_max))
    ideal = EquivariantIdeal(n, m, gens, d_max)
    cases = []
    for mu in all_strict_upto(d_max, min(n, m)):
        if mu.size < lam.size:
            observed = False
        else:
            observed = summand_membership(n, m, ideal, mu)
        cases.append(MembershipCase(lam, mu, contains(lam, mu), observed))
    return cases


def verify_main_theorem(n: int, m: int, d_max: int) -> list[MembershipCase]:
    """Check membership(I^lambda, mu) == (lambda inside mu) over the truncation."""
    cases = []
    for lam in all_strict_upto(d_max, min(n, m)):
        cases.extend(membership_cases_for(n, m, lam, d_max))
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
    """The staircase summand generates exactly the mu with l(mu) > r."""
    lam = staircase(r)
    if lam.size > d_max:
        raise ValueError("staircase size exceeds d_max")
    gens = summand_cached(n, m, lam, candidate_tail_bounds(n, m, d_max))
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


# ---------------------------------------------------------------------------
# m-stability of the distinguished maximal ideal
# ---------------------------------------------------------------------------


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


def _in_m_span(p: SuperPoly, n: int) -> bool:
    """Is p a linear combination of the generators of the maximal ideal?"""
    const = Cyclo8Scalar()
    diag = Cyclo8Scalar()
    zero_e = (0,) * (n * n)
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
    from .queer import x_prime, y_prime

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
