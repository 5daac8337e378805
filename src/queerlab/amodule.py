"""The truncated bivariate queer algebra A(n,m) = Sym(half(V (x) W)).

Generators x_ij (even) and y_ij (odd) transform like the half-tensor basis
v_ij, w_ij. Everything is graded by total degree and by the torus biweight
(row sums, column sums). The basis operators X_ab, Y_ab of q_n and q_m act
by writing Gaussian integers, so vectors are Gaussian-integer dicts
{monomial: (re, im)}.

The one-box relation of the ideal classification is read off the Fischer
form <x^a y^S, x^b y^T> = delta_ab delta_ST prod a_ij!, Hermitian over Z[i]
(Howe, Trans. AMS 313, 1989). Multiplication by x_ij is adjoint to d/dx_ij
and multiplication by y_ij to the left derivative d/dy_ij, so X_ab is
adjoint to X_ba and Y_ab to -Y_ba: the form is contravariant and positive
definite. Each A_d is multiplicity-free under q(n) x q(m) (Cheng and Wang,
AMS GSM 144, ch. 3), so its summands L_mu are orthogonal, and L_kappa lies
in a submodule M iff M is not orthogonal to the singular vectors S_kappa.
`contravariance_check` checks the adjoints exactly on A_1; `one_box_steps`
pairs the covers.
"""

from __future__ import annotations

from math import factorial

from .linalg import kernel_basis
from .partitions import StrictPartition, enumerate_strict
from .spoly import insert_odd, mono_mul


class ContravarianceError(ArithmeticError):
    """A basis operator is not adjoint to its partner under the Fischer form."""


# a monomial of A(n,m) is ((x exponents, flattened n*m), (sorted y cells))


def _cell(i: int, j: int, m: int) -> int:
    return (i - 1) * m + (j - 1)


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
    """The walk over the live cells: those whose row and column weights are
    both nonzero. No monomial of the slice uses another cell, so a dead cell
    only ever takes exponent 0, and skipping it leaves the order of the
    monomials as it is; the recursion is as deep as the live cells are many,
    not n * m."""
    if sum(rows) != d or sum(cols) != d:
        return ()
    live_rows = [i for i in range(n) if rows[i]]
    live_cols = [j for j in range(m) if cols[j]]
    # the live cells in row-major order, the order of `_tables` on the margins
    cells = [(i, j, i * m + j) for i in live_rows for j in live_cols]
    out = []

    def supports(idx, rleft, cleft, acc):
        if idx == len(cells):
            xr = tuple(rleft[i] for i in live_rows)
            xc = tuple(cleft[j] for j in live_cols)
            if sum(xr) != sum(xc):
                return
            for table in _tables(xr, xc):
                x = [0] * (n * m)
                for (_, _, cell), e in zip(cells, table):
                    x[cell] = e
                out.append((tuple(x), tuple(acc)))
            return
        supports(idx + 1, rleft, cleft, acc)
        i, j, cell = cells[idx]
        if rleft[i] > 0 and cleft[j] > 0:
            rl = list(rleft)
            cl = list(cleft)
            rl[i] -= 1
            cl[j] -= 1
            supports(idx + 1, rl, cl, acc + [cell])

    supports(0, list(rows), list(cols), [])
    return tuple(out)


# ---------------------------------------------------------------------------
# singular vectors
# ---------------------------------------------------------------------------


def _pad(parts, k):
    return tuple(parts) + (0,) * (k - len(parts))


def raising_operators(w):
    """X_{i,i+1} and Y_{i,i+1} of both factors, as (side, (kind, i, i + 1)),
    that can act on the biweight w = (rows, cols), padded to (n, m).

    Each lowers index i + 1 of its factor, so where w is 0 at i + 1 no
    vector of the slice uses that index and the operator writes nothing.
    """
    return [
        (side, (kind, i, i + 1))
        for side, wt in (("left", w[0]), ("right", w[1]))
        for i in range(1, len(wt))
        if wt[i]
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
    for side, op in raising_operators(w):
        for mono in monos:
            for tgt, c in act_terms(side, op, {mono: (1, 0)}, n, m).items():
                constraints.setdefault((side, op, tgt), {})[mono] = c
    return kernel_basis(constraints.values(), monos)


class MembershipCase:
    __slots__ = ("lam", "mu", "predicted", "observed")

    def __init__(self, lam: StrictPartition, mu: StrictPartition, predicted: bool, observed: bool):
        self.lam = lam
        self.mu = mu
        self.predicted = predicted
        self.observed = observed

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


# ---------------------------------------------------------------------------
# the Fischer form and the one-box relation
# ---------------------------------------------------------------------------


def _degree_one(n: int, m: int, cell: int) -> tuple:
    """The monomials x_ij and y_ij of the cell (i - 1) * m + (j - 1)."""
    zero = (0,) * (n * m)
    return (zero[:cell] + (1,) + zero[cell + 1 :], ()), (zero, (cell,))


def contravariance_check(n: int, m: int) -> int:
    """Check that the Fischer form is contravariant on A_1: for every basis
    operator of both sides, the matrix of X_ab is the conjugate transpose
    of that of X_ba, and the matrix of Y_ab that of -Y_ba (on A_1 the form
    is the standard Hermitian one). One `act_terms` call per (operator,
    degree-1 monomial).

    Returns the number of (operator, u, v) entries compared; raises
    ContravarianceError at the first operator that fails.
    """
    basis = [mono for cell in range(n * m) for mono in _degree_one(n, m, cell)]
    ops = [
        (side, (kind, a, b))
        for side, rank in (("left", n), ("right", m))
        for kind in ("X", "Y")
        for a in range(1, rank + 1)
        for b in range(1, rank + 1)
    ]
    # (side, op) -> {(v, u): the coefficient of v in op(u)}
    mats = {
        (side, op): {(v, u): c for u in basis for v, c in act_terms(side, op, {u: (1, 0)}, n, m).items()}
        for side, op in ops
    }
    for side, (kind, a, b) in ops:
        sign = 1 if kind == "X" else -1
        partner = mats[side, (kind, b, a)]
        adjoint = {(u, v): (sign * re, -sign * im) for (v, u), (re, im) in partner.items()}
        if mats[side, (kind, a, b)] != adjoint:
            raise ContravarianceError(
                "on A_1 of A(%d,%d), %s %s_%d%d is not the adjoint of %s%s_%d%d"
                % (n, m, side, kind, a, b, "" if sign == 1 else "-", kind, b, a)
            )
    return len(ops) * len(basis) ** 2


def added_box(nu: StrictPartition, kappa: StrictPartition):
    """The row a with kappa = nu + e_a, parts zero-padded, or None."""
    k = max(nu.length, kappa.length)
    diff = [x - y for x, y in zip(_pad(kappa.parts, k), _pad(nu.parts, k))]
    if sorted(diff) != [0] * (k - 1) + [1]:
        return None
    return diff.index(1) + 1


def _times(mono, vec: dict) -> dict:
    """The monomial times vec: a signed re-keying of vec, since multiplying
    by a monomial is injective on monomials."""
    out = {}
    for k, (x, y) in vec.items():
        r = mono_mul(mono, k)
        if r is not None:
            out[r[0]] = (x, y) if r[1] == 1 else (-x, -y)
    return out


def _fischer(u: dict, v: dict) -> tuple:
    """<u, v> = sum over the monomials k of u_k conj(v_k) prod a_ij!, as (re, im)."""
    re = im = 0
    for k, (vr, vi) in v.items():
        c = u.get(k)
        if c is not None:
            w = 1
            for ex in k[0]:
                w *= factorial(ex)
            re += w * (c[0] * vr + c[1] * vi)
            im += w * (c[1] * vr - c[0] * vi)
    return re, im


def one_box_steps(n: int, m: int, nu: StrictPartition) -> dict:
    """{kappa: L_kappa lies in A_1 * L_nu} over the strict kappa of size
    |nu| + 1 and length <= min(n, m): one row of the one-box relation.

    q acts by superderivations, so A_1 * L_nu = U(g)(A_1 * S_nu). The
    adjoint of n^- lies in n^+, which kills S_kappa; and n^+ kills S_nu, so
    U(n^+) U(h) keeps A_1 * S_nu, whose biweights are (nu + e_i, nu + e_j).
    So A_1 * L_nu is not orthogonal to S_kappa iff kappa = nu + e_a
    (`added_box`) and some <x_aa s, t> or <y_aa s, t>, s in S_nu and t in
    S_kappa, is nonzero: every other kappa is out by weight alone.
    """
    row = {}
    sings = singular_vectors(n, m, nu)
    for kappa in enumerate_strict(nu.size + 1):
        if kappa.length > min(n, m):
            continue
        a = added_box(nu, kappa)
        if a is None:
            row[kappa] = False
            continue
        covers = [_times(g, s) for g in _degree_one(n, m, _cell(a, a, m)) for s in sings]
        row[kappa] = any(_fischer(z, t) != (0, 0) for t in singular_vectors(n, m, kappa) for z in covers)
    return row


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
