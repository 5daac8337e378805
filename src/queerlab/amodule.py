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
`contravariance_check` checks the adjoints, and Y_aa^2 = -X_aa, exactly on
A_1; `one_box_steps` pairs the covers.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .linalg import _primitive, kernel_basis
from .partitions import StrictPartition, enumerate_strict
from .queer import _label_parity, sym_image, sym_label, tensor_basis
from .spoly import insert_odd, mono_mul


class ContravarianceError(ArithmeticError):
    """A basis operator is not adjoint to its partner under the Fischer form,
    or an odd Cartan element Y_aa does not square to -X_aa."""


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
    (monomial, (re, im)) pairs.

    The operator lowers index b of its factor only, so the walk reads the m
    cells of row b on the left, the n cells of column b on the right, and
    the odd factors that lie there; a factor at cell c moves to c + (a - b) m
    on the left and c + (a - b) on the right. X_aa sends every factor it
    reads back onto mono, so its image is mono times their number. For every
    other operator no two factors read give the same target, so each term is
    appended as it comes: an x term changes e at its own cell and a y term
    changes o at its own cell; for X an x term changes e and a y term does
    not, and for Y an x term lowers e and a y term raises it.
    """
    e, o = mono
    if side == "left":
        cells = range((b - 1) * m, b * m)
        shift = (a - b) * m
    else:
        cells = range(b - 1, n * m, m)
        shift = a - b
    if kind == "X" and a == b:
        count = sum(e[c] for c in cells) + sum(1 for c in o if c in cells)
        return ((mono, (count, 0)),) if count else ()
    odd_op = kind == "Y"
    out = []
    # x factors
    for c in cells:
        ex = e[c]
        if not ex:
            continue
        e2 = list(e)
        e2[c] -= 1
        if odd_op:
            # new odd factor enters in front of the existing odd block
            ins = insert_odd(o, c + shift, 0)
            if ins is None:
                continue
            o2, sign = ins
            re, im = (0, -sign * ex) if side == "left" else (-sign * ex, 0)
            out.append(((tuple(e2), o2), (re, im)))
        else:
            e2[c + shift] += 1
            out.append(((tuple(e2), o), (ex, 0)))
    # y factors
    for t, c in enumerate(o):
        if c not in cells:
            continue
        re, im = (0, -1) if odd_op and side == "left" else (1, 0)
        # crossing the t preceding odd factors with an odd operator
        if odd_op and t & 1:
            re, im = -re, -im
        o_rest = o[:t] + o[t + 1 :]
        if odd_op:
            e2 = list(e)
            e2[c + shift] += 1
            out.append(((tuple(e2), o_rest), (re, im)))
        else:
            ins = insert_odd(o_rest, c + shift, t)
            if ins is None:
                continue
            o2, sign = ins
            out.append(((e, o2), (sign * re, sign * im)))
    return tuple(out)


def act_terms(side: str, op: tuple, terms: dict, n: int, m: int, table=None) -> dict:
    """Superderivation action of the basis operator op = (kind, a, b), X_ab
    or Y_ab of the left or right factor, on a Gaussian-integer vector
    {monomial: (re, im)}.

    `table` maps (side, kind, a, b, monomial) to `_monomial_image`; a caller
    that acts on many vectors of one A(n,m) passes one dict, so each image is
    computed once and each output term costs one multiply-add
    (`_singular_basis` shares one across the even vectors of a slice).
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


def weight_space_monomials(n: int, m: int, d: int, w, parity=None) -> list:
    """All monomials of A(n,m) with total degree d and biweight w; with a
    parity (0 or 1), only those with that many odd factors mod 2, in the
    same order."""
    rows, cols = w
    key = (n, m, d, tuple(rows), tuple(cols), parity)
    monos = _WEIGHT_MONOMIALS.get(key)
    if monos is None:
        monos = _WEIGHT_MONOMIALS[key] = _weight_space_monomials(n, m, d, rows, cols, parity)
    return list(monos)


def _weight_space_monomials(n, m, d, rows, cols, parity) -> tuple:
    """The walk over the live cells: those whose row and column weights are
    both nonzero. No monomial of the slice uses another cell, so a dead cell
    only ever takes exponent 0, and skipping it leaves the order of the
    monomials as it is; the recursion is as deep as the live cells are many,
    not n * m. A leaf whose odd support has the other parity is left before
    its x tables are listed, and the tables of each margin are listed once."""
    if sum(rows) != d or sum(cols) != d:
        return ()
    live_rows = [i for i in range(n) if rows[i]]
    live_cols = [j for j in range(m) if cols[j]]
    # the live cells in row-major order, the order of `_tables` on the margins
    cells = [(i, j, i * m + j) for i in live_rows for j in live_cols]
    out = []
    tables = {}

    def supports(idx, rleft, cleft, acc):
        if idx == len(cells):
            if parity is not None and len(acc) % 2 != parity:
                return
            xr = tuple(rleft[i] for i in live_rows)
            xc = tuple(cleft[j] for j in live_cols)
            if sum(xr) != sum(xc):
                return
            if (xr, xc) not in tables:
                tables[xr, xc] = _tables(xr, xc)
            for table in tables[xr, xc]:
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


@lru_cache(maxsize=None)
def _labels_by_weight(k: int, d: int, weight: tuple) -> dict:
    """Labels of S^d C^{k|k}, d <= 2 (`queer.sym_label`), on the indices where
    weight is nonzero, grouped by their own weight; once per key, and callers
    must not mutate it."""
    out = {}
    for lab in filter(sym_label, tensor_basis(k, d, weight)):
        w = [0] * k
        for (_, i) in lab:
            w[i - 1] += 1
        out.setdefault(tuple(w), []).append(lab)
    return out


# (n, m, side, raising operator, is monomial, tensor label or monomial) ->
# its image, as (target, (re, im)) pairs; shared by the systems with a
# tensor factor, whose labels and A_r monomials recur across a sweep
_IMAGES: dict = {}


def _image(n: int, m: int, side: str, op: tuple, x, is_mono: bool, keep: bool) -> tuple:
    key = (n, m, side, op, is_mono, x)
    image = _IMAGES.get(key)
    if image is None:
        image = _monomial_image(side, *op, x, n, m) if is_mono else sym_image(op, x)
        if keep:
            _IMAGES[key] = image
    return image


def _sing_system(n: int, m: int, a: int, b: int, r: int, wrow, wcol):
    """(constraint rows, unknowns) whose kernel is the even half of the
    (wrow, wcol)-singular slice of S^aV (x) S^bW (x) A_r, a, b <= 2: the
    unknowns are the weight-space basis triples (v, w, mono) of even total
    parity, v and w labels of S^aV and S^bW (`queer.sym_label`), each row is
    one coordinate of one raising operator's image, and a row is a
    Gaussian-integer dict keyed by the unknowns' indices. At a = b = 0 this
    is the (wrow, wcol) weight space of A_r.

    S^dV is a submodule of V^{(x)d}, so each image lies in S^aV (x) S^bW (x)
    A_r and is zero iff its coordinates at the triples of symmetric labels
    are: those are its rows (`queer.sym_image`). At d <= 2 S^dV is one copy
    of T_(d), and V^{(x)d} is c_(d) of them (`dimcheck.hom_dim_check`
    checks both by dimension); at d <= 1 S^dV is all of V^{(x)d}.

    The even half is all that needs solving (Cheng and Wang, AMS GSM 144,
    ch. 1-3). Its kernel is half the singular slice at every nonzero weight
    and all of it at the zero weight (`dimcheck._sing_dim` doubles the
    count, `singular_vectors` maps the even basis by Y_ll, l = l(lam)):
    - no row mixes parities: X_ab is even and Y_ab odd, so every unknown of
      a row has the parity of the row's target plus that of its operator;
    - the odd Cartan element Hbar_i = Y_ii of the left factor, for an i with
      wrow_i != 0, maps singular vectors to singular vectors, as [hbar, n+]
      lies in n+; the right Y_jj does the same where only wcol is nonzero;
    - Hbar_i^2 = -X_ii in these signs (Y_ii sends e_i to -f_i and f_i to
      e_i), which acts on the slice as the nonzero scalar -wrow_i: Hbar_i is
      an odd isomorphism from the even singular vectors onto the odd ones;
    - the only zero weight is a = b = r = 0, whose slice is the even scalar
      line.
    The full system on both parities is the test oracle `sing_system_full`.

    The system is built on the support of the weight: no label or monomial
    of the slice uses an index where (wrow, wcol) is 0, and no raising
    operator that lowers such an index writes a row (`raising_operators`).
    The unknowns and rows, in the n x m layout, are the even block of the
    full-rank system on S^aV (x) S^bW, which has no other row; how many
    there are depends on the weight, not on n and m.
    """
    vlabs = _labels_by_weight(n, a, wrow)
    wlabs = _labels_by_weight(m, b, wcol)
    parity = {
        lab: _label_parity(lab) for labs in (*vlabs.values(), *wlabs.values()) for lab in labs
    }
    # basis of the target weight slice: even triples with weights summing right
    basis = []
    for wv, vl in vlabs.items():
        for ww, wl in wlabs.items():
            need_rows = tuple(x - y for x, y in zip(wrow, wv))
            need_cols = tuple(x - y for x, y in zip(wcol, ww))
            if any(c < 0 for c in need_rows) or any(c < 0 for c in need_cols):
                continue
            # q -> the monomials with q odd factors mod 2: those that make a
            # label pair of parity q even
            monos = {}
            for v in vl:
                for w2 in wl:
                    q = (parity[v] + parity[w2]) % 2
                    if q not in monos:
                        monos[q] = weight_space_monomials(n, m, r, (need_rows, need_cols), q)
                    basis.extend((v, w2, mono) for mono in monos[q])
    if not basis:
        return [], []
    # A bare slice of A (a = b = 0) is one biweight of A_r, whose monomials
    # lie in no other bare slice, and `singular_vectors` solves it once: each
    # image is written into its rows and dropped, as none is looked up again.
    keep = bool(a or b)
    # A raising operator changes the weight of the factor it acts on, so the
    # targets of one triple are distinct and each row entry is written once.
    constraints = {}
    for side, op in raising_operators((wrow, wcol)):
        godd = op[0] == "Y"
        # this operator's image of each label and each monomial, looked up once
        lab_images, mono_images = {}, {}
        for col, (vlab, wlab, mono) in enumerate(basis):
            pv = parity[vlab]
            lab = vlab if side == "left" else wlab
            image = lab_images.get(lab)
            if image is None:
                image = lab_images[lab] = _image(n, m, side, op, lab, False, keep)
            if side == "left":
                for vlab2, c in image:
                    constraints.setdefault((side, op, (vlab2, wlab, mono)), {})[col] = c
            else:
                flip = godd and pv % 2
                for wlab2, (x, y) in image:
                    row = constraints.setdefault((side, op, (vlab, wlab2, mono)), {})
                    row[col] = (-x, -y) if flip else (x, y)
            image = mono_images.get(mono)
            if image is None:
                image = _image(n, m, side, op, mono, True, keep)
                if keep:
                    mono_images[mono] = image
            flip = godd and (pv + parity[wlab]) % 2
            for mono2, (x, y) in image:
                row = constraints.setdefault((side, op, (vlab, wlab, mono2)), {})
                row[col] = (-x, -y) if flip else (x, y)
    return list(constraints.values()), basis


_SINGULAR_CACHE: dict = {}


def singular_vectors(n: int, m: int, lam: StrictPartition) -> list[dict]:
    """Weight-(lam,lam) vectors of A_|lam| killed by the raising operators of
    both sides, as primitive Gaussian-integer vectors: a basis of the even
    half, then its image under the left Y_ll, l = l(lam), brought to content
    1, which spans the odd half (`_singular_basis`); callers get fresh dicts.
    """
    return [dict(v) for v in _singular_basis(n, m, lam)]


def singular_dim(n: int, m: int, lam: StrictPartition) -> int:
    """len(singular_vectors(n, m, lam)), without copying the basis."""
    return len(_singular_basis(n, m, lam))


def _singular_basis(n: int, m: int, lam: StrictPartition) -> list[dict]:
    """The basis of `singular_vectors`, built once per process; callers must
    not mutate it. Since lam_l != 0, Y_ll^2 = -X_ll is the scalar -lam_l on
    the slice, so the Y_ll images of the even half are independent (proof in
    `_sing_system`); the zero weight, lam = (), is the even scalar line.

    Where lam_1 >= lam_2 + 2 the basis is x_11 times that of nu = lam - e_1,
    which is strict and of the same length l:
    - every raising operator lowers an index >= 2, so it kills x_11; they act
      by superderivations, so x_11 S_nu lies in S_lam;
    - x_11 is even and no zero divisor, so x_11 S_nu has dimension dim S_nu,
      and dim S_lam = dim S_nu, as the highest-weight space of a q(n) x q(m)
      summand has a dimension set by l(lam) alone (Cheng and Wang, AMS GSM
      144, ch. 3);
    - at l >= 2, Y_ll kills x_11 too, so x_11 times the odd half of nu is the
      primitive Y_ll image of x_11 times its even half; at l = 1, Y_11 x_11
      is not 0, so the even half alone is multiplied and mapped by Y_11.
    Only where lam_1 = lam_2 + 1 is the even half solved (`_sing_system` at
    a = b = 0). Row l holds the fewest factors of each monomial, and the
    even vectors share their monomials, so one image table serves them all.
    """
    key = (n, m, lam)
    basis = _SINGULAR_CACHE.get(key)
    if basis is None:
        parts, l = lam.parts, lam.length
        basis, even_only = [], True
        if l > min(n, m):
            pass
        elif l and parts[0] >= _pad(parts, 2)[1] + 2:
            nu = _singular_basis(n, m, StrictPartition((parts[0] - 1,) + parts[1:]))
            x_11 = _degree_one(n, m, 0)[0]
            even_only = l == 1
            basis = [_times(x_11, v) for v in (nu[: len(nu) // 2] if even_only else nu)]
        else:
            w = (_pad(parts, n), _pad(parts, m))
            rows, unknowns = _sing_system(n, m, 0, 0, lam.size, *w)
            even = kernel_basis(rows, len(unknowns))
            del rows  # the bulk of the memory: freed before the odd half is built
            basis = [{unknowns[c][2]: x for c, x in v.items()} for v in even]
        if l and even_only:
            y_ll, table = ("Y", l, l), {}
            basis += [_primitive(act_terms("left", y_ll, v, n, m, table)) for v in basis]
        _SINGULAR_CACHE[key] = basis
    return basis


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
    is the standard Hermitian one). Each matrix is read off `_monomial_image`
    of every degree-1 monomial, when its pair is first compared. Then check
    Y_aa^2 = -X_aa on A_1, the relation by which `singular_vectors` maps its
    even half onto the odd half.

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
    mats = {}  # (side, op) -> {(v, u): the coefficient of v in op(u)}

    def mat(side, op):
        if (side, op) not in mats:
            mats[side, op] = {(v, u): c for u in basis for v, c in _monomial_image(side, *op, u, n, m)}
        return mats[side, op]

    for side, (kind, a, b) in ops:
        sign = 1 if kind == "X" else -1
        adjoint = {(u, v): (sign * re, -sign * im) for (v, u), (re, im) in mat(side, (kind, b, a)).items()}
        if mat(side, (kind, a, b)) != adjoint:
            raise ContravarianceError(
                "on A_1 of A(%d,%d), %s %s_%d%d is not the adjoint of %s%s_%d%d"
                % (n, m, side, kind, a, b, "" if sign == 1 else "-", kind, b, a)
            )
    for side, rank in (("left", n), ("right", m)):
        for a in range(1, rank + 1):
            y = mat(side, ("Y", a, a)).items()
            square = {}
            for (w, v), (re, im) in y:
                for (v2, u), (re2, im2) in y:
                    if v2 == v:
                        sr, si = square.get((w, u), (0, 0))
                        square[w, u] = (sr + re * re2 - im * im2, si + re * im2 + im * re2)
            minus_x = {k: (-re, -im) for k, (re, im) in mat(side, ("X", a, a)).items()}
            if {k: c for k, c in square.items() if c != (0, 0)} != minus_x:
                raise ContravarianceError(
                    "on A_1 of A(%d,%d), %s Y_%d%d^2 is not -X_%d%d" % (n, m, side, a, a, a, a)
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
        # lazy covers: `any` stops before the later ones are built
        targets = singular_vectors(n, m, kappa)
        covers = (_times(g, s) for g in _degree_one(n, m, _cell(a, a, m)) for s in sings)
        row[kappa] = any(_fischer(z, t) != (0, 0) for z in covers for t in targets)
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
