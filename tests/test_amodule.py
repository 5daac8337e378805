import itertools
import math
import random
from functools import lru_cache

import pytest

from oracles import (
    EquivariantIdeal,
    GradedSubspace,
    QnElement,
    SuperPoly,
    TruncationError,
    act,
    act_on_U,
    all_biweights,
    all_operators,
    bracket,
    candidate_tail_bounds,
    determinantal_ideal_check,
    full_closure,
    ideal_closure,
    lowering_operators,
    m_generators,
    m_stability_check,
    membership_cases_for,
    mono_biweight,
    monomial_image_all_cells,
    numerators,
    one_box_steps_by_closure,
    scalar_rows,
    solve_singular_full,
    summand,
    summand_membership,
    weight_space,
    weight_space_monomials_all_cells,
    x_prime,
)
from queerlab import amodule
from queerlab.amodule import (
    _fischer,
    _monomial_image,
    act_terms,
    added_box,
    contravariance_check,
    ideal_summands,
    one_box_steps,
    singular_vectors,
    weight_space_monomials,
)
from queerlab.linalg import _primitive, span
from queerlab.partitions import (
    StrictPartition,
    all_strict_upto,
    contains,
    delta,
    enumerate_strict,
    staircase,
)
from queerlab.queer import dim_T
from queerlab.scalars import Cyclo8Scalar, ONE

rng = random.Random(9)


def sp(*parts):
    return StrictPartition(tuple(parts))


@lru_cache(maxsize=None)
def full_summand(n, m, lam):
    """The uncapped summand, built once per test session."""
    return summand(n, m, lam)


def dim(space):
    return sum(e.rank for e in space.components.values())


def test_a_mult_examples():
    n = m = 2
    y11 = SuperPoly.y(n, m, 1, 1)
    y12 = SuperPoly.y(n, m, 1, 2)
    x11 = SuperPoly.x(n, m, 1, 1)
    assert (y11 * y11).is_zero()
    assert y11 * y12 == (y12 * y11).scale(-1)
    assert x11 * x11 == SuperPoly(n, m, {((2, 0, 0, 0), ()): ONE})


def test_act_matches_U_action_on_generators():
    n = m = 2
    for side in ("left", "right"):
        for kind in ("X", "Y"):
            for a, b, i, j in itertools.product((1, 2), repeat=4):
                g = (
                    QnElement.X(2, a, b)
                    if kind == "X"
                    else QnElement.Y(2, a, b)
                )
                for gen, ulab in (
                    (SuperPoly.x(n, m, i, j), ("v", i, j)),
                    (SuperPoly.y(n, m, i, j), ("w", i, j)),
                ):
                    got = act(side, g, gen)
                    want = SuperPoly(n, m)
                    for (k2, i2, j2), c in act_on_U(
                        side, g, {ulab: ONE}, n, m
                    ).items():
                        base = (
                            SuperPoly.x(n, m, i2, j2)
                            if k2 == "v"
                            else SuperPoly.y(n, m, i2, j2)
                        )
                        want = want + base.scale(c)
                    assert got == want


def test_act_examples():
    n = m = 2
    # raising operator kills x_11; X'_12 sends x_11 - 1 to -x_12
    assert act("left", QnElement.X(2, 1, 2), SuperPoly.x(n, m, 1, 1)).is_zero()
    gl, gr = x_prime(2, 1, 2)
    gen = SuperPoly.x(n, m, 1, 1) - SuperPoly.one(n, m)
    img = act("left", gl, gen) + act("right", gr, gen)
    assert img == SuperPoly.x(n, m, 1, 2).scale(-1)


def test_act_leibniz_random():
    n = m = 2
    gens = [SuperPoly.x(n, m, i, j) for i in (1, 2) for j in (1, 2)] + [
        SuperPoly.y(n, m, i, j) for i in (1, 2) for j in (1, 2)
    ]
    for _ in range(20):
        g = (
            QnElement.Y(2, rng.randint(1, 2), rng.randint(1, 2))
            if rng.random() < 0.5
            else QnElement.X(2, rng.randint(1, 2), rng.randint(1, 2))
        )
        p = rng.choice(gens)
        q = rng.choice(gens)
        side = rng.choice(("left", "right"))
        lhs = act(side, g, p * q)
        sign = (-1) ** ((g.parity() or 0) * (len(next(iter(p.terms))[1]) & 1))
        rhs = act(side, g, p) * q + (p * act(side, g, q)).scale(sign)
        assert lhs == rhs


def _generator_image(side, g, f, n, m):
    """g acting on the generator f = x_ij or y_ij, read off the action on
    U = half(V (x) W), where f is v_ij or w_ij."""
    (e, o), = f.terms
    idx = o[0] if o else e.index(1)
    ulab = ("w" if o else "v", idx // m + 1, idx % m + 1)
    out = SuperPoly(n, m)
    for (k2, i2, j2), c in act_on_U(side, g, {ulab: ONE}, n, m).items():
        out = out + (SuperPoly.x if k2 == "v" else SuperPoly.y)(n, m, i2, j2).scale(c)
    return out


def _leibniz(side, g, mono, n, m):
    """g acting on the monomial by the Leibniz rule over its factors (the x
    factors, then the y factors in increasing cell order), each factor's
    image read off the action on U."""
    e, o = mono
    factors = [
        SuperPoly.x(n, m, idx // m + 1, idx % m + 1) for idx, ex in enumerate(e) for _ in range(ex)
    ]
    factors += [SuperPoly.y(n, m, idx // m + 1, idx % m + 1) for idx in o]
    prod = SuperPoly.one(n, m)
    for f in factors:
        prod = prod * f
    assert prod == SuperPoly(n, m, {mono: ONE})
    out = SuperPoly(n, m)
    odd = 0  # the parity of the factors before t
    for t, f in enumerate(factors):
        term = SuperPoly.one(n, m)
        for s, h in enumerate(factors):
            term = term * (_generator_image(side, g, h, n, m) if s == t else h)
        out = out + term.scale(-1 if g.parity() and odd else 1)
        odd ^= len(next(iter(f.terms))[1])
    return out


def test_keyed_act_terms_match_superpoly_leibniz():
    # act_terms on Gaussian-integer combinations of monomials of degree 2 and
    # 3, for X_ab and Y_ab on both sides, against the Leibniz rule over
    # SuperPoly factors; no part of the oracle calls act_terms
    draw = random.Random(4)
    for n, m in ((2, 2), (2, 3)):
        monos = [
            mono
            for d in (2, 3)
            for w in all_biweights(n, m, d)
            for mono in weight_space_monomials(n, m, d, w)
        ]
        for side, rank in (("left", n), ("right", m)):
            for kind in ("X", "Y"):
                for a, b in itertools.product(range(1, rank + 1), repeat=2):
                    g = QnElement.X(rank, a, b) if kind == "X" else QnElement.Y(rank, a, b)
                    vec = {mono: (draw.randint(-3, 3), draw.randint(1, 3)) for mono in draw.sample(monos, 4)}
                    want = SuperPoly(n, m)
                    for mono, (re, im) in vec.items():
                        want = want + _leibniz(side, g, mono, n, m).scale(Cyclo8Scalar(re, im))
                    assert act_terms(side, (kind, a, b), vec, n, m) == numerators(want.terms)


BRACKET_PIECES = {
    2: [
        (2, ((1, 1), (1, 1))),
        (2, ((2, 0), (1, 1))),
        (3, ((2, 1), (2, 1))),
        (3, ((3, 0), (2, 1))),
    ],
    3: [
        (2, ((1, 1, 0), (1, 1, 0))),
        (2, ((2, 0, 0), (1, 0, 1))),
        (3, ((2, 1, 0), (1, 1, 1))),
        (3, ((1, 1, 1), (2, 1, 0))),
    ],
}


def test_act_bracket_relation_on_graded_pieces():
    kinds = [QnElement.X, QnElement.Y]
    for rank in (2, 3):
        n = m = rank
        pairs = []
        for _ in range(10):
            x = kinds[rng.randint(0, 1)](rank, rng.randint(1, rank), rng.randint(1, rank))
            y = kinds[rng.randint(0, 1)](rank, rng.randint(1, rank), rng.randint(1, rank))
            pairs.append((x, y))
        if rank == 3:
            # the relations that make the simple lowering operators generate
            # all lowering operators: [X32, X21] = X31, [X32, Y21] = Y31,
            # [Y32, X21] = Y31, [Y32, Y21] = -X31
            want = {
                ("X", "X"): QnElement.X(3, 3, 1),
                ("X", "Y"): QnElement.Y(3, 3, 1),
                ("Y", "X"): QnElement.Y(3, 3, 1),
                ("Y", "Y"): QnElement.X(3, 3, 1).scale(-1),
            }
            for kx, x in (("X", QnElement.X(3, 3, 2)), ("Y", QnElement.Y(3, 3, 2))):
                for ky, y in (("X", QnElement.X(3, 2, 1)), ("Y", QnElement.Y(3, 2, 1))):
                    assert bracket(x, y) == want[(kx, ky)]
                    pairs.append((x, y))
        for d, w in BRACKET_PIECES[rank]:
            monos = weight_space_monomials(n, m, d, w)
            assert monos
            for x, y in pairs:
                px, py = x.parity() or 0, y.parity() or 0
                for side in ("left", "right"):
                    p = SuperPoly(n, m, {rng.choice(monos): ONE})
                    lhs = act(side, bracket(x, y), p)
                    rhs = act(side, x, act(side, y, p)) - act(
                        side, y, act(side, x, p)
                    ).scale((-1) ** (px * py))
                    assert lhs == rhs


def test_weight_space_examples():
    assert len(weight_space_monomials(2, 2, 1, ((1, 0), (1, 0)))) == 2
    assert len(weight_space_monomials(1, 1, 2, ((2,), (2,)))) == 2
    assert len(weight_space_monomials(2, 2, 1, ((1, 0), (0, 1)))) == 2
    ws = weight_space(2, 2, 1, ((1, 0), (1, 0)))
    assert dim(ws) == 2
    assert ws.contains(numerators(SuperPoly.x(2, 2, 1, 1).terms))
    assert ws.contains(numerators(SuperPoly.y(2, 2, 1, 1).terms))
    assert not ws.contains(numerators(SuperPoly.x(2, 2, 1, 2).terms))
    # sanity: total dimension of degree-2 piece of A(1,1)
    total = 0
    for w in [((2,), (2,))]:
        total += len(weight_space_monomials(1, 1, 2, w))
    assert total == 2


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 3)])
def test_live_cell_walk_equals_all_cell_walk(n, m):
    # the same monomials in the same order, dead rows and columns included
    for d in range(5):
        for w in all_biweights(n, m, d):
            assert weight_space_monomials(n, m, d, w) == weight_space_monomials_all_cells(n, m, d, w), w


@pytest.mark.parametrize("n,m", list(itertools.product((1, 2, 3), repeat=2)))
def test_parity_lists_filter_the_full_list(n, m):
    # the parity lists are the full list filtered by the number of odd
    # factors mod 2, in the same order
    for d in range(5):
        for w in all_biweights(n, m, d):
            full = weight_space_monomials(n, m, d, w)
            for q in (0, 1):
                want = [x for x in full if len(x[1]) % 2 == q]
                assert weight_space_monomials(n, m, d, w, q) == want, (d, w, q)


def test_weight_space_walk_is_as_deep_as_its_live_cells():
    # at n = m = 30 a walk over every cell would recurse past the
    # interpreter's limit; the slice is that of (2, 2), each cell moved to
    # its place
    n = m = 30
    moved = {i * 2 + j: i * m + j for i in range(2) for j in range(2)}
    want = []
    for x, y in weight_space_monomials(2, 2, 3, ((2, 1), (1, 2))):
        big = [0] * (n * m)
        for cell, e in enumerate(x):
            big[moved[cell]] = e
        want.append((tuple(big), tuple(moved[cell] for cell in y)))
    w = ((2, 1) + (0,) * (n - 2), (1, 2) + (0,) * (m - 2))
    assert weight_space_monomials(n, m, 3, w) == want


def test_weight_space_lists_the_tables_of_each_margin_once(monkeypatch):
    # the 138 odd supports of the (3,2,1) slice of A(3,3) leave 82 x margins
    calls = []
    tables = amodule._tables
    monkeypatch.setattr(amodule, "_tables", lambda rows, cols: calls.append((rows, cols)) or tables(rows, cols))
    monkeypatch.setattr(amodule, "_WEIGHT_MONOMIALS", {})
    w = ((3, 2, 1), (3, 2, 1))
    assert weight_space_monomials(3, 3, 6, w) == weight_space_monomials_all_cells(3, 3, 6, w)
    assert len(calls) == len(set(calls)) == 82


def _monomials_upto(n, m, d):
    return [
        x for k in range(d + 1) for w in all_biweights(n, m, k) for x in weight_space_monomials_all_cells(n, m, k, w)
    ]


@pytest.mark.parametrize("n,m,d", [(n, m, 3) for n in (1, 2, 3) for m in (1, 2, 3)] + [(4, 4, 2)])
def test_row_local_image_equals_all_cell_walk(n, m, d):
    # the same terms in the same order for every basis operator of both
    # sides, and nothing on a monomial with no factor in the lowered index
    for mono in _monomials_upto(n, m, d):
        e, o = mono
        cells = [c for c, ex in enumerate(e) if ex] + list(o)
        for side, (kind, a, b) in all_operators(n, m):
            img = _monomial_image(side, kind, a, b, mono, n, m)
            assert img == monomial_image_all_cells(side, kind, a, b, mono, n, m), (side, kind, a, b, mono)
            lowered = [c for c in cells if (c // m if side == "left" else c % m) == b - 1]
            if not lowered:
                assert img == (), (side, kind, a, b, mono)


def test_mono_biweight():
    p = SuperPoly.x(2, 3, 1, 2) * SuperPoly.y(2, 3, 2, 3)
    mono = next(iter(p.terms))
    assert mono_biweight(mono, 2, 3) == ((1, 1), (0, 1, 1))


def test_singular_vectors_examples():
    assert len(singular_vectors(2, 2, sp(1))) == 2
    assert len(singular_vectors(1, 1, sp(2))) == 2
    assert singular_vectors(1, 1, sp(2, 1)) == []
    # degree-1 singular space is spanned by x_11, y_11
    vecs = singular_vectors(3, 3, sp(1))
    mono_x = next(iter(SuperPoly.x(3, 3, 1, 1).terms))
    mono_y = next(iter(SuperPoly.y(3, 3, 1, 1).terms))
    assert {tuple(sorted(v)) for v in vecs} == {(mono_x,), (mono_y,)}


@pytest.mark.parametrize("n, m, size", [(n, m, 8) for n in (1, 2, 3) for m in (1, 2, 3)] + [(4, 4, 7)])
def test_singular_vectors_span_the_full_parity_solve(n, m, size):
    # the even kernel and its Y_ll images are independent and span the
    # kernel solved on both parities at once
    for lam in all_strict_upto(size, min(n, m)):
        vecs = singular_vectors(n, m, lam)
        full = solve_singular_full(n, m, lam)
        ours = span(vecs)
        assert ours.rank == len(vecs) == len(full), lam
        assert ours.nums == span(full).nums, lam


def test_a_gap_of_two_multiplies_the_space_one_box_smaller():
    # at l >= 2 both halves of nu's basis, vector for vector; at l = 1 the
    # even half only, since Y_11 x_11 != 0
    checked = 0
    for n, m in itertools.product((1, 2, 3), repeat=2):
        x_11 = ((1,) + (0,) * (n * m - 1), ())
        for kappa in all_strict_upto(8, min(n, m)):
            parts = kappa.parts
            if not parts or parts[0] < (parts[1] if kappa.length > 1 else 0) + 2:
                continue
            nu = singular_vectors(n, m, StrictPartition((parts[0] - 1,) + parts[1:]))
            vecs = singular_vectors(n, m, kappa)
            if kappa.length == 1:
                nu, vecs = nu[: len(nu) // 2], vecs[: len(vecs) // 2]
            assert vecs == [amodule._times(x_11, v) for v in nu], (n, m, kappa)
            checked += 1
    assert checked > 50


def test_singular_vectors_are_primitive():
    # every vector has content 1, the Y_ll images too: in A(1,1), Y_11 sends
    # x_11^2 to -2 zeta x_11 y_11, which is divided by 2
    x2, xy = ((2,), ()), ((1,), (0,))
    assert singular_vectors(1, 1, sp(2)) == [{x2: (1, 0)}, {xy: (0, -1)}]
    for n, m in itertools.product((1, 2, 3), repeat=2):
        for lam in all_strict_upto(6, min(n, m)):
            for v in singular_vectors(n, m, lam):
                assert math.gcd(*(c for pair in v.values() for c in pair)) == 1, (n, m, lam)


@pytest.mark.parametrize("n,m", list(itertools.product((1, 2, 3), repeat=2)))
def test_odd_half_is_the_y_ll_image_of_the_even_half(n, m):
    # the first half of the vectors is even and the second half is its
    # primitive image under the left Y_ll, l = l(lam); one image table shared
    # by every vector changes no image
    for lam in all_strict_upto(6, min(n, m)):
        vecs = singular_vectors(n, m, lam)
        if not lam.parts:
            assert vecs == [{((0,) * (n * m), ()): (1, 0)}]
            continue
        half = len(vecs) // 2
        even, odd = vecs[:half], vecs[half:]
        assert all(len(x[1]) % 2 == 0 for v in even for x in v), (n, m, lam)
        y_ll = ("Y", lam.length, lam.length)
        images = [act_terms("left", y_ll, v, n, m) for v in even]
        assert odd == [_primitive(img) for img in images], (n, m, lam)
        table = {}
        assert [act_terms("left", y_ll, v, n, m, table) for v in even] == images, (n, m, lam)


def test_memoized_lists_are_fresh():
    vecs = singular_vectors(3, 3, sp(2, 1))
    want = [dict(v) for v in vecs]
    vecs[0].clear()
    vecs.append({})
    assert singular_vectors(3, 3, sp(2, 1)) == want
    w = ((2, 1, 0), (1, 1, 1))
    monos = weight_space_monomials(3, 3, 3, w)
    want = list(monos)
    monos.pop()
    monos.append(None)
    assert weight_space_monomials(3, 3, 3, w) == want


def _inside_tail_bounds(w, cap):
    """Every tail sum of the row and column weights at most its bound in cap
    (0 past the end of the tuple); None bounds nothing."""
    if cap is None:
        return True
    for part in w:
        for k in range(len(part)):
            if sum(part[k:]) > (cap[k] if k < len(cap) else 0):
                return False
    return True


def _lowering_closure(n, m, lam, cap):
    """Oracle: the singular vectors closed under every lowering operator,
    keeping the images inside the tail bounds."""
    space = GradedSubspace(n, m)

    def keep(vec):
        w = mono_biweight(next(iter(vec)), n, m)
        return _inside_tail_bounds(w, cap) and space.insert(vec)

    queue = [v for v in singular_vectors(n, m, lam) if keep(v)]
    ops = lowering_operators(n, m)
    table = {}
    while queue:
        vec = queue.pop()
        for side, g in ops:
            img = act_terms(side, g, vec, n, m, table)
            if img and keep(img):
                queue.append(img)
    return space


# None closes the whole summand; (4,) and (4, 4) are the old (1, 1) and
# (2, 2) length caps (bound 0 past the first one or two rows and columns);
# "dmax4" and "dmax5" are the tail bounds that `membership_cases_for` uses
CAPS = [None, (4,), (4, 4), "dmax4", "dmax5"]


def _cap_for(cap, n, m):
    if isinstance(cap, str):
        return candidate_tail_bounds(n, m, int(cap[len("dmax"):]))
    return cap


def test_candidate_tail_bounds():
    assert candidate_tail_bounds(3, 3, 4) == (4, 1, 0)
    assert candidate_tail_bounds(3, 3, 5) == (5, 2, 0)
    assert candidate_tail_bounds(3, 3, 6) == (6, 3, 1)
    assert candidate_tail_bounds(3, 3, 8) == (8, 4, 1)
    assert candidate_tail_bounds(2, 3, 3) == (3, 1)
    assert candidate_tail_bounds(1, 3, 0) == (0,)


@pytest.mark.parametrize("cap", CAPS)
def test_summand_matches_closure_under_all_lowering_operators(cap):
    # reduced echelons with minimal-key pivots are canonical, so equal spans
    # give equal rows; inside the bound every component of the capped summand
    # is the uncapped one
    for n, m in itertools.product((1, 2, 3), repeat=2):
        bounds = _cap_for(cap, n, m)
        for d in range(1, 5):
            for lam in enumerate_strict(d):
                full = full_summand(n, m, lam)
                fast = full if bounds is None else summand(n, m, lam, bounds)
                slow = _lowering_closure(n, m, lam, bounds)
                assert fast.components.keys() == slow.components.keys(), (n, m, lam)
                for key, comp in slow.components.items():
                    assert fast.components[key].nums == comp.nums, (n, m, lam, key)
                inside = [k for k in full.components if _inside_tail_bounds(k[1], bounds)]
                assert sorted(fast.components) == sorted(inside), (n, m, lam)
                for key in inside:
                    assert fast.components[key].nums == full.components[key].nums


def test_summand_dimensions_match_cauchy():
    from math import comb

    n = m = 2
    for d in range(1, 5):
        tot = 0
        for lam in enumerate_strict(d):
            if lam.length > 2:
                continue
            s = summand(n, m, lam)
            expect = dim_T(lam, n) * dim_T(lam, m) // (2 ** delta(lam))
            assert dim(s) == expect, lam
            tot += dim(s)
        dim_A = sum(
            comb(n * m, k) * comb(n * m + (d - k) - 1, d - k)
            for k in range(0, min(d, n * m) + 1)
        )
        assert tot == dim_A


def test_ideal_closure_trivial_cases():
    n = m = 2
    # the degree-1 summand generates everything in positive degrees
    gens = summand(n, m, sp(1))
    ideal = ideal_closure(n, m, gens, 3)
    for d in range(1, 4):
        for w in all_biweights(n, m, d):
            monos = weight_space_monomials(n, m, d, w)
            comp = ideal.component(d, w)
            assert comp.rank == len(monos)
    # zero generators give the zero ideal
    zero = ideal_closure(n, m, GradedSubspace(n, m), 3)
    assert zero.component(2, ((1, 1), (1, 1))).rank == 0


def test_ideal_closure_monotone_idempotent():
    n = m = 2
    g2 = summand(n, m, sp(2))
    i2 = ideal_closure(n, m, g2, 4)
    # idempotent: closing the full closure changes nothing
    closed = full_closure(i2)
    again = ideal_closure(n, m, closed, 4)
    for key, comp in closed.components.items():
        assert again.component(*key).rank == comp.rank
    # monotone: adding the (1)-summand grows every component
    both = GradedSubspace(n, m)
    for comp in list(summand(n, m, sp(1)).components.values()) + list(
        g2.components.values()
    ):
        for row in comp.nums.values():
            both.insert(row)
    bigger = ideal_closure(n, m, both, 4)
    for key, comp in closed.components.items():
        assert bigger.component(*key).rank >= comp.rank


def test_ideal_components_match_literal_products():
    # the re-keyed generator rows span what the products mono * row do
    from queerlab.spoly import p_mul

    n = m = 2
    d_max = 4
    gens = summand(n, m, sp(2))
    ideal = EquivariantIdeal(n, m, gens, d_max)
    literal = GradedSubspace(n, m)
    for (d0, _), comp in gens.components.items():
        for d in range(d0, d_max + 1):
            for w in all_biweights(n, m, d - d0):
                for mono in weight_space_monomials(n, m, d - d0, w):
                    for row in scalar_rows(comp).values():
                        literal.insert(numerators(p_mul({mono: ONE}, row)))
    assert literal.components
    for d in range(d_max + 1):
        for w in all_biweights(n, m, d):
            assert ideal.component(d, w).nums == literal.component(d, w).nums, (d, w)


def test_truncation_guard():
    n = m = 2
    ideal = ideal_closure(n, m, summand(n, m, sp(1)), 2)
    with pytest.raises(TruncationError):
        ideal.component(3, ((2, 1), (2, 1)))


def test_membership_small_matrix():
    cases = [c for lam in all_strict_upto(3, 2) for c in membership_cases_for(2, 2, lam, 3)]
    assert cases and all(c.passed for c in cases)


def test_capped_equals_uncapped():
    for d_max, lam in itertools.product((4, 5), (sp(2), sp(2, 1))):
        cap = candidate_tail_bounds(3, 3, d_max)
        icap = EquivariantIdeal(3, 3, summand(3, 3, lam, cap), d_max)
        ifull = EquivariantIdeal(3, 3, full_summand(3, 3, lam), d_max)
        for k in range(lam.size, d_max + 1):
            for mu in enumerate_strict(k):
                if mu.length > 3:
                    continue
                assert summand_membership(3, 3, icap, mu) == summand_membership(
                    3, 3, ifull, mu
                ), (d_max, lam, mu)


def test_membership_examples_from_closure_of_2():
    rows = membership_cases_for(2, 2, sp(2), 4)
    by_mu = {c.mu: c.observed for c in rows}
    assert by_mu[sp(1)] is False
    assert by_mu[sp(3, 1)] is True
    assert by_mu[sp(2, 1)] is True


def test_determinantal_r0():
    rep = determinantal_ideal_check(2, 2, 0, 3)
    assert rep.passed
    # closure of the (1)-summand contains every positive-length mu
    for c in rep.cases:
        if c.mu.length >= 1:
            assert c.observed


def test_one_box_relation_is_box_containment():
    # the theorem, one step at a time: L_kappa lies in A_1 * L_nu iff nu is
    # inside kappa, for every pair through degree 5 at n = m = 3 and
    # through degree 8 at n = m = 4
    for rank, size in ((3, 4), (4, 7)):
        for nu in all_strict_upto(size, rank):
            want = {kappa: contains(nu, kappa) for kappa in enumerate_strict(nu.size + 1) if kappa.length <= rank}
            assert one_box_steps(rank, rank, nu) == want, (rank, nu)


@pytest.mark.parametrize("n, m, d_max", [(1, 3, 6), (2, 2, 6), (2, 3, 6), (3, 2, 6), (3, 3, 6)])
def test_pairing_rows_equal_closure_rows(n, m, d_max):
    for nu in all_strict_upto(d_max - 1, min(n, m)):
        assert one_box_steps(n, m, nu) == one_box_steps_by_closure(n, m, nu), nu


def test_one_box_steps_builds_covers_until_a_pairing_is_nonzero(monkeypatch):
    # every kappa = nu + e_a is in at these ranks, and its first cover pairs
    # nonzero with its first singular vector: one cover and one pairing each
    counts = {"covers": 0, "pairings": 0, "steps": 0}

    def counted(key, f):
        def wrapped(*args):
            counts[key] += 1
            return f(*args)

        return wrapped

    monkeypatch.setattr(amodule, "_times", counted("covers", amodule._times))
    monkeypatch.setattr(amodule, "_fischer", counted("pairings", amodule._fischer))
    for nu in all_strict_upto(5, 3):
        row = one_box_steps(3, 3, nu)
        counts["steps"] += sum(added_box(nu, kappa) is not None for kappa in row)
        assert all(row[kappa] for kappa in row if added_box(nu, kappa) is not None), nu
    assert counts["covers"] == counts["pairings"] == counts["steps"] > 10


def _fischer_weight(mono):
    w = 1
    for ex in mono[0]:
        w *= math.factorial(ex)
    return w


@pytest.mark.parametrize("n, m", [(2, 2), (2, 3), (3, 3)])
def test_fischer_form_is_contravariant_on_low_degrees(n, m):
    # <g u, v> = <u, g' v> on every pair of monomials u, v of A_d, d <= 2,
    # with g' = X_ba for g = X_ab and g' = -Y_ba for g = Y_ab; the form
    # weighs a monomial by prod a_ij! and conjugates its second argument.
    # Each side is kept as {(u, v): value} over its nonzero values
    for d in (1, 2):
        monos = [mono for w in all_biweights(n, m, d) for mono in weight_space_monomials(n, m, d, w)]
        for side, rank in (("left", n), ("right", m)):
            for kind in ("X", "Y"):
                sign = 1 if kind == "X" else -1
                images = {
                    (a, b): {u: act_terms(side, (kind, a, b), {u: (1, 0)}, n, m) for u in monos}
                    for a in range(1, rank + 1)
                    for b in range(1, rank + 1)
                }
                for (a, b), image in images.items():
                    lhs = {
                        (u, v): (re * _fischer_weight(v), im * _fischer_weight(v))
                        for u in monos
                        for v, (re, im) in image[u].items()
                    }
                    rhs = {
                        (u, v): (sign * pr * _fischer_weight(u), -sign * pi * _fischer_weight(u))
                        for v in monos
                        for u, (pr, pi) in images[b, a][v].items()
                    }
                    assert lhs == rhs, (d, side, kind, a, b)


def test_distinct_summands_are_orthogonal_under_the_fischer_form():
    # the weight-(kappa, kappa) rows of every other summand L_mu of A_d pair
    # to zero with S_kappa, and the form is positive on S_kappa itself
    for n, m in ((2, 2), (2, 3), (3, 3)):
        for d in range(1, 5):
            parts = [lam for lam in enumerate_strict(d) if lam.length <= min(n, m)]
            for kappa in parts:
                sings = singular_vectors(n, m, kappa)
                assert all(_fischer(t, t)[0] > 0 and _fischer(t, t)[1] == 0 for t in sings)
                key = (d, ((kappa.parts + (0,) * n)[:n], (kappa.parts + (0,) * m)[:m]))
                for mu in parts:
                    comp = full_summand(n, m, mu).components.get(key)
                    if mu == kappa or comp is None:
                        continue
                    assert comp.rank, (n, m, mu, kappa)
                    for row in comp.nums.values():
                        assert all(_fischer(row, t) == (0, 0) for t in sings), (n, m, mu, kappa)


def test_contravariance_check_counts_every_entry():
    # 2 (n^2 + m^2) basis operators, each compared on (2nm)^2 entries of A_1
    for n, m in itertools.product((1, 2, 3), repeat=2):
        assert contravariance_check(n, m) == 2 * (n * n + m * m) * (2 * n * m) ** 2


def test_fischer_form_values():
    # Hermitian, conjugate-linear in the second argument, and x_11^2 weighs 2!
    x, y = ((1, 0, 0, 0), ()), ((0, 0, 0, 0), (0,))
    xx = ((2, 0, 0, 0), ())
    assert _fischer({x: (1, 1)}, {x: (1, 0)}) == (1, 1)
    assert _fischer({x: (1, 0)}, {x: (1, 1)}) == (1, -1)
    assert _fischer({xx: (3, 0), y: (0, 2)}, {xx: (1, 0), y: (0, 1)}) == (8, 0)
    assert _fischer({x: (1, 0)}, {y: (1, 0)}) == (0, 0)


def test_added_box():
    assert added_box(sp(2, 1), sp(3, 1)) == 1
    assert added_box(sp(2), sp(2, 1)) == 2
    assert added_box(sp(), sp(1)) == 1
    assert added_box(sp(2, 1), sp(4)) is None
    assert added_box(sp(3), sp(2, 1)) is None


@pytest.mark.parametrize("n, m, d_max", [(2, 2, 5), (2, 3, 4), (3, 3, 5)])
def test_step_closure_equals_direct_ideal(n, m, d_max):
    relation = {}
    for lam in all_strict_upto(d_max, min(n, m)):
        direct = membership_cases_for(n, m, lam, d_max)
        assert ideal_summands(n, m, lam, d_max, relation) == {c.mu for c in direct if c.observed}, lam
    # the walks built no ideal past degree d_max
    assert {nu.size for nu in relation} == set(range(d_max))


@pytest.mark.parametrize("n, m, r, d_max", [(3, 3, 1, 5), (2, 2, 0, 3)])
def test_determinantal_walk_equals_direct_ideal(n, m, r, d_max):
    rep = determinantal_ideal_check(n, m, r, d_max)
    assert rep.passed
    walked = ideal_summands(n, m, staircase(r), d_max, {})
    assert walked == {c.mu for c in rep.cases if c.observed}


def test_m_stability():
    for n in (1, 2, 3):
        rep = m_stability_check(n)
        assert rep.passed, rep.failures


def test_m_generators_count():
    assert len(m_generators(2)) == 8
