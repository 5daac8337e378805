import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queerlab import symfunc
from queerlab.partitions import EMPTY, StrictPartition, enumerate_strict
from queerlab.symfunc import (
    GammaElement,
    InconsistentMultiplicity,
    NVarPoly,
    NotInGammaSpan,
    Q_poly,
    cauchy_check,
    cauchy_kernel_truncated,
    expand_in_Q,
    gamma_product,
    induct_mult,
    parse_qpoly_cache_line,
    pieri,
    q_expansion,
    q_gen,
    qpoly_cache_line,
    tableau_oracle_Q,
)


def sp(*parts):
    return StrictPartition(tuple(parts))


def _convolve(p, q):
    """The product of two NVarPoly term dicts on exponent tuples."""
    out = {}
    for k1, c1 in p.terms.items():
        for k2, c2 in q.terms.items():
            k = tuple(a + b for a, b in zip(k1, k2))
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _random_poly(rng, N, d, integral):
    """Random terms of degree at most d, with x1^d and xN^d among them, so
    the product reaches its top exponent in the first and the last slot."""
    keys = [tuple(rng.randint(0, d // N) for _ in range(N)) for _ in range(8)]
    keys += [(d,) + (0,) * (N - 1), (0,) * (N - 1) + (d,)]
    return NVarPoly(
        N,
        {
            k: Fraction(rng.choice([-3, -1, 1, 2, 5]), 1 if integral else rng.randint(1, 4))
            for k in keys
        },
    )


@pytest.mark.parametrize("degree", [16, 31, 32, 33, 63, 64])
def test_polymul_at_degrees_across_bit_widths(degree):
    # the packed keys take max(5, degree.bit_length()) bits per variable:
    # 5 up to 31, 6 from 32 and 7 from 64, where a fixed 5 bits would carry
    rng = random.Random(degree)
    for integral in (True, False):
        for N in (1, 3):
            p = _random_poly(rng, N, degree // 2, integral)
            q = _random_poly(rng, N, degree - degree // 2, integral)
            assert p.degree() + q.degree() == degree
            assert (p * q).terms == _convolve(p, q)


def test_q_gen_examples():
    assert q_gen(1, 2).terms == {(1, 0): Fraction(2), (0, 1): Fraction(2)}
    assert q_gen(0, 3).terms == {(0, 0, 0): Fraction(1)}
    assert q_gen(2, 2).terms == {
        (2, 0): Fraction(2),
        (0, 2): Fraction(2),
        (1, 1): Fraction(4),
    }
    assert q_gen(-1, 2).is_zero()


def test_q_expansion_two_row():
    assert dict(q_expansion(sp(2, 1))) == {(2, 1): 1, (3,): -2}
    assert dict(q_expansion(sp(1))) == {(1,): 1}
    assert dict(q_expansion(EMPTY)) == {(): 1}


def test_Q_poly_leading_coefficient():
    # leading monomial x^lambda carries 2^{l(lambda)}
    for parts in [(1,), (2,), (2, 1), (3, 1), (3, 2, 1)]:
        lam = sp(*parts)
        N = max(lam.size, lam.length)
        expo = parts + (0,) * (N - len(parts))
        assert Q_poly(lam, N).coefficient(expo) == Fraction(2) ** lam.length


def test_tableau_oracle_small():
    assert tableau_oracle_Q(sp(1), 1).terms == {(1,): Fraction(2)}
    assert tableau_oracle_Q(sp(2), 1).terms == {(2,): Fraction(2)}


def test_oracle_agreement_upto_5():
    for n in range(1, 6):
        for lam in enumerate_strict(n):
            N = max(4, lam.size)
            assert Q_poly(lam, N) == tableau_oracle_Q(lam, N), lam


def test_Q_polys_symmetric():
    for lam in [sp(2, 1), sp(3, 1), sp(4, 2)]:
        assert Q_poly(lam, 4).is_symmetric()


def test_expand_in_Q_roundtrip_and_error():
    g = expand_in_Q(Q_poly(sp(3, 1), 4))
    assert g.terms == {sp(3, 1): Fraction(1)}
    q1 = q_gen(1, 2)
    assert expand_in_Q(q1 * q1).terms == {sp(2): Fraction(2)}
    with pytest.raises(NotInGammaSpan):
        expand_in_Q(NVarPoly(2, {(1, 1): Fraction(1)}))  # e_2 is not in Gamma


def test_expand_in_Q_refuses_part_longer_than_N():
    # Q_(3,2,1) vanishes in 2 variables, so a leading x^(3,2,1) cannot be
    # eliminated against it
    with pytest.raises(NotInGammaSpan, match="length 3"):
        expand_in_Q(NVarPoly(2, {(3, 2, 1): Fraction(8)}))


def test_gamma_product_examples():
    one = GammaElement.basis(sp(1))
    assert gamma_product(one, one).terms == {sp(2): Fraction(2)}
    assert gamma_product(one, GammaElement.basis(sp(2))).terms == {
        sp(3): Fraction(2),
        sp(2, 1): Fraction(1),
    }
    f = GammaElement({sp(2): Fraction(5, 3), sp(1): 1})
    assert gamma_product(GammaElement.basis(EMPTY), f).terms == f.terms


_SMALL_PAIRS = [
    (lam, mu)
    for a in range(0, 7)
    for b in range(0, 7 - a)
    for lam in enumerate_strict(a)
    for mu in enumerate_strict(b)
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_SMALL_PAIRS))
def test_gamma_product_matches_wide_oracle(pair):
    # oracle: the product expanded in |lambda| + |mu| variables, where every
    # monomial of the degree has room
    lam, mu = pair
    n = lam.size + mu.size
    want = expand_in_Q(Q_poly(lam, n) * Q_poly(mu, n))
    got = gamma_product(GammaElement.basis(lam), GammaElement.basis(mu))
    assert got.terms == want.terms


def test_gamma_ring_axioms_random():
    rng = random.Random(4)
    pool = [p for k in range(0, 4) for p in enumerate_strict(k)]

    def rand_elem():
        return GammaElement(
            {rng.choice(pool): Fraction(rng.randint(-3, 3)) for _ in range(2)}
        )

    for _ in range(6):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert gamma_product(a, b).terms == gamma_product(b, a).terms
        lhs = gamma_product(gamma_product(a, b), c)
        rhs = gamma_product(a, gamma_product(b, c))
        assert lhs.terms == rhs.terms


def test_Q_basis_linear_independence_degree_5():
    # every Q_mu of degree 5 straightens to exactly its own basis vector:
    # the elimination pivots on 2^{l} coefficients and never degenerates
    for mu in enumerate_strict(5):
        g = expand_in_Q(Q_poly(mu, 5))
        assert g.terms == {mu: Fraction(1)}


def test_pieri_examples():
    assert pieri(sp(2)) == {sp(3): 2, sp(2, 1): 1}
    assert pieri(EMPTY) == {sp(1): 1}
    assert pieri(sp(3, 1)) == {sp(4, 1): 2, sp(3, 2): 2}


def test_pieri_matches_products_upto_5():
    one = GammaElement.basis(sp(1))
    for k in range(0, 6):
        for lam in enumerate_strict(k):
            got = gamma_product(one, GammaElement.basis(lam)).terms
            assert {mu: int(c) for mu, c in got.items()} == pieri(lam)


def test_induct_mult_examples():
    assert induct_mult(sp(1), sp(1)) == {sp(2): 2}
    assert induct_mult(sp(1), EMPTY) == {sp(1): 1}
    assert set(induct_mult(sp(1), sp(2))) == {sp(3), sp(2, 1)}


def test_induct_mult_scales_by_the_even_half_power_of_two(monkeypatch):
    # e = (d(mu) - l(mu)) + (d(nu) - l(nu)) - (d(lam) - l(lam)); with
    # delta = l mod 2 each bracket is even, and e = 0 + 0 - (0 - 2) = 2 here
    def product(c):
        return lambda f, g: GammaElement({sp(2, 1): c})

    monkeypatch.setattr(symfunc, "gamma_product", product(Fraction(3, 2)))
    assert induct_mult(sp(1), sp(1)) == {sp(2, 1): 3}
    monkeypatch.setattr(symfunc, "gamma_product", product(Fraction(1, 4)))
    with pytest.raises(InconsistentMultiplicity, match="non-integral"):
        induct_mult(sp(1), sp(1))
    monkeypatch.setattr(symfunc, "gamma_product", product(-1))
    with pytest.raises(InconsistentMultiplicity, match="negative"):
        induct_mult(sp(1), sp(1))


def test_induct_mult_odd_exponent_is_inconsistent(monkeypatch):
    # an odd e makes 2^{e/2} c irrational for every nonzero rational c; the
    # exponent is even under delta = l mod 2, so delta is replaced to reach it
    monkeypatch.setattr(symfunc, "gamma_product", lambda f, g: GammaElement({sp(2, 1): 2}))
    monkeypatch.setattr(symfunc, "delta", lambda lam: 0)
    with pytest.raises(InconsistentMultiplicity, match=r"irrational multiplicity 2\^\(1/2\)"):
        induct_mult(sp(1), EMPTY)


def test_induct_mult_symmetric():
    pool = [p for k in range(0, 4) for p in enumerate_strict(k)]
    for mu in pool:
        for nu in pool:
            assert induct_mult(mu, nu) == induct_mult(nu, mu)


def test_induct_mult_one_box_supports():
    # support and coefficients follow the Hecke-Clifford Pieri rule
    from queerlab.partitions import add_box_candidates, delta

    for k in range(0, 6):
        for lam in enumerate_strict(k):
            got = induct_mult(sp(1), lam)
            want = {}
            for mu in add_box_candidates(lam):
                want[mu] = 2 if mu.length == lam.length else 2 ** delta(lam)
            assert got == want, lam


def test_cauchy_small_and_oracle():
    rep = cauchy_check(0, 1)
    assert rep.ok
    rep = cauchy_check(3, 3)
    assert rep.ok
    # independent oracle for the packed kernel: plain dict product at d <= 3
    d, N = 3, 3
    kernel = cauchy_kernel_truncated(d, N)

    def brute_kernel(d, N):
        poly = {((0,) * N, (0,) * N): 1}
        for i in range(N):
            for j in range(N):
                new = dict(poly)
                for (xe, ye), c in poly.items():
                    for k in range(1, d - sum(xe) + 1):
                        xx = list(xe)
                        yy = list(ye)
                        xx[i] += k
                        yy[j] += k
                        key = (tuple(xx), tuple(yy))
                        new[key] = new.get(key, 0) + 2 * c
                poly = new
        return poly

    brute = brute_kernel(d, N)
    from queerlab.symfunc import _pack_monomial

    packed_brute = {_pack_monomial(xe, ye, N): c for (xe, ye), c in brute.items()}
    assert packed_brute == kernel


def test_cauchy_degree1_identity():
    # kernel degree-1 part is 2 sum x_i y_j = Q_1(x) P_1(y)
    from queerlab.symfunc import cauchy_rhs_truncated

    kern = cauchy_kernel_truncated(1, 2)
    rhs = cauchy_rhs_truncated(1, 2)
    assert kern == rhs
    assert all(type(c) is int for c in rhs.values())


@pytest.mark.parametrize(
    "flip",
    [
        lambda c: c + 1,  # odd: P_(2,1) = Q_(2,1) / 4 leaves a remainder
        lambda c: -c,  # divisible by 4, but the wrong value
    ],
)
def test_cauchy_check_fails_on_corrupted_Q(flip, monkeypatch):
    lam = sp(2, 1)
    good = Q_poly(lam, 3)
    key = max(good.terms)
    bad = NVarPoly(3, dict(good.terms))
    bad.terms[key] = flip(bad.terms[key])
    monkeypatch.setitem(symfunc._QPOLY_CACHE, (lam, 3), bad)
    rep = cauchy_check(3, 3)
    assert not rep.ok
    assert rep.first_failure == (3, 3)


def test_cache_line_roundtrip():
    lam = sp(2, 1)
    line = qpoly_cache_line(lam, 3)
    lam2, N2, poly = parse_qpoly_cache_line(line)
    assert (lam2, N2) == (lam, 3)
    assert poly == Q_poly(lam, 3)
    line_empty = qpoly_cache_line(EMPTY, 2)
    lam3, N3, poly3 = parse_qpoly_cache_line(line_empty)
    assert lam3 == EMPTY and poly3 == Q_poly(EMPTY, 2)
    # Q_() * Q_() is expanded in l_max(0) = 0 variables
    lam4, N4, poly4 = parse_qpoly_cache_line(qpoly_cache_line(EMPTY, 0))
    assert (lam4, N4) == (EMPTY, 0) and poly4 == Q_poly(EMPTY, 0)
