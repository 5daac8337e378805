import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queerlab import symfunc
from queerlab.partitions import EMPTY, StrictPartition, enumerate_partitions, enumerate_strict, l_max, odd_partitions
from queerlab.symfunc import (
    InconsistentMultiplicity,
    NotInGammaSpan,
    Q_poly,
    _table_mul,
    cauchy_check,
    expand_in_Q,
    gamma_product,
    induct_mult,
    parse_qpoly_cache_line,
    pieri,
    q_expansion,
    qpoly_cache_line,
)

from oracles import (
    NVarPoly,
    cauchy_check_pairwise,
    cauchy_kernel_dp,
    cauchy_kernel_truncated,
    cauchy_rhs_truncated,
    dominant,
    full_Q_poly,
    gamma_mul,
    orbit_poly,
    pack_monomial,
    power_kernel,
    power_sum_by_products,
    q_gen,
    q_route_Q_poly,
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
    assert q_gen(1, 2).terms == {(1, 0): 2, (0, 1): 2}
    assert q_gen(0, 3).terms == {(0, 0, 0): 1}
    assert q_gen(2, 2).terms == {(2, 0): 2, (0, 2): 2, (1, 1): 4}
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
        assert Q_poly(lam, N)[parts] == 2 ** lam.length


def test_Q_poly_coefficients_are_ints():
    for size in range(6):
        for lam in enumerate_strict(size):
            for N in (1, 3, 5):
                assert all(type(c) is int for c in Q_poly(lam, N).values())
    g = expand_in_Q(_table_mul(Q_poly(sp(2, 1), 3), Q_poly(sp(1), 3), 3), 3)
    assert g and all(type(c) is int for c in g.values())
    assert all(type(c) is int for c in gamma_product(sp(2, 1), sp(1)).values())


def test_tableau_oracle_small():
    assert tableau_oracle_Q(sp(1), 1).terms == {(1,): 2}
    assert tableau_oracle_Q(sp(2), 1).terms == {(2,): 2}


def test_oracle_agreement_upto_5():
    for n in range(1, 6):
        for lam in enumerate_strict(n):
            N = max(4, lam.size)
            assert orbit_poly(Q_poly(lam, N), N) == tableau_oracle_Q(lam, N), lam


_STRICT_UPTO_6 = [lam for n in range(7) for lam in enumerate_strict(n)]


@pytest.mark.parametrize("lam", _STRICT_UPTO_6, ids=repr)
def test_table_is_the_dominant_part_of_the_tableau_oracle(lam):
    # a symmetric polynomial is fixed by its dominant coefficients, so these
    # two tests pin the whole polynomial
    for N in range(7):
        full = tableau_oracle_Q(lam, N)
        assert full.is_symmetric()
        assert dominant(full) == Q_poly(lam, N), N


def test_Q_polys_symmetric():
    # the full q-route, multiplied out monomial by monomial, is symmetric and
    # equals the table expanded over its orbits
    for lam in [sp(2, 1), sp(3, 1), sp(4, 2), sp(3, 2, 1)]:
        for N in (lam.length, 4, 6):
            full = full_Q_poly(lam, N)
            assert full.is_symmetric()
            assert full == orbit_poly(Q_poly(lam, N), N)


_STRICT_UPTO_10 = [lam for n in range(11) for lam in enumerate_strict(n)]


@pytest.mark.parametrize("lam", _STRICT_UPTO_10, ids=repr)
def test_branching_table_matches_the_q_route(lam, monkeypatch):
    # an empty memo makes Q_poly build every table afresh
    monkeypatch.setattr(symfunc, "_QPOLY_CACHE", {})
    for N in range(7):
        assert Q_poly(lam, N) == q_route_Q_poly(lam, N), N


def test_one_variable_factor_on_hand_cases():
    # (2,1)/(1) is a vertical domino in the shifted diagram: one diagonal
    assert symfunc._interlaced((2, 1), 1) == (((1,), 2),)
    # (3,1)/(2) is two separate boxes
    assert symfunc._interlaced((3, 1), 2) == (((2,), 4),)
    # (1) does not interlace (3,2), nor does any mu of size 1
    assert symfunc._interlaced((3, 2), 1) == ()
    assert Q_poly(sp(3, 2, 1), 2) == {}


@pytest.mark.parametrize("d", range(7))
def test_split_product_is_the_dominant_part_of_the_full_product(d):
    # every pair of Q tables of total degree d, in N = d and in the l_max(d)
    # variables of gamma_product
    pairs = [
        (lam, mu) for a in range(d + 1) for lam in enumerate_strict(a) for mu in enumerate_strict(d - a)
    ]
    for N in {d, l_max(d)}:
        for lam, mu in pairs:
            full = tableau_oracle_Q(lam, N) * tableau_oracle_Q(mu, N)
            assert _table_mul(Q_poly(lam, N), Q_poly(mu, N), N) == dominant(full), (lam, mu, N)


def test_expand_in_Q_roundtrip_and_error():
    # the P-coordinates: Q_(3,1) = 4 P_(3,1), Q_1^2 = 2 Q_2 = 4 P_2
    assert expand_in_Q(Q_poly(sp(3, 1), 4), 4) == {sp(3, 1): 4}
    q1 = {(1,): 2}
    assert expand_in_Q(_table_mul(q1, q1, 2), 2) == {sp(2): 4}
    with pytest.raises(NotInGammaSpan):
        expand_in_Q({(1, 1): 1}, 2)  # e_2 is not in Gamma


def test_expand_in_Q_refuses_part_longer_than_N():
    # Q_(3,2,1) vanishes in 2 variables, so a leading x^(3,2,1) cannot be
    # eliminated against it
    with pytest.raises(NotInGammaSpan, match="length 3"):
        expand_in_Q({(3, 2, 1): 8}, 2)


def test_gamma_product_examples():
    assert gamma_product(sp(1), sp(1)) == {sp(2): 2}
    assert gamma_product(sp(1), sp(2)) == {sp(3): 2, sp(2, 1): 1}
    assert gamma_product(EMPTY, sp(3, 1)) == {sp(3, 1): 1}
    f = {sp(2): Fraction(5, 3), sp(1): 1}
    assert gamma_mul({EMPTY: 1}, f) == f


def test_gamma_product_refuses_a_P_coordinate_with_a_remainder(monkeypatch):
    # Q_1 Q_1 = 2 Q_2 = 4 P_2; with a table of Q_1 that holds 3 at x^1 the
    # square is 9 P_2 = 9/2 Q_2, which has no integer Q-coordinate
    monkeypatch.setitem(symfunc._QPOLY_CACHE, (sp(1), 1), {(1,): 3})
    with pytest.raises(InconsistentMultiplicity, match=r"non-integral coefficient 9/2\^1"):
        gamma_product(sp(1), sp(1))


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
    want = expand_in_Q(dominant(full_Q_poly(lam, n) * full_Q_poly(mu, n)), n)
    assert gamma_product(lam, mu) == {nu: Fraction(c, 1 << nu.length) for nu, c in want.items()}


def test_gamma_ring_axioms_random():
    rng = random.Random(4)
    pool = [p for k in range(0, 4) for p in enumerate_strict(k)]

    def rand_elem():
        return {k: c for k, c in ((rng.choice(pool), rng.randint(-3, 3)) for _ in range(2)) if c}

    for _ in range(6):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert gamma_mul(a, b) == gamma_mul(b, a)
        assert gamma_mul(gamma_mul(a, b), c) == gamma_mul(a, gamma_mul(b, c))


def test_Q_basis_linear_independence_degree_5():
    # every Q_mu of degree 5 straightens to exactly 2^{l(mu)} P_mu: the
    # elimination pivots on the 1 of P_mu at mu and never degenerates
    for mu in enumerate_strict(5):
        assert expand_in_Q(Q_poly(mu, 5), 5) == {mu: 1 << mu.length}


def test_pieri_examples():
    assert pieri(sp(2)) == {sp(3): 2, sp(2, 1): 1}
    assert pieri(EMPTY) == {sp(1): 1}
    assert pieri(sp(3, 1)) == {sp(4, 1): 2, sp(3, 2): 2}


def test_pieri_matches_products_upto_5():
    for k in range(0, 6):
        for lam in enumerate_strict(k):
            assert gamma_product(sp(1), lam) == pieri(lam)


def test_induct_mult_examples():
    assert induct_mult(sp(1), sp(1)) == {sp(2): 2}
    assert induct_mult(sp(1), EMPTY) == {sp(1): 1}
    assert set(induct_mult(sp(1), sp(2))) == {sp(3), sp(2, 1)}


def test_induct_mult_scales_by_the_even_half_power_of_two(monkeypatch):
    # e = (d(mu) - l(mu)) + (d(nu) - l(nu)) - (d(lam) - l(lam)); with
    # delta = l mod 2 each bracket is even. [S_(1)][S_(1)] at (2,1) has
    # e = 0 + 0 - (0 - 2) = 2, and [S_(2,1)][S_(1)] at (4) has e = -2 + 0 - 0
    def product(lam, c):
        return lambda f, g: {lam: c}

    monkeypatch.setattr(symfunc, "gamma_product", product(sp(2, 1), 3))
    assert induct_mult(sp(1), sp(1)) == {sp(2, 1): 6}
    monkeypatch.setattr(symfunc, "gamma_product", product(sp(4), 6))
    assert induct_mult(sp(2, 1), sp(1)) == {sp(4): 3}
    for c in (3, -3):
        monkeypatch.setattr(symfunc, "gamma_product", product(sp(4), c))
        with pytest.raises(InconsistentMultiplicity, match="non-integral"):
            induct_mult(sp(2, 1), sp(1))
    monkeypatch.setattr(symfunc, "gamma_product", product(sp(2, 1), -1))
    with pytest.raises(InconsistentMultiplicity, match="negative"):
        induct_mult(sp(1), sp(1))


def test_induct_mult_odd_exponent_is_inconsistent(monkeypatch):
    # an odd e makes 2^{e/2} c irrational for every nonzero rational c; the
    # exponent is even under delta = l mod 2, so delta is replaced to reach it
    monkeypatch.setattr(symfunc, "gamma_product", lambda f, g: {sp(2, 1): 2})
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


def _brute_kernel(d, N):
    """prod (1+x_i y_j)/(1-x_i y_j) through x-degree d, keyed by plain
    (x exponents, y exponents) pairs."""
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


def _descending(expo):
    return tuple(sorted(expo, reverse=True))


def test_cauchy_small_and_oracle():
    assert cauchy_check(0, 1) is None
    assert cauchy_check(3, 3) is None
    # independent oracle for the packed kernel: plain dict product at d <= 3
    d, N = 3, 3
    packed_brute = {pack_monomial(xe, ye, N): c for (xe, ye), c in _brute_kernel(d, N).items()}
    assert packed_brute == cauchy_kernel_truncated(d, N)


def test_cauchy_degree1_identity():
    # kernel degree-1 part is 2 sum x_i y_j = Q_1(x) P_1(y)
    kern = cauchy_kernel_truncated(1, 2)
    rhs = cauchy_rhs_truncated(1, 2)
    assert kern == rhs
    assert all(type(c) is int for c in rhs.values())


@pytest.mark.parametrize("d", range(6))
def test_cauchy_check_agrees_with_the_full_expansion(d):
    for N in (d, d + 1):
        assert cauchy_check(d, N) is None
        assert cauchy_kernel_truncated(d, N) == cauchy_rhs_truncated(d, N)


@pytest.mark.parametrize("d", range(11))
def test_cauchy_check_agrees_with_the_pairwise_oracle(d):
    # the orthogonality of the spin characters against the comparison of
    # monomial coefficients at every pair of partitions of each degree
    for N in (d, d + 1):
        assert cauchy_check(d, N) is None
        assert cauchy_check_pairwise(d, N) is None


@pytest.mark.parametrize("N", range(5))
def test_kernel_dp_matches_the_brute_force_kernel(N):
    # at every dominant (alpha, beta) through degree 4, zero parts stripped,
    # for the oracle DP and for the power-sum kernel of cauchy_check_pairwise
    d = 4
    dp = cauchy_kernel_dp()
    brute = _brute_kernel(d, N)
    assert {pack_monomial(xe, ye, N): c for (xe, ye), c in brute.items()} == cauchy_kernel_truncated(d, N)
    dominant = {
        (xe, ye): c for (xe, ye), c in brute.items() if xe == _descending(xe) and ye == _descending(ye)
    }
    for kernel_of in (lambda k: dp, lambda k: power_kernel(k, N)):
        want = {}
        for k in range(d + 1):
            kernel = kernel_of(k)
            shapes = [p for p in enumerate_partitions(k) if len(p) <= N]
            for alpha in shapes:
                for beta in shapes:
                    key = (alpha + (0,) * (N - len(alpha)), beta + (0,) * (N - len(beta)))
                    want[key] = kernel(alpha, beta)
        assert dominant == want


def test_power_sum_kernel_matches_the_kernel_dp():
    # on every pair of partitions of each k <= 10, in k variables
    dp = cauchy_kernel_dp()
    for k in range(11):
        kernel = power_kernel(k, k)
        shapes = enumerate_partitions(k)
        for alpha in shapes:
            for beta in shapes:
                assert kernel(alpha, beta) == dp(alpha, beta), (alpha, beta)


def test_power_sum_tables_match_the_chained_products():
    # p_t for every odd type t of n <= 12, in the l_max(n) variables the
    # spin characters read it in, and in n variables, where every partition
    # of n is a key
    for n in range(13):
        for N in {l_max(n), n}:
            for t in odd_partitions(n):
                assert symfunc._power_sum(t, N) == power_sum_by_products(t, N), (t, N)


@pytest.mark.parametrize("N", range(5))
def test_brute_force_kernel_is_symmetric(N):
    brute = _brute_kernel(4, N)
    for (xe, ye), c in brute.items():
        assert brute[(_descending(xe), _descending(ye))] == c


# Table corruptions on Q_(2,1) in 3 variables, {(2,1): 4, (1,1,1): 8}, each
# caught by cauchy_check and by cauchy_check_pairwise alike. The pairwise
# comparison reads partition keys of the right size only, so the first three
# pass it unseen and must be refused by the key check.


def _q21_key_not_a_partition(table):
    table[(1, 2)] = 4


def _q21_zero_part_key(table):
    table[(2, 1, 0)] = 4


def _q21_key_of_wrong_size(table):
    table[(1, 1)] = 4


def _q21_key_with_more_than_N_parts(table):
    # every partition of 3 has at most 3 parts, so a key past N = 3 parts is
    # also of the wrong size here; the cache tests reach the parts check alone
    table[(1, 1, 1, 1)] = 16


def _q21_negated(table):
    # divisible by 4, and Q(x) P(y) is unchanged
    for key in table:
        table[key] = -table[key]


def _q21_missing_dominant_key(table):
    del table[(1, 1, 1)]


def _q21_flipped_at_lambda(table):
    table[(2, 1)] = -table[(2, 1)]


def _q21_odd_off_lambda(table):
    # P_(2,1) = Q_(2,1) >> 2 drops the remainder of 9 at (1,1,1): the
    # P-coordinates alone cannot see it, and the pairwise comparison finds
    # the right side wrong at ((1,1,1), (2,1)), where P_(2,1) holds 1
    table[(1, 1, 1)] = 9


def _q21_key_above_lambda(table):
    # Q_(2,1) has no x^(3); with this key, eliminating against P_(2,1) puts
    # (3) back above it, and expanding p_rho would swap (3) and (2,1) forever
    table[(3,)] = 4


@contextmanager
def _deadline(seconds):
    """Fail, rather than hang, a block that does not end in time."""

    def expire(signum, frame):
        raise TimeoutError("did not end within %d s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "flip",
    [
        lambda c: c + 1,  # odd: no longer 2^{l(lambda)} at x^lambda
        lambda c: -c,  # divisible by 4, but the wrong value
    ],
)
def test_cauchy_check_fails_on_corrupted_Q(flip, monkeypatch):
    lam = sp(2, 1)
    bad = dict(Q_poly(lam, 3))
    key = max(bad)
    bad[key] = flip(bad[key])
    monkeypatch.setitem(symfunc._QPOLY_CACHE, (lam, 3), bad)
    with _deadline(10):
        assert cauchy_check(3, 3) == (3, 3)
    assert cauchy_check_pairwise(3, 3) == (3, 3)


@pytest.mark.parametrize(
    "corrupt",
    [
        _q21_key_not_a_partition,
        _q21_zero_part_key,
        _q21_key_of_wrong_size,
        _q21_key_with_more_than_N_parts,
        _q21_negated,
        _q21_missing_dominant_key,
        _q21_flipped_at_lambda,
        _q21_odd_off_lambda,
        _q21_key_above_lambda,
    ],
)
def test_cauchy_check_fails_on_Q_corrupted_off_the_dominant_comparison(corrupt, monkeypatch):
    lam = sp(2, 1)
    bad = dict(Q_poly(lam, 3))
    corrupt(bad)
    monkeypatch.setitem(symfunc._QPOLY_CACHE, (lam, 3), bad)
    with _deadline(10):
        assert cauchy_check(3, 3) == (3, 3)
    assert cauchy_check_pairwise(3, 3) == (3, 3)


def test_cache_line_roundtrip():
    lam = sp(2, 1)
    line = qpoly_cache_line(lam, 3)
    lam2, N2, table = parse_qpoly_cache_line(line)
    assert (lam2, N2) == (lam, 3)
    assert table == Q_poly(lam, 3)
    line_empty = qpoly_cache_line(EMPTY, 2)
    lam3, N3, poly3 = parse_qpoly_cache_line(line_empty)
    assert lam3 == EMPTY and poly3 == Q_poly(EMPTY, 2)
    # Q_() * Q_() is expanded in l_max(0) = 0 variables
    lam4, N4, poly4 = parse_qpoly_cache_line(qpoly_cache_line(EMPTY, 0))
    assert (lam4, N4) == (EMPTY, 0) and poly4 == Q_poly(EMPTY, 0)


def test_cache_line_format():
    assert qpoly_cache_line(sp(2, 1), 3) == "Q 2,1 3 : 1,1,1=8 2,1=4"
    assert qpoly_cache_line(EMPTY, 2) == "Q - 2 : -=1"
    assert qpoly_cache_line(sp(1), 0) == "Q 1 0 : "


def test_cache_line_with_non_integral_coefficient_is_refused():
    # an int that 2^{l(lambda)} does not divide is refused too: expand_in_Q
    # shifts every coefficient of Q_lambda down by l(lambda)
    for coeff in ("3/2", "4/2", "2/1", "2.0", "3"):
        with pytest.raises(ValueError):
            parse_qpoly_cache_line("Q 1 1 : 1=%s" % coeff)
    with pytest.raises(ValueError, match="not divisible by 2\\^2"):
        parse_qpoly_cache_line("Q 2,1 3 : 1,1,1=8 2,1=6")
    assert parse_qpoly_cache_line("Q 1 1 : 1=2")[2] == {(1,): 2}
    assert parse_qpoly_cache_line("Q 2,1 3 : 1,1,1=-8 2,1=4")[2] == {(1, 1, 1): -8, (2, 1): 4}


@pytest.mark.parametrize("body", ["1,1,1=8 2,1=8", "1,1,1=8 2,1=-4", "1,1,1=8"])
def test_cache_line_without_2_to_the_length_at_lambda_is_refused(body):
    # expand_in_Q pivots on the 1 of P_lambda at x^lambda
    with pytest.raises(ValueError, match="not 2\\^2"):
        parse_qpoly_cache_line("Q 2,1 3 : " + body)
    # in fewer than l(lambda) variables Q_lambda vanishes: no leading term
    assert parse_qpoly_cache_line("Q 2,1 1 : ")[2] == {}


@pytest.mark.parametrize(
    "line",
    [
        "Q 2,1 3 : 1,1,1=8 1,2=4",  # not a partition
        "Q 2,1 3 : 1,1,1=8 2,1,0=4",  # a zero part
        "Q 2,1 3 : 1,1,1=8 2,2=4",  # a partition of 4, not of |lambda| = 3
        "Q 2,1 2 : 1,1,1=8 2,1=4",  # 3 parts in 2 variables
        "Q 2,1 2 : 2,1=4 3=4",  # above lambda: expand_in_Q would not end
        "Q 2,1 3 : =8",  # an empty key is written "-"
        "Q - 2 : 1=1",
    ],
)
def test_cache_line_with_a_bad_key_is_refused(line):
    with pytest.raises(ValueError):
        parse_qpoly_cache_line(line)
