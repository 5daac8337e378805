from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from queerlab.scalars import (
    Cyclo8Scalar,
    ONE,
    SQRT2,
    ZERO,
    ZETA,
    ScalarDivisionError,
    half_power_of_two,
)


def frac(n, d=1):
    return Cyclo8Scalar.from_fraction(Fraction(n, d))


scalars = st.builds(
    Cyclo8Scalar,
    st.integers(-30, 30),
    st.integers(-30, 30),
    st.integers(-30, 30),
    st.integers(-30, 30),
    st.integers(1, 12),
)


def test_defining_relations():
    assert ZETA * ZETA == frac(-1)
    assert SQRT2 * SQRT2 == frac(2)
    assert (ONE + ZETA) * (ONE - ZETA) == frac(2)


def test_half_power_of_two():
    assert half_power_of_two(2) == frac(2)
    assert half_power_of_two(1) == SQRT2
    assert half_power_of_two(-1) == SQRT2 / 2
    assert half_power_of_two(0) == ONE
    assert half_power_of_two(-4) == frac(1, 4)
    assert half_power_of_two(3) * half_power_of_two(-3) == ONE


def test_division_by_zero_is_distinct():
    with pytest.raises(ScalarDivisionError):
        ONE / ZERO
    with pytest.raises(ScalarDivisionError):
        ZERO.inverse()


def test_minimal_polynomial_relation():
    w = Cyclo8Scalar(0, 1, 0, 0)
    assert w**4 == frac(-1)
    assert w**8 == ONE
    assert ZETA == w * w
    assert SQRT2 == w - w**3


@given(scalars, scalars, scalars)
@settings(max_examples=150, deadline=None)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a + ZERO == a
    assert a * ONE == a


@given(scalars)
@settings(max_examples=150, deadline=None)
def test_inverses(a):
    assert a + (-a) == ZERO
    if not a.is_zero():
        assert a * a.inverse() == ONE


@given(scalars)
@settings(max_examples=150, deadline=None)
def test_serialization_roundtrip(a):
    assert Cyclo8Scalar.parse(a.serialize()) == a


def test_serialization_format():
    x = Cyclo8Scalar.from_coeffs(Fraction(1, 2), -3, 0, Fraction(7, 5))
    assert x.serialize() == "1/2,-3/1,0/1,7/5"


def test_normalization_invariants():
    x = Cyclo8Scalar(2, 4, -6, 0, -8)
    assert x.den > 0
    from math import gcd

    g = gcd(gcd(abs(x.n0), abs(x.n1)), gcd(abs(x.n2), x.den))
    assert g == 1


def _normal_form(coeffs):
    """(n0, n1, n2, n3, den) of four rationals: den the least common
    denominator, so the five integers have no common factor and den > 0."""
    den = lcm(*(Fraction(c).denominator for c in coeffs))
    return tuple(int(Fraction(c) * den) for c in coeffs) + (den,)


def _fields(x):
    return (x.n0, x.n1, x.n2, x.n3, x.den)


small = st.integers(-30, 30)
# integral scalars and the units take the fast paths; the general ones the gcd
operands = st.one_of(
    scalars,
    st.builds(Cyclo8Scalar, small, small, small, small),
    st.builds(Cyclo8Scalar.from_int, small),
    st.sampled_from([ONE, -ONE, ZERO, ZETA, -ZETA]),
)


@given(operands, operands, small)
@settings(max_examples=300, deadline=None)
def test_fast_paths_give_the_normal_form(a, b, k):
    ca, cb = a.coeffs, b.coeffs
    total = [x + y for x, y in zip(ca, cb)]
    product = [
        ca[0] * cb[0] - ca[1] * cb[3] - ca[2] * cb[2] - ca[3] * cb[1],
        ca[0] * cb[1] + ca[1] * cb[0] - ca[2] * cb[3] - ca[3] * cb[2],
        ca[0] * cb[2] + ca[1] * cb[1] + ca[2] * cb[0] - ca[3] * cb[3],
        ca[0] * cb[3] + ca[1] * cb[2] + ca[2] * cb[1] + ca[3] * cb[0],
    ]
    assert _fields(a + b) == _normal_form(total)
    assert _fields(a * b) == _normal_form(product)
    assert _fields(a + k) == _fields(k + a) == _normal_form([ca[0] + k, *ca[1:]])
    assert _fields(a * k) == _fields(k * a) == _normal_form([c * k for c in ca])
    assert hash(a * b) == hash(Cyclo8Scalar.from_coeffs(*product))
