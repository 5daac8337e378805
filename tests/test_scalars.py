from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from queerlab.scalars import (
    Cyclo8Scalar,
    ONE,
    ZERO,
    ZETA,
    ScalarDivisionError,
)


def frac(n, d=1):
    return Cyclo8Scalar(n, 0, d)


scalars = st.builds(
    Cyclo8Scalar,
    st.integers(-30, 30),
    st.integers(-30, 30),
    st.integers(1, 12),
)


def test_defining_relations():
    assert ZETA * ZETA == frac(-1)
    assert (ONE + ZETA) * (ONE - ZETA) == frac(2)
    assert ZETA.inverse() == -ZETA


def test_division_by_zero_is_distinct():
    with pytest.raises(ScalarDivisionError):
        ZERO.inverse()


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


def test_normalization_invariants():
    x = Cyclo8Scalar(2, -6, -8)
    assert (x.re, x.im, x.den) == (-1, 3, 4)
    assert x.den > 0 and gcd(x.re, x.im, x.den) == 1


# -- oracle: the pair (re, im) of Fractions, re + im*zeta ----------------------


def _normal_form(re, im):
    """(re, im, den) of re + im*zeta: den the least common denominator, so
    the three integers have no common factor and den > 0."""
    den = lcm(re.denominator, im.denominator)
    return (int(re * den), int(im * den), den)


def _fields(x):
    return (x.re, x.im, x.den)


def _pair(x):
    return Fraction(x.re, x.den), Fraction(x.im, x.den)


small = st.integers(-30, 30)
# integral scalars and the units take the fast paths; the general ones the gcd
operands = st.one_of(
    scalars,
    st.builds(Cyclo8Scalar, small, small),
    st.builds(Cyclo8Scalar.from_int, small),
    st.sampled_from([ONE, -ONE, ZERO, ZETA, -ZETA]),
)


@given(operands, operands, small)
@settings(max_examples=300, deadline=None)
def test_fast_paths_give_the_normal_form(a, b, k):
    (ar, ai), (br, bi) = _pair(a), _pair(b)
    assert _fields(a) == _normal_form(ar, ai)
    assert _fields(a + b) == _normal_form(ar + br, ai + bi)
    assert _fields(a - b) == _normal_form(ar - br, ai - bi)
    assert _fields(a * b) == _normal_form(ar * br - ai * bi, ar * bi + ai * br)
    assert _fields(a + k) == _fields(k + a) == _normal_form(ar + k, ai)
    assert _fields(a * k) == _fields(k * a) == _normal_form(ar * k, ai * k)
    assert hash(a * b) == hash(Cyclo8Scalar(*_fields(a * b)))
    if a:
        norm = ar * ar + ai * ai
        assert _fields(a.inverse()) == _normal_form(ar / norm, -ai / norm)
    # the +-1 fast paths return the other operand or its negation
    for unit in (ONE, -ONE):
        assert _fields(unit * b) == _fields(b * unit) == _normal_form(unit.re * br, unit.re * bi)


def test_tracer_wraps_methods_of_the_class_itself():
    # bench/tracer.py counts scalar operations by replacing these entries of
    # the class dict, so each must be defined on the class, not inherited
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "inverse"):
        assert callable(vars(Cyclo8Scalar)[name])


def _fraction_repr(x):
    """The repr as Fraction arithmetic writes it, the oracle for the gcd."""
    re, im = _pair(x)
    if not im:
        return str(re)
    zeta = "zeta" if im == 1 else "-zeta" if im == -1 else "%s*zeta" % im
    if not re:
        return zeta
    return "%s %s %s" % (re, "-" if im < 0 else "+", zeta.lstrip("-"))


@given(operands)
@settings(max_examples=200, deadline=None)
def test_repr_writes_both_parts_in_lowest_terms(x):
    assert repr(x) == _fraction_repr(x)


def test_repr_examples():
    assert [repr(x) for x in (ZERO, -ONE, ZETA, -ZETA)] == ["0", "-1", "zeta", "-zeta"]
    assert repr(Cyclo8Scalar(3, 0, 6)) == "1/2"
    assert repr(Cyclo8Scalar(0, 3, 6)) == "1/2*zeta"
    assert repr(Cyclo8Scalar(1, -2, 4)) == "1/4 - 1/2*zeta"
    assert repr(Cyclo8Scalar(2, 2)) == "2 + 2*zeta"
