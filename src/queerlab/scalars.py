"""Exact arithmetic in the Gaussian rationals Q(zeta), zeta^2 = -1.

Elements are (re + im*zeta)/den with integers re, im and den. zeta is the
only irrational constant the algebras need: the odd generators of q_n and
the basis of U carry it, and the 2^{(delta-l)/2} of the characteristic map
is decided by parity in `symfunc.induct_mult` without leaving Q.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class ScalarError(ArithmeticError):
    pass


class ScalarDivisionError(ScalarError):
    """Division by zero in the scalar field."""


class Cyclo8Scalar:
    """An element of Q(zeta) stored as two integer numerators over one denominator.

    The normal form has den > 0 and gcd(re, im, den) = 1. The name is kept
    from the degree-4 field Q(w), w^8 = 1, that the class once spanned:
    the benchmark's tracer finds the class by it.
    """

    __slots__ = ("re", "im", "den")

    def __init__(self, re=0, im=0, den=1, _normalized=False):
        if den == 0:
            raise ScalarError("zero denominator")
        # den == 1 is already the normal form: the gcd is 1
        if not _normalized and den != 1:
            if den < 0:
                re, im, den = -re, -im, -den
            g = gcd(re, im, den)
            if g > 1:
                re //= g
                im //= g
                den //= g
        self.re = re
        self.im = im
        self.den = den

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_int(k: int) -> "Cyclo8Scalar":
        return Cyclo8Scalar(k, 0, 1, _normalized=True)

    @staticmethod
    def from_fraction(q) -> "Cyclo8Scalar":
        q = Fraction(q)
        return Cyclo8Scalar(q.numerator, 0, q.denominator, _normalized=True)

    # -- views ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_rational(self) -> bool:
        return self.im == 0

    def as_fraction(self) -> Fraction:
        if self.im:
            raise ScalarError("not a rational element: %s" % (self,))
        return Fraction(self.re, self.den)

    def is_integer(self) -> bool:
        return self.im == 0 and self.den == 1

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if type(other) is not Cyclo8Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        da, db = self.den, other.den
        if da == db:
            return Cyclo8Scalar(self.re + other.re, self.im + other.im, da)
        return Cyclo8Scalar(
            self.re * db + other.re * da, self.im * db + other.im * da, da * db
        )

    __radd__ = __add__

    def __neg__(self):
        return Cyclo8Scalar(-self.re, -self.im, self.den, _normalized=True)

    def __sub__(self, other):
        if type(other) is not Cyclo8Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if type(other) is not Cyclo8Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.re, self.im
        c, d = other.re, other.im
        den = self.den * other.den
        if b == 0:
            if den == 1 and (a == 1 or a == -1):
                return other if a == 1 else -other
            return Cyclo8Scalar(a * c, a * d, den)
        if d == 0:
            if den == 1 and (c == 1 or c == -1):
                return self if c == 1 else -self
            return Cyclo8Scalar(a * c, b * c, den)
        return Cyclo8Scalar(a * c - b * d, a * d + b * c, den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo8Scalar":
        """den (re - im*zeta) / (re^2 + im^2): the conjugate over the norm."""
        a, b = self.re, self.im
        if a == 0 and b == 0:
            raise ScalarDivisionError("inverse of zero")
        return Cyclo8Scalar(self.den * a, -self.den * b, a * a + b * b)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ScalarDivisionError("division by zero")
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        if type(other) is not Cyclo8Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.den == other.den and self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im, self.den))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        re = Fraction(self.re, self.den)
        im = Fraction(self.im, self.den)
        if not im:
            return str(re)
        zeta = "zeta" if im == 1 else "-zeta" if im == -1 else "%s*zeta" % im
        if not re:
            return zeta
        return "%s %s %s" % (re, "-" if im < 0 else "+", zeta.lstrip("-"))


def _coerce(x):
    if isinstance(x, Cyclo8Scalar):
        return x
    if isinstance(x, int):
        return Cyclo8Scalar.from_int(x)
    if isinstance(x, Fraction):
        return Cyclo8Scalar.from_fraction(x)
    return NotImplemented


ZERO = Cyclo8Scalar.from_int(0)
ONE = Cyclo8Scalar.from_int(1)
#: zeta, the fixed square root of -1
ZETA = Cyclo8Scalar(0, 1, 1, _normalized=True)
