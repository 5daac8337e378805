"""Exact arithmetic in the degree-4 cyclotomic field Q(w), w^8 = 1 primitive.

Elements are c0 + c1*w + c2*w^2 + c3*w^3 with rational c_i and w^4 = -1.
The field contains zeta = w^2 (a square root of -1) and sqrt2 = w - w^3,
so every constant used elsewhere (zeta, 2^{k/2}) is representable exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class ScalarError(ArithmeticError):
    pass


class ScalarDivisionError(ScalarError):
    """Division by zero in the scalar field."""


def _gcd4(a, b, c, d, e):
    g = gcd(gcd(gcd(abs(a), abs(b)), gcd(abs(c), abs(d))), e)
    return g if g else 1


class Cyclo8Scalar:
    """An element of Q(w) stored as four integer numerators over one denominator."""

    __slots__ = ("n0", "n1", "n2", "n3", "den")

    def __init__(self, n0=0, n1=0, n2=0, n3=0, den=1, _normalized=False):
        if den == 0:
            raise ScalarError("zero denominator")
        # den == 1 is already the normal form: the gcd is 1
        if not _normalized and den != 1:
            if den < 0:
                n0, n1, n2, n3, den = -n0, -n1, -n2, -n3, -den
            g = _gcd4(n0, n1, n2, n3, den)
            if g > 1:
                n0 //= g
                n1 //= g
                n2 //= g
                n3 //= g
                den //= g
        self.n0 = n0
        self.n1 = n1
        self.n2 = n2
        self.n3 = n3
        self.den = den

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_int(k: int) -> "Cyclo8Scalar":
        return Cyclo8Scalar(k, 0, 0, 0, 1, _normalized=True)

    @staticmethod
    def from_fraction(q) -> "Cyclo8Scalar":
        q = Fraction(q)
        return Cyclo8Scalar(q.numerator, 0, 0, 0, q.denominator, _normalized=True)

    @staticmethod
    def from_coeffs(c0, c1, c2, c3) -> "Cyclo8Scalar":
        c0, c1, c2, c3 = Fraction(c0), Fraction(c1), Fraction(c2), Fraction(c3)
        den = 1
        for c in (c0, c1, c2, c3):
            den = den * c.denominator // gcd(den, c.denominator)
        return Cyclo8Scalar(
            int(c0 * den), int(c1 * den), int(c2 * den), int(c3 * den), den
        )

    # -- views ---------------------------------------------------------

    @property
    def coeffs(self):
        """The four rational coordinates (c0, c1, c2, c3) on 1, w, w^2, w^3."""
        d = self.den
        return (
            Fraction(self.n0, d),
            Fraction(self.n1, d),
            Fraction(self.n2, d),
            Fraction(self.n3, d),
        )

    def is_zero(self) -> bool:
        return self.n0 == 0 and self.n1 == 0 and self.n2 == 0 and self.n3 == 0

    def is_rational(self) -> bool:
        return self.n1 == 0 and self.n2 == 0 and self.n3 == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ScalarError("not a rational element: %s" % (self,))
        return Fraction(self.n0, self.den)

    def is_integer(self) -> bool:
        return self.is_rational() and self.den == 1

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if type(other) is not Cyclo8Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        da, db = self.den, other.den
        if da == db:
            return Cyclo8Scalar(
                self.n0 + other.n0,
                self.n1 + other.n1,
                self.n2 + other.n2,
                self.n3 + other.n3,
                da,
            )
        return Cyclo8Scalar(
            self.n0 * db + other.n0 * da,
            self.n1 * db + other.n1 * da,
            self.n2 * db + other.n2 * da,
            self.n3 * db + other.n3 * da,
            da * db,
        )

    __radd__ = __add__

    def __neg__(self):
        return Cyclo8Scalar(
            -self.n0, -self.n1, -self.n2, -self.n3, self.den, _normalized=True
        )

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
        a0, a1, a2, a3 = self.n0, self.n1, self.n2, self.n3
        b0, b1, b2, b3 = other.n0, other.n1, other.n2, other.n3
        den = self.den * other.den
        if a1 == 0 and a2 == 0 and a3 == 0:
            if den == 1 and (a0 == 1 or a0 == -1):
                return other if a0 == 1 else -other
            return Cyclo8Scalar(a0 * b0, a0 * b1, a0 * b2, a0 * b3, den)
        if b1 == 0 and b2 == 0 and b3 == 0:
            if den == 1 and (b0 == 1 or b0 == -1):
                return self if b0 == 1 else -self
            return Cyclo8Scalar(a0 * b0, a1 * b0, a2 * b0, a3 * b0, den)
        # convolution reduced by w^4 = -1
        return Cyclo8Scalar(
            a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
            a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
            a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
            den,
        )

    __rmul__ = __mul__

    def _conj(self, k: int) -> "Cyclo8Scalar":
        """Galois conjugate w -> w^k for k in {3, 5, 7}."""
        c0, c1, c2, c3 = self.n0, self.n1, self.n2, self.n3
        if k == 3:
            t = (c0, c3, -c2, c1)
        elif k == 5:
            t = (c0, -c1, c2, -c3)
        elif k == 7:
            t = (c0, -c3, -c2, -c1)
        else:
            raise ValueError(k)
        return Cyclo8Scalar(*t, self.den, _normalized=True)

    def inverse(self) -> "Cyclo8Scalar":
        if self.is_zero():
            raise ScalarDivisionError("inverse of zero")
        cbar = self._conj(3) * self._conj(5) * self._conj(7)
        norm = self * cbar
        if not norm.is_rational():
            raise ScalarError("norm computation failed")  # pragma: no cover
        q = Fraction(norm.den, norm.n0)
        return Cyclo8Scalar(
            cbar.n0 * q.numerator,
            cbar.n1 * q.numerator,
            cbar.n2 * q.numerator,
            cbar.n3 * q.numerator,
            cbar.den * q.denominator,
        )

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
        return (
            self.den == other.den
            and self.n0 == other.n0
            and self.n1 == other.n1
            and self.n2 == other.n2
            and self.n3 == other.n3
        )

    def __hash__(self):
        return hash((self.n0, self.n1, self.n2, self.n3, self.den))

    def __bool__(self):
        return not self.is_zero()

    # -- serialization ---------------------------------------------------

    def serialize(self) -> str:
        """Round-trip text form "c0/d0,c1/d1,c2/d2,c3/d3"."""
        return ",".join(
            "%d/%d" % (c.numerator, c.denominator) for c in self.coeffs
        )

    @staticmethod
    def parse(text: str) -> "Cyclo8Scalar":
        parts = text.strip().split(",")
        if len(parts) != 4:
            raise ValueError("expected four components: %r" % text)
        cs = []
        for p in parts:
            num, _, den = p.partition("/")
            cs.append(Fraction(int(num), int(den) if den else 1))
        return Cyclo8Scalar.from_coeffs(*cs)

    def __repr__(self):
        if self.is_zero():
            return "0"
        names = ("", "w", "w^2", "w^3")
        parts = []
        for c, name in zip(self.coeffs, names):
            if c == 0:
                continue
            if name:
                s = "%s*%s" % (c, name) if abs(c) != 1 else ("-" + name if c < 0 else name)
            else:
                s = str(c)
            parts.append(s)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


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
#: zeta = w^2, the fixed square root of -1
ZETA = Cyclo8Scalar(0, 0, 1, 0, 1, _normalized=True)
#: sqrt2 = w - w^3 = w + w^{-1}
SQRT2 = Cyclo8Scalar(0, 1, 0, -1, 1, _normalized=True)


def half_power_of_two(k: int) -> Cyclo8Scalar:
    """2^{k/2} as an exact field element; odd k gives a power of sqrt2."""
    if k % 2 == 0:
        q = Fraction(2) ** (k // 2)
        return Cyclo8Scalar.from_fraction(q)
    return Cyclo8Scalar.from_fraction(Fraction(2) ** ((k - 1) // 2)) * SQRT2
