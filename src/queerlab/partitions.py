"""Strict partitions, containment order, delta, staircases, adding a box;
the plain partitions of n, those into odd parts, and z_rho."""

from __future__ import annotations

from functools import lru_cache
from math import factorial, prod


class StrictPartition:
    """A strictly decreasing sequence of positive integers.

    Immutable, and compared by `parts` alone. The hash is that of the tuple
    (parts,): sets of partitions iterate in an order fixed by it, and reports
    print some of them in that order. A plain slotted class, not a dataclass,
    so that starting the CLI does not import `dataclasses`.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()):
        p = tuple(parts)
        for i, x in enumerate(p):
            if x <= 0:
                raise ValueError("parts must be positive: %r" % (p,))
            if i + 1 < len(p) and p[i + 1] >= x:
                raise ValueError("parts must strictly decrease: %r" % (p,))
        object.__setattr__(self, "parts", p)

    def __setattr__(self, name, value):
        raise AttributeError("StrictPartition is immutable")

    def __delattr__(self, name):
        raise AttributeError("StrictPartition is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, not by setting the slot
        return StrictPartition, (self.parts,)

    def __hash__(self):
        return hash((self.parts,))

    def __eq__(self, other):
        if other.__class__ is not StrictPartition:
            return NotImplemented
        return self.parts == other.parts

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def serialize(self) -> str:
        return ",".join(str(p) for p in self.parts)

    @staticmethod
    def parse(text: str) -> "StrictPartition":
        text = text.strip()
        if not text:
            return StrictPartition(())
        return StrictPartition(tuple(int(t) for t in text.split(",")))

    def __repr__(self):
        return "(%s)" % self.serialize()


EMPTY = StrictPartition(())


def delta(lam: StrictPartition) -> int:
    """0 if the number of parts is even, 1 if odd."""
    return lam.length % 2


def contains(lam: StrictPartition, mu: StrictPartition) -> bool:
    """Young-diagram containment lam <= mu, i.e. lam_i <= mu_i for all i."""
    if lam.length > mu.length:
        return False
    return all(l <= m for l, m in zip(lam.parts, mu.parts))


def _descending(remaining: int, maxpart: int, gap: int):
    """Part tuples summing to remaining, lexicographically descending, each
    part at most maxpart and at least gap below the part before it."""
    if remaining == 0:
        yield ()
        return
    for first in range(min(remaining, maxpart), 0, -1):
        for rest in _descending(remaining - first, first - gap, gap):
            yield (first,) + rest


@lru_cache(maxsize=None)
def enumerate_strict(n: int) -> tuple[StrictPartition, ...]:
    """All strict partitions of n, lexicographically descending."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return tuple(StrictPartition(p) for p in _descending(n, n, 1))


def enumerate_partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n as tuples of parts, lexicographically descending."""
    return list(_descending(n, n, 0))


def odd_partitions(n: int) -> list[tuple[int, ...]]:
    """The partitions of n into odd parts, lexicographically ascending, so
    that (1^n) comes first: the odd cycle types, as many as the strict
    partitions of n."""
    return [t for t in reversed(enumerate_partitions(n)) if all(part & 1 for part in t)]


def z(rho: tuple) -> int:
    """z_rho = prod_i i^m_i m_i!, m_i the number of parts of rho equal to i:
    the order of the centralizer in S_n of a permutation of cycle type rho."""
    return prod(part ** rho.count(part) * factorial(rho.count(part)) for part in set(rho))


def l_max(d: int) -> int:
    """The largest length of a strict partition of size at most d: the
    largest l with l(l+1)/2 <= d."""
    l = 0
    while (l + 1) * (l + 2) // 2 <= d:
        l += 1
    return l


def all_strict_upto(n: int, max_length: int | None = None) -> list[StrictPartition]:
    """All strict partitions of size 0..n with at most max_length parts,
    grouped by size, lex descending."""
    return [
        p
        for k in range(n + 1)
        for p in enumerate_strict(k)
        if max_length is None or p.length <= max_length
    ]


def staircase(r: int) -> StrictPartition:
    """The staircase partition (r+1, r, ..., 2, 1)."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    return StrictPartition(tuple(range(r + 1, 0, -1)))


def add_box_candidates(lam: StrictPartition) -> list[StrictPartition]:
    """Strict partitions obtained from lam by adding one box."""
    out = []
    parts = lam.parts
    for i in range(len(parts)):
        if i == 0 or parts[i] + 1 < parts[i - 1]:
            out.append(StrictPartition(parts[:i] + (parts[i] + 1,) + parts[i + 1 :]))
    if not parts or parts[-1] > 1:
        out.append(StrictPartition(parts + (1,)))
    return out
