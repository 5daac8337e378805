"""Sparse supercommutative polynomials: even variables commute, odd variables
anticommute and square to zero.

A monomial is a pair (even_exps, odd_support): a tuple of exponents over the
even variables and a sorted tuple of odd variable indices. Elements are dicts
monomial -> Cyclo8Scalar, an element of Q(zeta), so they plug directly into
the echelon machinery.
"""

from __future__ import annotations

from .linalg import add_term
from .scalars import Cyclo8Scalar, ONE, _coerce


def merge_odd(o1: tuple, o2: tuple):
    """Merge two sorted odd supports; returns (merged, sign) or None if a
    variable repeats."""
    if not o1:
        return o2, 1
    if not o2:
        return o1, 1
    out = []
    i = j = 0
    sign = 1
    while i < len(o1) and j < len(o2):
        a, b = o1[i], o2[j]
        if a == b:
            return None
        if a < b:
            out.append(a)
            i += 1
        else:
            # b jumps over the remaining entries of o1
            if (len(o1) - i) & 1:
                sign = -sign
            out.append(b)
            j += 1
    out.extend(o1[i:])
    out.extend(o2[j:])
    return tuple(out), sign


def insert_odd(o: tuple, v: int, position: int):
    """Insert odd variable v, currently sitting after `position` odd factors,
    into the sorted support; returns (support, sign) or None on repeat."""
    if v in o:
        return None
    target = sum(1 for c in o if c < v)
    sign = -1 if (position - target) & 1 else 1
    return tuple(sorted(o + (v,))), sign


def mono_degree(mono) -> int:
    return sum(mono[0]) + len(mono[1])


def mono_mul(m1, m2, trunc=None):
    """Product of monomials; (monomial, sign) or None if zero/truncated."""
    om = merge_odd(m1[1], m2[1])
    if om is None:
        return None
    e = tuple(a + b for a, b in zip(m1[0], m2[0]))
    mono = (e, om[0])
    if trunc is not None and sum(e) + len(om[0]) > trunc:
        return None
    return mono, om[1]


def p_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for k, c in q.items():
        add_term(out, k, c)
    return out


def p_scale(p: dict, c) -> dict:
    c = _coerce(c)
    if c.is_zero():
        return {}
    return {k: c * x for k, x in p.items()}


def p_mul(p: dict, q: dict, trunc=None) -> dict:
    """The product p*q, dropping the terms of degree past `trunc`.

    With `trunc`, each monomial's degree is read once and a pair whose
    degrees add past it is skipped before its product is formed.
    """
    out = {}
    qterms = q.items()
    if trunc is not None:
        qdeg = [(m2, c2, mono_degree(m2)) for m2, c2 in qterms]
    for m1, c1 in p.items():
        if trunc is not None:
            room = trunc - mono_degree(m1)
            qterms = [(m2, c2) for m2, c2, d2 in qdeg if d2 <= room]
        for m2, c2 in qterms:
            r = mono_mul(m1, m2)
            if r is None:
                continue
            mono, sign = r
            c = c1 * c2
            add_term(out, mono, c if sign == 1 else -c)
    return out


def p_truncate(p: dict, trunc: int) -> dict:
    return {m: c for m, c in p.items() if mono_degree(m) <= trunc}


def constant_term(p: dict, n_even: int) -> Cyclo8Scalar:
    return p.get(((0,) * n_even, ()), Cyclo8Scalar())


def p_one(n_even: int) -> dict:
    return {((0,) * n_even, ()): ONE}


def p_inverse(p: dict, n_even: int, trunc: int) -> dict:
    """Inverse of a jet with invertible constant term, by geometric series."""
    c = constant_term(p, n_even)
    if c.is_zero():
        raise ZeroDivisionError("jet has no invertible constant term")
    cinv = c.inverse()
    # p = c (1 - r): r is minus the non-constant part of p/c
    r = {k: -v for k, v in p_scale(p, cinv).items() if k != ((0,) * n_even, ())}
    out = p_one(n_even)
    power = p_one(n_even)
    for _ in range(trunc):
        power = p_mul(power, r, trunc)
        if not power:
            break
        out = p_add(out, power)
    return p_scale(out, cinv)
