"""Exact sparse linear algebra over the Gaussian rationals Q(zeta).

Vectors are dicts mapping arbitrary sortable keys to nonzero Cyclo8Scalar
entries, and `add_term` is the one accumulate-and-drop-zero step every
module builds them with.

`Echelon` keeps a subspace in reduced row-echelon form, so membership and
rank are decidable with no tolerances. It stores each row as Gaussian-integer
numerators {key: (re, im)} of Python ints over one positive integer
denominator: a reduction scales the vector once and then does integer
multiply-adds, with no gcd per entry and no scalar object per entry.
Cyclo8Scalar values appear only where a vector enters (`insert`,
`contains`) and in the `rows` view.
"""

from __future__ import annotations

from math import gcd, lcm

from .scalars import Cyclo8Scalar, ONE


def add_term(vec: dict, key, c) -> None:
    """vec[key] += c, dropping the key when the sum is zero.

    Works for any coefficient type whose zero is falsy (int, Fraction,
    Cyclo8Scalar).
    """
    s = vec.get(key)
    if s is not None:
        c = s + c
    if c:
        vec[key] = c
    else:
        vec.pop(key, None)


_ZERO = (0, 0)


def _numerators(vec: dict) -> dict:
    """The Cyclo8Scalar vector times the lcm of its denominators, as
    {key: (re, im)}: a nonzero multiple spans the same line."""
    den = 1
    for c in vec.values():
        if c.den != 1:
            den = lcm(den, c.den)
    if den == 1:
        return {k: (c.re, c.im) for k, c in vec.items()}
    return {k: (c.re * (den // c.den), c.im * (den // c.den)) for k, c in vec.items()}


def _eliminate(num: dict, hits: list) -> dict:
    """num times the lcm of the hit rows' denominators, minus the multiple of
    each hit row that clears it at that row's pivot.

    `hits` holds (pivot, row) for the echelon rows whose pivot key num holds;
    a row's denominator d is its pivot numerator. The rows are mutually
    reduced, so clearing one pivot leaves the coefficients at the others
    unchanged: each multiplier is read off the scaled vector, and it is a
    Gaussian integer because d divides the scale.
    """
    scale = 1
    for piv, row in hits:
        scale = lcm(scale, row[piv][0])
    if scale == 1:
        out = dict(num)
    else:
        out = {k: (x * scale, y * scale) for k, (x, y) in num.items()}
    get = out.get
    for piv, row in hits:
        d = row[piv][0]
        fr, fi = out[piv]
        fr //= d
        fi //= d
        # a key new to out cannot cancel: both factors of its term are nonzero
        if fi:
            for k, (x, y) in row.items():
                a, b = get(k, _ZERO)
                re = a - fr * x + fi * y
                im = b - fr * y - fi * x
                if re or im:
                    out[k] = (re, im)
                else:
                    del out[k]
        else:
            for k, (x, y) in row.items():
                a, b = get(k, _ZERO)
                re = a - fr * x
                im = b - fr * y
                if re or im:
                    out[k] = (re, im)
                else:
                    del out[k]
    return out


def _primitive(num: dict, unit: int = 1) -> dict:
    """num divided by unit (1 or -1) times the gcd of all its numerators."""
    g = 0
    for x, y in num.values():
        g = gcd(g, x, y)
        if g == 1:
            break
    g *= unit
    if g == 1:
        return num
    return {k: (x // g, y // g) for k, (x, y) in num.items()}


class Echelon:
    """A row space in reduced echelon form, pivots chosen by minimal key.

    The row with pivot p is stored as num, a dict of Gaussian-integer
    numerators (re, im) over the denominator d: the row is num / d,
    num[p] == (d, 0) with d > 0, and the gcd of all the numerators is 1.
    That form is unique for a row with coefficient 1 at its pivot, and a
    reduced echelon with minimal-key pivots is unique for its space, so two
    echelons of one space hold equal rows. `rows` shows them as Cyclo8Scalar
    dicts, built on the first read after an insert.
    """

    def __init__(self):
        self._rows: dict = {}  # pivot key -> num
        self._view = None

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> dict:
        """pivot key -> row as a Cyclo8Scalar dict, ONE at the pivot."""
        if self._view is None:
            self._view = {
                p: {k: Cyclo8Scalar(x, y, num[p][0]) for k, (x, y) in num.items()}
                for p, num in self._rows.items()
            }
        return self._view

    def _residual(self, num: dict) -> dict:
        """A nonzero multiple of num's residual modulo the row space (num
        itself when it holds no pivot key)."""
        rows = self._rows
        hits = [(k, rows[k]) for k in num if k in rows]
        return _eliminate(num, hits) if hits else num

    def insert(self, vec: dict) -> bool:
        """Add vec to the space; True if the rank grew."""
        num = self._residual(_numerators(vec))
        if not num:
            return False
        piv = min(num)
        a, b = num[piv]
        if b:
            # times the conjugate of the pivot, which becomes a*a + b*b > 0
            num = {k: (x * a + y * b, y * a - x * b) for k, (x, y) in num.items()}
        num = _primitive(num, -1 if a < 0 and not b else 1)
        # keep reduced form: clear the new pivot from the rows that hold it
        rows = self._rows
        new = [(piv, num)]
        for p in [p for p, row in rows.items() if piv in row]:
            rows[p] = _primitive(_eliminate(rows[p], new))
        rows[piv] = num
        self._view = None
        return True

    def contains(self, vec: dict) -> bool:
        return not self._residual(_numerators(vec))

    def contains_space(self, other: "Echelon") -> bool:
        return all(not self._residual(num) for num in other._rows.values())


def span(vectors) -> Echelon:
    ech = Echelon()
    for v in vectors:
        ech.insert(v)
    return ech


def _constraint_echelon(constraints: list[dict], order: dict) -> Echelon:
    """The span of the constraint rows, re-keyed by the unknowns' indices."""
    ech = Echelon()
    for row in constraints:
        if row:
            ech.insert({order[k]: c for k, c in row.items()})
    return ech


def kernel_dim(constraints: list[dict], unknowns: list) -> int:
    """Dimension of the joint kernel: the number of unknowns minus the rank
    of the constraints, with no kernel vector built."""
    order = {u: i for i, u in enumerate(unknowns)}
    return len(unknowns) - _constraint_echelon(constraints, order).rank


def kernel_basis(constraints: list[dict], unknowns: list) -> list[dict]:
    """Solution basis of the homogeneous system (rows are functionals).

    `constraints` are dicts unknown-key -> coefficient; the returned vectors
    are dicts unknown-key -> Cyclo8Scalar spanning the joint kernel.
    """
    order = {u: i for i, u in enumerate(unknowns)}
    ech = _constraint_echelon(constraints, order)
    pivots = set(ech.rows)
    free = [i for i in range(len(unknowns)) if i not in pivots]
    basis = []
    for f in free:
        # x_f = 1, pivot variables from the reduced rows
        vec = {unknowns[f]: ONE}
        for p, row in ech.rows.items():
            c = row.get(f)
            if c is not None:
                vec[unknowns[p]] = -c
        basis.append(vec)
    return basis
