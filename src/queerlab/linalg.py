"""Exact sparse linear algebra over the Gaussian integers Z[zeta].

`Echelon` keeps a subspace in reduced row-echelon form, so membership and
rank are decidable with no tolerances. It takes Gaussian-integer vectors:
dicts mapping sortable keys to nonzero pairs (re, im) of ints, standing for
re + im*zeta. A reduction scales the vector once and then does integer
multiply-adds. `extend` inserts a batch in descending order of leading key,
so each new pivot lands below every stored pivot and no stored row needs
back-substitution. `add_term` is the accumulate-and-drop-zero step for the
sparse polynomials of `symfunc` and `spoly`, with int or Cyclo8Scalar
entries.
"""

from __future__ import annotations

from math import gcd, lcm


def add_term(vec: dict, key, c) -> None:
    """vec[key] += c, dropping the key when the sum is zero.

    Works for any coefficient type whose zero is falsy (int, Cyclo8Scalar).
    """
    s = vec.get(key)
    if s is not None:
        c = s + c
    if c:
        vec[key] = c
    else:
        vec.pop(key, None)


_ZERO = (0, 0)


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
    echelons of one space hold equal rows, whatever order the vectors came
    in. Neither a stored row nor an inserted vector is ever changed in
    place, so a row may be the very dict that was inserted.
    """

    def __init__(self):
        self._rows: dict = {}  # pivot key -> num
        self._low = None  # the lowest pivot key

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def nums(self) -> dict:
        return self._rows  # pivot key -> num, read only

    def _residual(self, num: dict) -> dict:
        """A nonzero multiple of num's residual modulo the row space (num
        itself when it holds no pivot key)."""
        rows = self._rows
        hits = [(k, rows[k]) for k in num if k in rows]
        return _eliminate(num, hits) if hits else num

    def insert(self, num: dict) -> bool:
        """Add a Gaussian-integer vector to the space; True if the rank grew."""
        num = self._residual(num)
        if not num:
            return False
        piv = min(num)
        a, b = num[piv]
        if b:
            # times the conjugate of the pivot, which becomes a*a + b*b > 0
            num = {k: (x * a + y * b, y * a - x * b) for k, (x, y) in num.items()}
        num = _primitive(num, -1 if a < 0 and not b else 1)
        rows = self._rows
        if self._low is None or piv < self._low:
            # every key of a stored row is at least its pivot, so no row
            # holds a pivot below the lowest one
            self._low = piv
        else:
            # keep reduced form: clear the new pivot from the rows that hold it
            new = [(piv, num)]
            for p in [p for p, row in rows.items() if piv in row]:
                rows[p] = _primitive(_eliminate(rows[p], new))
        rows[piv] = num
        return True

    def extend(self, vecs) -> list:
        """Insert Gaussian-integer vectors in descending order of their smallest
        key; return the ones that raised the rank, in that order."""
        batch = sorted((v for v in vecs if v), key=min, reverse=True)
        return [v for v in batch if self.insert(v)]


def span(vecs) -> Echelon:
    ech = Echelon()
    ech.extend(vecs)
    return ech


def kernel_dim(constraints, unknowns: list) -> int:
    """Dimension of the joint kernel: the number of unknowns minus the rank
    of the Gaussian-integer rows, keyed by the unknowns or their indices."""
    return len(unknowns) - span(constraints).rank


def kernel_basis(constraints, k: int) -> list[dict]:
    """Solution basis of the homogeneous system in the unknowns 0, ..., k - 1
    (rows are functionals).

    `constraints` are Gaussian-integer dicts index -> (re, im); the
    returned vectors are primitive Gaussian-integer dicts index -> (re, im)
    spanning the joint kernel, one per free unknown f, positive at f.
    """
    rows = span(constraints).nums
    basis = []
    for f in range(k):
        if f in rows:
            continue
        # x_f = 1 and x_p = -row_p[f] / d_p, times the lcm of those d_p
        hits = [(p, row) for p, row in rows.items() if f in row]
        scale = lcm(1, *(row[p][0] for p, row in hits))
        vec = {f: (scale, 0)}
        for p, row in hits:
            vec[p] = tuple(-c * (scale // row[p][0]) for c in row[f])
        basis.append(_primitive(vec))
    return basis
