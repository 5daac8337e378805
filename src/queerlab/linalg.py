"""Exact sparse linear algebra over the cyclotomic scalar field.

Vectors are dicts mapping arbitrary sortable keys to nonzero Cyclo8Scalar
entries. Subspaces live in reduced row-echelon form so membership and rank
are decidable with no tolerances.
"""

from __future__ import annotations

from .scalars import Cyclo8Scalar, ONE


def vec_axpy(u: dict, c: Cyclo8Scalar, v: dict) -> dict:
    """u + c*v, dropping zeros."""
    out = dict(u)
    for k, x in v.items():
        s = out.get(k)
        s = c * x if s is None else s + c * x
        if s.is_zero():
            out.pop(k, None)
        else:
            out[k] = s
    return out


class Echelon:
    """A row space in reduced echelon form, pivots chosen by minimal key."""

    def __init__(self):
        self.rows: dict = {}  # pivot key -> row dict (pivot coefficient 1)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """Residual of vec modulo the current row space.

        Rows are mutually reduced, so no new pivot keys appear during the
        pass and a single sweep over vec's pivot hits suffices.
        """
        v = dict(vec)
        for k in [k for k in vec if k in self.rows]:
            c = v.get(k)
            if c is None:
                continue
            nc = -c
            for kk, x in self.rows[k].items():
                s = v.get(kk)
                s = nc * x if s is None else s + nc * x
                if s.is_zero():
                    v.pop(kk, None)
                else:
                    v[kk] = s
        return v

    def insert(self, vec: dict) -> bool:
        """Add vec to the space; True if the rank grew."""
        v = self.reduce(vec)
        if not v:
            return False
        piv = min(v)
        c = v[piv]
        if c != ONE:
            inv = c.inverse()
            v = {k: inv * x for k, x in v.items()}
        # keep reduced form: clear the new pivot from existing rows
        for p, row in self.rows.items():
            c = row.get(piv)
            if c is not None:
                self.rows[p] = vec_axpy(row, -c, v)
        self.rows[piv] = v
        return True

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def basis(self) -> list[dict]:
        return [self.rows[p] for p in sorted(self.rows)]

    def contains_space(self, other: "Echelon") -> bool:
        return all(self.contains(r) for r in other.rows.values())


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
