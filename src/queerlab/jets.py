"""The coordinate maps between A(n,n) and the group K, modeled on jets.

phi sends x_ij, y_ij to polynomials in the K-coordinates a, b, a', b';
psi inverts it lexicographically into jets of A localized at the
distinguished maximal ideal (power series in x_ij - delta_ij and y_ij,
truncated at the jet order).

Both maps read the coordinates a_ti, a'_tj, b_ti, b'_tj through one table
lookup (`_coords`) and write the product shapes of phi once (`_x_part`,
`_y_part`); applying psi is one substitution (`_substitute`). Each
map is built once per (n, order) and shared by its callers.
"""

from __future__ import annotations

from functools import lru_cache

from .scalars import ONE, ZETA
from .spoly import p_add, p_inverse, p_mul, p_one, p_scale


class JetInversionError(ZeroDivisionError):
    pass


class JetRing:
    """A truncated supercommutative polynomial ring with named variables."""

    __slots__ = ("even_names", "odd_names", "order", "_even_idx", "_odd_idx")

    def __init__(self, even_names: tuple, odd_names: tuple, order: int):
        self.even_names = even_names
        self.odd_names = odd_names
        self.order = order
        self._even_idx = {v: i for i, v in enumerate(even_names)}
        self._odd_idx = {v: i for i, v in enumerate(odd_names)}

    @property
    def n_even(self):
        return len(self.even_names)

    def one(self):
        return p_one(self.n_even)

    def const(self, c):
        return p_scale(self.one(), c)

    def even_var(self, name):
        e = [0] * self.n_even
        e[self._even_idx[name]] = 1
        return {(tuple(e), ()): ONE}

    def odd_var(self, name):
        return {((0,) * self.n_even, (self._odd_idx[name],)): ONE}

    def mul(self, p, q):
        return p_mul(p, q, self.order)

    def add(self, p, q):
        return p_add(p, q)

    def scale(self, p, c):
        return p_scale(p, c)

    def inverse(self, p):
        try:
            return p_inverse(p, self.n_even, self.order)
        except ZeroDivisionError as exc:
            raise JetInversionError(str(exc)) from exc


def k_ring(n: int, order: int) -> JetRing:
    """Coordinates of K: a_ij, b_ij on B (i <= j, diagonal a recentered),
    a'_ij, b'_ij on U (i < j)."""
    even = []
    odd = []
    for j in range(1, n + 1):
        for i in range(1, j + 1):
            even.append(("abar", i, j) if i == j else ("a", i, j))
            odd.append(("b", i, j))
            if i < j:
                even.append(("ap", i, j))
                odd.append(("bp", i, j))
    return JetRing(tuple(even), tuple(odd), order)


def a_ring(n: int, order: int) -> JetRing:
    """Jets of A(n,n) at the maximal ideal: xbar_ij = x_ij - delta_ij, y_ij."""
    even = []
    odd = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            even.append(("xbar", i, j))
            odd.append(("y", i, j))
    return JetRing(tuple(even), tuple(odd), order)


def _coords(ring: JetRing, t: int, i: int, j: int, table: dict) -> tuple:
    """(a_ti, a'_tj, b_ti, b'_tj) read from `table`, with a'_tt = 1, b'_tt = 0."""
    if t == j:
        return table[("a", t, i)], ring.one(), table[("b", t, i)], {}
    return table[("a", t, i)], table[("ap", t, j)], table[("b", t, i)], table[("bp", t, j)]


def _x_part(ring: JetRing, a, ap, b, bp):
    """a a' + zeta b b'."""
    return ring.add(ring.mul(a, ap), ring.scale(ring.mul(b, bp), ZETA))


def _y_part(ring: JetRing, a, ap, b, bp):
    """a b' - zeta b a'."""
    return ring.add(ring.mul(a, bp), ring.scale(ring.mul(b, ap), -ZETA))


def _phi_sums(ring: JetRing, table: dict, i: int, j: int, tmax: int):
    """The t <= tmax terms of phi(x_ij) and phi(y_ij), coordinates from `table`."""
    px, py = {}, {}
    for t in range(1, tmax + 1):
        c = _coords(ring, t, i, j, table)
        px = ring.add(px, _x_part(ring, *c))
        py = ring.add(py, _y_part(ring, *c))
    return px, py


def _substitute(ring: JetRing, terms: dict, even_images, odd_images) -> dict:
    """sum of c * prod even_images[k]^e_k * prod odd_images[k] over the terms."""
    out = {}
    for (e, o), c in terms.items():
        term = ring.const(c)
        for idx, ex in enumerate(e):
            for _ in range(ex):
                term = ring.mul(term, even_images[idx])
        for idx in o:
            term = ring.mul(term, odd_images[idx])
        out = ring.add(out, term)
    return out


@lru_cache(maxsize=None)
def phi_map(n: int, order: int):
    """Images of the A(n,n) generators in C[K], truncated at the jet order.

    phi(x_ij) = sum_{t <= i,j} a_ti a'_tj + zeta b_ti b'_tj
    phi(y_ij) = sum_{t <= i,j} a_ti b'_tj - zeta b_ti a'_tj

    Built once per (n, order): every caller shares the returned ring and
    dict, and must not mutate them.
    """
    ring = k_ring(n, order)
    k = {name: ring.odd_var(name) for name in ring.odd_names}
    for name in ring.even_names:
        if name[0] == "abar":  # a_tt = 1 + abar_tt
            k[("a",) + name[1:]] = ring.add(ring.one(), ring.even_var(name))
        else:
            k[name] = ring.even_var(name)
    images = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            images[("x", i, j)], images[("y", i, j)] = _phi_sums(ring, k, i, j, min(i, j))
    return ring, images


@lru_cache(maxsize=None)
def psi_map(n: int, order: int):
    """Images of the K-coordinates as jets of A at the maximal ideal.

    Defined lexicographically (second index most significant): a_ij and
    b_ij solve the t = i term of phi(x_ji), phi(y_ji); the a'/b' step solves
    the t = i term of phi(x_ij), phi(y_ij) by inverting the 2x2 matrix
    (p, zeta q; -zeta q, p), whose determinant is p^2 exactly since odd jets
    square to zero.

    Built once per (n, order): every caller shares the returned ring and
    dict, and must not mutate them.
    """
    ring = a_ring(n, order)
    x = {}
    y = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            x[(i, j)] = ring.even_var(("xbar", i, j))
            if i == j:
                x[(i, j)] = ring.add(ring.one(), x[(i, j)])
            y[(i, j)] = ring.odd_var(("y", i, j))
    psi = {}
    for j in range(1, n + 1):
        for i in range(1, j + 1):
            sx, sy = _phi_sums(ring, psi, j, i, i - 1)
            psi[("a", i, j)] = ring.add(x[(j, i)], ring.scale(sx, -1))
            psi[("b", i, j)] = ring.scale(ring.add(y[(j, i)], ring.scale(sy, -1)), ZETA)
            if i == j:
                continue
            sx, sy = _phi_sums(ring, psi, i, j, i - 1)
            rx = ring.add(x[(i, j)], ring.scale(sx, -1))
            ry = ring.add(y[(i, j)], ring.scale(sy, -1))
            p = psi[("a", i, i)]
            q = psi[("b", i, i)]
            # raises JetInversionError unless p, so p^2, has a unit constant term
            inv2 = ring.inverse(ring.mul(p, p))
            psi[("ap", i, j)] = ring.mul(
                inv2,
                ring.add(ring.mul(p, rx), ring.scale(ring.mul(q, ry), -ZETA)),
            )
            psi[("bp", i, j)] = ring.mul(
                inv2,
                ring.add(ring.scale(ring.mul(q, rx), ZETA), ring.mul(p, ry)),
            )
    return ring, psi


def psi_apply(n: int, order: int, kjet, kring: JetRing) -> dict:
    """Substitute the psi images into a jet over the K-coordinates."""
    aring, psi = psi_map(n, order)
    minus_one = aring.const(-1)
    even = [
        # a_ii = 1 + abar_ii, so abar maps to psi(a_ii) - 1
        aring.add(psi[("a",) + name[1:]], minus_one) if name[0] == "abar" else psi[name]
        for name in kring.even_names
    ]
    return _substitute(aring, kjet, even, [psi[name] for name in kring.odd_names])


def psi_of_phi_on_generators(n: int, order: int):
    """psi(phi(g)) for every generator g of A(n,n), next to g's own jet."""
    kring, phi = phi_map(n, order)
    aring, _ = psi_map(n, order)
    results = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for kind in ("x", "y"):
                got = psi_apply(n, order, phi[(kind, i, j)], kring)
                if kind == "x":
                    want = aring.even_var(("xbar", i, j))
                    if i == j:
                        want = aring.add(want, aring.one())
                else:
                    want = aring.odd_var(("y", i, j))
                results.append(((kind, i, j), got, want))
    return results
