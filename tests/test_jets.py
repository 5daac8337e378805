import random

import pytest

from oracles import SuperPoly, m_generators
from queerlab import jets
from queerlab.jets import (
    JetInversionError,
    a_ring,
    k_ring,
    phi_apply,
    phi_map,
    psi_map,
    psi_of_phi_on_generators,
)
from queerlab.cli import _a_generators, main
from queerlab.scalars import ZETA
from queerlab.spoly import constant_term, p_inverse, p_mul

rng = random.Random(2)


def test_phi_base_formulas():
    ring, phi = phi_map(1, 4)
    assert phi[("x", 1, 1)] == ring.add(ring.one(), ring.even_var(("abar", 1, 1)))
    assert phi[("y", 1, 1)] == ring.scale(ring.odd_var(("b", 1, 1)), -ZETA)


def test_phi_general_formula_n2():
    ring, phi = phi_map(2, 4)
    # phi(x_22) = a_12 a'_12 + zeta b_12 b'_12 + a_22 a'_22 + zeta b_22 b'_22
    #           = a_12 a'_12 + zeta b_12 b'_12 + (1 + abar_22)
    want = ring.mul(ring.even_var(("a", 1, 2)), ring.even_var(("ap", 1, 2)))
    want = ring.add(
        want,
        ring.scale(
            ring.mul(ring.odd_var(("b", 1, 2)), ring.odd_var(("bp", 1, 2))), ZETA
        ),
    )
    want = ring.add(want, ring.add(ring.one(), ring.even_var(("abar", 2, 2))))
    assert phi[("x", 2, 2)] == want


def test_phi_vanishes_at_identity_on_m_generators():
    for n in (1, 2, 3):
        ring, _ = phi_map(n, 3)
        for g in m_generators(n):
            assert constant_term(phi_apply(n, 3, g.terms), ring.n_even).is_zero()


def test_phi_multiplicative_on_degree_two_pairs():
    for n in (1, 2, 3):
        ring, _ = phi_map(n, 4)
        gens = []
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                gens.append(SuperPoly.x(n, n, i, j))
                gens.append(SuperPoly.y(n, n, i, j))
        for _ in range(8):
            p = rng.choice(gens) * rng.choice(gens)
            q = rng.choice(gens) * rng.choice(gens)
            assert phi_apply(n, 4, (p * q).terms) == ring.mul(
                phi_apply(n, 4, p.terms), phi_apply(n, 4, q.terms)
            )


def test_psi_base_cases():
    aring, psi = psi_map(2, 3)
    assert psi[("a", 1, 1)] == aring.add(aring.one(), aring.even_var(("xbar", 1, 1)))
    assert psi[("b", 1, 1)] == aring.scale(aring.odd_var(("y", 1, 1)), ZETA)


def test_psi_of_phi_is_identity():
    for n in (1, 2, 3):
        for key, got, want in psi_of_phi_on_generators(n, 3):
            assert got == want, (n, key)


def test_jet_inverse():
    ring = a_ring(1, 5)
    p = ring.add(ring.one(), ring.even_var(("xbar", 1, 1)))
    inv = ring.inverse(p)
    assert ring.mul(p, inv) == ring.one()
    with pytest.raises(ZeroDivisionError):
        p_inverse(ring.even_var(("xbar", 1, 1)), ring.n_even, 5)


def test_jet_with_zero_constant_term_has_no_inverse():
    ring = a_ring(2, 3)
    for p in (
        {},
        ring.even_var(("xbar", 1, 2)),
        ring.add(ring.even_var(("xbar", 2, 2)), ring.odd_var(("y", 1, 1))),
    ):
        with pytest.raises(JetInversionError):
            ring.inverse(p)


def test_cli_generators_and_products_match_superpoly():
    # the dicts `verify phi-psi` samples, and their products, against the
    # SuperPoly oracle; phi agrees on every product of two generators
    for n in (1, 2, 3):
        want = [
            f(n, n, i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            for f in (SuperPoly.x, SuperPoly.y)
        ]
        gens = _a_generators(n)
        assert gens == [g.terms for g in want]
        ring, _ = phi_map(n, 4)
        for g, wg in zip(gens, want):
            for h, wh in zip(gens, want):
                prod = p_mul(g, h)
                assert prod == (wg * wh).terms
                assert phi_apply(n, 4, prod) == ring.mul(phi_apply(n, 4, g), phi_apply(n, 4, h))


def test_odd_jets_square_to_zero():
    ring = k_ring(2, 4)
    q = ring.add(
        ring.odd_var(("b", 1, 1)),
        ring.scale(ring.odd_var(("bp", 1, 2)), ZETA),
    )
    assert ring.mul(q, q) == {}


def test_truncation():
    ring = a_ring(1, 2)
    x = ring.even_var(("xbar", 1, 1))
    x2 = ring.mul(x, x)
    assert ring.mul(x2, x) == {}  # order-3 terms are cut


def test_verify_phi_psi_builds_each_map_once_per_order(monkeypatch, capsys):
    # n = 1..3 at jet order 4 (multiplicativity) and 3 (psi o phi): six phi
    # maps and three psi maps, however many generators each one is applied to
    calls = {"k_ring": 0, "a_ring": 0}

    def counted(name):
        real = getattr(jets, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(jets, name, counted(name))
    for cached in (phi_map, psi_map):
        cached.cache_clear()
    try:
        assert main(["verify", "phi-psi"]) == 0
    finally:
        for cached in (phi_map, psi_map):
            cached.cache_clear()
    capsys.readouterr()
    assert calls == {"k_ring": 6, "a_ring": 3}
