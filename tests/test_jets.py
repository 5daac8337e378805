import json
import random

import pytest

from oracles import SuperPoly, _a_generators, m_generators, phi_apply
from queerlab import jets
from queerlab.jets import (
    JetInversionError,
    a_ring,
    k_ring,
    phi_map,
    psi_map,
    psi_of_phi_on_generators,
)
from queerlab.cli import _parities_hold, main
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
    # the generators as `spoly` dicts, and their products, against the
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
    # n = 1..3 at jet order 4 (phi's parities) and 3 (psi o phi): six phi
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


@pytest.mark.parametrize(
    "name, key, term, field",
    [
        # a_13 a_12 in phi(y_32) makes phi(y_32)^2 nonzero, so phi is no longer
        # a homomorphism; a product of generators without y_32 does not see it
        (
            "phi_map",
            ("y", 3, 2),
            lambda ring: ring.mul(ring.even_var(("a", 1, 3)), ring.even_var(("a", 1, 2))),
            "phi_multiplicative",
        ),
        # an even term in psi(b_11): psi is no longer a homomorphism, so
        # psi o phi = id on the generators would not carry over to all of A
        ("psi_map", ("b", 1, 1), lambda ring: ring.even_var(("xbar", 1, 2)), "psi_phi_identity"),
    ],
    ids=["phi", "psi"],
)
def test_a_wrong_parity_image_fails_the_check(name, key, term, field, monkeypatch, capsys):
    real = getattr(jets, name)

    def patched(n, order):
        ring, images = real(n, order)
        if n == 3:
            images = dict(images)  # the cached map stays as built
            images[key] = ring.add(images[key], term(ring))
        return ring, images

    assert _parities_hold(real(3, 3)[1])
    monkeypatch.setattr(jets, name, patched)
    assert not _parities_hold(patched(3, 3)[1])
    assert main(["verify", "phi-psi", "--seed", "1", "--format", "json"]) == 1
    cases = json.loads(capsys.readouterr().out)["cases"]
    assert [c[field] for c in cases] == [True, True, False]
