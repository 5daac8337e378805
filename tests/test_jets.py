import ast
import inspect
import json
import os
import random
import textwrap

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
from queerlab.scalars import ONE, ZETA
from queerlab.spoly import p_add, p_mul, p_scale

rng = random.Random(2)


def test_phi_base_formulas():
    ring, phi = phi_map(1, 4)
    assert phi[("x", 1, 1)] == p_add(ring.one(), ring.even_var(("abar", 1, 1)))
    assert phi[("y", 1, 1)] == p_scale(ring.odd_var(("b", 1, 1)), -ZETA)


def test_phi_general_formula_n2():
    ring, phi = phi_map(2, 4)
    # phi(x_22) = a_12 a'_12 + zeta b_12 b'_12 + a_22 a'_22 + zeta b_22 b'_22
    #           = a_12 a'_12 + zeta b_12 b'_12 + (1 + abar_22)
    want = ring.mul(ring.even_var(("a", 1, 2)), ring.even_var(("ap", 1, 2)))
    want = p_add(
        want,
        p_scale(
            ring.mul(ring.odd_var(("b", 1, 2)), ring.odd_var(("bp", 1, 2))), ZETA
        ),
    )
    want = p_add(want, p_add(ring.one(), ring.even_var(("abar", 2, 2))))
    assert phi[("x", 2, 2)] == want


def test_phi_vanishes_at_identity_on_m_generators():
    for n in (1, 2, 3):
        ring, _ = phi_map(n, 3)
        for g in m_generators(n):
            assert ring.constant(phi_apply(n, 3, g.terms)).is_zero()


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
    assert psi[("a", 1, 1)] == p_add(aring.one(), aring.even_var(("xbar", 1, 1)))
    assert psi[("b", 1, 1)] == p_scale(aring.odd_var(("y", 1, 1)), ZETA)


def test_psi_of_phi_is_identity():
    for n in (1, 2, 3):
        for key, got, want in psi_of_phi_on_generators(n, 3):
            assert got == want, (n, key)


def test_jet_inverse():
    # a constant term other than 1, and an odd part, in both orders
    ring = a_ring(1, 5)
    x, y = ring.even_var(("xbar", 1, 1)), ring.odd_var(("y", 1, 1))
    for c in (ONE, 2 + ZETA):
        p = p_add(p_scale(ring.one(), c), p_add(x, ring.mul(x, y)))
        inv = ring.inverse(p)
        assert ring.mul(p, inv) == ring.mul(inv, p) == ring.one()


def test_jet_with_zero_constant_term_has_no_inverse():
    ring = a_ring(2, 3)
    for p in (
        {},
        ring.even_var(("xbar", 1, 2)),
        p_add(ring.even_var(("xbar", 2, 2)), ring.odd_var(("y", 1, 1))),
    ):
        with pytest.raises(JetInversionError):
            ring.inverse(p)


def test_only_the_jets_import_scalars():
    # Q(zeta) is the jets' alone: every other module of src/ runs on
    # coefficients it does not name. __init__ imports every module, for the
    # benchmark's tracer
    pkg = os.path.dirname(jets.__file__)
    importers = set()
    for f in sorted(os.listdir(pkg)):
        if f.endswith(".py"):
            with open(os.path.join(pkg, f)) as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
                    if any("scalars" in name.split(".") for name in names):
                        importers.add(f[:-3])
    assert importers - {"__init__"} <= {"jets"}, importers


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
    q = p_add(
        ring.odd_var(("b", 1, 1)),
        p_scale(ring.odd_var(("bp", 1, 2)), ZETA),
    )
    assert ring.mul(q, q) == {}


def test_truncation():
    ring = a_ring(1, 2)
    x = ring.even_var(("xbar", 1, 1))
    x2 = ring.mul(x, x)
    assert ring.mul(x2, x) == {}  # order-3 terms are cut


def test_verify_phi_psi_builds_each_map_once_per_order(monkeypatch, capsys):
    # n = 1..3 at the default jet order 3, where phi's parities and psi o phi
    # read one map: three phi maps and three psi maps, however many
    # generators each one is applied to
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
    assert calls == {"k_ring": 3, "a_ring": 3}


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
            images[key] = p_add(images[key], term(ring))
        return ring, images

    assert _parities_hold(real(3, 3)[1])
    monkeypatch.setattr(jets, name, patched)
    assert not _parities_hold(patched(3, 3)[1])
    assert main(["verify", "phi-psi", "--seed", "1", "--format", "json"]) == 1
    cases = json.loads(capsys.readouterr().out)["cases"]
    assert [c[field] for c in cases] == [True, True, False]


def test_a_wrong_sign_in_the_inverse_series_fails_the_check(monkeypatch, capsys):
    # the series of JetRing.inverse with r of the wrong sign sums to the
    # inverse of c (1 + r) = 2c - p; psi then inverts the wrong p^2 from n = 2
    real = jets.JetRing.inverse

    def flipped(ring, p):
        c = ring.constant(p)
        return real(ring, p_add(p_scale(p, -1), p_scale(ring.one(), c + c)))

    monkeypatch.setattr(jets.JetRing, "inverse", flipped)
    psi_map.cache_clear()
    try:
        assert main(["verify", "phi-psi", "--format", "json"]) == 1
    finally:
        psi_map.cache_clear()
    cases = json.loads(capsys.readouterr().out)["cases"]
    assert [c["psi_phi_identity"] for c in cases] == [True, False, False]


@pytest.mark.parametrize(
    "argv",
    [["--jet-order", "2"], ["--jet-order", "3"], ["--jet-order", "5"], ["--n", "4", "--jet-order", "4", "--unsafe"]],
)
def test_a_series_one_power_short_fails_the_check(argv, monkeypatch, capsys):
    # the top term r^order of (p^2)^-1 only ever multiplies jets without a
    # constant term in psi, so truncation drops it and psi o phi = id holds
    # without it; the inverse checks itself against p, and exits 1
    source = textwrap.dedent(inspect.getsource(jets.JetRing.inverse))
    assert source.count("range(self.order)") == 1
    short = {}
    exec(source.replace("range(self.order)", "range(self.order - 1)"), vars(jets), short)
    monkeypatch.setattr(jets.JetRing, "inverse", short["inverse"])
    psi_map.cache_clear()
    try:
        assert main(["verify", "phi-psi"] + argv) == 1
    finally:
        psi_map.cache_clear()
    order = argv[argv.index("--jet-order") + 1]
    err = "check failed in verify phi-psi: JetInversionError: the series is no inverse at order %s\n" % order
    assert capsys.readouterr().err == err
