"""Acceptance criteria, one test per criterion, all checks exact.

Run with `pytest -s tests/test_acceptance.py` to see one line per criterion.
"""

import random
from math import factorial

from queerlab.linalg import add_term
from queerlab.partitions import StrictPartition, enumerate_strict
from queerlab.scalars import ONE


def sp(*parts):
    return StrictPartition(tuple(parts))


def _report(tag, ok, detail=""):
    print("%s %s%s" % (tag, "PASS" if ok else "FAIL", " - " + detail if detail else ""))
    assert ok, "%s failed: %s" % (tag, detail)


def test_ac1_pieri():
    from queerlab.symfunc import GammaElement, gamma_product, pieri

    one = GammaElement.basis(sp(1))
    checked = 0
    for k in range(0, 13):
        for lam in enumerate_strict(k):
            got = gamma_product(one, GammaElement.basis(lam)).terms
            if {mu: int(c) for mu, c in got.items()} != pieri(lam):
                _report("AC-1", False, "mismatch at %r" % lam)
            checked += 1
    _report("AC-1", True, "Pieri rule = Q_1 product for %d strict shapes, |lambda| <= 12" % checked)


def test_ac2_cauchy():
    from queerlab.symfunc import cauchy_check

    rep = cauchy_check(10, 10)
    _report(
        "AC-2",
        rep.ok,
        "Cauchy kernel identity through total degree 10 in 10+10 variables",
    )


def test_ac3_hecke_clifford_ideals():
    from queerlab.heckeclifford import decompose_regular, verify_tensor_ideal_theorem

    expected = {
        1: {sp(1): (2, "Q")},
        2: {sp(2): (8, "Q")},
        3: {sp(3): (32, "Q"), sp(2, 1): (16, "M")},
        4: {sp(4): (128, "Q"), sp(3, 1): (256, "M")},
    }
    for n in range(1, 5):
        table = decompose_regular(n)
        got = {b.label: (b.dim_J, b.type) for b in table.blocks.values()}
        if got != expected[n]:
            _report("AC-3", False, "isotypic table at n=%d: %r" % (n, got))
        if sum(b.dim_J for b in table.blocks.values()) != (1 << n) * factorial(n):
            _report("AC-3", False, "dimension sum at n=%d" % n)
    cases = verify_tensor_ideal_theorem(4)
    bad = [c for c in cases if not c.passed]
    _report(
        "AC-3",
        not bad,
        "isotypic dims exact for n <= 4 and Sigma^m(J^lambda) support = {mu containing lambda} (%d cases)"
        % len(cases),
    )


def test_ac4_main_theorem():
    from oracles import membership_cases_for
    from queerlab.amodule import ideal_summands
    from queerlab.partitions import all_strict_upto, contains

    cands = all_strict_upto(5, 3)
    relation = {}
    bad = []
    for lam in cands:
        reached = ideal_summands(3, 3, lam, 5, relation)
        bad += [(lam, mu) for mu in cands if contains(lam, mu) != (mu in reached)]
        direct = membership_cases_for(3, 3, lam, 5)
        if reached != {c.mu for c in direct if c.observed}:
            _report("AC-4", False, "step closure differs from the direct ideal at %r" % lam)
    _report(
        "AC-4",
        not bad,
        "membership(I^lambda, mu) = (lambda inside mu) over %d pairs at n=m=3, d_max=5, "
        "from %d one-box pairs" % (len(cands) ** 2, sum(len(row) for row in relation.values())),
    )


def test_ac5_determinantal():
    from oracles import determinantal_ideal_check
    from queerlab.amodule import ideal_summands
    from queerlab.partitions import all_strict_upto, staircase

    cands = all_strict_upto(5, 3)
    walked = ideal_summands(3, 3, staircase(1), 5, {})
    ok = walked == {mu for mu in cands if mu.length > 1}
    rep = determinantal_ideal_check(3, 3, 1, 5)
    ok = ok and rep.passed and walked == {c.mu for c in rep.cases if c.observed}
    # boundedness: within truncation, everything outside I^{(2)} has length < 2
    outside = [mu.length for mu in cands if mu not in ideal_summands(3, 3, sp(2), 5, {})]
    ok = ok and max(outside) < 2
    _report(
        "AC-5",
        ok,
        "staircase (2,1) generates exactly {l(mu) >= 2}; l(A/I^(2)) < 2 observed",
    )


def test_ac6_dimension_identity():
    from queerlab.dimcheck import hom_dim_sweep

    cases = hom_dim_sweep(3, 3, 2, 2)
    bad = [c for c in cases if not c.passed]
    _report(
        "AC-6",
        not bad,
        "brute force = sum_gamma 2^{-delta} f f on %d cases, |alpha|,|beta| <= 2, r <= 2"
        % len(cases),
    )


def test_ac7_phi_psi():
    import random as _r

    from oracles import SuperPoly, m_generators, phi_apply
    from queerlab.jets import phi_map, psi_of_phi_on_generators
    from queerlab.spoly import constant_term

    rng = _r.Random(0)
    ok = True
    for n in (1, 2, 3):
        ring, _ = phi_map(n, 4)
        gens = []
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                gens.append(SuperPoly.x(n, n, i, j))
                gens.append(SuperPoly.y(n, n, i, j))
        for _ in range(10):
            p = rng.choice(gens) * rng.choice(gens)
            q = rng.choice(gens) * rng.choice(gens)
            ok = ok and phi_apply(n, 4, (p * q).terms) == ring.mul(
                phi_apply(n, 4, p.terms), phi_apply(n, 4, q.terms)
            )
        ok = ok and all(
            constant_term(phi_apply(n, 4, g.terms), ring.n_even).is_zero()
            for g in m_generators(n)
        )
        ok = ok and all(
            got == want for _, got, want in psi_of_phi_on_generators(n, 3)
        )
    _report(
        "AC-7",
        ok,
        "phi multiplicative, phi(m) vanishes at identity, psi(phi(g)) = g for n <= 3",
    )


def test_ac8_structural_suites():
    rng = random.Random(1)
    ok = True
    notes = []

    # transpose anti-automorphism, n <= 4
    from oracles import HCElement, transpose
    from queerlab.heckeclifford import all_words

    words = all_words(4)
    for _ in range(40):
        w1, w2 = rng.choice(words), rng.choice(words)
        x = HCElement(4, {w1: ONE})
        y = HCElement(4, {w2: ONE})
        sign = (-1) ** ((w1[0].bit_count() & 1) * (w2[0].bit_count() & 1))
        ok = ok and transpose(x * y) == (transpose(y) * transpose(x)).scale(sign)
    notes.append("transpose")

    # iota homomorphism and transpose compatibility on generators
    from oracles import generators, hc_unit, iota

    for m, n in [(1, 2), (2, 2)]:
        for f in generators(m) + [hc_unit(m)]:
            for g in generators(n) + [hc_unit(n)]:
                ok = ok and transpose(iota(m, n, f, g)) == iota(
                    m, n, transpose(f), transpose(g)
                )
    notes.append("iota")

    # bracket relations of the representations in play, on every ordered
    # pair of basis elements of q_2, every basis vector of the degree-2
    # weight-((1,1),(1,1)) piece of A(2,2) and every basis vector of V^(x)3
    from oracles import QnElement, SuperPoly, act, bracket, q_act_tensor
    from queerlab.amodule import weight_space_monomials
    from queerlab.queer import tensor_basis

    def q_basis(k):
        cells = [(i, j) for i in range(1, k + 1) for j in range(1, k + 1)]
        return [QnElement.X(k, i, j) for i, j in cells] + [QnElement.Y(k, i, j) for i, j in cells]

    monos = weight_space_monomials(2, 2, 2, ((1, 1), (1, 1)))
    labels = tensor_basis(2, 3)
    for x in q_basis(2):
        for y in q_basis(2):
            sign = (-1) ** (x.parity() * y.parity())
            xy = bracket(x, y)
            for side in ("left", "right"):
                for mono in monos:
                    p = SuperPoly(2, 2, {mono: ONE})
                    lhs = act(side, xy, p)
                    rhs = act(side, x, act(side, y, p)) - act(side, y, act(side, x, p)).scale(sign)
                    ok = ok and lhs == rhs
            for lab in labels:
                lhs2 = q_act_tensor(xy, {lab: ONE})
                rhs2 = q_act_tensor(x, q_act_tensor(y, {lab: ONE}))
                for kk, c in q_act_tensor(y, q_act_tensor(x, {lab: ONE})).items():
                    add_term(rhs2, kk, -c if sign == 1 else c)
                ok = ok and lhs2 == rhs2
    notes.append("brackets on q_2 x q_2")

    # h-stability of the maximal ideal up to n = 4
    from oracles import m_stability_check

    for k in range(1, 5):
        ok = ok and m_stability_check(k).passed
    notes.append("m-stability n<=4")

    # h (+) k reconstruction on every pair of basis elements of q_k, k <= 3;
    # hk_decompose is linear, so the pairs of basis elements cover q_k x q_k
    from oracles import chevalley_inverse, hk_decompose

    pairs = 0
    for k in range(1, 4):
        for a in q_basis(k):
            for b in q_basis(k):
                c, (d, e) = hk_decompose(a, b)
                ok = ok and (c + d == a) and (chevalley_inverse(c) + e == b)
                ok = ok and all(i <= j for (i, j) in list(d.xmat) + list(d.ymat))
                ok = ok and all(i < j for (i, j) in list(e.xmat) + list(e.ymat))
                pairs += 1
    notes.append("h+k on %d basis pairs" % pairs)

    # Q-polynomials against the shifted-tableau oracle through size 6
    from oracles import dominant, tableau_oracle_Q
    from queerlab.symfunc import Q_poly

    # the full oracle is symmetric and its dominant coefficients are the
    # table, which together pin the whole polynomial
    for size in range(0, 7):
        for lam in enumerate_strict(size):
            full = tableau_oracle_Q(lam, 6)
            ok = ok and full.is_symmetric() and dominant(full) == Q_poly(lam, 6)
    notes.append("Q oracle <=6")

    _report("AC-8", ok, ", ".join(notes))
