import itertools
import random
from collections import Counter
from math import factorial

import pytest

from oracles import (
    GaussianEchelon,
    HCElement,
    QnElement,
    USpace,
    act_on_U,
    act_on_V,
    bracket,
    chevalley,
    chevalley_inverse,
    dim_T_by_echelon,
    hc_apply,
    hk_decompose,
    numerators,
    pairs,
    q_act_tensor,
    sym_image,
    sym_label,
    sym_terms,
    tensor_basis,
    tensor_image,
    x_prime,
    y_prime,
)
from queerlab.heckeclifford import all_words
from queerlab.partitions import StrictPartition, delta, enumerate_strict
from queerlab.queer import ActionError, dim_T
from queerlab.scalars import Cyclo8Scalar, ONE, ZETA
from queerlab.symfunc import Q_poly

rng = random.Random(5)


def sp(*parts):
    return StrictPartition(tuple(parts))


def rand_q(n):
    e = QnElement(n)
    for _ in range(3):
        i, j = rng.randint(1, n), rng.randint(1, n)
        c = rng.randint(-2, 2)
        if rng.random() < 0.5:
            e = e + QnElement.X(n, i, j).scale(c)
        else:
            e = e + QnElement.Y(n, i, j).scale(c)
    return e


def rand_homog(n):
    e = QnElement(n)
    kind = rng.random() < 0.5
    for _ in range(3):
        i, j = rng.randint(1, n), rng.randint(1, n)
        c = rng.randint(-2, 2)
        e = e + (QnElement.X(n, i, j) if kind else QnElement.Y(n, i, j)).scale(c)
    return e


def test_bracket_examples():
    n = 2
    assert bracket(QnElement.X(n, 1, 2), QnElement.X(n, 2, 1)) == (
        QnElement.X(n, 1, 1) - QnElement.X(n, 2, 2)
    )
    assert bracket(QnElement.Y(n, 1, 1), QnElement.Y(n, 1, 1)) == QnElement.X(
        n, 1, 1
    ).scale(-2)
    assert bracket(QnElement.X(n, 1, 1), QnElement.Y(n, 1, 2)) == QnElement.Y(n, 1, 2)


def test_bracket_super_antisymmetry_and_jacobi():
    n = 3
    for _ in range(25):
        x, y, z = rand_homog(n), rand_homog(n), rand_homog(n)
        px = x.parity() or 0
        py = y.parity() or 0
        pz = z.parity() or 0
        assert bracket(x, y) == bracket(y, x).scale(-((-1) ** (px * py)))
        lhs = bracket(x, bracket(y, z))
        mid = bracket(bracket(x, y), z)
        rhs = bracket(y, bracket(x, z)).scale((-1) ** (px * py))
        assert lhs == mid + rhs  # super-Jacobi in Leibniz form


def test_chevalley():
    n = 2
    assert chevalley(QnElement.X(n, 1, 2)) == QnElement.X(n, 2, 1).scale(-1)
    x = rand_q(n)
    t2 = chevalley(chevalley(x))
    assert t2 == QnElement(n, x.xmat, {k: -c for k, c in x.ymat.items()})
    assert chevalley(chevalley(t2)) == x
    assert chevalley(chevalley_inverse(x)) == x
    for _ in range(20):
        a, b = rand_q(n), rand_q(n)
        assert chevalley(bracket(a, b)) == bracket(chevalley(a), chevalley(b))


def test_act_on_V_table():
    n = 2
    assert act_on_V(QnElement.X(n, 1, 2), {("e", 2): ONE}) == {("e", 1): ONE}
    assert act_on_V(QnElement.X(n, 1, 2), {("f", 2): ONE}) == {("f", 1): ONE}
    assert act_on_V(QnElement.Y(n, 1, 2), {("e", 2): ONE}) == {("f", 1): -ONE}
    assert act_on_V(QnElement.Y(n, 1, 2), {("f", 2): ONE}) == {("e", 1): ONE}


def _zeta_power(k: int) -> Cyclo8Scalar:
    out = ONE
    for _ in range(k % 4):
        out = out * ZETA
    return out


def _f_count(lab) -> int:
    return sum(1 for s in lab if s[0] == "f")


def test_tensor_image_matches_q_act_tensor():
    # the keyed action on tensor labels against the QnElement oracle, for
    # every basis operator X_ab, Y_ab: at square = -1 the oracle's own form,
    # and at square = 1 the form of X_ab and zeta Y_ab in the basis e_i,
    # f_i / zeta, where a label with k f letters is zeta^-k times the
    # oracle's, and every coefficient must come out real
    for n in (1, 2, 3):
        cells = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
        for d in range(3):
            for lab in tensor_basis(n, d):
                for a, b in cells:
                    for kind, g in (("X", QnElement.X(n, a, b)), ("Y", QnElement.Y(n, a, b))):
                        want = numerators(q_act_tensor(g, {lab: ONE}))
                        assert pairs(tensor_image((kind, a, b), lab, -1)) == want, (kind, a, b, lab)
                        g = g.scale(ZETA) if kind == "Y" else g
                        image = q_act_tensor(g, {lab: _zeta_power(-_f_count(lab))})
                        want = numerators({u: c * _zeta_power(_f_count(u)) for u, c in image.items()})
                        assert pairs(tensor_image((kind, a, b), lab, 1)) == want, (kind, a, b, lab)


@pytest.mark.parametrize("square", [1, -1])
def test_an_odd_cartan_element_squares_to_square_times_x_aa(square):
    # Y_aa^2 = square * X_aa on V^{(x)d} and on S^dV, d <= 2: +X_aa in the
    # left form, -X_aa in the right one; in the sum over slots the cross
    # terms cancel by their Koszul signs
    def twice(image, lab):
        out = Counter()
        for u, c in image(lab):
            for v, x in image(u):
                out[v] += c * x
        return {v: c for v, c in out.items() if c}

    for n in (1, 2, 3):
        for a in range(1, n + 1):
            y, x = ("Y", a, a), ("X", a, a)
            for lab in (lab for d in range(3) for lab in tensor_basis(n, d)):
                got = twice(lambda t: tensor_image(y, t, square).items(), lab)
                assert got == {u: square * c for u, c in tensor_image(x, lab, square).items()}, (n, a, lab)
                if sym_label(lab):
                    got = twice(lambda t: sym_image(y, t, square), lab)
                    assert got == {u: square * c for u, c in sym_image(x, lab, square)}, (n, a, lab)


def test_sym_image_reads_the_image_of_the_symmetric_vector():
    # the image of each basis vector of S^dV, d <= 2, expanded into tensor
    # terms, is super-symmetric, and sym_image is its coordinates at the
    # symmetric labels, in both forms
    for n in (1, 2, 3):
        labs = [lab for d in range(3) for lab in tensor_basis(n, d) if sym_label(lab)]
        assert len(labs) == 1 + 2 * n + 2 * n * n
        ops = [(kind, a, b) for kind in "XY" for a in range(1, n + 1) for b in range(1, n + 1)]
        for lab, op, square in itertools.product(labs, ops, (1, -1)):
            full = Counter()
            for t, sign in sym_terms(lab):
                for u, c in tensor_image(op, t, square).items():
                    full[u] += sign * c
            full = {u: c for u, c in full.items() if c}
            for u, c in full.items():
                if len(u) == 2:
                    assert full.get(u[::-1], 0) == (-c if u[0][0] == u[1][0] == "f" else c), (op, lab, u)
            want = {u: c for u, c in full.items() if sym_label(u)}
            assert dict(sym_image(op, lab, square)) == want, (op, lab, square)


def test_act_on_U_left_X():
    assert act_on_U("left", QnElement.X(2, 1, 2), {("v", 2, 1): ONE}, 2, 2) == {
        ("v", 1, 1): ONE
    }


def _h_act(pair, u, n):
    gl, gr = pair
    out = dict(act_on_U("left", gl, u, n, n))
    for k, c in act_on_U("right", gr, u, n, n).items():
        s = out.get(k, Cyclo8Scalar()) + c
        if s.is_zero():
            out.pop(k, None)
        else:
            out[k] = s
    return out


def test_h_combination_tables():
    # X'_ij v_kl = d_jk v_il - d_il v_kj and the Y' variants
    n = 2
    assert _h_act(x_prime(n, 1, 2), {("v", 2, 1): ONE}, n) == {
        ("v", 1, 1): ONE,
        ("v", 2, 2): -ONE,
    }
    assert _h_act(y_prime(n, 1, 2), {("w", 2, 1): ONE}, n) == {
        ("v", 1, 1): -ZETA,
        ("v", 2, 2): ZETA,
    }
    assert _h_act(y_prime(n, 1, 2), {("v", 2, 1): ONE}, n) == {
        ("w", 1, 1): -ZETA,
        ("w", 2, 2): -ZETA,
    }
    assert _h_act(x_prime(n, 1, 2), {("w", 2, 1): ONE}, n) == {
        ("w", 1, 1): ONE,
        ("w", 2, 2): -ONE,
    }


def test_act_on_U_stays_in_span():
    # images of basis vectors under every generator stay inside U
    n = m = 2
    us = USpace(n, m)
    for lab in us.labels():
        for i in range(1, 3):
            for j in range(1, 3):
                for g in (QnElement.X(2, i, j), QnElement.Y(2, i, j)):
                    act_on_U("left", g, {lab: ONE}, n, m)
                    act_on_U("right", g, {lab: ONE}, n, m)


def test_from_ambient_rejects_outside_U():
    us = USpace(1, 1)
    with pytest.raises(ActionError):
        us.from_ambient({(("e", 1), ("e", 1)): ONE})


def _alpha(label):
    """alpha(e_i) = f_i, alpha(f_i) = e_i: the odd structure map of V."""
    kind, i = label
    return ("f" if kind == "e" else "e", i)


def _alpha_alpha(vec):
    """alpha (x) alpha on V (x) W under the Koszul sign
    (f (x) g)(v (x) w) = (-1)^{|g||v|} f(v) (x) g(w): an odd v gives -1."""
    return {(_alpha(a), _alpha(b)): -c if a[0] == "f" else c for (a, b), c in vec.items()}


def _alpha_one(vec):
    """alpha (x) 1: the identity is even, so no sign."""
    return {(_alpha(a), b): c for (a, b), c in vec.items()}


def _ambient_basis(n, m):
    return [
        ((k1, i), (k2, j))
        for k1 in "ef"
        for i in range(1, n + 1)
        for k2 in "ef"
        for j in range(1, m + 1)
    ]


def test_U_basis_is_zeta_eigenspace_of_alpha_tensor_alpha():
    for n, m in [(1, 1), (1, 2), (2, 2)]:
        # (alpha (x) alpha)^2 = -1, so its eigenvalues are zeta and -zeta
        for key in _ambient_basis(n, m):
            assert _alpha_alpha(_alpha_alpha({key: ONE})) == {key: -ONE}
        us = USpace(n, m)
        for lab in us.labels():
            vec = us.to_ambient({lab: ONE})
            assert _alpha_alpha(vec) == {k: ZETA * c for k, c in vec.items()}


def test_alpha_tensor_one_maps_U_to_minus_zeta_eigenspace():
    for n, m in [(1, 1), (1, 2), (2, 2)]:
        us = USpace(n, m)
        for lab in us.labels():
            img = _alpha_one(us.to_ambient({lab: ONE}))
            assert _alpha_alpha(img) == {k: -(ZETA * c) for k, c in img.items()}


def test_U_has_nm_even_and_nm_odd_basis_vectors():
    # with the two tests above: alpha (x) 1 is invertible, so the -zeta
    # eigenspace is as large as the zeta one, and 2nm independent vectors
    # in the zeta eigenspace of the 4nm-dimensional V (x) W span all of it
    for n, m in [(1, 1), (1, 2), (2, 2)]:
        us = USpace(n, m)
        labels = list(us.labels())
        parities = [us.parity(lab) for lab in labels]
        assert parities.count(0) == parities.count(1) == n * m
        ech = GaussianEchelon()
        for lab, p in zip(labels, parities):
            vec = us.to_ambient({lab: ONE})
            assert {(a[0] == "f") ^ (b[0] == "f") for a, b in vec} == {bool(p)}
            assert ech.insert(numerators(vec))
        assert ech.rank == 2 * n * m == len(_ambient_basis(n, m)) // 2


def test_U_action_satisfies_bracket():
    n = m = 2
    for side, rank in (("left", n), ("right", m)):
        for _ in range(15):
            x, y = rand_homog(rank), rand_homog(rank)
            px = x.parity() or 0
            py = y.parity() or 0
            u = {rng.choice(list(USpace(n, m).labels())): ONE}
            lhs = act_on_U(side, bracket(x, y), u, n, m)
            a = act_on_U(side, x, act_on_U(side, y, u, n, m), n, m)
            b = act_on_U(side, y, act_on_U(side, x, u, n, m), n, m)
            rhs = dict(a)
            sign = (-1) ** (px * py)
            for k, c in b.items():
                s = rhs.get(k, Cyclo8Scalar()) - c * sign
                if s.is_zero():
                    rhs.pop(k, None)
                else:
                    rhs[k] = s
            assert lhs == rhs


def test_tensor_action_satisfies_bracket():
    for n, d in [(1, 2), (2, 2), (2, 3)]:
        basis = tensor_basis(n, d)
        for _ in range(10):
            x, y = rand_homog(n), rand_homog(n)
            px = x.parity() or 0
            py = y.parity() or 0
            lab = rng.choice(basis)
            u = {lab: ONE}
            lhs = q_act_tensor(bracket(x, y), u)
            a = q_act_tensor(x, q_act_tensor(y, u))
            b = q_act_tensor(y, q_act_tensor(x, u))
            sign = (-1) ** (px * py)
            rhs = dict(a)
            for k, c in b.items():
                s = rhs.get(k, Cyclo8Scalar()) - c * sign
                if s.is_zero():
                    rhs.pop(k, None)
                else:
                    rhs[k] = s
            assert lhs == rhs


def test_sergeev_commutation():
    # H_d action supercommutes with the diagonal q_n action
    for n, d in [(1, 2), (2, 2), (2, 3)]:
        words = all_words(d)
        basis = tensor_basis(n, d)
        for _ in range(12):
            w = rng.choice(words)
            xh = HCElement(d, {w: ONE})
            pw = w[0].bit_count() & 1
            g = rand_homog(n)
            pg = g.parity() or 0
            lab = rng.choice(basis)
            a = q_act_tensor(g, hc_apply(xh, lab))
            b = {}
            for l2, c in q_act_tensor(g, {lab: ONE}).items():
                for l3, c2 in hc_apply(xh, l2).items():
                    s = b.get(l3, Cyclo8Scalar()) + c * c2
                    if s.is_zero():
                        b.pop(l3, None)
                    else:
                        b[l3] = s
            sign = (-1) ** (pw * pg)
            assert a == {k: c if sign == 1 else -c for k, c in b.items()}


def test_hk_decompose_examples():
    g1 = QnElement(1)
    g2 = QnElement(1, {(1, 1): ONE}, {})
    c, (d, e) = hk_decompose(g1, g2)
    assert c.xmat == {(1, 1): -ONE} and not c.ymat
    assert d.xmat == {(1, 1): ONE} and e.is_zero()


def test_hk_decompose_reconstruction_200():
    for n in (1, 2, 3):
        for _ in range(67):
            a, b = rand_q(n), rand_q(n)
            c, (d, e) = hk_decompose(a, b)
            # d upper triangular, e strictly upper
            assert all(i <= j for (i, j) in d.xmat) and all(
                i <= j for (i, j) in d.ymat
            )
            assert all(i < j for (i, j) in e.xmat) and all(
                i < j for (i, j) in e.ymat
            )
            assert c + d == a
            assert chevalley_inverse(c) + e == b


def test_hk_decompose_h_element_fixed():
    # decomposing an h-element returns itself with zero k-part
    for _ in range(10):
        c0 = rand_q(2)
        c, (d, e) = hk_decompose(c0, chevalley_inverse(c0))
        assert c == c0 and d.is_zero() and e.is_zero()


def test_dim_T_examples():
    assert dim_T(sp(1), 1) == 2
    assert dim_T(sp(1), 3) == 6
    assert dim_T(sp(2, 1), 1) == 0
    assert dim_T(sp(2), 1) == 2


@pytest.mark.parametrize("n, d", [(1, 4), (2, 4), (3, 3)])
def test_dim_T_trace_matches_echelon_rank(n, d):
    for size in range(d + 1):
        for lam in enumerate_strict(size):
            assert dim_T(lam, n) == dim_T_by_echelon(lam, n), (lam, n)


def test_dim_T_is_Q_lambda_at_ones():
    # dim T_{lambda,n} = Q_lambda(1^n) / 2^((l(lambda) - delta(lambda))/2),
    # read off Gamma, which shares no code with H_n; Q_lambda(1^n) sums each
    # coefficient of the dominant table times the orderings of its key. At
    # |lambda| = 15 the Casimir no longer tells the blocks apart
    cases = [(lam, n) for n in range(1, 6) for size in range(8) for lam in enumerate_strict(size)]
    for lam, n in cases + [(lam, 3) for lam in enumerate_strict(15)]:
        total = 0
        for alpha, c in Q_poly(lam, n).items():
            orderings = factorial(n) // factorial(n - len(alpha))
            for k in Counter(alpha).values():
                orderings //= factorial(k)
            total += c * orderings
        assert total == dim_T(lam, n) * 2 ** ((lam.length - delta(lam)) // 2), (lam, n)
        assert (total == 0) == (lam.length > n)


def test_cauchy_dimension_identity():
    from math import comb

    def dimA(n, m, d):
        return sum(
            comb(n * m, k) * comb(n * m + (d - k) - 1, d - k)
            for k in range(0, min(d, n * m) + 1)
        )

    for n, m in [(1, 1), (1, 2), (2, 2)]:
        for d in range(0, 5):
            rhs = 0
            for lam in enumerate_strict(d):
                term = dim_T(lam, n) * dim_T(lam, m)
                assert term % (2 ** delta(lam)) == 0
                rhs += term // (2 ** delta(lam))
            assert dimA(n, m, d) == rhs
