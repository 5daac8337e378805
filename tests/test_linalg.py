import random
from fractions import Fraction

from queerlab.linalg import Echelon, add_term, kernel_basis, span, vec_axpy
from queerlab.scalars import Cyclo8Scalar, ONE, ZETA


def s(k):
    return Cyclo8Scalar.from_int(k)


def test_insert_and_rank():
    ech = Echelon()
    assert ech.insert({0: ONE, 1: s(2)})
    assert not ech.insert({0: s(3), 1: s(6)})
    assert ech.insert({1: ONE})
    assert ech.rank == 2
    assert ech.contains({0: s(7), 1: s(-4)})


def test_reduce_is_zero_on_members():
    ech = Echelon()
    ech.insert({0: ONE, 2: ZETA})
    ech.insert({1: s(2), 2: ONE})
    v = vec_axpy({0: s(3), 2: s(3) * ZETA}, s(5), {1: s(2), 2: ONE})
    assert ech.contains(v)
    assert not ech.contains({0: ONE})


def test_reduced_form_pivots_unique():
    rng = random.Random(1)
    ech = Echelon()
    for _ in range(24):
        vec = {k: s(rng.randint(-4, 4)) for k in range(8)}
        vec = {k: c for k, c in vec.items() if not c.is_zero()}
        ech.insert(vec)
    pivots = set(ech.rows)
    for p, row in ech.rows.items():
        assert row[p] == ONE
        for other in pivots - {p}:
            assert other not in row


def test_kernel_basis():
    # x0 + x1 = 0, x1 - x2 = 0 in 3 unknowns: kernel dim 1
    rows = [{0: ONE, 1: ONE}, {1: ONE, 2: s(-1)}]
    basis = kernel_basis(rows, [0, 1, 2])
    assert len(basis) == 1
    vec = basis[0]
    for row in rows:
        acc = Cyclo8Scalar()
        for k, c in row.items():
            acc = acc + c * vec.get(k, Cyclo8Scalar())
        assert acc.is_zero()


def test_kernel_full_and_empty():
    assert len(kernel_basis([], [0, 1])) == 2
    rows = [{0: ONE}, {1: ONE}]
    assert kernel_basis(rows, [0, 1]) == []


def test_span_contains_space():
    a = span([{0: ONE}, {1: ONE}])
    b = span([{0: s(2), 1: s(3)}])
    assert a.contains_space(b)
    assert not b.contains_space(a)


def test_add_term_drops_a_zero_sum():
    for one in (1, Fraction(1), ONE, ZETA):
        vec = {}
        add_term(vec, "a", one)
        add_term(vec, "b", one)
        add_term(vec, "a", one)
        assert vec == {"a": one + one, "b": one}
        add_term(vec, "b", -one)
        assert vec == {"a": one + one}
        add_term(vec, "c", one - one)  # a zero term never enters
        assert vec == {"a": one + one}
        add_term(vec, "a", -(one + one))
        assert vec == {}
