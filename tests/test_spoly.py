import random
from itertools import permutations

from oracles import p_truncate
from queerlab.scalars import Cyclo8Scalar, ONE
from queerlab.spoly import (
    insert_odd,
    merge_odd,
    p_add,
    p_mul,
    p_scale,
)

rng = random.Random(6)


def bubble_sign(seq):
    """Sign of sorting a sequence of distinct odd indices, one swap at a time."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return tuple(seq), sign


def test_merge_odd_against_bubble_sort():
    pool = list(range(6))
    for _ in range(200):
        k1 = rng.randint(0, 3)
        k2 = rng.randint(0, 3)
        o1 = tuple(sorted(rng.sample(pool, k1)))
        o2 = tuple(sorted(rng.sample(pool, k2)))
        got = merge_odd(o1, o2)
        if set(o1) & set(o2):
            assert got is None
            continue
        want = bubble_sign(o1 + o2)
        assert got == want, (o1, o2)


def test_insert_odd_against_bubble_sort():
    for perm in permutations(range(4), 3):
        o = tuple(sorted(perm[:2]))
        v = perm[2]
        for pos in range(len(o) + 1):
            got = insert_odd(o, v, pos)
            seq = list(o)
            seq.insert(pos, v)
            want = bubble_sign(seq)
            assert got == (want[0], want[1]), (o, v, pos)
        assert insert_odd(o, o[0], 0) is None


def _rand_poly(n_even, n_odd, trunc):
    out = {}
    for _ in range(4):
        e = tuple(rng.randint(0, 2) for _ in range(n_even))
        o = tuple(sorted(rng.sample(range(n_odd), rng.randint(0, 2))))
        c = Cyclo8Scalar.from_int(rng.randint(-3, 3))
        if not c.is_zero():
            out[(e, o)] = c
    return out


def test_p_mul_associative_and_supercommutative():
    for _ in range(25):
        a = _rand_poly(2, 3, None)
        b = _rand_poly(2, 3, None)
        c = _rand_poly(2, 3, None)
        assert p_mul(p_mul(a, b), c) == p_mul(a, p_mul(b, c))
    # homogeneous supercommutativity: x y = (-1)^{|x||y|} y x
    for _ in range(50):
        e0 = (0, 0)
        o1 = tuple(sorted(rng.sample(range(4), rng.randint(0, 2))))
        o2 = tuple(sorted(rng.sample(range(4), rng.randint(0, 2))))
        x = {(e0, o1): ONE}
        y = {(e0, o2): ONE}
        sign = (-1) ** (len(o1) * len(o2))
        assert p_mul(x, y) == p_scale(p_mul(y, x), sign)


def test_odd_square_zero_and_truncation():
    x = {((0,), (0,)): ONE}
    assert p_mul(x, x) == {}
    e = {((1,), ()): ONE}
    assert p_mul(e, e, trunc=1) == {}
    assert p_add(e, p_scale(e, -1)) == {}


def test_truncated_p_mul_is_the_truncated_product():
    for _ in range(60):
        a = _rand_poly(3, 3, None)
        b = _rand_poly(3, 3, None)
        for t in range(0, 9):
            got = p_mul(a, b, t)
            want = p_truncate(p_mul(a, b), t)
            # same terms in the same order
            assert list(got.items()) == list(want.items()), t
