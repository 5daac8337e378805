import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from queerlab.partitions import (
    EMPTY,
    StrictPartition,
    add_box_candidates,
    all_strict_upto,
    contains,
    delta,
    enumerate_partitions,
    enumerate_strict,
    l_max,
    staircase,
)


def sp(*parts):
    return StrictPartition(tuple(parts))


def test_validation():
    with pytest.raises(ValueError):
        sp(2, 2)
    with pytest.raises(ValueError):
        sp(1, 2)
    with pytest.raises(ValueError):
        sp(0)
    with pytest.raises(ValueError):
        sp(3, -1)


def test_value_semantics():
    # equal, hashed and ordered by parts alone, immutable, and never equal
    # to its parts tuple
    ps = [p for n in range(8) for p in enumerate_strict(n)]
    for p in ps:
        q = StrictPartition(p.parts)
        assert p == q and p is not q and not p != q
        assert hash(p) == hash(q) == hash((p.parts,))
        assert p != p.parts and p.parts != p
        assert {p: 1}[q] == 1
    assert [p.parts for p in sorted(ps)] == sorted(p.parts for p in ps)
    assert [p.parts for p in sorted(ps, reverse=True)] == sorted((p.parts for p in ps), reverse=True)
    assert sp(2, 1) < sp(3) <= sp(3) and sp(3) > sp(2, 1) >= sp(2, 1)
    with pytest.raises(TypeError):
        sp(2) < (3,)
    assert StrictPartition() == EMPTY and StrictPartition([2, 1]).parts == (2, 1)
    with pytest.raises(AttributeError):
        sp(2).parts = (3,)
    with pytest.raises(AttributeError):
        sp(2).other = 1
    with pytest.raises(AttributeError):
        del sp(2).parts


def test_pickle_and_copy_round_trip():
    for p in (EMPTY, sp(1), sp(4, 2, 1)):
        for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p)):
            assert q == p and hash(q) == hash(p) and type(q) is StrictPartition


def test_delta():
    assert delta(sp(2, 1)) == 0
    assert delta(sp(3)) == 1
    assert delta(EMPTY) == 0


def test_contains_examples():
    assert contains(sp(2), sp(2, 1))
    assert not contains(sp(2), sp(1))
    assert contains(sp(3, 1), sp(4, 1))


def test_enumerate_strict():
    assert [p.parts for p in enumerate_strict(4)] == [(4,), (3, 1)]
    assert [p.parts for p in enumerate_strict(0)] == [()]
    assert [p.parts for p in enumerate_strict(6)] == [(6,), (5, 1), (4, 2), (3, 2, 1)]


def test_enumerate_partitions():
    assert enumerate_partitions(0) == [()]
    assert enumerate_partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert [len(enumerate_partitions(n)) for n in range(10)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]


def test_staircase():
    assert staircase(0).parts == (1,)
    assert staircase(1).parts == (2, 1)
    assert staircase(2).parts == (3, 2, 1)


def test_l_max_is_longest_strict_length():
    assert [l_max(d) for d in range(0, 11)] == [0, 1, 1, 2, 2, 2, 3, 3, 3, 3, 4]
    for d in range(0, 13):
        longest = max(p.length for k in range(d + 1) for p in enumerate_strict(k))
        assert l_max(d) == longest


def test_partial_order_axioms_up_to_8():
    univ = all_strict_upto(8)
    for lam in univ:
        assert contains(lam, lam)
    pairs = [(a, b) for a in univ for b in univ if contains(a, b)]
    for a, b in pairs:
        if contains(b, a):
            assert a == b
    below = {}
    for a, b in pairs:
        below.setdefault(b, []).append(a)
    for b, c in pairs:
        for a in below[b]:
            assert contains(a, c)


def test_staircase_boundedness():
    # every strict mu with l(mu) >= k contains the staircase with top part k,
    # and hence any lambda with lambda_1 = k; exhaustive for k <= 4, |mu| <= 12
    univ = all_strict_upto(12)
    for k in range(1, 5):
        lam_star = staircase(k - 1)
        for mu in univ:
            if mu.length >= k:
                assert contains(lam_star, mu)
        for lam in all_strict_upto(10):
            if lam.parts and lam.parts[0] == k:
                for mu in univ:
                    if mu.length >= k:
                        assert contains(lam, mu)


def test_box_moves():
    assert {p.parts for p in add_box_candidates(sp(2))} == {(3,), (2, 1)}
    assert {p.parts for p in add_box_candidates(EMPTY)} == {(1,)}
    assert {p.parts for p in add_box_candidates(sp(3, 1))} == {(4, 1), (3, 2)}


@given(st.integers(0, 10))
@settings(deadline=None)
def test_serialization_roundtrip(n):
    for p in enumerate_strict(n):
        assert StrictPartition.parse(p.serialize()) == p
    assert StrictPartition.parse("") == EMPTY
    assert EMPTY.serialize() == ""
