import random
from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from oracles import contains_space, in_span, scalar_rows
from oracles import kernel_basis_keyed, numerators
from queerlab.linalg import Echelon, add_term, kernel_basis, span
from queerlab.scalars import Cyclo8Scalar, ONE, ZETA


def s(k):
    return Cyclo8Scalar.from_int(k)


# -- oracle: Gauss-Jordan on Cyclo8Scalar entries, every row at pivot 1 -----


def vec_axpy(u: dict, c: Cyclo8Scalar, v: dict) -> dict:
    """u + c*v, dropping zeros."""
    out = dict(u)
    for k, x in v.items():
        add_term(out, k, c * x)
    return out


class OracleEchelon:
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
                add_term(v, kk, nc * x)
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


def test_insert_and_rank():
    ech = Echelon()
    assert ech.insert(numerators({0: ONE, 1: s(2)}))
    assert not ech.insert(numerators({0: s(3), 1: s(6)}))
    assert ech.insert(numerators({1: ONE}))
    assert ech.rank == 2
    assert in_span(ech, numerators({0: s(7), 1: s(-4)}))


def test_reduce_is_zero_on_members():
    ech = Echelon()
    ech.insert(numerators({0: ONE, 2: ZETA}))
    ech.insert(numerators({1: s(2), 2: ONE}))
    v = {0: s(3), 2: s(3) * ZETA}
    for k, c in {1: s(2), 2: ONE}.items():
        add_term(v, k, s(5) * c)
    assert in_span(ech, numerators(v))
    assert not in_span(ech, numerators({0: ONE}))


def test_reduced_form_pivots_unique():
    rng = random.Random(1)
    integral = lambda: s(rng.randint(-4, 4))
    # denominators and zeta parts, so the integer rows carry d > 1 and
    # non-real pivots before they are made real
    gaussian = lambda: Cyclo8Scalar(rng.randint(-4, 4), rng.randint(-2, 2), rng.randint(1, 6))
    for entry in (integral, gaussian):
        ech = Echelon()
        for _ in range(24):
            vec = {k: entry() for k in range(8)}
            vec = {k: c for k, c in vec.items() if not c.is_zero()}
            ech.insert(numerators(vec))
        rows = scalar_rows(ech)
        pivots = set(rows)
        for p, row in rows.items():
            assert row[p] == ONE
            for other in pivots - {p}:
                assert other not in row


def test_rows_view_follows_inserts():
    ech = Echelon()
    ech.insert(numerators({0: ONE, 1: Cyclo8Scalar(1, 1, 3), 2: s(2)}))
    ech.insert(numerators({2: ONE, 3: ZETA}))
    before = scalar_rows(ech)
    assert before[0] == {0: ONE, 1: Cyclo8Scalar(1, 1, 3), 3: s(-2) * ZETA}
    # pivot 1 sits in the row of pivot 0, so back-substitution rewrites it
    assert ech.insert(numerators({1: s(3), 3: s(2)}))
    after = scalar_rows(ech)
    assert set(after) == {0, 1, 2}
    assert 1 not in after[0]
    assert after[0] == {0: ONE, 3: s(-2) * ZETA - Cyclo8Scalar(2, 2, 9)}
    assert after[1] == {1: ONE, 3: Cyclo8Scalar(2, 0, 3)}
    assert before is not after and 1 in before[0]
    oracle = OracleEchelon()
    for v in ({0: ONE, 1: Cyclo8Scalar(1, 1, 3), 2: s(2)}, {2: ONE, 3: ZETA}, {1: s(3), 3: s(2)}):
        oracle.insert(v)
    assert after == oracle.rows


def test_kernel_basis():
    # x0 + x1 = 0, x1 - x2 = 0 in 3 unknowns: kernel dim 1
    rows = [{0: ONE, 1: ONE}, {1: ONE, 2: s(-1)}]
    basis = kernel_basis([numerators(row) for row in rows], 3)
    assert len(basis) == 1
    vec = {k: Cyclo8Scalar(x, y) for k, (x, y) in basis[0].items()}
    for row in rows:
        acc = Cyclo8Scalar()
        for k, c in row.items():
            acc = acc + c * vec.get(k, Cyclo8Scalar())
        assert acc.is_zero()
    # the same system keyed by names, re-keyed by the oracle
    names = ["a", "b", "c"]
    keyed = [{names[k]: c for k, c in numerators(row).items()} for row in rows]
    assert kernel_basis_keyed(keyed, names) == [{names[k]: c for k, c in basis[0].items()}]


def test_kernel_full_and_empty():
    assert len(kernel_basis([], 2)) == 2
    rows = [{0: ONE}, {1: ONE}]
    assert kernel_basis([numerators(row) for row in rows], 2) == []


def test_span_contains_space():
    a = span(numerators(v) for v in [{0: ONE}, {1: ONE}])
    b = span(numerators(v) for v in [{0: s(2), 1: s(3)}])
    assert contains_space(a, b)
    assert not contains_space(b, a)


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


KEYS = 8
ENTRIES = st.builds(
    Cyclo8Scalar, st.integers(-6, 6), st.integers(-3, 3), st.integers(1, 12)
).filter(bool)
VECTORS = st.dictionaries(st.integers(0, KEYS - 1), ENTRIES, max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_echelon_matches_the_scalar_oracle(data):
    vectors = data.draw(st.lists(VECTORS, min_size=1, max_size=7))
    # repeated rows (c*v_i + v_i) and dependent ones (c*v_i + v_j)
    for _ in range(data.draw(st.integers(0, 4))):
        i, j = (data.draw(st.integers(0, len(vectors) - 1)) for _ in range(2))
        vectors.append(vec_axpy(vectors[j], data.draw(ENTRIES), vectors[i]))
    vectors = data.draw(st.permutations(vectors))
    ech, oracle = Echelon(), OracleEchelon()
    for vec in vectors:
        assert ech.insert(numerators(vec)) == oracle.insert(vec)
        assert ech.rank == oracle.rank
        assert scalar_rows(ech) == oracle.rows
    # the stored rows: integer numerators, pivot (d, 0) with d > 0, content 1
    for p, num in ech._rows.items():
        assert num[p][0] > 0 and num[p][1] == 0
        assert gcd(*(c for pair in num.values() for c in pair)) == 1
    for vec in vectors:
        assert in_span(ech, numerators(vec)) and oracle.contains(vec)
        member = vec_axpy(vec, data.draw(ENTRIES), vectors[0])
        assert in_span(ech, numerators(member)) and oracle.contains(member)
        # key KEYS is in no row, so this is never a member
        outside = {**vec, KEYS: ONE}
        assert not in_span(ech, numerators(outside)) and not oracle.contains(outside)
    probe = data.draw(VECTORS)
    assert in_span(ech, numerators(probe)) == oracle.contains(probe)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_batch_entry_matches_sequential_inserts_and_the_oracle(data):
    vectors = data.draw(st.lists(VECTORS, min_size=1, max_size=9))
    for _ in range(data.draw(st.integers(0, 4))):
        i, j = (data.draw(st.integers(0, len(vectors) - 1)) for _ in range(2))
        vectors.append(vec_axpy(vectors[j], data.draw(ENTRIES), vectors[i]))
    nums = [numerators(v) for v in vectors]
    seq, oracle = Echelon(), OracleEchelon()
    for vec, num in zip(vectors, nums):
        seq.insert(num)
        oracle.insert(vec)
    smallest = lambda i: min(nums[i])
    orders = {
        "shuffled": data.draw(st.permutations(range(len(vectors)))),
        "ascending": sorted((i for i in range(len(vectors)) if nums[i]), key=smallest),
        "descending": sorted((i for i in range(len(vectors)) if nums[i]), key=smallest, reverse=True),
    }
    for name, order in orders.items():
        ech = Echelon()
        raised = ech.extend(nums[i] for i in order)
        assert ech.rank == seq.rank == oracle.rank, name
        assert ech.nums == seq.nums, name
        assert scalar_rows(ech) == oracle.rows, name
        # replayed in the batch's insertion order (descending smallest key,
        # ties in the given order), a vector is returned iff it is outside
        # the span of the ones before it
        prefix = OracleEchelon()
        want = [id(nums[i]) for i in sorted((i for i in order if nums[i]), key=smallest, reverse=True) if prefix.insert(vectors[i])]
        assert [id(v) for v in raised] == want, name
