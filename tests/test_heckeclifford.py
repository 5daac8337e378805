import ast
import inspect
import random
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest

from oracles import (
    HCElement,
    _inverse_word,
    _signed_classes,
    braid,
    braid_signs_by_elements,
    casimir,
    class_element,
    contains_space,
    embed_left,
    embed_right,
    generators,
    hc_unit,
    idempotent,
    iota,
    kernel_basis_keyed,
    numerators,
    orbit_center_basis,
    product_coefficient,
    regular_trace_rank,
    scalar_rows,
    sigma_step,
    split_center,
    transpose,
    transposition,
    two_sided_closure,
)
from queerlab import heckeclifford, queer
from queerlab.heckeclifford import (
    DecompositionError,
    IsotypicBlock,
    IsotypicTable,
    _check_orthogonal,
    _class_word,
    _content_values,
    _spin_characters,
    _trace_rank,
    all_words,
    braid_conjugation_cases,
    casimir_rows,
    decompose_regular,
    verify_tensor_ideal_theorem,
    word_mult,
)
from queerlab.linalg import Echelon, span
from queerlab.partitions import StrictPartition, contains, enumerate_strict, l_max, odd_partitions
from queerlab.scalars import Cyclo8Scalar, ONE, ZETA
from queerlab.symfunc import induct_mult

rng = random.Random(3)


def sp(*parts):
    return StrictPartition(tuple(parts))


@lru_cache(maxsize=None)
def block_echelon(n: int, lam: StrictPartition) -> Echelon:
    """J^lambda = e_lambda H_n, by echelon: the oracle for the traces."""
    e = idempotent(decompose_regular(n).blocks[lam])
    return span(numerators((e * HCElement(n, {w: ONE})).terms) for w in all_words(n))


def test_defining_relations():
    a1 = HCElement.alpha(2, 1)
    a2 = HCElement.alpha(2, 2)
    s1 = transposition(2, 1)
    assert a1 * a1 == hc_unit(2)
    assert a2 * a1 == (a1 * a2).scale(-1)
    assert (s1 * a1) * s1 == a2
    assert s1 * s1 == hc_unit(2)


def test_multiplication_associative_and_unital():
    words = all_words(3)
    one = hc_unit(3)
    for _ in range(80):
        x = HCElement(3, {rng.choice(words): Cyclo8Scalar.from_int(rng.randint(-2, 2))})
        y = HCElement(3, {rng.choice(words): Cyclo8Scalar.from_int(rng.randint(-2, 2))})
        z = HCElement(3, {rng.choice(words): Cyclo8Scalar.from_int(rng.randint(-2, 2))})
        assert (x * y) * z == x * (y * z)
        assert one * x == x and x * one == x


def test_sigma_alpha_conjugation():
    # sigma alpha_i sigma^{-1} = alpha_{sigma(i)} for a 3-cycle
    c = HCElement.permutation(3, (1, 2, 0))  # i -> i+1 cyclically
    cinv = HCElement.permutation(3, (2, 0, 1))
    a1 = HCElement.alpha(3, 1)
    assert c * a1 * cinv == HCElement.alpha(3, 2)


def test_transpose_examples():
    a1 = HCElement.alpha(2, 1)
    a2 = HCElement.alpha(2, 2)
    assert transpose(a1) == a1.scale(ZETA)
    assert transpose(a1 * a2) == (a1 * a2).scale(-1)
    s12 = HCElement.permutation(3, (1, 2, 0))
    assert transpose(s12) == HCElement.permutation(3, (2, 0, 1))


def test_transpose_anti_automorphism():
    words = all_words(3)
    for _ in range(60):
        w1, w2 = rng.choice(words), rng.choice(words)
        x = HCElement(3, {w1: Cyclo8Scalar.from_int(rng.randint(1, 3))})
        y = HCElement(3, {w2: Cyclo8Scalar.from_int(rng.randint(1, 3))})
        px = w1[0].bit_count() & 1
        py = w2[0].bit_count() & 1
        assert transpose(x * y) == (transpose(y) * transpose(x)).scale(
            (-1) ** (px * py)
        )


def test_transpose_squared():
    for w in all_words(3):
        x = HCElement(3, {w: ONE})
        k = w[0].bit_count()
        assert transpose(transpose(x)) == x.scale((-1) ** k)


def test_iota_examples():
    x = HCElement.alpha(1, 1)
    one1 = hc_unit(1)
    assert iota(1, 1, x, one1) == HCElement.alpha(2, 1)
    assert iota(1, 1, one1, x) == HCElement.alpha(2, 2)
    assert iota(1, 2, hc_unit(1), transposition(2, 1)) == (
        transposition(3, 2)
    )


def test_iota_homomorphism_law():
    words1 = all_words(1)
    words2 = all_words(2)
    for _ in range(40):
        wx, wy = rng.choice(words1), rng.choice(words2)
        wx2, wy2 = rng.choice(words1), rng.choice(words2)
        x = HCElement(1, {wx: ONE})
        y = HCElement(2, {wy: ONE})
        x2 = HCElement(1, {wx2: ONE})
        y2 = HCElement(2, {wy2: ONE})
        lhs = iota(1, 2, x, y) * iota(1, 2, x2, y2)
        sign = (-1) ** ((wy[0].bit_count() & 1) * (wx2[0].bit_count() & 1))
        rhs = iota(1, 2, x * x2, y * y2).scale(sign)
        assert lhs == rhs


def test_iota_respects_transpose_on_generators():
    # it suffices to check on algebra generators
    for m, n in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        gens_m = generators(m) + [hc_unit(m)]
        gens_n = generators(n) + [hc_unit(n)]
        for f in gens_m:
            for g in gens_n:
                assert transpose(iota(m, n, f, g)) == iota(
                    m, n, transpose(f), transpose(g)
                )


def test_braid_examples():
    assert braid(1, 1) == transposition(2, 1)
    assert braid(2, 0) == hc_unit(2)
    assert braid(1, 2) * braid(2, 1) == hc_unit(3)


def test_braid_conjugation_sign_law():
    # empirical law: tau iota(x,y) tau^{-1} = (-1)^{|x||y|} iota(y,x);
    # the paper's (-1)^{mn} exponent fails already at m=n=1, x=alpha_1, y=1
    for m, n in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        for case in braid_conjugation_cases(m, n):
            assert case.matches_parity_law
    mismatches = [
        c for c in braid_conjugation_cases(1, 1) if not c.matches_paper_mn
    ]
    assert mismatches, "expected the displayed mn-sign to disagree somewhere"


def test_word_braid_signs_match_element_products():
    # the signed-word products of the braid note against HCElement products
    for m in range(5):
        for n in range(5 - m):
            cases = braid_conjugation_cases(m, n)
            assert [c.empirical_sign for c in cases] == braid_signs_by_elements(m, n), (m, n)


def test_two_sided_closure_trivial():
    full = two_sided_closure(2, [hc_unit(2)])
    assert full.rank == 8
    assert two_sided_closure(2, [HCElement(2)]).rank == 0


def test_closure_regenerates_simple_bimodule():
    basis = block_echelon(3, sp(2, 1))
    # any nonzero element of J^{(2,1)} generates the whole 16-dim ideal
    vec = next(iter(scalar_rows(basis).values()))
    regen = two_sided_closure(3, [HCElement(3, vec)])
    assert regen.rank == 16
    assert contains_space(regen, basis)


def test_decompose_regular_n1():
    table = decompose_regular(1)
    blk = table.blocks[sp(1)]
    assert blk.dim_J == 2 and blk.dim_S == 2 and blk.type == "Q"


def test_decompose_regular_n3():
    table = decompose_regular(3)
    assert {b.label: (b.dim_J, b.dim_S, b.type) for b in table.blocks.values()} == {
        sp(3): (32, 8, "Q"),
        sp(2, 1): (16, 4, "M"),
    }
    assert sum(b.dim_J for b in table.blocks.values()) == (1 << 3) * factorial(3)
    # idempotents are orthogonal and sum to 1
    es = [idempotent(b) for b in table.blocks.values()]
    total = HCElement(3)
    for e in es:
        total = total + e
        assert (e * e - e).is_zero()
    assert total == hc_unit(3)
    # type matches the parity of the number of parts
    for b in table.blocks.values():
        assert (b.type == "Q") == (b.label.length % 2 == 1)


def test_table_json():
    table = decompose_regular(2)
    data = table.to_dict()
    assert data["n"] == 2
    assert data["blocks"] == [{"lambda": "2", "dim_J": 8, "dim_S": 4, "type": "Q"}]


def test_sigma_step_examples():
    # Sigma(J^{(2)}) fills H_3
    out = sigma_step(2, block_echelon(2, sp(2)))
    assert out.rank == 48
    # Sigma of zero is zero
    assert sigma_step(2, Echelon()).rank == 0


def test_sigma_support_matches_induction_by_one_box():
    # Grothendieck consistency at m=1: the support of Sigma(J^lambda)
    # matches the support of [S_(1)][S_lambda]
    one = sp(1)
    for n in (1, 2, 3):
        table = decompose_regular(n)
        target = decompose_regular(n + 1)
        for lam in table.blocks:
            out = sigma_step(n, block_echelon(n, lam))
            observed = {
                mu for mu in target.blocks if contains_space(out, block_echelon(n + 1, mu))
            }
            assert observed == set(induct_mult(one, lam)), lam


def test_verify_tensor_ideal_theorem_n3():
    cases = verify_tensor_ideal_theorem(3)
    assert cases and all(c.passed for c in cases)
    for c in cases:
        assert set(c.predicted) == {
            mu
            for mu in enumerate_strict(c.lam.size + c.m)
            if contains(c.lam, mu)
        }


def test_decompose_regular_n5():
    table = decompose_regular(5)
    assert {b.label: (b.dim_J, b.dim_S, b.type) for b in table.blocks.values()} == {
        sp(5): (512, 32, "Q"),
        sp(4, 1): (2304, 48, "M"),
        sp(3, 2): (1024, 32, "M"),
    }


def center_basis_by_kernel(n, parity):
    """The constraints z g - g z = 0 over the generators, solved by echelon."""
    words = [w for w in all_words(n) if w[0].bit_count() % 2 == parity]
    rows = []
    for g in generators(n):
        gword = next(iter(g.terms))
        constraints = {}
        for w in words:
            lhs, s1 = word_mult(w, gword)
            rhs, s2 = word_mult(gword, w)
            row = constraints.setdefault(lhs, {})
            row[w] = row.get(w, Cyclo8Scalar()) + s1
            row = constraints.setdefault(rhs, {})
            row[w] = row.get(w, Cyclo8Scalar()) - s2
        rows += [{w: c for w, c in row.items() if not c.is_zero()} for row in constraints.values()]
    # each kernel vector is a positive multiple of the one with coefficient 1
    # at its free word, the last of its words in `words` order
    index = {w: i for i, w in enumerate(words)}
    out = []
    for vec in kernel_basis_keyed([numerators(row) for row in rows], words):
        d = vec[max(vec, key=index.get)][0]
        out.append(HCElement(n, {w: Cyclo8Scalar(x, y, d) for w, (x, y) in vec.items()}))
    return out


def class_sums(n):
    """The signed class sums of `_signed_classes(n)` as (start word, element)
    pairs, in class order."""
    starts, _, index = _signed_classes(n)
    terms = [{} for _ in starts]
    for p, (j, signs) in index.items():
        terms[j].update(((mask, p), s) for mask, s in signs.items())
    return [(p, HCElement(n, t)) for p, t in zip(starts, terms)]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("parity", [0, 1])
def test_center_basis_matches_kernel(n, parity):
    kernel = center_basis_by_kernel(n, parity)
    if parity == 1:
        # the odd center is not built; it stays the oracle for the types read
        # off dim J: a block is of type Q iff e_lambda * o != 0 for some odd
        # central o
        for block in decompose_regular(n).blocks.values():
            meets_odd = any(not (idempotent(block) * o).is_zero() for o in kernel)
            assert (block.type == "Q") == meets_odd, block.label
        return
    # each signed class sum is the kernel vector holding its word, rescaled
    # to 1 at that word
    pairs = class_sums(n)
    assert len(pairs) == len(kernel)
    for word, element in pairs:
        assert element.terms[word] == ONE
        vec = next(v for v in kernel if word in v.terms)
        assert element == vec.scale(vec.terms[word].inverse())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_orbit_sums_are_center_coordinates(n):
    # a central c equals sum c[word] * element over the pairs
    pairs = class_sums(n)

    def rebuild(c):
        out = HCElement(n)
        for word, element in pairs:
            out = out + element.scale(c.terms.get(word, Cyclo8Scalar()))
        return out

    z = casimir(n)
    assert rebuild(z) == z
    for block in decompose_regular(n).blocks.values():
        assert rebuild(idempotent(block)) == idempotent(block)


def test_mislabelled_block_is_refused(monkeypatch):
    # swap the Casimir values of (3) and (2,1): the block read off the
    # character table as (3) no longer carries the value the label predicts
    real = heckeclifford._content_values

    def swapped(n):
        values = real(n)
        if n == 3:
            values = dict(zip(values, reversed(list(values.values()))))
        return values

    monkeypatch.setattr(heckeclifford, "_content_values", swapped)
    monkeypatch.setattr(heckeclifford, "_TABLE_CACHE", {})
    with pytest.raises(DecompositionError, match="the Casimir does not act"):
        decompose_regular(3)


def test_blocks_with_one_casimir_value_are_told_apart(monkeypatch):
    # (9,5,1) and (8,7) share the Casimir value 280; with their rows of the
    # character table swapped, the restriction ranks to H_14 refuse the labels
    real = heckeclifford._spin_characters

    def swapped(n, types):
        table = real(n, types)
        if n == 15:
            a, b = sp(9, 5, 1), sp(8, 7)
            table[a], table[b] = table[b], table[a]
        return table

    monkeypatch.setattr(heckeclifford, "_spin_characters", swapped)
    cache = {n: t for n, t in heckeclifford._TABLE_CACHE.items() if n < 15}
    monkeypatch.setattr(heckeclifford, "_TABLE_CACHE", cache)
    with pytest.raises(DecompositionError, match="restricts to rank"):
        decompose_regular(15)


def test_orthogonality_trace_refuses_idempotents_mixed_in_one_casimir_value():
    # moving x, with x[0] = 0, from e_(8,7) to e_(9,5,1) keeps the Casimir
    # check (both carry 280), the sum of the e_lambda and every dim J; the
    # pair is no longer orthogonal, and the trace of their product says so
    table = decompose_regular(15)
    a, b = table.blocks[sp(9, 5, 1)], table.blocks[sp(8, 7)]
    x = [b.coords[0] * u - a.coords[0] * v for u, v in zip(a.coords, b.coords)]
    assert x[0] == 0 and any(x)
    mixed = IsotypicTable(15, dict(table.blocks), table.types, table.weights)
    for block, sign in ((a, 1), (b, -1)):
        coords = [u + sign * y for u, y in zip(block.coords, x)]
        mixed.blocks[block.label] = IsotypicBlock(block.label, block.dim_J, block.dim_S, block.type, coords)
    rows = casimir_rows(15)
    for lam in (a.label, b.label):
        e = mixed.blocks[lam].coords
        assert [sum(r * c for r, c in zip(row, e)) for row in rows] == [280 * c for c in e]
    _check_orthogonal(table)
    with pytest.raises(DecompositionError, match="fails the orthogonality trace"):
        _check_orthogonal(mixed)


def test_product_coefficient_matches_product():
    words = all_words(3)
    unit = (0, (0, 1, 2))
    for _ in range(40):
        x = HCElement(3, {rng.choice(words): Cyclo8Scalar.from_int(rng.randint(-2, 2)) for _ in range(6)})
        y = HCElement(3, {rng.choice(words): Cyclo8Scalar.from_int(rng.randint(-2, 2)) for _ in range(6)})
        xy = x * y
        assert product_coefficient(x, y) == xy.terms.get(unit, Cyclo8Scalar())
        for w in rng.sample(words, 6) + list(xy.terms)[:3]:
            assert product_coefficient(x, y, w) == xy.terms.get(w, Cyclo8Scalar())


@pytest.mark.parametrize("n", [3, 4])
def test_central_idempotents(n):
    # the idempotents built in center coordinates, checked by full products
    es = [idempotent(b) for b in decompose_regular(n).blocks.values()]
    total = HCElement(n)
    for e in es:
        total = total + e
        assert e * e == e
        for g in generators(n):
            assert e * g == g * e
        for f in es:
            assert f is e or (e * f).is_zero()
    assert total == hc_unit(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_trace_ranks_match_echelon_ranks(n):
    # dim_J and the restriction ranks used for labelling, read off the
    # regular trace, equal the ranks of span(e w) and span(f_emb row)
    table = decompose_regular(n)
    prev = decompose_regular(n - 1)
    for lam, block in table.blocks.items():
        ech = block_echelon(n, lam)
        assert block.dim_J == ech.rank
        for nu, pb in prev.blocks.items():
            f_emb = embed_left(idempotent(pb), n - 1, 1)
            sub = span(numerators((f_emb * HCElement(n, row)).terms) for row in scalar_rows(ech).values())
            assert regular_trace_rank(f_emb, idempotent(block)) == sub.rank
            assert _trace_rank(prev, pb.coords, table, block.coords) == sub.rank


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
def test_signed_classes_match_orbit_search(n):
    # the same class sums, start words and order as the search over all words
    assert class_sums(n) == orbit_center_basis(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_class_signs_match_orbit_search_on_every_even_word(n):
    index = _signed_classes(n)[2]
    orbit = {}
    for _, element in orbit_center_basis(n):
        orbit.update(element.terms)
    for w in all_words(n):
        if not w[0].bit_count() & 1:
            expected = orbit.get(w, Cyclo8Scalar())
            sign = index[w[1]][1].get(w[0], 0) if w[1] in index else 0
            assert Cyclo8Scalar.from_int(sign) == expected, w


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_class_word_matches_the_oracle_on_every_even_word(n):
    # the class and sign of each word, read off its own cycles, against the
    # walk over all permutations; a word that no class holds gives None
    _, types, index = _signed_classes(n)
    for mask, p in all_words(n):
        if not mask.bit_count() & 1:
            j, signs = index.get(p, (None, {}))
            expected = (types[j], signs[mask]) if mask in signs else None
            assert _class_word(mask, p) == expected, (mask, p)


@pytest.mark.parametrize("n", range(8))
def test_class_types_and_sizes_match_the_oracle(n):
    # the classes, as the cycle types of the walk over all permutations, and
    # |C_t| in closed form against the number of words of each class
    _, types, index = _signed_classes(n)
    sizes = dict.fromkeys(types, 0)
    for j, signs in index.values():
        sizes[types[j]] += len(signs)
    table = decompose_regular(n)
    assert table.types == odd_partitions(n) and sorted(table.types) == sorted(types)
    assert dict(zip(table.types, table.weights)) == sizes


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_class_weights_are_the_unit_coefficient_of_the_square(n):
    # weights[j] is (C_j C_j)[1], the coefficient that the traces read
    table = decompose_regular(n)
    weights = dict(zip(table.types, table.weights))
    _, types, _ = _signed_classes(n)
    for t, (_, element) in zip(types, class_sums(n)):
        assert Cyclo8Scalar.from_int(weights[t]) == product_coefficient(element, element)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_structure_constants_match_product_coefficient(n):
    # the structure constants of multiplication by the Casimir: rows[i][b]
    # is the coefficient (z C_b)[start_i] of the word at which C_i holds 1
    z = casimir(n)
    _, types, _ = _signed_classes(n)
    pairs = dict(zip(types, class_sums(n)))
    classes = odd_partitions(n)
    rows = casimir_rows(n)
    for i, ti in enumerate(classes):
        for b, tb in enumerate(classes):
            expected = product_coefficient(z, pairs[tb][1], pairs[ti][0])
            assert Cyclo8Scalar.from_int(rows[i][b]) == expected, (ti, tb)


def test_regular_trace_is_symmetric():
    words = all_words(4)
    for _ in range(40):
        x = HCElement(4, {rng.choice(words): Cyclo8Scalar.from_int(rng.randint(-3, 3)) for _ in range(30)})
        y = HCElement(4, {rng.choice(words): Cyclo8Scalar.from_int(rng.randint(-3, 3)) for _ in range(5)})
        x = x + HCElement(4, {v: ONE for v, _ in map(_inverse_word, y.terms)})
        assert regular_trace_rank(x, y) == regular_trace_rank(y, x)
        assert product_coefficient(x, y) == product_coefficient(y, x)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_class_traces_match_word_traces(n):
    # dims, restriction ranks and the Sigma ranks in class coordinates, against
    # the traces of the expanded elements
    table = decompose_regular(n)
    unit = [factorial(n)] + [0] * (len(table.types) - 1)
    for k in range(n + 1):
        small = decompose_regular(k)
        for block in small.blocks.values():
            left = embed_left(idempotent(block), k, n - k)
            right = embed_right(idempotent(block), n - k, k)
            dim = regular_trace_rank(right, hc_unit(n))
            assert _trace_rank(small, block.coords, table, unit) == dim
            for big in table.blocks.values():
                rank = _trace_rank(small, block.coords, table, big.coords)
                assert rank == regular_trace_rank(left, idempotent(big))
                assert rank == regular_trace_rank(right, idempotent(big))


def test_semisimple_sigma_support_matches_closure():
    # the support read off the ranks of e_mu * x, x = iota(1 (x) e_lambda),
    # equals the mu with e_mu * x != 0 (parts that add up to x) and the
    # support of the iterated two-sided closure, whose rank is the sum of
    # the block dims
    n_max = 4
    cases = {(c.lam, c.m): c for c in verify_tensor_ideal_theorem(n_max)}
    assert len(cases) == 18
    for n0 in range(n_max + 1):
        for lam in enumerate_strict(n0):
            current = block_echelon(n0, lam)
            for m in range(n_max - n0 + 1):
                if m > 0:
                    current = sigma_step(n0 + m - 1, current)
                rank = n0 + m
                support = {
                    mu
                    for mu in decompose_regular(rank).blocks
                    if contains_space(current, block_echelon(rank, mu))
                }
                case = cases[(lam, m)]
                assert set(case.observed) == support, (lam, m)
                x = embed_right(idempotent(decompose_regular(n0).blocks[lam]), m, n0)
                parts = {
                    mu: idempotent(blk) * x for mu, blk in decompose_regular(rank).blocks.items()
                }
                assert {mu for mu, p in parts.items() if not p.is_zero()} == support
                total = HCElement(rank)
                for p in parts.values():
                    total = total + p
                assert total == x
                assert current.rank == sum(
                    decompose_regular(rank).blocks[mu].dim_J for mu in support
                )
                assert case.passed


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_casimir_is_central_and_acts_by_content(n):
    z = casimir(n)
    for g in generators(n):
        assert z * g == g * z
    values = _content_values(n)
    blocks = decompose_regular(n).blocks
    assert list(blocks) == list(values) == list(enumerate_strict(n))
    for lam, block in blocks.items():
        e = idempotent(block)
        assert z * e == e.scale(values[lam])


@pytest.mark.parametrize("n", range(8))
def test_closed_form_casimir_matches_words(n):
    # z * 1, column 0 of the matrix: n(n-1) + the 3-cycle class, expanded
    # with every word's class sign, is the Casimir built from the odd
    # Jucys-Murphy elements
    column = {t: Cyclo8Scalar.from_int(row[0]) for t, row in zip(odd_partitions(n), casimir_rows(n))}
    one, three = (1,) * n, (3,) + (1,) * (n - 3)
    assert column == {t: n * (n - 1) * (t == one) + (t == three) for t in column}
    assert class_element(n, column) == casimir(n)


def test_content_values_separate_up_to_14():
    assert _content_values(5) == {sp(5): 40, sp(4, 1): 20, sp(3, 2): 10}
    for n in range(1, 15):
        values = _content_values(n)
        assert len(set(values.values())) == len(values) == len(enumerate_strict(n))


@pytest.mark.parametrize("n", range(15))
def test_closed_form_idempotents_match_the_casimir_split(n):
    # e_lambda read off the spin character table, against the Lagrange
    # product in the Casimir, where its values are distinct
    table = decompose_regular(n)
    split = split_center(n)
    assert list(table.blocks) == list(split)
    for lam, block in table.blocks.items():
        assert [Fraction(x, factorial(n)) for x in block.coords] == split[lam], lam


@pytest.mark.parametrize("n", range(17))
def test_both_numerators_of_the_closed_form_are_integers(n):
    # 2^l(lambda) c_lambda(1^n) and 2^l(t) c_lambda(t), read off the ints
    # 2^L c_lambda(t) that _spin_characters returns, L = l_max(n)
    types = odd_partitions(n)
    den = 2 ** l_max(n)
    for lam, c in _spin_characters(n, types).items():
        assert all(type(x) is int for x in c), lam
        assert Fraction(c[0] * 2 ** lam.length, den).denominator == 1, lam
        for x, t in zip(c, types):
            assert Fraction(x * 2 ** len(t), den).denominator == 1, (lam, t)


@pytest.mark.parametrize("module", [heckeclifford, queer])
def test_the_center_imports_no_scalars(module):
    # the center of H_n and the traces of dim_T run on ints over n!
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
    assert not any("scalars" in name.split(".") for name in names), names

