from collections import Counter
from itertools import chain, product

import pytest

from oracles import (
    _label_parity,
    all_biweights,
    all_raising_operators,
    gaussian_kernel_dim,
    line_label,
    sing_system_full,
    sing_system_labels,
    solve_singular_full,
    sym_image,
    sym_label,
    sym_terms,
    tensor_basis,
    tensor_image,
)
from queerlab import amodule, dimcheck
from queerlab.amodule import (
    _pad,
    _sing_system,
    act_terms,
    raising_operators,
    singular_vectors,
    weight_space_monomials,
)
from queerlab.dimcheck import (
    copy_singular_dim,
    hom_dim_check,
    hom_dim_sweep,
)
from queerlab.linalg import kernel_basis, kernel_dim, span
from queerlab.partitions import EMPTY, StrictPartition, all_strict_upto, enumerate_strict
from queerlab.queer import dim_T
from queerlab.symfunc import induct_mult


def sp(*parts):
    return StrictPartition(tuple(parts))


def test_trivial_case():
    c = hom_dim_check(EMPTY, EMPTY, EMPTY, EMPTY)
    assert c["pass"] and c["brute_force"] == 1


def test_type_M_self_case_is_one():
    # for lambda = alpha of type M at r=0 the Hom space is one dimensional,
    # matching the classical normalization
    c = hom_dim_check(sp(2, 1), sp(2, 1), EMPTY, EMPTY)
    assert c["pass"] and c["brute_force"] == 1


def test_type_Q_self_case():
    # End(T_(1) (x) T_(1)) has total dimension 4
    c = hom_dim_check(sp(1), sp(1), sp(1), sp(1))
    assert c["pass"] and c["brute_force"] == 4


def test_derived_example():
    c = hom_dim_check(sp(2), sp(2), sp(1), sp(1))
    assert c["pass"] and c["r"] == 1 and c["brute_force"] == 8


def test_degree_mismatch_vanishes():
    # hom_dim_sweep never pairs |lambda| - |alpha| with another |mu| - |beta|,
    # so such a case is bad input; the slice it would count is empty
    with pytest.raises(ValueError, match="differ"):
        hom_dim_check(sp(2), sp(1), EMPTY, EMPTY)
    assert dimcheck._sing_dim(3, 3, 0, 0, 2, (2, 0, 0), (1, 0, 0)) == 0


def test_singular_dims():
    assert copy_singular_dim(3, sp(1)) == 2
    assert copy_singular_dim(3, sp(2)) == 2
    assert copy_singular_dim(3, sp(2, 1)) == 2


def test_guard():
    with pytest.raises(ValueError):
        hom_dim_check(sp(3), sp(3), sp(2, 1), sp(2, 1))


def test_kernel_dim_counts_the_kernel_basis():
    checked = 0
    for args in _composition_systems(2, 2):
        rows, basis = _sing_system(2, 2, *args)
        # the rows are keyed by the unknowns' indices
        assert kernel_dim(rows, basis) == len(kernel_basis(rows, len(basis)))
        checked += bool(basis)
    assert checked


def test_shared_image_tables_change_no_verdict():
    # one process, tables shared across the ranks, against each sweep run
    # again from empty tables
    sizes = [(2, 2), (3, 3), (2, 3), (3, 2)]
    shared = [hom_dim_sweep(n, m) for n, m in sizes]
    assert amodule._IMAGES
    for (n, m), got in zip(sizes, shared):
        amodule._IMAGES.clear()
        amodule._SINGULAR_CACHE.clear()
        dimcheck._induced.cache_clear()
        assert hom_dim_sweep(n, m) == got, (n, m)
        assert all(case["pass"] for case in got), (n, m)


def _composition_systems(n, m, ab_max=2, total=4):
    """(a, b, r, wrow, wcol) for every composition weight of V^{(x)a} (x)
    W^{(x)b} (x) A_r at rank (n, m), non-dominant ones included."""
    for a, b, r in product(range(ab_max + 1), range(ab_max + 1), range(3)):
        if a + b + r > total:
            continue
        for wrow in product(range(a + r + 1), repeat=n):
            if sum(wrow) != a + r:
                continue
            for wcol in product(range(b + r + 1), repeat=m):
                if sum(wcol) == b + r:
                    yield a, b, r, wrow, wcol


def _sweep_systems(n, m):
    """(a, b, r, wrow, wcol) of every case of the default sweep at (n, m)
    that builds a singular system."""
    for c in hom_dim_sweep(n, m):
        lam, mu, alpha, beta = (StrictPartition.parse(c[k]) for k in ("lambda", "mu", "alpha", "beta"))
        a, b = alpha.size, beta.size
        r = lam.size - a
        if 0 <= r <= 3:
            yield a, b, r, _pad(lam.parts, n), _pad(mu.parts, m)


def _oracle_systems():
    """(n, m, system) for the (2, 2) compositions and the sweep systems at
    (2, 3), (3, 2), (3, 3) and (4, 4)."""
    yield from ((2, 2, args) for args in _composition_systems(2, 2))
    for n, m in ((2, 3), (3, 2), (3, 3), (4, 4)):
        yield from ((n, m, args) for args in _sweep_systems(n, m))


def _triple_parity(triple):
    vlab, wlab, mono = triple
    return (_label_parity(vlab) + _label_parity(wlab) + len(mono[1])) % 2


def _parity_block(rows, basis, parity):
    """The rows and unknowns of one parity of a full system, the unknowns
    re-indexed in their order; a row that mixes parities raises KeyError."""
    cols = [c for c, triple in enumerate(basis) if _triple_parity(triple) == parity]
    index = {c: k for k, c in enumerate(cols)}
    block = [{index[c]: x for c, x in row.items()} for row in rows if min(row) in index]
    return block, [basis[c] for c in cols]


def _halving_factor(wrow, wcol):
    return 2 if any(wrow) or any(wcol) else 1


# c_alpha for alpha = (), (1), (2): V^{(x)a} is c_alpha copies of T_alpha
_COPIES = (1, 1, 2)


def test_the_symmetric_power_is_one_copy_of_T():
    # dim S^aV counts the line monomials of A(n,1)_a, at every a
    for a, n in product(range(5), range(1, 5)):
        monos = [x for w in all_biweights(n, 1, a) for x in weight_space_monomials(n, 1, a, w)]
        assert dimcheck._sym_dim(n, a) == len(monos), (a, n)
    for a in range(3):
        for n in range(1, 5):
            alpha = StrictPartition((a,) if a else ())
            assert dimcheck._sym_dim(n, a) == dim_T(alpha, n), (a, n)
            assert (2 * n) ** a == _COPIES[a] * dim_T(alpha, n), (a, n)


def test_a_symmetric_power_of_the_wrong_dimension_is_refused(monkeypatch):
    # all of V^{(x)2} taken for one copy of T_(2); the check runs once per
    # (alpha, rank), so one made before the patch is dropped
    dimcheck._copies.cache_clear()
    monkeypatch.setattr(dimcheck, "_sym_dim", lambda k, d: (2 * k) ** d)
    with pytest.raises(dimcheck.HomDimError, match=r"S\^2V is not one copy of T_\(2\) at rank 3"):
        hom_dim_check(sp(2), EMPTY, sp(2), EMPTY)
    dimcheck._copies.cache_clear()


def test_support_system_matches_the_full_rank_oracle():
    # the even block of the full system on S^aV (x) S^bW: the line monomials
    # of the unknowns read as its triples of symmetric labels (`line_label`),
    # and the full even kernel is c_alpha c_beta copies of the one-copy kernel
    built = 0
    for n, m, args in _oracle_systems():
        a, b = args[:2]
        rows, basis = _sing_system(n, m, *args)
        even_rows, even_basis = _parity_block(*sing_system_full(n, m, *args), 0)
        labelled = sorted((line_label(v)[0], line_label(w)[0], mono) for v, w, mono in basis)
        assert labelled == sorted(t for t in even_basis if sym_label(t[0]) and sym_label(t[1])), (n, m, args)
        assert _COPIES[a] * _COPIES[b] * kernel_dim(rows, basis) == gaussian_kernel_dim(even_rows, even_basis), (n, m, args)
        built += bool(basis)
    assert built > 100


def test_the_largest_default_sweep_system_has_64_unknowns():
    # (a, b, r) = (2, 2, 2) at ((3,1), (3,1)): 256 even unknowns on the full
    # tensor powers
    sizes = {args: len(_sing_system(3, 3, *args)[1]) for args in _sweep_systems(3, 3)}
    largest = max(sizes, key=sizes.get)
    assert sizes[largest] == 64
    assert largest == (2, 2, 2, (3, 1, 0), (3, 1, 0))
    assert len(_parity_block(*sing_system_full(3, 3, *largest), 0)[1]) == 256


def test_the_odd_half_of_a_singular_slice_mirrors_the_even_half():
    # no oracle row mixes parities, and the odd block's kernel is as large
    # as the even block's, except at the zero weight, where it is empty
    nonzero = 0
    for n, m, (a, b, r, wrow, wcol) in _oracle_systems():
        rows, basis = sing_system_full(n, m, a, b, r, wrow, wcol)
        for row in rows:
            assert len({_triple_parity(basis[c]) for c in row}) == 1, (n, m, a, b, r, wrow, wcol)
        even = gaussian_kernel_dim(*_parity_block(rows, basis, 0))
        odd = gaussian_kernel_dim(*_parity_block(rows, basis, 1))
        factor = _halving_factor(wrow, wcol)
        assert gaussian_kernel_dim(rows, basis) == factor * even, (n, m, a, b, r, wrow, wcol)
        assert odd == (factor - 1) * even, (n, m, a, b, r, wrow, wcol)
        # the one-copy count, c_alpha c_beta times, is the full count
        one = dimcheck._sing_dim(n, m, a, b, r, wrow, wcol)
        assert _COPIES[a] * _COPIES[b] * one == gaussian_kernel_dim(rows, basis), (n, m, a, b, r, wrow, wcol)
        nonzero += factor == 2 and even > 0
    assert nonzero > 50


def _expand(vec):
    """A vector {(v, w, mono): c} of S^aV (x) S^bW (x) A_r, its line
    monomials expanded into the tensor terms of V^{(x)a} (x) W^{(x)b}
    (`line_label`, `sym_terms`)."""
    out = {}
    for (v, w, mono), x in vec.items():
        (vlab, sv), (wlab, sw) = line_label(v), line_label(w)
        for t, st in sym_terms(vlab):
            for u, su in sym_terms(wlab):
                out[t, u, mono] = sv * st * sw * su * x
    return out


def _act_on_triples(n, m, side, op, vec):
    """A raising or Cartan operator on a vector {(v, w, mono): c} of
    V^{(x)a} (x) W^{(x)b} (x) A_r, in the form of `amodule._sing_system`
    (the left factor with square = 1), with the Koszul signs of the rows of
    `sing_system_full`."""
    odd = op[0] == "Y"
    out = Counter()
    for (vlab, wlab, mono), x in vec.items():
        pv, pw = _label_parity(vlab), _label_parity(wlab)
        if side == "left":
            terms = [((v2, wlab, mono), c) for v2, c in tensor_image(op, vlab, 1).items()]
        else:
            sign = -1 if odd and pv else 1
            terms = [((vlab, w2, mono), sign * c) for w2, c in tensor_image(op, wlab, -1).items()]
        sign = -1 if odd and (pv + pw) % 2 else 1
        terms += [((vlab, wlab, mono2), sign * c) for mono2, c in act_terms(side, op, {mono: 1}, n, m).items()]
        for key, c in terms:
            out[key] += x * c
    return {k: c for k, c in out.items() if c}


def test_an_odd_cartan_element_maps_the_even_singular_vectors_onto_the_odd():
    # the even kernel, expanded into V^{(x)a} (x) W^{(x)b}, is killed by
    # every raising operator of the full system; the left Y_ii squares to
    # wrow_i (or the right Y_jj to -wcol_j), keeps every raising operator's
    # kernel, and is one to one on the even kernel
    checked = 0
    for n, m, (a, b, r, wrow, wcol) in chain(
        ((2, 2, args) for args in _composition_systems(2, 2, total=3)),
        ((3, 3, args) for args in _sweep_systems(3, 3)),
    ):
        if not any(wrow) and not any(wcol):
            continue
        side, wt = ("left", wrow) if any(wrow) else ("right", wcol)
        i = next(k for k, x in enumerate(wt, 1) if x)
        hbar = ("Y", i, i)
        rows, basis = _sing_system(n, m, a, b, r, wrow, wcol)
        evens = [_expand({basis[c]: x for c, x in v.items()}) for v in kernel_basis(rows, len(basis))]
        odds = [_act_on_triples(n, m, side, hbar, v) for v in evens]
        assert span(evens).rank == len(evens)
        assert span(odds).rank == len(evens)
        for v, w in zip(evens, odds):
            assert all(_triple_parity(t) == 1 for t in w)
            scalar = wt[i - 1] if side == "left" else -wt[i - 1]
            assert _act_on_triples(n, m, side, hbar, w) == {t: scalar * x for t, x in v.items()}
            for so in all_raising_operators(n, m):
                assert not _act_on_triples(n, m, *so, v)
                assert not _act_on_triples(n, m, *so, w)
            checked += 1
    assert checked > 100


def test_the_full_parity_oracle_gives_the_same_sweep(monkeypatch):
    # both the brute side, from the full tensor powers over c_alpha c_beta,
    # and sigma from systems solved on both parities
    fast = [hom_dim_sweep(k, k) for k in (2, 3, 4)]

    def full_per_copy(n, m, a, b, *args):
        count, rem = divmod(gaussian_kernel_dim(*sing_system_full(n, m, a, b, *args)), _COPIES[a] * _COPIES[b])
        assert not rem
        return count

    monkeypatch.setattr(dimcheck, "_sing_dim", full_per_copy)
    monkeypatch.setattr(dimcheck, "singular_dim", lambda k, nu: len(solve_singular_full(k, k, nu)))
    full = [hom_dim_sweep(k, k) for k in (2, 3, 4)]
    assert full == fast
    assert all(c["pass"] for c in fast[0])


def test_sigma_is_the_halved_bisingular_slice():
    # sigma(nu), the length of the singular basis of L_nu, is the halved
    # count of the a = b = 0 system and the length of the full-parity basis
    checked = 0
    for nu in all_strict_upto(6):
        if nu.length <= 3:
            halved = dimcheck._sing_dim(3, 3, 0, 0, nu.size, _pad(nu.parts, 3), _pad(nu.parts, 3))
            assert halved == len(singular_vectors(3, nu)) == len(solve_singular_full(3, 3, nu)), nu
            checked += 1
    assert checked > 10


def test_skipped_raising_operators_write_nothing():
    # an operator left out of a system lowers an index where the weight is
    # 0, and its image of every label and monomial of the slice is empty
    checked = 0
    for n, m in product((1, 2, 3), repeat=2):
        systems = chain(_composition_systems(n, m, total=3), _sweep_systems(n, m))
        for a, b, r, wrow, wcol in systems:
            live = raising_operators((wrow, wcol))
            dead = [so for so in all_raising_operators(n, m) if so not in live]
            basis = sing_system_full(n, m, a, b, r, wrow, wcol)[1]
            for side, op in dead:
                for vlab, wlab, mono in basis:
                    assert not tensor_image(op, vlab if side == "left" else wlab, 1 if side == "left" else -1)
                    assert not act_terms(side, op, {mono: 1}, n, m)
                    checked += 1
        # the singular vectors of L_lam: weight (lam, lam) in A_|lam|
        for lam in all_strict_upto(5):
            if lam.length > min(n, m):
                continue
            w = (_pad(lam.parts, n), _pad(lam.parts, m))
            live = raising_operators(w)
            dead = [so for so in all_raising_operators(n, m) if so not in live]
            assert all(op[2] > lam.length for _, op in dead)
            for side, op in dead:
                for mono in weight_space_monomials(n, m, lam.size, w):
                    assert not act_terms(side, op, {mono: 1}, n, m)
                    checked += 1
    assert checked > 10000


def test_singular_vectors_need_no_dead_operator(monkeypatch):
    # the full operator list gives the same singular basis
    lams = [lam for lam in all_strict_upto(5) if lam.length <= 3]
    monkeypatch.setattr(amodule, "_SINGULAR_CACHE", {})
    live = [singular_vectors(3, lam) for lam in lams]
    monkeypatch.setattr(amodule, "_SINGULAR_CACHE", {})
    monkeypatch.setattr(amodule, "raising_operators", lambda w: all_raising_operators(3, 3))
    assert [singular_vectors(3, lam) for lam in lams] == live


def test_default_sweep_costs_the_same_at_rank_2_and_3(monkeypatch):
    # a system padded to rank 3 has the size it has at rank 2, listing as
    # many line monomials and looking up as many images
    counts = {"labels": 0, "images": 0}
    listing, image = amodule.weight_space_monomials, amodule._image

    def listed(n, m, *args):
        out = listing(n, m, *args)
        if 1 in (n, m):
            counts["labels"] += len(out)
        return out

    def looked_up(*args):
        counts["images"] += 1
        return image(*args)

    monkeypatch.setattr(amodule, "weight_space_monomials", listed)
    monkeypatch.setattr(amodule, "_image", looked_up)

    def build(n, m, args):
        counts.update(labels=0, images=0)
        rows, basis = _sing_system(n, m, *args)
        return len(rows), len(basis), sum(map(len, rows)), counts["labels"], counts["images"]

    small, large = list(_sweep_systems(2, 2)), list(_sweep_systems(3, 3))
    assert len(small) == len(large) == 50
    for (a, b, r, wrow, wcol), args in zip(small, large):
        assert args == (a, b, r, wrow + (0,), wcol + (0,))
        assert build(2, 2, (a, b, r, wrow, wcol)) == build(3, 3, args), args


def test_sweep_is_stable_in_the_rank():
    cases = [hom_dim_sweep(k, k) for k in (2, 3, 4)]
    assert cases[0] == cases[1] == cases[2]
    assert all(c["pass"] for c in cases[0])


def test_induct_mult_runs_once_per_pair(monkeypatch):
    calls = []

    def counting(mu, nu):
        calls.append((mu, nu))
        return induct_mult(mu, nu)

    dimcheck._induced.cache_clear()
    monkeypatch.setattr(dimcheck, "induct_mult", counting)
    hom_dim_sweep(3, 3)
    hom_dim_sweep(3, 3)
    dimcheck._induced.cache_clear()
    assert len(calls) == len(set(calls)) == 9


def test_labels_are_listed_once_per_weight(monkeypatch):
    # the default sweep, run twice, walks the line monomials of each of its
    # (shape, size, weight) keys once: the line factors are listed at both
    # parities, the A_r monomials at one
    listings, walk = [], amodule._weight_space_monomials

    def walked(*args):
        if args[-1] is None:
            listings.append(args)
        return walk(*args)

    monkeypatch.setattr(amodule, "_SINGULAR_CACHE", {})
    monkeypatch.setattr(amodule, "_WEIGHT_MONOMIALS", {})
    monkeypatch.setattr(amodule, "_weight_space_monomials", walked)
    hom_dim_sweep(3, 3)
    hom_dim_sweep(3, 3)
    assert len(listings) == len(set(listings)) == 13


def test_line_images_are_the_symmetric_label_images():
    # S^dV is A(k,1)_d and S^dW is A(1,k)_d: every X_ab and Y_ab image of a
    # line monomial, k <= 3 and d <= 2, read at the symmetric labels with
    # x_i^2 = 2 (e_i, e_i) (`line_label`), is `sym_image` in the real form of
    # its side, and the line monomials are the labels of S^dV once each
    checked = 0
    for k, d in product((1, 2, 3), range(3)):
        monos = [x for w in all_biweights(k, 1, d) for x in weight_space_monomials(k, 1, d, w)]
        assert sorted(line_label(x)[0] for x in monos) == sorted(filter(sym_label, tensor_basis(k, d)))
        ops = [(kind, a, b) for kind in "XY" for a in range(1, k + 1) for b in range(1, k + 1)]
        sides = (("left", (k, 1), 1), ("right", (1, k), -1))
        for (side, shape, square), op, mono in product(sides, ops, monos):
            lab, scale = line_label(mono)
            got = Counter()
            for t, c in amodule._monomial_image(side, *op, mono, *shape):
                u, s = line_label(t)
                got[u] += s * c
            want = {u: scale * c for u, c in sym_image(op, lab, square)}
            assert {u: c for u, c in got.items() if c} == want, (side, op, mono)
            checked += 1
    assert checked == 1128


def test_line_systems_count_the_symmetric_label_systems():
    # every slice with a, b <= 2 and r <= 3 whose weights fit the rank: the
    # kernel on the line monomials is that on the labels of S^aV (x) S^bW
    checked = 0
    for n, m in ((1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 5)):
        for a, b, r in product(range(3), range(3), range(4)):
            for lam in _strict(a + r, n):
                for mu in _strict(b + r, m):
                    wrow, wcol = _pad(lam.parts, n), _pad(mu.parts, m)
                    want = _halving_factor(wrow, wcol) * kernel_dim(*sing_system_labels(n, m, a, b, r, wrow, wcol))
                    assert dimcheck._sing_dim(n, m, a, b, r, wrow, wcol) == want, (n, m, a, b, r, lam, mu)
                    checked += 1
    assert checked == 702


def _strict(size, rank):
    return [p for p in enumerate_strict(size) if p.length <= rank]


def test_the_rank_30_sweep_builds_the_systems_of_rank_2(monkeypatch):
    # each slice is solved at the ranks of its support, so hom_dim_sweep(30,
    # 30) builds the systems of rank 2, with the same unknowns and rows
    systems = []
    real = dimcheck._sing_system

    def recorded(*args):
        out = real(*args)
        systems.append((args, out))
        return out

    monkeypatch.setattr(dimcheck, "_sing_system", recorded)
    small = hom_dim_sweep(2, 2)
    rank_2 = systems[:]
    systems.clear()
    assert hom_dim_sweep(30, 30) == small
    assert systems == rank_2 and len(systems) == 50
    assert all(args[:2] <= (2, 2) for args, _ in systems)


@pytest.mark.parametrize("n, m, shapes", [
    (3, 3, [(1, 1), (1, 2), (2, 1), (2, 2)]),
    (4, 5, [(1, 1), (1, 2), (2, 1), (2, 2)]),
    (1, 3, [(1, 1)]),
])
def test_prop_dim_checks_every_shape_it_acts_on(n, m, shapes, monkeypatch):
    # the shapes of A(k, l), A(k, 1) and A(1, l) on which the sweep's
    # systems and its sigma act are those the contravariance check reads
    checked, used = [], set()
    real = amodule._monomial_image

    def recorded(side, kind, a, b, mono, k, l):
        used.add((k, l))
        return real(side, kind, a, b, mono, k, l)

    monkeypatch.setattr(dimcheck, "contravariance_check", lambda k, l: checked.append((k, l)) or 1)
    monkeypatch.setattr(amodule, "_monomial_image", recorded)
    monkeypatch.setattr(amodule, "_IMAGES", {})
    monkeypatch.setattr(amodule, "_SINGULAR_CACHE", {})
    assert dimcheck.sweep_contravariance_check(n, m) == len(shapes)
    assert checked == shapes
    hom_dim_sweep(n, m)
    assert used == set(shapes)
