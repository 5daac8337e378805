from itertools import chain, product

import pytest

from oracles import all_raising_operators, sing_system_full, solve_singular_full, sym_terms
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
from queerlab.partitions import EMPTY, StrictPartition, all_strict_upto
from queerlab.queer import _label_parity, dim_T, sym_label, tensor_image
from queerlab.symfunc import induct_mult


def sp(*parts):
    return StrictPartition(tuple(parts))


def test_trivial_case():
    c = hom_dim_check(EMPTY, EMPTY, EMPTY, EMPTY)
    assert c.passed and c.brute == 1


def test_type_M_self_case_is_one():
    # for lambda = alpha of type M at r=0 the Hom space is one dimensional,
    # matching the classical normalization
    c = hom_dim_check(sp(2, 1), sp(2, 1), EMPTY, EMPTY, r_max=3)
    assert c.passed and c.brute == 1


def test_type_Q_self_case():
    # End(T_(1) (x) T_(1)) has total dimension 4
    c = hom_dim_check(sp(1), sp(1), sp(1), sp(1))
    assert c.passed and c.brute == 4


def test_derived_example():
    c = hom_dim_check(sp(2), sp(2), sp(1), sp(1))
    assert c.passed and c.r == 1 and c.brute == 8


def test_degree_mismatch_vanishes():
    # hom_dim_sweep never pairs |lambda| - |alpha| with another |mu| - |beta|,
    # so such a case is bad input; the slice it would count is empty
    with pytest.raises(ValueError, match="differ"):
        hom_dim_check(sp(2), sp(1), EMPTY, EMPTY)
    assert dimcheck._sing_dim(3, 3, 0, 0, 2, (2, 0, 0), (1, 0, 0)) == 0


def test_singular_dims():
    assert copy_singular_dim(3, 3, sp(1)) == 2
    assert copy_singular_dim(3, 3, sp(2)) == 2
    assert copy_singular_dim(3, 3, sp(2, 1)) == 2


def test_guard():
    with pytest.raises(ValueError):
        hom_dim_check(sp(3), sp(3), sp(2, 1), sp(2, 1))


def test_small_sweep():
    cases = hom_dim_sweep(3, 3, 1, 1)
    assert cases and all(c.passed for c in cases)


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
    shared = [[c.to_dict() for c in hom_dim_sweep(n, m, 2, 2)] for n, m in sizes]
    assert amodule._IMAGES
    for (n, m), got in zip(sizes, shared):
        amodule._IMAGES.clear()
        amodule._SINGULAR_CACHE.clear()
        dimcheck._induced.cache_clear()
        assert [c.to_dict() for c in hom_dim_sweep(n, m, 2, 2)] == got, (n, m)
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
    for c in hom_dim_sweep(n, m, 2, 2):
        a, b = c.alpha.size, c.beta.size
        r = c.lam.size - a
        if 0 <= r <= 3:
            yield a, b, r, _pad(c.lam.parts, n), _pad(c.mu.parts, m)


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
    for a in range(3):
        for n in range(1, 5):
            alpha = StrictPartition((a,) if a else ())
            assert dimcheck._sym_dim(n, a) == dim_T(alpha, n), (a, n)
            assert (2 * n) ** a == _COPIES[a] * dim_T(alpha, n), (a, n)


def test_a_symmetric_power_of_the_wrong_dimension_is_refused(monkeypatch):
    # all of V^{(x)2} taken for one copy of T_(2)
    monkeypatch.setattr(dimcheck, "_sym_dim", lambda k, d: (2 * k) ** d)
    with pytest.raises(dimcheck.HomDimError, match=r"S\^2V is not one copy of T_\(2\) at rank 3"):
        hom_dim_check(sp(2), EMPTY, sp(2), EMPTY)


def test_support_system_matches_the_full_rank_oracle():
    # the even block of the full system on S^aV (x) S^bW: the unknowns are
    # its triples of symmetric labels, in the same order, and the full even
    # kernel is c_alpha c_beta copies of the one-copy kernel
    built = 0
    for n, m, args in _oracle_systems():
        a, b = args[:2]
        rows, basis = _sing_system(n, m, *args)
        even_rows, even_basis = _parity_block(*sing_system_full(n, m, *args), 0)
        assert basis == [t for t in even_basis if sym_label(t[0]) and sym_label(t[1])], (n, m, args)
        assert _COPIES[a] * _COPIES[b] * kernel_dim(rows, basis) == kernel_dim(even_rows, even_basis), (n, m, args)
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
        even = kernel_dim(*_parity_block(rows, basis, 0))
        odd = kernel_dim(*_parity_block(rows, basis, 1))
        factor = _halving_factor(wrow, wcol)
        assert kernel_dim(rows, basis) == factor * even, (n, m, a, b, r, wrow, wcol)
        assert odd == (factor - 1) * even, (n, m, a, b, r, wrow, wcol)
        # the one-copy count, c_alpha c_beta times, is the full count
        one = dimcheck._sing_dim(n, m, a, b, r, wrow, wcol)
        assert _COPIES[a] * _COPIES[b] * one == kernel_dim(rows, basis), (n, m, a, b, r, wrow, wcol)
        nonzero += factor == 2 and even > 0
    assert nonzero > 50


def _expand(vec):
    """A vector {(v, w, mono): (re, im)} of S^aV (x) S^bW (x) A_r, its labels
    expanded into the tensor terms of V^{(x)a} (x) W^{(x)b} (`sym_terms`)."""
    out = {}
    for (vlab, wlab, mono), (xr, xi) in vec.items():
        for v, sv in sym_terms(vlab):
            for w, sw in sym_terms(wlab):
                out[v, w, mono] = (sv * sw * xr, sv * sw * xi)
    return out


def _act_on_triples(n, m, side, op, vec):
    """A raising or Cartan operator on a vector {(v, w, mono): (re, im)} of
    V^{(x)a} (x) W^{(x)b} (x) A_r, with the Koszul signs of the rows of
    `sing_system_full`."""
    odd = op[0] == "Y"
    out = {}
    for (vlab, wlab, mono), (xr, xi) in vec.items():
        pv, pw = _label_parity(vlab), _label_parity(wlab)
        terms = []
        if side == "left":
            terms += [((v2, wlab, mono), c) for v2, c in tensor_image(op, vlab).items()]
        else:
            sign = -1 if odd and pv else 1
            terms += [
                ((vlab, w2, mono), (sign * c[0], sign * c[1]))
                for w2, c in tensor_image(op, wlab).items()
            ]
        sign = -1 if odd and (pv + pw) % 2 else 1
        terms += [
            ((vlab, wlab, mono2), (sign * c[0], sign * c[1]))
            for mono2, c in act_terms(side, op, {mono: (1, 0)}, n, m).items()
        ]
        for key, (sr, si) in terms:
            ur, ui = out.get(key, (0, 0))
            out[key] = (ur + xr * sr - xi * si, ui + xr * si + xi * sr)
    return {k: c for k, c in out.items() if c != (0, 0)}


def test_an_odd_cartan_element_maps_the_even_singular_vectors_onto_the_odd():
    # the even kernel, expanded into V^{(x)a} (x) W^{(x)b}, is killed by
    # every raising operator of the full system; Y_ii (or the right Y_jj)
    # squares to -wrow_i, keeps every raising operator's kernel, and is one
    # to one on the even kernel
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
            scalar = -wt[i - 1]
            assert _act_on_triples(n, m, side, hbar, w) == {
                t: (scalar * x, scalar * y) for t, (x, y) in v.items()
            }
            for so in all_raising_operators(n, m):
                assert not _act_on_triples(n, m, *so, v)
                assert not _act_on_triples(n, m, *so, w)
            checked += 1
    assert checked > 100


def test_the_full_parity_oracle_gives_the_same_sweep(monkeypatch):
    # both the brute side, from the full tensor powers over c_alpha c_beta,
    # and sigma from systems solved on both parities
    fast = [[c.to_dict() for c in hom_dim_sweep(k, k, 2, 2)] for k in (2, 3, 4)]

    def full_per_copy(n, m, a, b, *args):
        count, rem = divmod(kernel_dim(*sing_system_full(n, m, a, b, *args)), _COPIES[a] * _COPIES[b])
        assert not rem
        return count

    monkeypatch.setattr(dimcheck, "_sing_dim", full_per_copy)
    monkeypatch.setattr(dimcheck, "singular_dim", lambda n, m, nu: len(solve_singular_full(n, m, nu)))
    full = [[c.to_dict() for c in hom_dim_sweep(k, k, 2, 2)] for k in (2, 3, 4)]
    assert full == fast
    assert all(c["pass"] for c in fast[0])


def test_sigma_is_the_halved_bisingular_slice():
    # sigma(nu), the length of the singular basis of L_nu, is the halved
    # count of the a = b = 0 system and the length of the full-parity basis
    checked = 0
    for nu in all_strict_upto(6):
        if nu.length <= 3:
            halved = dimcheck._sing_dim(3, 3, 0, 0, nu.size, _pad(nu.parts, 3), _pad(nu.parts, 3))
            assert halved == len(singular_vectors(3, 3, nu)) == len(solve_singular_full(3, 3, nu)), nu
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
                    assert not tensor_image(op, vlab if side == "left" else wlab)
                    assert not act_terms(side, op, {mono: (1, 0)}, n, m)
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
                    assert not act_terms(side, op, {mono: (1, 0)}, n, m)
                    checked += 1
    assert checked > 10000


def test_singular_vectors_need_no_dead_operator(monkeypatch):
    # the full operator list gives the same singular basis
    lams = [lam for lam in all_strict_upto(5) if lam.length <= 3]
    monkeypatch.setattr(amodule, "_SINGULAR_CACHE", {})
    live = [singular_vectors(3, 3, lam) for lam in lams]
    monkeypatch.setattr(amodule, "_SINGULAR_CACHE", {})
    monkeypatch.setattr(amodule, "raising_operators", lambda w: all_raising_operators(3, 3))
    assert [singular_vectors(3, 3, lam) for lam in lams] == live


def test_default_sweep_costs_the_same_at_rank_2_and_3(monkeypatch):
    # rank 3 checks the cases of rank 2 and builds systems of the same size,
    # listing as many labels and looking up as many images
    counts = {"labels": 0, "images": 0}
    tensor_basis, image = amodule.tensor_basis, amodule._image

    def counted(key, f):
        def wrapped(*args):
            out = f(*args)
            counts[key] += len(out) if key == "labels" else 1
            return out

        return wrapped

    monkeypatch.setattr(amodule, "tensor_basis", counted("labels", tensor_basis))
    monkeypatch.setattr(amodule, "_image", counted("images", image))

    def build(n, m, args):
        counts.update(labels=0, images=0)
        amodule._labels_by_weight.cache_clear()
        rows, basis = _sing_system(n, m, *args)
        return len(rows), len(basis), sum(map(len, rows)), counts["labels"], counts["images"]

    small, large = list(_sweep_systems(2, 2)), list(_sweep_systems(3, 3))
    assert len(small) == len(large) == 50
    for (a, b, r, wrow, wcol), args in zip(small, large):
        assert args == (a, b, r, wrow + (0,), wcol + (0,))
        assert build(2, 2, (a, b, r, wrow, wcol)) == build(3, 3, args), args


def test_sweep_is_stable_in_the_rank():
    cases = [[c.to_dict() for c in hom_dim_sweep(k, k, 2, 2)] for k in (2, 3, 4)]
    assert cases[0] == cases[1] == cases[2]
    assert all(c["pass"] for c in cases[0])


def test_induct_mult_runs_once_per_pair(monkeypatch):
    calls = []

    def counting(mu, nu):
        calls.append((mu, nu))
        return induct_mult(mu, nu)

    dimcheck._induced.cache_clear()
    monkeypatch.setattr(dimcheck, "induct_mult", counting)
    hom_dim_sweep(3, 3, 2, 2)
    hom_dim_sweep(3, 3, 2, 2)
    dimcheck._induced.cache_clear()
    assert len(calls) == len(set(calls)) == 9


def test_labels_are_listed_once_per_weight(monkeypatch):
    # the default sweep, run twice, lists the labels of each of its 13
    # (rank, size, weight) keys once
    calls = []
    tensor_basis = amodule.tensor_basis
    monkeypatch.setattr(amodule, "tensor_basis", lambda *args: calls.append(args) or tensor_basis(*args))
    monkeypatch.setattr(amodule, "_SINGULAR_CACHE", {})
    amodule._labels_by_weight.cache_clear()
    hom_dim_sweep(3, 3, 2, 2)
    hom_dim_sweep(3, 3, 2, 2)
    amodule._labels_by_weight.cache_clear()
    assert len(calls) == len(set(calls)) == 13
