import pytest

from queerlab.dimcheck import copy_singular_dim, hom_dim_check, hom_dim_sweep
from queerlab.partitions import EMPTY, StrictPartition


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
    c = hom_dim_check(sp(2), sp(1), EMPTY, EMPTY)
    assert c.passed and c.brute == 0 and c.formula == 0


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
    from itertools import product

    from queerlab.dimcheck import _sing_system
    from queerlab.linalg import kernel_basis, kernel_dim

    checked = 0
    for a, b, r in product((0, 1, 2), (0, 1, 2), (0, 1, 2)):
        if a + b + r > 4:
            continue
        d_row, d_col = a + r, b + r
        for wrow in product(range(d_row + 1), repeat=2):
            if sum(wrow) != d_row:
                continue
            for wcol in product(range(d_col + 1), repeat=2):
                if sum(wcol) != d_col:
                    continue
                rows, basis = _sing_system(2, 2, a, b, r, wrow, wcol)
                # the rows are keyed by the unknowns' indices
                assert kernel_dim(rows, basis) == len(kernel_basis(rows, range(len(basis))))
                checked += bool(basis)
    assert checked


def test_shared_image_tables_change_no_verdict():
    # one process, tables shared across the ranks, against each sweep run
    # again from empty tables
    from queerlab import dimcheck

    sizes = [(2, 2), (3, 3), (2, 3), (3, 2)]
    shared = [[c.to_dict() for c in hom_dim_sweep(n, m, 2, 2)] for n, m in sizes]
    assert dimcheck._IMAGES
    for (n, m), got in zip(sizes, shared):
        dimcheck._IMAGES.clear()
        assert [c.to_dict() for c in hom_dim_sweep(n, m, 2, 2)] == got, (n, m)
        assert all(case["pass"] for case in got), (n, m)
