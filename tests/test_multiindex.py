import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_array_equal

from polyfock import (KernelSpec, RationalPoly, R_true_poly_image, gaussian_monomial_inner,
                      gaussian_poly, kernel_true_poly, polynomial)
from polyfock.multiindex import IndexTable, build_index_table, dimension, index_products


def test_dimension_small_values():
    assert dimension(1, 1) == 1
    assert dimension(1, 4) == 4
    assert dimension(2, 3) == 6
    assert dimension(3, 3) == 10
    assert dimension(4, 2) == 5


def test_dimension_matches_binomial():
    for n in range(1, 7):
        for m in range(1, 7):
            assert dimension(n, m) == math.comb(n + m - 1, n)


def test_dimension_rejects_bad_input():
    with pytest.raises(ValueError):
        dimension(0, 3)
    with pytest.raises(ValueError):
        dimension(2, 0)
    with pytest.raises(TypeError):
        dimension(2.0, 3)
    with pytest.raises(TypeError):
        dimension(True, 3)
    assert dimension(np.int64(2), np.int32(3)) == 6


def test_enumeration_order_n2_m3():
    table = build_index_table(2, 3)
    assert table.indices == (
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0),
    )


def _recursive_enumeration(n, budget):
    """Lexicographic indices with |k| <= budget, by recursion on the first entry."""
    if n == 0:
        return [()]
    return [(head,) + tail for head in range(budget + 1)
            for tail in _recursive_enumeration(n - 1, budget - head)]


@pytest.mark.parametrize("n, m", [(n, m) for n in range(1, 6) for m in range(1, 7)]
                         + [(7, 10), (3, 34)])  # budgets m - 1 = 9 and 33
def test_enumeration_order_matches_recursive_reference(n, m):
    assert build_index_table(n, m).indices == tuple(_recursive_enumeration(n, m - 1))


def test_phi_is_one_based_bijection():
    table = build_index_table(3, 4)
    assert table.d == dimension(3, 4)
    seen = set()
    for j in range(1, table.d + 1):
        k = table.phi(j)
        assert sum(k) <= 3
        assert table.position(k) == j
        seen.add(k)
    assert len(seen) == table.d


def test_phi_out_of_range():
    table = build_index_table(2, 2)
    with pytest.raises(IndexError):
        table.phi(0)
    with pytest.raises(IndexError):
        table.phi(table.d + 1)
    with pytest.raises(KeyError):
        table.position((5, 5))


def test_table_iteration_and_len():
    table = build_index_table(2, 4)
    assert len(table) == table.d
    listed = list(table)
    assert listed[0] == (0, 0)
    assert all(sum(k) <= 3 for k in listed)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), m=st.integers(1, 6))
def test_table_properties(n, m):
    """Lexicographic order, completeness, and budget bound for random (n, m)."""
    table = build_index_table(n, m)
    ks = table.indices
    assert len(ks) == math.comb(n + m - 1, n)
    assert all(len(k) == n for k in ks)
    assert all(sum(k) <= m - 1 for k in ks)
    assert list(ks) == sorted(ks)
    assert len(set(ks)) == len(ks)


def test_table_is_frozen():
    table = build_index_table(1, 2)
    with pytest.raises(AttributeError):
        table.n = 5
    assert isinstance(table, IndexTable)


def _left_to_right(table, factors):
    """prod_r factors[k_r, ..., r] for each k of the table, one full product per index."""
    out = []
    for k in table:
        prod = factors[k[0], ..., 0]
        for r in range(1, table.n):
            prod = prod * factors[k[r], ..., r]
        out.append(prod)
    return out


def _random_factors(n, m, dtype):
    rng = np.random.default_rng([n, m])
    factors = rng.uniform(-2, 2, (m + 1, 5, 3, n)).astype(dtype)
    if dtype is complex:
        factors = factors + 1j * rng.uniform(-2, 2, factors.shape)
    return factors


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_index_products_against_phi(n, m, dtype):
    # Shared prefixes must not change the rounding: bit-identical to one
    # left-to-right product per index.
    table = build_index_table(n, m)
    factors = _random_factors(n, m, dtype)
    got = list(index_products(table, factors))
    assert len(got) == table.d
    for prod, expected in zip(got, _left_to_right(table, factors)):
        assert prod.shape == (5, 3)
        assert prod.dtype == dtype
        assert_array_equal(prod, expected)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n, m", [(1, 4), (2, 3), (3, 4), (5, 5)])
def test_index_products_yields_arrays_that_share_no_memory(n, m, dtype):
    table = build_index_table(n, m)
    factors = _random_factors(n, m, dtype)
    expected = _left_to_right(table, factors.copy())
    for prod, want in zip(index_products(table, factors), expected, strict=True):
        assert_array_equal(prod, want)
        prod[...] = np.nan  # must leave every later product unchanged


def test_array_is_the_read_only_index_array():
    for n, m in [(1, 1), (1, 4), (2, 3), (3, 3)]:
        table = build_index_table(n, m)
        assert table.array.shape == (table.d, n)
        assert table.array.dtype == np.intp
        assert np.array_equal(table.array, np.array(table.indices))
        with pytest.raises(ValueError):
            table.array[0, 0] = 1


def _entry_points():
    """Every multi-index argument of the library: (entry, valid index, lowest entry)."""
    spec = KernelSpec(2, 3)
    z = np.array([[0.3 + 0.1j, -0.2j], [0.5, 0.4 - 0.3j]])
    table = build_index_table(2, 3)
    poly = RationalPoly(("x", "y"), {(1, 2): 5, (0, 1): 1})
    return {
        "IndexTable.position": (table.position, (1, 1), 0),
        "kernel_true_poly": (lambda b: kernel_true_poly(spec, b, z, z[::-1]), (2, 1), 1),
        "R_true_poly_image": (lambda b: R_true_poly_image(spec, b, [0.3, 0.1], [0.4, -0.3])
                              .components, (2, 1), 1),
        "polynomial": (lambda e: polynomial([(1.5, e)], n=2).terms, (1, 2), 0),
        "gaussian_poly": (lambda e: gaussian_poly([(1.5, e)], n=2).terms, (1, 2), 0),
        "gaussian_monomial_inner": (lambda e: gaussian_monomial_inner(1, (2, 1), e, (1, 1),
                                                                      (0, 1)), (1, 1), 0),
        "RationalPoly": (lambda e: RationalPoly(("x", "y"), {e: 3}).terms, (1, 2), 0),
        "RationalPoly.coefficient": (poly.coefficient, (1, 2), 0),
    }


ENTRY_POINTS = _entry_points()


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_multi_index_arguments_are_parsed_alike(name):
    entry, valid, low = ENTRY_POINTS[name]
    # repr tells a stored np.int64 from a Python int, and is equal for equal arrays.
    expected = repr(entry(valid))
    assert repr(entry(tuple(np.int64(c) for c in valid))) == expected
    for bad in (1.5, np.float64(2.0), True):
        with pytest.raises(TypeError, match="must be integers"):
            entry((bad,) + valid[1:])
    for wrong in (valid[:1], valid + (low,), (low - 1,) + valid[1:]):
        with pytest.raises(ValueError):
            entry(wrong)
