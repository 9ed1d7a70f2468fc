import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

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


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_index_products_against_phi(n, m, dtype):
    table = build_index_table(n, m)
    rng = np.random.default_rng([n, m])
    factors = rng.uniform(-2, 2, (m + 1, 5, 3, n)).astype(dtype)
    if dtype is complex:
        factors = factors + 1j * rng.uniform(-2, 2, factors.shape)
    got = list(index_products(table, factors))
    assert len(got) == table.d
    for j in range(1, table.d + 1):
        k = table.phi(j)
        expected = np.prod([factors[k[r], :, :, r] for r in range(n)], axis=0)
        assert got[j - 1].shape == (5, 3)
        assert_allclose(got[j - 1], expected, rtol=1e-15, atol=0)
