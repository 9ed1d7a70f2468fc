"""Laguerre and Hermite building blocks.

The exact track is cross-checked against an independent oracle (the
generating function of the Laguerre family, expanded symbolically); the
float track is checked against the exact track and against orthonormality
under Gaussian quadrature.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import roots_laguerre

from polyfock.multiindex import build_index_table
from polyfock.orthopoly import (
    _laguerre_in,
    _laguerre_product_sums,
    check_laguerre_decomposition,
    check_laguerre_of_sum,
    check_laguerre_telescoping,
    hermite_fn,
    hermite_fn_table,
    laguerre_eval,
    laguerre_eval_all,
    laguerre_fn,
    laguerre_fn_all,
    laguerre_poly,
)
from polyfock.quadrature import gauss_hermite_1d
from polyfock.ratpoly import RationalPoly


# -- exact track ------------------------------------------------------------

def _laguerre_from_generating_function(p_max: int, a: Fraction):
    """Coefficients of t^p in (1-t)^{-(a+1)} exp(-x t/(1-t)), expanded to
    order p_max.  Completely independent of the recurrence route."""
    # series of (1-t)^{-(a+1)} in t
    binom = [Fraction(1)]
    for j in range(1, p_max + 1):
        binom.append(binom[-1] * (a + j) / j)
    # series of exp(-x t / (1-t)): sum_k (-x)^k/k! * t^k (1-t)^{-k}
    x = RationalPoly.variable("x", ("x",))
    out = [RationalPoly.zero(("x",)) for _ in range(p_max + 1)]
    xpow = RationalPoly.constant(Fraction(1), ("x",))
    kfact = Fraction(1)
    for k in range(p_max + 1):
        if k:
            xpow = xpow * x
            kfact *= k
        # t^k (1-t)^{-(a+1+k)} contributes to t^p for p >= k
        coeff = Fraction(1)
        for p in range(k, p_max + 1):
            if p > k:
                coeff = coeff * (a + k + (p - k)) / (p - k)
            term = xpow.scale(Fraction((-1) ** k, 1) / kfact * coeff)
            out[p] = out[p] + term
    return out


@pytest.mark.parametrize("a", [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3)])
def test_laguerre_polynomials_match_generating_function(a):
    oracle = _laguerre_from_generating_function(8, a)
    for p in range(9):
        assert laguerre_poly(p, a) == oracle[p], f"p={p}, a={a}"


def test_laguerre_value_at_zero_is_binomial():
    for p in range(10):
        for a in (0, 1, 2, 5):
            got = laguerre_poly(p, a).evaluate([Fraction(0)])
            assert got == math.comb(p + a, p)


def test_laguerre_leading_coefficient():
    for p in range(8):
        lead = laguerre_poly(p, 2).coefficient((p,))
        assert lead == Fraction((-1) ** p, math.factorial(p))


def test_identity_checks_hold_on_small_cases():
    assert check_laguerre_of_sum(Fraction(1, 2), Fraction(3), 6)
    assert check_laguerre_telescoping(Fraction(0), 6)
    ok, count = check_laguerre_decomposition(3, 4)
    assert ok
    assert count == math.comb(7, 3)


def test_decomposition_summand_count_is_binomial():
    for n in range(1, 5):
        for p in range(4):
            ok, count = check_laguerre_decomposition(n, p)
            assert ok
            assert count == math.comb(n + p, n)


def _laguerre_product_sum_expanded(coords, p):
    """Reference: the sum over |k| <= p expanded summand by summand."""
    per_coord = [_laguerre_in(p, 0, c) for c in coords]
    total = RationalPoly.zero(coords[0].variables)
    for k in build_index_table(len(coords), p + 1):
        prod = per_coord[0][k[0]]
        for r in range(1, len(coords)):
            prod = prod * per_coord[r][k[r]]
        total = total + prod
    return total


def test_folded_product_sum_equals_expansion():
    for n in range(1, 4):
        ring = tuple(f"t{r}" for r in range(1, n + 1))
        coords = [RationalPoly.variable(v, ring) for v in ring]
        folded = list(_laguerre_product_sums(coords, 5))
        assert len(folded) == 6
        for p in range(6):
            assert folded[p] == _laguerre_product_sum_expanded(coords, p)


# -- float track ------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(p=st.integers(0, 30), xnum=st.integers(-40, 40))
def test_float_recurrence_matches_exact(p, xnum):
    x = Fraction(xnum, 4)
    exact = float(laguerre_poly(p, 1).evaluate([x]))
    got = laguerre_eval(p, 1.0, float(x))
    assert got == pytest.approx(exact, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("p", [10, 20, 39])
def test_float_recurrence_accuracy_pinned_on_0_100(p):
    # |float - exact| / max(1, |exact|) over 200 points in (0, 100); the
    # worst values measured are 6.8e-15 (p = 10), 1.2e-14 (20), 2.1e-14 (39).
    x = np.random.default_rng(0).uniform(0.0, 100.0, 200)
    poly = laguerre_poly(p)
    exact = np.array([float(poly.evaluate([Fraction(v)])) for v in x])
    got = laguerre_eval_all(p, 0, x)[p]
    assert np.max(np.abs(got - exact) / np.maximum(1.0, np.abs(exact))) <= 1e-13


def test_laguerre_eval_all_prefix_consistency():
    x = np.linspace(-3, 12, 7)
    table = laguerre_eval_all(6, 2.0, x)
    assert table.shape == (7, 7)
    for p in range(7):
        assert_allclose(table[p], laguerre_eval(p, 2.0, x), rtol=1e-13)


@pytest.mark.parametrize("a", [0, 0.0, 3, 5, 2.5])
def test_laguerre_eval_is_the_last_row_bit_for_bit(a):
    rng = np.random.default_rng(5)
    points = [rng.uniform(0, 30, (6, 4)), rng.uniform(0, 9, 5) + 1j * rng.uniform(-2, 2, 5),
              rng.uniform(0, 9, 5).astype(np.float32), np.arange(4), 0.7, np.float64(12.5)]
    for x in points:
        for p in range(9):
            got, stack = laguerre_eval(p, a, x), laguerre_eval_all(p, a, x)
            assert type(got) is type(stack[p])
            assert got.dtype == stack.dtype and np.shape(got) == np.shape(x)
            assert_array_equal(got, stack[p])


def test_laguerre_functions_include_half_exponential():
    t = np.array([0.0, 0.5, 2.0, 9.0])
    for p in range(5):
        assert_allclose(laguerre_fn(p, t),
                        laguerre_eval(p, 0.0, t) * np.exp(-t / 2), rtol=1e-13)
    table = laguerre_fn_all(4, t)
    assert_allclose(table[3], laguerre_fn(3, t), rtol=1e-13)


def test_laguerre_functions_orthonormal():
    # Gauss-Laguerre integrates e^{-t} * poly exactly for degree <= 2N-1
    nodes, weights = roots_laguerre(24)
    for i in range(11):
        for j in range(i, 11):
            acc = np.sum(weights * laguerre_eval(i, 0.0, nodes)
                         * laguerre_eval(j, 0.0, nodes))
            assert acc == pytest.approx(1.0 if i == j else 0.0, abs=1e-8)


def test_hermite_functions_orthonormal_under_gauss_hermite():
    nodes, weights = gauss_hermite_1d(40)
    comp = weights * np.exp(nodes**2)
    table = hermite_fn_table(12, nodes)
    gram = table @ (comp[:, None] * table.T)
    assert_allclose(gram, np.eye(13), atol=1e-10)


def test_hermite_fn_agrees_with_table():
    t = np.linspace(-4, 4, 9)
    table = hermite_fn_table(8, t)
    for p in (0, 3, 8):
        assert_allclose(hermite_fn(p, t), table[p], rtol=1e-13)


def test_hermite_fn_known_values():
    # psi_0(0) = pi^{-1/4}, psi_1(0) = 0, psi_2(0) = -pi^{-1/4}/sqrt(2)
    assert hermite_fn(0, 0.0) == pytest.approx(math.pi ** -0.25, rel=1e-14)
    assert hermite_fn(1, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert hermite_fn(2, 0.0) == pytest.approx(-math.pi ** -0.25 / math.sqrt(2), rel=1e-14)


def test_complex_argument_supported():
    z = np.array([0.3 + 0.4j, -1.0 + 0.1j])
    val = laguerre_eval(3, 1.0, z)
    exact = [complex(laguerre_poly(3, 1).evaluate([zz])) for zz in z]
    assert_allclose(val, exact, rtol=1e-12)
