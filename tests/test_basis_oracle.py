"""Tests for the moment-based orthonormal basis and its kernel reconstruction."""

import logging
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

import polyfock.basis_oracle as basis_oracle
from polyfock.basis_oracle import (
    BasisElement,
    _charge_classes,
    _class_charges,
    _coordinate_factors,
    build_orthonormal_basis,
    gaussian_monomial_inner,
    kernel_via_basis,
    solve_triangular,
)
from polyfock.kernels import KernelSpec, kernel_F
from polyfock.multiindex import build_index_table
from polyfock.quadrature import gauss_hermite_1d


def _moment_quadrature(alpha, a, b, c, d):
    """One-coordinate moment by plain 2D Gauss-Hermite on x + iy."""
    t, w = gauss_hermite_1d(32)
    x = t / math.sqrt(alpha)
    X, Y = np.meshgrid(x, x, indexing="ij")
    Z = X + 1j * Y
    f = Z ** a * np.conj(Z) ** b * np.conj(Z ** c * np.conj(Z) ** d)
    return np.sum(np.outer(w, w) * f) / math.pi


def test_monomial_moments_exact_values():
    assert gaussian_monomial_inner(1, [0], [0], [0], [0]) == 1
    assert gaussian_monomial_inner(2, [1], [0], [1], [0]) == Fraction(1, 2)
    assert gaussian_monomial_inner(1, [2], [0], [2], [0]) == 2
    assert gaussian_monomial_inner(1, [1], [1], [1], [1]) == 2
    # a + d = b + c = 2, so the value is 2! / alpha^2
    assert gaussian_monomial_inner(Fraction(3, 2), [2], [1], [1], [0]) == Fraction(8, 9)
    # selection rule: nonzero only when a + d = b + c per coordinate
    assert gaussian_monomial_inner(1, [1], [0], [0], [0]) == 0
    assert gaussian_monomial_inner(1, [2], [0], [0], [2]) == 0
    assert gaussian_monomial_inner(1, [3], [1], [2], [0]) == 6


def test_monomial_moments_match_quadrature():
    rng = np.random.default_rng(5)
    for alpha in (1, 2, Fraction(5, 4)):
        for _ in range(12):
            a, b, c, d = rng.integers(0, 5, size=4)
            exact = gaussian_monomial_inner(alpha, [a], [b], [c], [d])
            quad = _moment_quadrature(float(alpha), a, b, c, d)
            assert_allclose(complex(quad), float(exact), atol=1e-10)


def test_monomial_moments_factor_over_coordinates():
    alpha = Fraction(7, 3)
    p1, q1, p2, q2 = (2, 1), (0, 1), (1, 0), (1, 0)
    combined = gaussian_monomial_inner(alpha, p1, q1, p2, q2)
    per_coord = [
        gaussian_monomial_inner(alpha, [p1[r]], [q1[r]], [p2[r]], [q2[r]])
        for r in range(2)
    ]
    assert combined == per_coord[0] * per_coord[1]
    # one coordinate violating the selection rule kills the product
    assert gaussian_monomial_inner(alpha, (1, 1), (0, 1), (0, 1), (0, 0)) == 0


@pytest.mark.parametrize("alpha", [1.25, 1.0, math.sqrt(2.0)])
def test_monomial_moments_refuse_float_alpha(alpha):
    with pytest.raises(TypeError, match="alpha must be an int or a Fraction"):
        gaussian_monomial_inner(alpha, [3], [1], [2], [0])


def test_monomial_moment_validation():
    with pytest.raises(ValueError):
        gaussian_monomial_inner(1, [1, 0], [0], [0], [0])
    with pytest.raises(ValueError):
        gaussian_monomial_inner(1, [-1], [0], [0], [0])


def _basis_gram(alpha, basis):
    k = len(basis)
    G = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            total = 0.0
            for (p1, q1), c1 in zip(basis[i].monomials, basis[i].coeffs):
                for (p2, q2), c2 in zip(basis[j].monomials, basis[j].coeffs):
                    total += c1 * c2 * float(
                        gaussian_monomial_inner(alpha, p1, q1, p2, q2)
                    )
            G[i, j] = total
    return G


def test_basis_is_orthonormal_exact_route():
    basis = build_orthonormal_basis(1, n=1, m=2, p_max=4)
    assert len(basis) == 10  # (p_max + 1) holomorphic degrees x 2 conj degrees
    G = _basis_gram(1, basis)
    assert_allclose(G, np.eye(len(basis)), atol=1e-12)


def test_basis_orthonormal_two_variables():
    basis = build_orthonormal_basis(2, n=2, m=2, p_max=2)
    G = _basis_gram(2, basis)
    assert_allclose(G, np.eye(len(basis)), atol=1e-12)


def test_basis_element_evaluation():
    basis = build_orthonormal_basis(1, n=1, m=1, p_max=2)
    # with m = 1 the basis is the holomorphic monomial ladder z^p / sqrt(p!)
    by_p = {b.p: b for b in basis}
    z = np.array([0.7 + 0.2j])
    assert_allclose(by_p[(0,)](z), 1.0)
    assert_allclose(by_p[(1,)](z), z[0], rtol=1e-14)
    assert_allclose(by_p[(2,)](z), z[0] ** 2 / math.sqrt(2), rtol=1e-14)
    # leading exponent pair is the last monomial Gram-Schmidt introduced
    for b in basis:
        assert b.monomials[-1] == (b.p, b.q)
        assert isinstance(b, BasisElement)


def test_build_basis_validation():
    with pytest.raises(ValueError):
        build_orthonormal_basis(1, n=1, m=2, p_max=-1)
    with pytest.raises(TypeError, match="alpha must be an int or a Fraction"):
        build_orthonormal_basis(1.3, n=1, m=2, p_max=4)


def test_kernel_reconstruction_matches_closed_form():
    rng = np.random.default_rng(9)
    for n, m, alpha in [(1, 1, 1.0), (1, 2, 1.0), (1, 3, 2.0), (2, 2, 1.0)]:
        spec = KernelSpec(n=n, m=m, alpha=alpha)
        z = (rng.uniform(-0.3, 0.3, (10, n)) + 1j * rng.uniform(-0.3, 0.3, (10, n)))
        w = (rng.uniform(-0.3, 0.3, (10, n)) + 1j * rng.uniform(-0.3, 0.3, (10, n)))
        closed = kernel_F(spec, z, w)
        truncated = kernel_via_basis(alpha, n, m, 32, z, w)
        assert_allclose(truncated, closed, rtol=1e-10)


def test_kernel_reconstruction_tail_shrinks_with_degree():
    spec = KernelSpec(n=1, m=2, alpha=1.0)
    z = np.array([0.45 + 0.3j])
    w = np.array([-0.2 + 0.5j])
    closed = complex(kernel_F(spec, z, w))
    errs = [
        abs(complex(kernel_via_basis(1.0, 1, 2, p_max, z, w)) - closed) / abs(closed)
        for p_max in (4, 8, 16)
    ]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-12


def test_kernel_reconstruction_hermitian_and_positive():
    z = np.array([[0.3 - 0.1j, 0.2j]])
    w = np.array([[-0.25 + 0.4j, 0.1 + 0.1j]])
    k_zw = kernel_via_basis(1.0, 2, 2, 12, z, w)
    k_wz = kernel_via_basis(1.0, 2, 2, 12, w, z)
    assert_allclose(k_zw, np.conj(k_wz), rtol=1e-13)
    diag = kernel_via_basis(1.0, 2, 2, 12, z, z)
    assert abs(diag[0].imag) < 1e-14
    assert diag[0].real > 0


def test_streamed_kernel_matches_materialized_basis_sum():
    alpha, n, m, p_max = 1, 1, 2, 6
    basis = build_orthonormal_basis(alpha, n=n, m=m, p_max=p_max)
    z = np.array([0.4 + 0.1j])
    w = np.array([0.2 - 0.3j])
    by_hand = sum(b(w) * np.conj(b(z)) for b in basis)
    streamed = kernel_via_basis(alpha, n, m, p_max, z, w)
    assert_allclose(streamed, by_hand, atol=1e-12)


# (n, m, p_max): every (n, m) up to (2, 3) at three truncations, and the
# suite's m cap at n = 3, where the charge-0 class has 20 members.
BATCHED_CASES = [(n, m, p_max) for n in (1, 2) for m in (1, 2, 3) for p_max in (0, 3, 8)]
BATCHED_CASES.append((3, 4, 3))


def test_batched_kernel_matches_exact_basis_sum():
    rng = np.random.default_rng(21)
    for n, m, p_max in BATCHED_CASES:
        z = rng.uniform(-0.4, 0.4, (6, n)) + 1j * rng.uniform(-0.4, 0.4, (6, n))
        w = rng.uniform(-0.4, 0.4, (6, n)) + 1j * rng.uniform(-0.4, 0.4, (6, n))
        w[0] = z[0]
        basis = build_orthonormal_basis(1, n=n, m=m, p_max=p_max)
        by_hand = sum(b(w) * np.conj(b(z)) for b in basis)
        batched = kernel_via_basis(1, n, m, p_max, z, w)
        assert_allclose(batched, by_hand, rtol=1e-13)


def _class_members(n, m, p_max):
    """charge -> the class's (p, q) pairs, from the (c+, c-, level) enumeration."""
    table = build_index_table(n, m).array
    out = {}
    for plus, minus, level in zip(*_class_charges(n, m, p_max)):
        members = table[table.sum(axis=1) <= level]
        out[tuple(plus - minus)] = sorted(zip(map(tuple, (plus + members).tolist()),
                                              map(tuple, (minus + members).tolist())))
    return out


@pytest.mark.parametrize("n, m, p_max", [(1, 3, 4), (2, 3, 5), (3, 2, 3), (3, 4, 2)])
def test_class_charges_enumerate_the_exact_route_classes(n, m, p_max):
    P, Q, starts = _charge_classes(n, m, p_max)
    exact = {tuple(P[lo] - Q[lo]): sorted(zip(map(tuple, P[lo:hi].tolist()),
                                              map(tuple, Q[lo:hi].tolist())))
             for lo, hi in zip(starts[:-1], starts[1:])}
    assert _class_members(n, m, p_max) == exact
    assert len(_class_charges(n, m, p_max)[2]) == len(starts) - 1


def test_class_grams_match_normalized_moments():
    alpha = Fraction(3, 2)
    for n in (1, 2):
        for m in (1, 2, 3):
            p_max = 6
            gram, scale = _coordinate_factors(float(alpha), p_max, m)
            for charge, pairs in _class_members(n, m, p_max).items():
                a = np.abs(charge)
                s = np.array([np.minimum(p, q) for p, q in pairs])
                got = np.prod([gram[a[r]][np.ix_(s[:, r], s[:, r])] for r in range(n)], axis=0)
                got_scale = np.prod([scale[a[r], s[:, r]] for r in range(n)], axis=0)
                norms = [math.sqrt(gaussian_monomial_inner(alpha, p, q, p, q)) for p, q in pairs]
                expected = np.array([
                    [float(gaussian_monomial_inner(alpha, p1, q1, p2, q2)) / (n1 * n2)
                     for (p2, q2), n2 in zip(pairs, norms)]
                    for (p1, q1), n1 in zip(pairs, norms)
                ])
                assert_allclose(got, expected, rtol=0, atol=1e-15)
                assert np.all(np.diagonal(got) == 1.0)
                assert_allclose(got_scale, 1 / np.array(norms), rtol=1e-14)


def test_charge_classes_are_sorted_and_complete():
    n, m, p_max = 2, 3, 5
    P, Q, starts = _charge_classes(n, m, p_max)
    assert len(P) == math.comb(n + p_max, n) * math.comb(n + m - 1, n)
    for lo, hi in zip(starts[:-1], starts[1:]):
        charge = P[lo:hi] - Q[lo:hi]
        assert (charge == charge[0]).all()
        keys = [(sum(q), tuple(q)) for q in Q[lo:hi].tolist()]
        assert keys == sorted(keys)
    first = [tuple(c) for c in (P - Q)[starts[:-1]].tolist()]
    assert first == sorted(set(first))


def test_kernel_via_basis_logs_class_statistics(caplog):
    z = np.array([[0.1 + 0.2j]])
    with caplog.at_level(logging.DEBUG, logger="polyfock"):
        kernel_via_basis(1.0, 1, 2, 4, z, z)
    (record,) = [r for r in caplog.records if r.name == "polyfock"]
    # charges -1..4: the charge -1 and 4 classes have one member, the rest two
    assert "6 charge classes, 10 monomials" in record.getMessage()
    assert "{1: 2, 2: 4}" in record.getMessage()
    assert "smallest Cholesky pivot" in record.getMessage()
    # one batch per level; the level-1 batch holds 4 classes, 2 columns (w | z)
    assert "2 solve batches, largest batch (4, 2, 2)" in record.getMessage()


def test_kernel_via_basis_peak_memory():
    # n = 3, m = 3, p_max = 64 on 20 point pairs: 479,050 monomials in
    # 60,970 classes.  Forming the monomial values took 74 MiB; this route
    # measured 17.8 MiB, 9.6 MiB of it the (3, 65) index table of c+.
    rng = np.random.default_rng(4)
    z = rng.uniform(-0.3, 0.3, (20, 3)) + 1j * rng.uniform(-0.3, 0.3, (20, 3))
    w = rng.uniform(-0.3, 0.3, (20, 3)) + 1j * rng.uniform(-0.3, 0.3, (20, 3))
    tracemalloc.start()
    try:
        got = kernel_via_basis(1.0, 3, 3, 64, z, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 << 20
    assert_allclose(got, kernel_F(KernelSpec(3, 3), z, w), rtol=1e-12)


@pytest.mark.parametrize("k", range(1, 11))  # 10 is the largest class at n = m = 3
def test_forward_substitution_matches_scipy(k):
    rng = np.random.default_rng(k)
    for stack in ((7,), (2, 3)):
        # unit-scale diagonal over a small strictly lower part: well conditioned
        L = (np.tril(rng.uniform(-1, 1, stack + (k, k)), -1) / k
             + np.eye(k) * rng.uniform(1, 2, stack + (1, k)))
        b = rng.normal(size=stack + (k, 5)) + 1j * rng.normal(size=stack + (k, 5))
        x = solve_triangular(L, b)
        expected = scipy.linalg.solve_triangular(L, b, lower=True)
        assert x.shape == b.shape
        assert np.max(np.abs(x - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_kernel_via_basis_solves_once_per_batch(monkeypatch):
    rng = np.random.default_rng(3)
    z = rng.uniform(-0.4, 0.4, (6, 2)) + 1j * rng.uniform(-0.4, 0.4, (6, 2))
    w = rng.uniform(-0.4, 0.4, (6, 2)) + 1j * rng.uniform(-0.4, 0.4, (6, 2))
    unsplit = kernel_via_basis(1.0, 2, 3, 8, z, w)
    shapes = []

    def counting(L, b):
        shapes.append(L.shape)
        return solve_triangular(L, b)

    monkeypatch.setattr(basis_oracle, "solve_triangular", counting)
    monkeypatch.setattr(basis_oracle, "_BATCH_ELEMENTS", 1 << 10)  # split the larger levels
    split = kernel_via_basis(1.0, 2, 3, 8, z, w)
    sizes = Counter(math.comb(2 + level, 2) for level in _class_charges(2, 3, 8)[2])
    assert len(shapes) > len(sizes)
    # every class of a level is solved once, in batches of at most 1 << 10
    # elements of (class size x 2 * points) values
    solved = Counter()
    for batch, k, _ in shapes:
        solved[k] += batch
        assert batch * k * 2 * len(z) <= 1 << 10
    assert solved == sizes
    assert_allclose(split, unsplit, rtol=1e-14)


@pytest.mark.parametrize("points, p_max", [
    (np.full((4, 1), 0.2 + 0.1j), 8),  # last axis 1 would broadcast against n = 3
    (np.full((4, 2), 0.2 + 0.1j), 8),  # last axis 2
    (0.2 + 0.1j, 8),                   # a scalar is a point only at n = 1
    (np.full((4, 3), 0.2 + 0.1j), -1),
])
def test_kernel_via_basis_refuses_bad_input_before_any_class(points, p_max, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a charge class was built")

    monkeypatch.setattr(basis_oracle, "_class_charges", fail)
    good = np.full((4, 3), 0.1j)
    with pytest.raises(ValueError):
        kernel_via_basis(1.0, 3, 2, p_max, points, good)
    with pytest.raises(ValueError):
        kernel_via_basis(1.0, 3, 2, p_max, good, points)
