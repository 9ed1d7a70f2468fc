"""Reproducing kernels of the five spaces and their product decompositions."""

import inspect
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from polyfock import kernels
from polyfock.kernels import (
    KernelSpec,
    kernel_F,
    kernel_F_gram,
    kernel_F_products,
    kernel_G,
    kernel_H,
    kernel_H_products,
    kernel_S,
    kernel_true_poly,
)
from polyfock.multiindex import build_index_table
from polyfock.orthopoly import laguerre_eval


def rand_points(rng, count, n, box=1.0):
    return (rng.uniform(-box, box, (count, n))
            + 1j * rng.uniform(-box, box, (count, n)))


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(0, 1)
    with pytest.raises(ValueError):
        KernelSpec(1, 0)
    with pytest.raises(ValueError):
        KernelSpec(1, 1, alpha=-2.0)
    assert KernelSpec(2, 3).d == 6


_X = np.zeros(1)
_E = np.zeros(0)


# The H-n0 to S-n0 rows call each kernel in the positional (n, m[, sigma])
# form it took before it moved onto KernelSpec; that form is refused by arity.
@pytest.mark.parametrize("call, error", [
    (lambda: KernelSpec(1.5, 2), TypeError),
    (lambda: KernelSpec(True, 2), TypeError),
    (lambda: KernelSpec(1, True), TypeError),
    (lambda: KernelSpec(1, 2.0), TypeError),
    (lambda: KernelSpec(1, 2, alpha=math.inf), ValueError),
    (lambda: KernelSpec(1, 2, alpha=math.nan), ValueError),
    (lambda: kernel_H(0, 1, _E, _E, _E, _E), TypeError),
    (lambda: kernel_H_products(0, 1, _E, _E, _E, _E), TypeError),
    (lambda: kernel_G(0, 1, _E, _E, _E, _E), TypeError),
    (lambda: kernel_S(0, 1, 1.0, _E, _E), TypeError),
    (lambda: kernel_S(KernelSpec(1, 1, alpha=math.inf), _X, _X), ValueError),
], ids=["spec-n-float", "spec-n-bool", "spec-m-bool", "spec-m-float", "spec-alpha-inf",
        "spec-alpha-nan", "H-n0", "H-products-n0", "G-n0", "S-n0", "S-alpha-inf"])
def test_bad_n_m_alpha_rejected(call, error):
    with pytest.raises(error):
        call()


def test_every_kernel_takes_spec_first():
    names = [name for name, fn in inspect.getmembers(kernels, inspect.isfunction)
             if name.startswith("kernel_") and fn.__module__ == kernels.__name__]
    assert len(names) == 8
    for name in names:
        first = next(iter(inspect.signature(getattr(kernels, name)).parameters.values()))
        assert (first.name, first.annotation) == ("spec", "KernelSpec"), name


def test_spec_accepts_numpy_integers():
    assert KernelSpec(np.int64(2), np.int32(3)).d == 6


def test_classical_fock_kernel_m1():
    spec = KernelSpec(2, 1, 1.3)
    rng = np.random.default_rng(5)
    z = rand_points(rng, 4, 2)
    w = rand_points(rng, 4, 2)
    got = kernel_F(spec, z, w)
    expected = np.exp(1.3 * np.sum(w * np.conj(z), axis=-1))
    assert_allclose(got, expected, rtol=1e-14)


def kernel_F_trailing_axis(spec, z, w):
    """kernel_F with its sums taken by reducing the trailing length-n axis."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if z.ndim == 0:
        z = z.reshape(1)
    ip = np.sum(w * np.conj(z), axis=-1)
    dist2 = np.sum(np.abs(w - z) ** 2, axis=-1)
    return np.exp(spec.alpha * ip) * laguerre_eval(spec.m - 1, spec.n, spec.alpha * dist2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_kernel_F_matches_trailing_axis_sums(n):
    spec = KernelSpec(n, 3, 1.1)
    rng = np.random.default_rng([17, n])
    z = rand_points(rng, 40, n)
    w = rand_points(rng, 40, n)
    cases = [(z, w), (z[:, None, :], z[None, :, :]), (z[0], w)]
    if n == 1:
        cases.append((complex(z[0, 0]), w))
    for a, b in cases:
        got = kernel_F(spec, a, b)
        ref = kernel_F_trailing_axis(spec, a, b)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_hermitian_symmetry():
    spec = KernelSpec(2, 3, 0.8)
    rng = np.random.default_rng(6)
    z = rand_points(rng, 8, 2)
    w = rand_points(rng, 8, 2)
    assert_allclose(kernel_F(spec, z, w), np.conj(kernel_F(spec, w, z)), rtol=1e-13)


def test_diagonal_value():
    for n, m, alpha in [(1, 1, 1.0), (2, 3, 0.5), (3, 2, 2.0)]:
        spec = KernelSpec(n, m, alpha)
        rng = np.random.default_rng(n * 10 + m)
        z = rand_points(rng, 5, n)
        diag = kernel_F(spec, z, z)
        expected = spec.d * np.exp(alpha * np.sum(np.abs(z) ** 2, axis=-1))
        assert_allclose(diag, expected, rtol=1e-13)


def test_gram_matrix_is_positive_semidefinite():
    spec = KernelSpec(2, 2, 1.0)
    rng = np.random.default_rng(7)
    pts = rand_points(rng, 12, 2)
    gram = kernel_F_gram(spec, pts)
    assert_allclose(gram, gram.conj().T, atol=1e-12)
    eigs = np.linalg.eigvalsh(gram)
    assert eigs.min() > -1e-9 * max(1.0, eigs.max())


def test_product_forms_match_closed_kernel():
    rng = np.random.default_rng(8)
    for n, m in [(1, 1), (1, 4), (3, 2), (2, 3)]:
        spec = KernelSpec(n, m, 1.0)
        z = rand_points(rng, 10, n)
        w = rand_points(rng, 10, n)
        k = kernel_F(spec, z, w)
        for form in ("polynomials", "functions"):
            other = kernel_F_products(spec, z, w, form=form)
            assert_allclose(other, k, rtol=1e-11)


def _gap(got, exact):
    """Largest deviation relative to the largest value, as the benchmark measures it."""
    assert got.shape == exact.shape
    return float(np.max(np.abs(got - exact)) / np.max(np.abs(exact)))


@pytest.mark.parametrize("n, m", [(1, 1), (1, 3), (2, 1), (2, 4), (5, 1), (5, 5)])
def test_product_routes_match_kernel_F_at_batch_shapes(n, m):
    # The shapes of the benchmark's kernel batches, plus m = 1; z of shape
    # (N, 1, n) against w of shape (1, M, n) broadcasts to an (N, M) batch.
    spec = KernelSpec(n, m, 1.0)
    rng = np.random.default_rng([11, n, m])
    z = rand_points(rng, 40, n, box=1.5)[:, None, :]
    w = rand_points(rng, 30, n, box=1.5)[None, :, :]
    exact = kernel_F(spec, z, w)
    assert exact.shape == (40, 30)
    for form in ("polynomials", "functions"):
        assert _gap(kernel_F_products(spec, z, w, form=form), exact) <= 1e-11
        assert _gap(kernel_F_products(spec, w[0], z[:30, 0], form=form),
                    kernel_F(spec, w[0], z[:30, 0])) <= 1e-11


def test_product_routes_take_scalar_points_at_n1():
    for m in (1, 3):
        spec = KernelSpec(1, m, 0.7)
        exact = kernel_F(spec, 0.3 + 0.1j, 0.2 - 0.4j)
        for form in ("polynomials", "functions"):
            got = kernel_F_products(spec, 0.3 + 0.1j, 0.2 - 0.4j, form=form)
            assert np.shape(got) == ()
            assert abs(got - exact) <= 1e-11 * abs(exact)


def test_product_form_name_checked():
    spec = KernelSpec(1, 1)
    with pytest.raises(ValueError):
        kernel_F_products(spec, np.array([0j]), np.array([0j]), form="surprise")


def test_true_poly_kernels_sum_to_full_kernel():
    """The kernel is the sum of the true-polyanalytic kernels over the
    index table shifted by one in every coordinate."""
    n, m = 2, 3
    spec = KernelSpec(n, m, 1.1)
    rng = np.random.default_rng(9)
    z = rand_points(rng, 6, n)
    w = rand_points(rng, 6, n)
    table = build_index_table(n, m)
    acc = np.zeros(6, dtype=complex)
    for k in table:
        beta = tuple(int(e) + 1 for e in k)
        acc += kernel_true_poly(spec, beta, z, w)
    assert_allclose(acc, kernel_F(spec, z, w), rtol=1e-12)


def test_true_poly_beta_validation():
    spec = KernelSpec(2, 2)
    z = np.zeros((1, 2), dtype=complex)
    with pytest.raises(ValueError):
        kernel_true_poly(spec, (1, 0), z, z)


def test_kernel_H_products_match():
    rng = np.random.default_rng(10)
    for n, m in [(1, 2), (2, 3), (3, 1)]:
        x, y, u, v = (rng.uniform(-1, 1, (7, n)) for _ in range(4))
        spec = KernelSpec(n, m)
        assert_allclose(kernel_H_products(spec, x, y, u, v),
                        kernel_H(spec, x, y, u, v), rtol=1e-11)


@pytest.mark.parametrize("n, m", [(1, 1), (1, 4), (2, 3), (3, 2), (4, 1), (4, 3)])
def test_kernel_H_products_match_up_to_n4_with_broadcasting(n, m):
    rng = np.random.default_rng([12, n, m])
    x, y = (rng.uniform(-1, 1, (9, 1, n)) for _ in range(2))
    u, v = (rng.uniform(-1.5, 1.5, (1, 8, n)) for _ in range(2))
    spec = KernelSpec(n, m)
    assert _gap(kernel_H_products(spec, x, y, u, v), kernel_H(spec, x, y, u, v)) <= 1e-11


def test_kernel_H_diagonal_and_translation_covariance():
    n, m = 2, 3
    spec = KernelSpec(n, m)
    rng = np.random.default_rng(11)
    x, y, u, v = (rng.uniform(-1, 1, (5, n)) for _ in range(4))
    diag = kernel_H(spec, x, y, x, y)
    assert_allclose(diag, 2 ** n * math.comb(n + m - 1, n) * np.ones(5), rtol=1e-13)
    # horizontal shift invariance: both arguments moved by the same a
    a = rng.uniform(-1, 1, n)
    assert_allclose(kernel_H(spec, x + a, y, u + a, v),
                    kernel_H(spec, x, y, u, v), rtol=1e-12)


def test_kernel_G_same_modulus_different_phase():
    spec = KernelSpec(2, 2)
    rng = np.random.default_rng(12)
    x, y, u, v = (rng.uniform(-1, 1, (6, 2)) for _ in range(4))
    kg = kernel_G(spec, x, y, u, v)
    kh = kernel_H(spec, x, y, u, v)
    assert_allclose(np.abs(kg), np.abs(kh), rtol=1e-13)
    assert np.max(np.abs(kg - kh)) > 1e-3


def test_kernel_G_breaks_translation_covariance():
    """K^G_{x,y}(u,v) differs from K^G_{0,y}(u-x,v) whenever x (y - v) is
    not a multiple of 2 pi; K^H satisfies the identity exactly."""
    x = np.array([1.0]); y = np.array([1.0])
    u = np.array([0.0]); v = np.array([0.0])
    zero = np.zeros(1)
    spec = KernelSpec(1, 1)
    lhs = kernel_G(spec, x, y, u, v)
    rhs = kernel_G(spec, zero, y, u - x, v)
    assert abs(lhs - rhs) > 0.1
    assert abs(kernel_H(spec, x, y, u, v)
               - kernel_H(spec, zero, y, u - x, v)) < 1e-14


def test_kernel_S_from_weighted_fock():
    # multiplying the alpha = 2 sigma^2 kernel by e^{-sigma^2(w^2 + zbar^2)}
    sigma = 0.9
    spec = KernelSpec(2, 3, 2 * sigma**2)
    rng = np.random.default_rng(13)
    z = rand_points(rng, 6, 2)
    w = rand_points(rng, 6, 2)
    factor = np.exp(-sigma**2 * np.sum(w**2 + np.conj(z) ** 2, axis=-1))
    assert_allclose(kernel_S(spec, z, w),
                    factor * kernel_F(spec, z, w), rtol=1e-12)


def test_kernel_S_real_translation_invariance():
    spec = KernelSpec(2, 2, 2 * 0.8**2)
    rng = np.random.default_rng(15)
    for _ in range(20):
        z = rand_points(rng, 1, 2)[0]
        w = rand_points(rng, 1, 2)[0]
        a = rng.uniform(-1, 1, 2)
        assert abs(kernel_S(spec, z + a, w + a)
                   - kernel_S(spec, z, w)) < 1e-13 * abs(kernel_S(spec, z, w))


def test_kernel_F_scaling_law():
    # dilating points by sqrt(alpha) reduces to the alpha = 1 kernel
    alpha = 2.7
    spec_a = KernelSpec(2, 3, alpha)
    spec_1 = KernelSpec(2, 3, 1.0)
    rng = np.random.default_rng(16)
    z = rand_points(rng, 6, 2)
    w = rand_points(rng, 6, 2)
    assert_allclose(kernel_F(spec_a, z, w),
                    kernel_F(spec_1, math.sqrt(alpha) * z, math.sqrt(alpha) * w),
                    rtol=1e-13)


def test_true_poly_diagonal_spot_value():
    # n=2, beta=(2,1): diagonal collapses to e^{alpha |z|^2}
    spec = KernelSpec(2, 2, 1.4)
    z = np.array([0.2 + 0.5j, -0.3 + 0.1j])
    val = kernel_true_poly(spec, (2, 1), z, z)
    assert val == pytest.approx(math.exp(1.4 * float(np.sum(np.abs(z) ** 2))), rel=1e-13)


def test_kernel_S_real_on_real_points():
    # for real z, w the RBF kernel is real
    x = np.linspace(-1, 1, 5)[:, None] + 0j
    vals = kernel_S(KernelSpec(1, 2, 2 * 0.7**2), x, x[::-1])
    assert_allclose(np.imag(vals), 0.0, atol=1e-14)


def kernel_S_sigma(n, m, sigma, z, w):
    """kernel_S in its positional form with the RBF scale sigma as a parameter."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    sq = np.sum((w - np.conj(z)) ** 2, axis=-1)
    dist2 = np.sum(np.abs(w - z) ** 2, axis=-1)
    return np.exp(-sigma**2 * sq) * laguerre_eval(m - 1, n, 2 * sigma**2 * dist2)


@pytest.mark.parametrize("n,m", [(1, 1), (1, 3), (2, 3), (3, 2)])
def test_kernel_S_is_the_sigma_form_at_alpha_two_sigma_squared(n, m):
    # alpha / 2 = sigma^2 and alpha = 2 sigma^2 hold exactly in floating point
    rng = np.random.default_rng([18, n, m])
    z = rand_points(rng, 12, n, box=2.0)
    w = rand_points(rng, 12, n, box=2.0)
    for sigma in (0.7, 0.8, 0.9):
        got = kernel_S(KernelSpec(n, m, 2 * sigma**2), z, w)
        assert np.array_equal(got, kernel_S_sigma(n, m, sigma, z, w))


def test_scalar_point_convenience_n1():
    spec = KernelSpec(1, 2, 1.0)
    a = kernel_F(spec, 0.3 + 0.1j, 0.2 - 0.4j)
    b = kernel_F(spec, np.array([0.3 + 0.1j]), np.array([0.2 - 0.4j]))
    assert a == pytest.approx(b)


def test_broadcasting_batch_against_single():
    spec = KernelSpec(2, 2, 1.0)
    rng = np.random.default_rng(14)
    z = rand_points(rng, 1, 2)[0]
    w = rand_points(rng, 9, 2)
    vals = kernel_F(spec, z, w)
    assert vals.shape == (9,)
    for i in range(9):
        assert vals[i] == pytest.approx(complex(kernel_F(spec, z, w[i])))
