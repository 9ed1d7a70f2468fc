"""Flattening unitary, Weyl shifts, and the Gaussian-RBF picture."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from polyfock.kernels import KernelSpec, kernel_F, kernel_H
from polyfock.quadrature import gaussian_mean_rule
from polyfock.transforms import (
    check_intertwining,
    flat_function,
    flat_norm,
    flatten,
    fock_function,
    fock_norm,
    from_gaussian_picture,
    to_gaussian_picture,
    translate_H,
    unflatten,
    weyl_F,
)


def kernel_section(spec, z0):
    return fock_function(lambda z: kernel_F(spec, z0, z))


def test_side_tagging_is_enforced():
    spec = KernelSpec(1, 1)
    f = fock_function(lambda z: np.ones(z.shape[:-1], dtype=complex))
    g = flat_function(lambda x, y: np.ones(x.shape[:-1], dtype=complex))
    with pytest.raises(ValueError):
        flatten(spec, g)
    with pytest.raises(ValueError):
        unflatten(spec, f)
    with pytest.raises(TypeError):
        flatten(spec, lambda z: z)


def test_flatten_unflatten_round_trip():
    spec = KernelSpec(2, 3, 1.7)
    z0 = np.array([0.4 - 0.2j, -0.1 + 0.6j])
    f = kernel_section(spec, z0)
    f2 = unflatten(spec, flatten(spec, f))
    rng = np.random.default_rng(21)
    pts = rng.uniform(-1, 1, (50, 2)) + 1j * rng.uniform(-1, 1, (50, 2))
    assert_allclose(f2(pts), f(pts), rtol=1e-12)


def test_flattened_kernel_section_formula():
    """Flattening sends K^F_{z0} to a constant multiple of the K^H section
    at (sqrt(alpha) x0, sqrt(alpha) y0)."""
    alpha = 2.0
    spec = KernelSpec(1, 2, alpha)
    rng = np.random.default_rng(22)
    for _ in range(50):
        z0 = complex(rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        x0, y0 = z0.real, z0.imag
        g = flatten(spec, kernel_section(spec, np.array([z0])))
        pref = (2 ** -0.5
                * math.exp(alpha * (x0 * x0 + y0 * y0) / 2)
                * np.exp(-1j * alpha * x0 * y0))
        x = rng.uniform(-1.5, 1.5, (1,))
        y = rng.uniform(-1.5, 1.5, (1,))
        root = math.sqrt(alpha)
        expected = pref * kernel_H(spec, root * np.array([x0]), root * np.array([y0]), x, y)
        assert abs(g(x, y) - expected) < 1e-12 * abs(expected)


def test_fock_norm_of_kernel_section():
    # ||K_z|| = sqrt(d e^{alpha |z|^2})
    spec = KernelSpec(1, 3, 1.0)
    z0 = np.array([0.5 + 0.3j])
    f = kernel_section(spec, z0)
    expected = math.sqrt(spec.d * math.exp(np.sum(np.abs(z0) ** 2)))
    assert fock_norm(spec, f, center=z0) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("n, m", [(1, 3), (1, 5), (2, 2), (2, 3)])
def test_norms_of_kernel_sections_are_exact_at_the_default_order(n, m):
    # ||K_w|| = sqrt(C(n+m-1, n) e^{alpha |w|^2}) on both sides of the
    # flattening; each rule matches its integrand's Gaussian, so the default
    # order leaves only round-off
    alpha = 1.3
    spec = KernelSpec(n, m, alpha)
    rng = np.random.default_rng([41, n, m])
    w = rng.uniform(-0.8, 0.8, n) + 1j * rng.uniform(-0.8, 0.8, n)
    f = kernel_section(spec, w)
    expected = math.sqrt(math.comb(n + m - 1, n) * math.exp(alpha * np.sum(np.abs(w) ** 2)))
    assert fock_norm(spec, f, center=w) == pytest.approx(expected, rel=1e-13)
    flat_center = math.sqrt(alpha) * np.concatenate((w.real, w.imag))
    assert flat_norm(n, flatten(spec, f), center=flat_center) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("n, order", [(1, 16), (2, 10), (3, 8)])
def test_streamed_fock_norm_matches_the_built_rule(n, order):
    # Not a kernel section: the integrand is no product over coordinates.
    # At n = 3 the 8^6 rule streams in blocks with the first real axis fixed.
    spec = KernelSpec(n, 2, 0.9)
    center = np.array([0.3 - 0.2j, -0.4 + 0.1j, 0.2 + 0.5j])[:n]

    def g(z):
        return np.exp(0.4 * np.sum(z, axis=-1)) * (1 + z[..., 0] * np.conj(z[..., -1]) ** 2)

    nodes, weights = gaussian_mean_rule(np.concatenate((center.real, center.imag)),
                                        spec.alpha, order)
    plain = math.sqrt(np.sum(weights * np.abs(g(nodes[:, :n] + 1j * nodes[:, n:])) ** 2))
    got = fock_norm(spec, fock_function(g), center=center, order=order)
    assert got == pytest.approx(plain, rel=1e-13)


def test_fock_norm_never_holds_the_n3_rule():
    # The 12^6 rule took 547 MiB when it was built whole.
    spec = KernelSpec(3, 2, 1.3)
    w = np.array([0.4 - 0.1j, -0.3 + 0.6j, 0.1 + 0.2j])
    expected = math.sqrt(spec.d * math.exp(spec.alpha * np.sum(np.abs(w) ** 2)))
    tracemalloc.start()
    try:
        got = fock_norm(spec, kernel_section(spec, w), center=w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert got == pytest.approx(expected, rel=1e-13)


def test_fock_norm_rejects_non_finite_center():
    spec = KernelSpec(1, 3, 1.0)
    f = kernel_section(spec, np.array([0.5 + 0.3j]))
    for center in (complex(math.inf, 0.0), complex(0.0, math.nan)):
        with pytest.raises(ValueError, match="must be finite"):
            fock_norm(spec, f, center=np.array([center]))


def test_flatten_is_isometric():
    spec = KernelSpec(1, 2, 2.0)
    z0 = np.array([0.3 - 0.4j])
    f = kernel_section(spec, z0)
    g = flatten(spec, f)
    nf = fock_norm(spec, f, center=z0)
    ng = flat_norm(1, g, center=math.sqrt(2.0) * np.array([z0.real[0], z0.imag[0]]))
    assert ng == pytest.approx(nf, rel=1e-7)


def test_weyl_shift_is_unitary():
    spec = KernelSpec(1, 2, 1.0)
    z0 = np.array([0.2 + 0.1j])
    a = np.array([0.6 - 0.8j])
    f = kernel_section(spec, z0)
    nf = fock_norm(spec, f, center=z0)
    nshift = fock_norm(spec, weyl_F(spec, a, f), center=z0 + a)
    assert nshift == pytest.approx(nf, rel=1e-7)


def test_weyl_shift_on_kernel_sections():
    # rho_F(a) K_z = e^{-alpha <a, z> - alpha |a|^2 / 2} K_{z+a}
    alpha = 1.3
    spec = KernelSpec(2, 2, alpha)
    rng = np.random.default_rng(23)
    z0 = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
    a = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
    shifted = weyl_F(spec, a, kernel_section(spec, z0))
    factor = np.exp(-alpha * np.sum(a * np.conj(z0)) - alpha * np.sum(np.abs(a) ** 2) / 2)
    w = rng.uniform(-1, 1, (40, 2)) + 1j * rng.uniform(-1, 1, (40, 2))
    assert_allclose(shifted(w), factor * kernel_F(spec, z0 + a, w), rtol=1e-12)


def test_weyl_composition_phase():
    # rho(a) rho(b) = e^{-i alpha Im <a, b>} rho(a+b)
    alpha = 1.0
    spec = KernelSpec(1, 2, alpha)
    a = np.array([0.3 + 0.4j])
    b = np.array([-0.2 + 0.5j])
    f = kernel_section(spec, np.array([0.1 + 0.2j]))
    lhs = weyl_F(spec, a, weyl_F(spec, b, f))
    rhs = weyl_F(spec, a + b, f)
    phase = np.exp(-1j * alpha * np.imag(np.sum(a * np.conj(b))))
    pts = np.array([[0.5 - 0.1j], [-0.3 + 0.8j], [0.0 + 0.0j]])
    assert_allclose(lhs(pts), phase * rhs(pts), rtol=1e-12)


def test_intertwining_weyl_with_horizontal_translation():
    """Flattening carries the Weyl shift by real a to the horizontal
    translation by sqrt(alpha) a."""
    spec = KernelSpec(2, 2, 1.8)
    rng = np.random.default_rng(24)
    f = kernel_section(spec, rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
    for _ in range(5):
        a = rng.uniform(-1, 1, 2)
        x = rng.uniform(-1, 1, 2)
        y = rng.uniform(-1, 1, 2)
        assert check_intertwining(spec, a, f, x, y) < 1e-11


def test_translate_H_moves_first_argument_only():
    g = flat_function(lambda x, y: np.sum(x, axis=-1) + 10 * np.sum(y, axis=-1))
    shifted = translate_H(np.array([1.0]), g)
    assert shifted(np.array([3.0]), np.array([2.0])) == pytest.approx(2.0 + 20.0)


def to_gaussian_picture_sigma(sigma, f):
    """to_gaussian_picture with the RBF scale sigma as a parameter."""
    return fock_function(lambda z: np.exp(-sigma**2 * np.sum(z * z, axis=-1)) * f(z))


def from_gaussian_picture_sigma(sigma, g):
    """from_gaussian_picture with the RBF scale sigma as a parameter."""
    return fock_function(lambda z: np.exp(sigma**2 * np.sum(z * z, axis=-1)) * g(z))


def test_gaussian_picture_round_trip_and_guard():
    sigma = 0.75
    spec = KernelSpec(1, 2, 2 * sigma**2)
    f = kernel_section(spec, np.array([0.4 + 0.1j]))
    back = from_gaussian_picture(spec, to_gaussian_picture(spec, f))
    pts = np.array([[0.3 + 0.3j], [-0.6 - 0.2j]])
    assert_allclose(back(pts), f(pts), rtol=1e-13)
    # the scale comes from spec.alpha alone; the (spec, sigma, f) form is gone
    with pytest.raises(TypeError):
        to_gaussian_picture(spec, sigma, f)


@pytest.mark.parametrize("n,m", [(1, 1), (1, 3), (2, 3), (3, 2)])
def test_gaussian_picture_is_the_sigma_form_at_alpha_two_sigma_squared(n, m):
    rng = np.random.default_rng([23, n, m])
    z0 = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    pts = rng.uniform(-1.5, 1.5, (9, n)) + 1j * rng.uniform(-1.5, 1.5, (9, n))
    for sigma in (0.7, 0.8, 0.9):
        spec = KernelSpec(n, m, 2 * sigma**2)
        f = kernel_section(spec, z0)
        there = to_gaussian_picture(spec, f)
        assert np.array_equal(there(pts), to_gaussian_picture_sigma(sigma, f)(pts))
        assert np.array_equal(from_gaussian_picture(spec, there)(pts),
                              from_gaussian_picture_sigma(sigma, there)(pts))


def test_fock_norm_monomial():
    # ||z^p||^2 = p! / alpha^p in the classical space
    alpha = 1.0
    spec = KernelSpec(1, 1, alpha)
    for p in (0, 1, 3):
        f = fock_function(lambda z, p=p: z[..., 0] ** p)
        got = fock_norm(spec, f, center=np.array([0.0 + 0.0j]), order=48)
        assert got == pytest.approx(math.sqrt(math.factorial(p)), rel=1e-9)
