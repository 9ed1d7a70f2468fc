"""Horizontal Fourier fibers: q functions, transformed kernel, R operators.

The closed forms are checked against quadrature routes that share no code
with them, and against each other on kernel sections.
"""

import math
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from polyfock.kernels import KernelSpec, kernel_F
from polyfock.multiindex import build_index_table
from polyfock.orthopoly import hermite_fn, hermite_fn_table
from polyfock.quadrature import (BLOCK_NODES, default_order, gauss_hermite_1d, place_hermite,
                                 tensor_grid, tensor_rule)
from polyfock.spectral import (
    FiberVector,
    L_closed,
    L_via_fourier,
    R_F_apply,
    R_F_kernel_image,
    R_H_apply,
    R_true_poly_image,
    default_xi_grid,
    fiber_project,
    fiber_reconstruct,
    q_matrix,
)
from polyfock.transforms import flat_function, flat_norm, flatten, fock_function


def q_gram(table, xi, order=48):
    """Gram matrix of the fiber basis in L^2(R^n, (2 pi)^{-n/2} dv)."""
    n = table.n
    grid = tensor_grid(n, order, center=-np.asarray(xi) / 2, scale=1.0)
    mat = q_matrix(table, xi, grid.nodes)
    weighted = grid.weights[:, None] * mat
    return mat.T @ weighted / (2 * math.pi) ** (n / 2)


def q_column(table, xi, k, v):
    """q_{k, xi}(v): the column of q_matrix at the position of k."""
    return q_matrix(table, xi, v)[..., table.position(k) - 1]


def test_q_closed_form_k0():
    xi = np.array([0.8])
    v = np.linspace(-2, 2, 9)[:, None]
    got = q_column(build_index_table(1, 1), xi, (0,), v)
    expected = math.sqrt(2) * np.exp(-((0.8 + 2 * v[:, 0]) ** 2) / 4)
    assert_allclose(got, expected, rtol=1e-13)


def test_q_shift_covariance():
    table = build_index_table(2, 3)
    rng = np.random.default_rng(31)
    xi = rng.uniform(-2, 2, 2)
    v = rng.uniform(-2, 2, (20, 2))
    assert_allclose(q_matrix(table, xi, v), q_matrix(table, np.zeros(2), v + xi / 2), rtol=1e-13)


@pytest.mark.parametrize("n,m", [(1, 4), (2, 3), (3, 3)])
def test_q_matrix_columns_are_q_eval(n, m):
    # Each column against 2^{n/2} pi^{n/4} prod_r psi_{k_r}((xi_r + 2 v_r)/sqrt 2),
    # built here from single Hermite functions.
    table = build_index_table(n, m)
    rng = np.random.default_rng([n, m])
    xi = rng.uniform(-2, 2, n)
    v = rng.uniform(-2, 2, (4, 5, n))
    q = q_matrix(table, xi, v)
    assert q.shape == (4, 5, table.d)
    t = (xi + 2 * v) / math.sqrt(2.0)
    for j in range(1, table.d + 1):
        k = table.phi(j)
        expected = 2 ** (n / 2) * math.pi ** (n / 4) * np.prod(
            [hermite_fn(k[r], t[..., r]) for r in range(n)], axis=0)
        assert_allclose(q[..., j - 1], expected, rtol=1e-14, atol=0)


@pytest.mark.parametrize("n,m", [(1, 4), (2, 3)])
def test_fiber_orthonormality(n, m):
    table = build_index_table(n, m)
    rng = np.random.default_rng(32)
    for _ in range(5):
        xi = rng.uniform(-3, 3, n)
        gram = q_gram(table, xi)
        assert_allclose(gram, np.eye(table.d), atol=1e-10)


def test_L_closed_matches_fourier_route():
    for n, m in [(1, 1), (1, 3), (2, 2)]:
        table = build_index_table(n, m)
        rng = np.random.default_rng(33 + n + m)
        for _ in range(5):
            xi = rng.uniform(-1.5, 1.5, n)
            y = rng.uniform(-1, 1, n)
            v = rng.uniform(-1, 1, n)
            closed = L_closed(table, xi, y, v)
            quad = L_via_fourier(table, xi, y, v)
            assert abs(quad - closed) < 1e-8 * max(1.0, abs(closed))


def test_L_single_term_m1():
    table = build_index_table(1, 1)
    xi, y, v = np.array([0.4]), np.array([0.7]), np.array([-0.2])
    got = L_closed(table, xi, y, v)
    expected = q_column(table, xi, (0,), y[None, :]) * q_column(table, xi, (0,), v[None, :])
    assert got == pytest.approx(float(expected[0]))


def test_L_diagonal_nonnegative():
    table = build_index_table(2, 3)
    rng = np.random.default_rng(34)
    for _ in range(10):
        xi = rng.uniform(-3, 3, 2)
        y = rng.uniform(-2, 2, 2)
        assert L_closed(table, xi, y, y) >= 0


def test_fiber_project_recovers_unit_vectors():
    table = build_index_table(1, 3)
    xi = np.array([0.6])
    for j in range(1, table.d + 1):
        k = table.phi(j)
        comps = fiber_project(table, xi, lambda v, k=k: q_column(table, xi, k, v))
        expected = np.zeros(table.d)
        expected[j - 1] = 1.0
        assert_allclose(comps.components, expected, atol=1e-10)


def test_fiber_project_of_L_slice():
    # projecting L_{xi, y} gives the vector [q_{phi(j), xi}(y)]_j
    table = build_index_table(1, 2)
    xi = np.array([-0.3])
    y = np.array([0.9])
    comps = fiber_project(table, xi, lambda v: L_closed(table, xi, y, v))
    expected = q_matrix(table, xi, y[None, :])[0]
    assert_allclose(comps.components, expected, rtol=1e-9, atol=1e-12)


def test_fiber_parseval_inequality_and_span_equality():
    table = build_index_table(1, 2)
    xi = np.array([0.2])
    n = table.n

    def norm2(g_slice):
        grid = tensor_grid(1, 48, center=-xi / 2, scale=1.0)
        vals = np.asarray(g_slice(grid.nodes))
        return float(np.sum(grid.weights * np.abs(vals) ** 2)) / (2 * math.pi) ** (n / 2)

    # inside the span: equality
    def in_span(v):
        return (0.6 * q_column(table, xi, (0,), v)
                - 1.1 * q_column(table, xi, (1,), v))

    comps = fiber_project(table, xi, in_span).components
    assert np.sum(np.abs(comps) ** 2) == pytest.approx(norm2(in_span), rel=1e-8)

    # outside the span (Hermite index m): strict inequality, and the
    # reconstruction misses by a visible residual
    table_big = build_index_table(1, 3)

    def outside(v):
        return q_column(table_big, xi, (2,), v)

    comps_out = fiber_project(table, xi, outside).components
    assert np.sum(np.abs(comps_out) ** 2) < norm2(outside) - 0.5
    rec = fiber_reconstruct(table, FiberVector(xi=xi, components=comps_out))
    v = np.array([[0.7]])
    assert abs(rec(v)[0] - outside(v)[0]) > 0.1


def test_R_F_kernel_image_closed_form():
    alpha = 1.6
    spec = KernelSpec(2, 2, alpha)
    table = build_index_table(2, 2)
    rng = np.random.default_rng(35)
    y = rng.uniform(-1, 1, 2)
    xi = rng.uniform(-2, 2, 2)
    fib = R_F_kernel_image(spec, y, xi)
    expected = (2 ** (-1.0)
                * math.exp(alpha * float(np.sum(y * y)) / 2)
                * q_matrix(table, xi, math.sqrt(alpha) * y[None, :])[0])
    assert_allclose(fib.components, expected, rtol=1e-13)


def test_R_two_routes_on_kernel_sections():
    """R_F directly vs flatten-then-R_H, on kernel sections at iy."""
    alpha = 1.0
    for n, m in [(1, 2), (1, 3), (2, 2)]:
        spec = KernelSpec(n, m, alpha)
        table = build_index_table(n, m)
        rng = np.random.default_rng(36 + n + m)
        y = rng.uniform(-0.8, 0.8, n)
        xi = rng.uniform(-1.5, 1.5, n)
        f = fock_function(lambda z: kernel_F(spec, 1j * y, z))
        direct = R_F_apply(spec, f, xi)
        via_flat = R_H_apply(table, flatten(spec, f), xi)
        closed = R_F_kernel_image(spec, y, xi)
        assert_allclose(direct.components, closed.components, atol=1e-7)
        assert_allclose(via_flat.components, closed.components, atol=1e-7)
        assert_allclose(direct.components, via_flat.components, atol=1e-7)


def _dense_rule(n, xi, order):
    """The whole order^{2n} rule of R_F_apply and R_H_apply: u axes at 0 with
    scale sqrt(2), v axes at -xi/2 with scale 1."""
    rule = gauss_hermite_1d(default_order(2 * n) if order is None else order)
    return tensor_rule([place_hermite(rule, 0.0, math.sqrt(2.0))] * n
                       + [place_hermite(rule, -x / 2, 1.0) for x in xi])


def R_F_dense(spec, f, xi, order=None):
    """R_F_apply's integral as one weighted sum over the whole 2n-dim grid.

    The full phase and the q-style Hermite products are evaluated at every
    node, then contracted with the values in one matrix-vector product.
    """
    n = spec.n
    table = build_index_table(n, spec.m)
    xi = np.asarray(xi, dtype=float)
    nodes, weights = _dense_rule(n, xi, order)
    u = nodes[:, :n]
    v = nodes[:, n:]
    phase = np.exp(-np.sum(u * u, axis=-1) / 2 - np.sum(v * v, axis=-1) / 2
                   - 1j * np.sum(u * v, axis=-1) - 1j * (u @ xi))
    vals = np.asarray(f((u + 1j * v) / math.sqrt(spec.alpha))) * phase
    psi = hermite_fn_table(spec.m - 1, (xi + 2 * v) / math.sqrt(2.0))
    big_psi = np.stack([np.prod([psi[kr, :, r] for r, kr in enumerate(k)], axis=0)
                        for k in table], axis=-1)
    return big_psi.T @ (weights * vals) * math.pi ** (-3 * n / 4)


@pytest.mark.parametrize("n,m", [(1, 3), (2, 3), (2, 4), (3, 2)])
def test_R_F_apply_matches_dense_sum(n, m):
    spec = KernelSpec(n, m, 1.3)
    rng = np.random.default_rng([38, n, m])
    y = rng.uniform(-0.8, 0.8, n)
    xi = rng.uniform(-3, 3, n)
    f = fock_function(lambda z: kernel_F(spec, 1j * y, z))
    # Blocks hold at most 2^13 nodes.  At n = 2 the first u axis is cut into
    # chunks: 20 of one node at order 20, 2 of five at order 10.  At n = 3
    # two u axes are fixed and the third is cut: 3 chunks of four nodes at
    # order 12 (432 blocks), 2 of five at order 10 (200 blocks).  The block
    # results are added up.
    blocks = {(1, None): 1, (1, 10): 1, (2, None): 20, (2, 10): 2, (3, None): 432, (3, 10): 200}
    for order in (None, 10):
        sizes = []
        counted = fock_function(lambda z: sizes.append(len(z)) or kernel_F(spec, 1j * y, z))
        got = R_F_apply(spec, counted, xi, order=order).components
        assert got.shape == (spec.d,)
        assert len(sizes) == blocks[n, order]
        assert max(sizes) <= BLOCK_NODES
        assert sum(sizes) == (order or default_order(2 * n)) ** (2 * n)
        # The dense n = 3 rule is built at order 10 only: at the default
        # order it took 708 MiB and about 3 s.
        if n < 3 or order is not None:
            assert_allclose(got, R_F_dense(spec, f, xi, order=order), rtol=0, atol=1e-13)


def R_H_dense(table, g, xi, order=None):
    """R_H_apply's integral as one weighted sum over the whole 2n-dim grid.

    The phase and the fiber basis q are evaluated at every node, then
    contracted with the values in one matrix-vector product.
    """
    n = table.n
    xi = np.asarray(xi, dtype=float)
    nodes, weights = _dense_rule(n, xi, order)
    u = nodes[:, :n]
    v = nodes[:, n:]
    vals = np.asarray(g(u, v)) * np.exp(-1j * u @ xi)
    return q_matrix(table, xi, v).T @ (weights * vals) / (2 * math.pi) ** n


@pytest.mark.parametrize("n,m", [(1, 3), (2, 3), (3, 2)])
def test_R_H_apply_matches_dense_sum(n, m):
    # The dense n = 3 rule is built at order 10 only: at the default order
    # it would take over 600 MiB.
    orders = (10,) if n == 3 else (None, 10)
    spec = KernelSpec(n, m, 1.3)
    table = build_index_table(n, m)
    rng = np.random.default_rng([39, n, m])
    y = rng.uniform(-0.8, 0.8, n)
    xi = rng.uniform(-3, 3, n)
    g = flatten(spec, fock_function(lambda z: kernel_F(spec, 1j * y, z)))
    # Blocks as for R_F_apply: the first u axis cut into 20 and 2 chunks at
    # n = 2, two u axes fixed and the third cut in two at n = 3 and order 10.
    blocks = {(1, None): 1, (1, 10): 1, (2, None): 20, (2, 10): 2, (3, 10): 200}
    for order in orders:
        sizes = []
        counted = flat_function(lambda u, v: sizes.append(len(u)) or g(u, v))
        got = R_H_apply(table, counted, xi, order=order).components
        assert got.shape == (table.d,)
        assert len(sizes) == blocks[n, order]
        assert max(sizes) <= BLOCK_NODES
        assert sum(sizes) == (order or default_order(2 * n)) ** (2 * n)
        assert_allclose(got, R_H_dense(table, g, xi, order=order), rtol=0, atol=1e-13)


def test_R_H_apply_peak_memory_is_one_block():
    # n = 3, m = 2 at the default order 12: the built rule with its phase
    # and q matrix took 638 MiB.
    spec = KernelSpec(3, 2)
    table = build_index_table(3, 2)
    y = np.array([0.3, -0.5, 0.1])
    g = flatten(spec, fock_function(lambda z: kernel_F(spec, 1j * y, z)))
    tracemalloc.start()
    try:
        got = R_H_apply(table, g, [0.4, -1.0, 0.2]).components
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert got.shape == (table.d,) and np.all(np.isfinite(got))


def test_evaluators_must_return_one_value_per_node():
    xi = [0.5]
    table = build_index_table(1, 2)
    calls = [
        (lambda: R_F_apply(KernelSpec(1, 2), fock_function(lambda z: np.ones(z.shape, complex)),
                           xi, order=8), "(64, 1)", 64),
        (lambda: R_H_apply(table, flat_function(lambda u, v: np.ones(u.shape)), xi, order=8),
         "(64, 1)", 64),
        (lambda: fiber_project(table, xi, lambda v: np.ones(v.shape), order=8), "(8, 1)", 8),
        (lambda: flat_norm(1, flat_function(lambda x, y: np.ones(x.shape)), order=8),
         "(64, 1)", 64),
        (lambda: flat_norm(1, flat_function(lambda x, y: 1.0), order=8), "()", 64),
    ]
    for call, shape, nodes in calls:
        with pytest.raises(ValueError, match=rf"returned shape {re.escape(shape)} for {nodes} "
                                             "points"):
            call()


def test_R_F_budget_counts_points_and_values(monkeypatch):
    from polyfock import quadrature

    # n = 1 at order 4: 16 nodes * (4 + 5) words * 8 bytes = 1152 bytes
    spec = KernelSpec(1, 2)
    f = fock_function(lambda z: kernel_F(spec, 0.2j, z))
    monkeypatch.setattr(quadrature, "RULE_BYTES_BUDGET", 1152)
    R_F_apply(spec, f, [0.5], order=4)
    monkeypatch.setattr(quadrature, "RULE_BYTES_BUDGET", 1151)
    with pytest.raises(ValueError, match=r"^tensor rule of 16 nodes \(4x4\) at 9 words per "
                                         r"node needs 1152 bytes"):
        R_F_apply(spec, f, [0.5], order=4)


def test_R_F_refuses_large_rules_before_building_them(monkeypatch):
    # n = 3 at order 16: the rule alone (940 MB) fits the budget, its points
    # and values push the call to 2.3 GB.  The default order 12 (406 MB) fits.
    from polyfock import spectral

    def refuse(*args, **kwargs):
        raise AssertionError("allocated or evaluated before the budget check")

    for name in ("gauss_hermite_1d", "hermite_fn_table", "stream_pairs"):
        monkeypatch.setattr(spectral, name, refuse)
    with pytest.raises(ValueError, match=r"^tensor rule of 16777216 nodes \(16x16x16x16x16x16\)"):
        R_F_apply(KernelSpec(3, 2), fock_function(refuse), [0.1, 0.2, 0.3], order=16)


def test_R_H_budget_counts_q_matrix_and_values(monkeypatch):
    from polyfock import quadrature

    # n = 1, m = 2 at order 4: 16 nodes * ((2 + 1) + 6 + (2 + 2 * 2)) words
    # * 8 bytes = 1920 bytes
    spec = KernelSpec(1, 2)
    table = build_index_table(1, 2)
    g = flatten(spec, fock_function(lambda z: kernel_F(spec, 0.2j, z)))
    monkeypatch.setattr(quadrature, "RULE_BYTES_BUDGET", 1920)
    R_H_apply(table, g, [0.5], order=4)
    monkeypatch.setattr(quadrature, "RULE_BYTES_BUDGET", 1919)
    with pytest.raises(ValueError, match=r"^tensor rule of 16 nodes \(4x4\) at 15 words per "
                                         r"node needs 1920 bytes"):
        R_H_apply(table, g, [0.5], order=4)


def test_R_H_refuses_large_rules_before_building_them(monkeypatch):
    # n = 3, m = 1 at order 16: the rule alone (940 MB) would fit the
    # budget, its values, phase and q matrix push the count to 2.4 GB.
    from polyfock import spectral

    def refuse(*args, **kwargs):
        raise AssertionError("allocated or evaluated before the budget check")

    for name in ("gauss_hermite_1d", "hermite_fn_table", "stream_pairs"):
        monkeypatch.setattr(spectral, name, refuse)
    with pytest.raises(ValueError, match=r"^tensor rule of 16777216 nodes \(16x16x16x16x16x16\) "
                                         r"at 18 words per node needs 2415919104 bytes"):
        R_H_apply(build_index_table(3, 1), flat_function(refuse), [0.1, 0.2, 0.3], order=16)


def test_R_F_zero_input():
    spec = KernelSpec(1, 2)
    f = fock_function(lambda z: np.zeros(z.shape[:-1], dtype=complex))
    fib = R_F_apply(spec, f, np.array([0.5]))
    assert_allclose(fib.components, 0.0, atol=1e-14)


def test_true_poly_image_single_component():
    spec = KernelSpec(2, 3, 1.2)
    table = build_index_table(2, 3)
    rng = np.random.default_rng(37)
    y = rng.uniform(-1, 1, 2)
    xi = rng.uniform(-2, 2, 2)
    full = R_F_kernel_image(spec, y, xi)
    for j0 in (1, 4, 6):
        beta = tuple(int(e) + 1 for e in table.phi(j0))
        fib = R_true_poly_image(spec, beta, y, xi)
        nonzero = np.nonzero(np.abs(fib.components) > 1e-14)[0]
        assert list(nonzero) == [j0 - 1]
        assert fib.components[j0 - 1] == pytest.approx(full.components[j0 - 1])


def test_kernel_image_norm_over_frequencies():
    """The squared L^2(dmu) norm over xi of the kernel image equals
    d e^{alpha |y|^2}, matching the norm of the kernel section."""
    alpha = 1.3
    spec = KernelSpec(1, 2, alpha)
    y = np.array([0.6])
    grid = tensor_grid(1, 48, center=0.0, scale=math.sqrt(2.0))
    total = 0.0
    for xi_pt, w in zip(grid.nodes, grid.weights):
        comps = R_F_kernel_image(spec, y, xi_pt).components
        total += w * float(np.sum(np.abs(comps) ** 2))
    total /= math.sqrt(2 * math.pi)
    expected = spec.d * math.exp(alpha * float(y[0]) ** 2)
    assert total == pytest.approx(expected, rel=1e-7)


def test_convolution_input_image():
    """Bochner-type input f = int h(x) e^{-|x|^2/2 + i<x,y>} K_{(x+iy)/sqrt(a)} dmu(x)
    maps to 2^{-n/2} e^{|y|^2/2} h_hat(xi) [q_j(y)]_j, with no alpha in sight."""
    alpha = 1.7
    spec = KernelSpec(1, 2, alpha)
    table = build_index_table(1, 2)
    y = np.array([0.5])
    root = math.sqrt(alpha)

    hgrid = tensor_grid(1, 48, center=0.0, scale=math.sqrt(2.0))
    xs = hgrid.nodes[:, 0]
    hw = hgrid.weights * np.exp(-xs**2 / 2) * np.exp(-xs**2 / 2 + 1j * xs * y[0])
    # first factor is h(x) = e^{-x^2/2}, second the example's weight
    z0s = (xs[:, None] + 1j * y[None, :]) / root

    def f(z):
        vals = kernel_F(spec, z0s[:, None, :], z[None, ...])
        return np.tensordot(hw, vals, axes=(0, 0)) / math.sqrt(2 * math.pi)

    for xi_val in (-1.0, 0.0, 0.8):
        xi = np.array([xi_val])
        got = R_F_apply(spec, fock_function(f), xi)
        h_hat = math.exp(-xi_val**2 / 2)
        expected = (2 ** -0.5 * math.exp(float(y[0]) ** 2 / 2) * h_hat
                    * q_matrix(table, xi, y[None, :])[0])
        assert_allclose(got.components, expected, atol=1e-7)


def test_grid_calls_equal_the_per_xi_stack_and_default_grid():
    # an (X, n) frequency grid is one call; row x is the call at xi_x, bit for bit
    for n, m, count in [(1, 3, 16), (2, 3, 7)]:
        spec = KernelSpec(n, m, 1.3)
        table = build_index_table(n, m)
        rng = np.random.default_rng([52, n])
        xis = rng.uniform(-4.0, 4.0, (count, n))
        y = rng.uniform(-1.0, 1.0, n)
        image = R_F_kernel_image(spec, y, xis).components
        q = q_matrix(table, xis, y)
        assert image.shape == q.shape == (count, table.d)
        assert np.array_equal(image, np.stack([R_F_kernel_image(spec, y, xi).components
                                               for xi in xis]))
        assert np.array_equal(q, np.stack([q_matrix(table, xi, y) for xi in xis]))
    assert default_xi_grid(8, -2.0, 2.0).shape == (8,)
    assert default_xi_grid().shape == (64,)
    assert default_xi_grid()[0] == -8.0 and default_xi_grid()[-1] == 8.0


@pytest.mark.parametrize("lo, hi", [(math.nan, 1.0), (-1.0, math.inf), (-math.inf, 0.0)])
def test_default_xi_grid_rejects_non_finite_ends(lo, hi):
    with pytest.raises(ValueError, match="finite"):
        default_xi_grid(4, lo, hi)


NON_FINITE_FREQUENCY_CALLS = {
    "q_matrix": lambda spec, table, xi: q_matrix(table, xi, [0.1, 0.2]),
    "L_closed": lambda spec, table, xi: L_closed(table, xi, [0.3, 0.1], [0.1, 0.2]),
    "L_via_fourier": lambda spec, table, xi: L_via_fourier(table, xi, [0.3, 0.1], [0.1, 0.2],
                                                           order=4),
    "fiber_project": lambda spec, table, xi: fiber_project(table, xi, lambda v: v[:, 0],
                                                           order=4),
    "R_F_kernel_image": lambda spec, table, xi: R_F_kernel_image(spec, [0.3, 0.1], xi),
    "R_true_poly_image": lambda spec, table, xi: R_true_poly_image(spec, (1, 2), [0.3, 0.1], xi),
    "R_H_apply": lambda spec, table, xi: R_H_apply(
        table, flat_function(lambda x, y: np.exp(-np.sum(x * x + y * y, axis=-1))), xi, order=4),
    "R_F_apply": lambda spec, table, xi: R_F_apply(
        spec, fock_function(lambda z: kernel_F(spec, [0.2j, 0.1], z)), xi, order=4),
}


@pytest.mark.parametrize("call", NON_FINITE_FREQUENCY_CALLS.values(),
                         ids=NON_FINITE_FREQUENCY_CALLS)
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fiber_maps_reject_non_finite_frequency(call, bad):
    spec = KernelSpec(2, 2)
    table = build_index_table(2, 2)
    good = call(spec, table, [0.4, -0.3])
    assert np.all(np.isfinite(getattr(good, "components", good)))
    with pytest.raises(ValueError, match=r"^frequency must be finite"):
        call(spec, table, [0.4, bad])


@pytest.mark.parametrize("beta", [(1,), (1, 1, 1), (0, 1), (1, -2), (1, 4), (3, 2)])
def test_true_poly_image_rejects_beta_outside_its_domain(beta):
    # n = 2, m = 3: two entries >= 1 with |beta| - 2 <= 2
    spec = KernelSpec(2, 3)
    with pytest.raises(ValueError, match=r"^beta must be 2 integers >= 1 with "
                                         r"\|beta\| - n <= m - 1 = 2"):
        R_true_poly_image(spec, beta, [0.3, 0.1], [0.4, -0.3])
