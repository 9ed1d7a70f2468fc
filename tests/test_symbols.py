"""Tests for the vertical-operator matrix symbol calculus."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from polyfock.kernels import KernelSpec
from polyfock.multiindex import build_index_table
from polyfock.orthopoly import hermite_fn_table
from polyfock.quadrature import gauss_hermite_1d, tensor_grid
from polyfock.spectral import R_F_kernel_image, q_matrix
from polyfock.symbols import (
    SymbolMatrix,
    VerticalSymbol,
    _axis_factors,
    box,
    constant,
    convolution_symbol,
    gamma_toeplitz,
    gaussian_poly,
    polynomial,
    sigma_from_gamma,
    sign,
    symbol_compose,
    weyl_symbol,
)


def _gamma_bruteforce_1d(table, g, xi, order):
    """Re-derive gamma entries for n=1 from scratch: plain Gauss-Hermite in
    t = (xi + 2v)/sqrt(2), no shared assembly code with gamma_toeplitz."""
    t, w = gauss_hermite_1d(order)
    v = (math.sqrt(2.0) * t - xi) / 2
    gv = np.asarray(g(v[:, None]), dtype=complex)
    psi = hermite_fn_table(table.m - 1, t)
    d = table.d
    out = np.zeros((d, d), dtype=complex)
    comp = w * np.exp(t * t)
    for r, kr in enumerate(table):
        for s, ks in enumerate(table):
            # Jacobian dv = dt/sqrt(2) cancels the 2^{1/2} prefactor
            out[r, s] = np.sum(comp * gv * psi[kr[0]] * psi[ks[0]])
    return out


def _kind_samples(n, rng, imag=0.5j):
    """One symbol of each kind in dimension n: an off-centre Gaussian, and
    polynomial coefficients with imaginary part ``imag``."""
    unit = [(0,) * n]
    axes = [tuple(int(q == r) for q in range(n)) for r in range(n)]
    squares = [tuple(2 * e for e in a) for a in axes]
    cross = [tuple(1 for _ in range(n))]
    return [
        constant(0.8 - 0.3j, n=n),
        polynomial([(c, e) for c, e in zip(rng.uniform(-1, 1, 2 * n + 2) + imag,
                                           unit + axes + squares + cross)], n=n),
        gaussian_poly([(c, e) for c, e in zip(rng.uniform(0.2, 1.5, n + 2),
                                              unit + squares + cross)],
                      center=rng.uniform(-1, 1, n), halfwidth=rng.uniform(0.7, 1.5), n=n),
        sign(axis=n - 1, n=n),
        box(rng.uniform(-1.5, -0.5, n), rng.uniform(0.5, 1.5, n), n=n),
    ]


def test_unit_symbol_gives_identity():
    for n, m in [(1, 1), (1, 3), (2, 2), (2, 4), (3, 2)]:
        table = build_index_table(n, m)
        for xi in [np.zeros(n), np.full(n, 0.9), np.linspace(-1.4, 2.0, n)]:
            mat = gamma_toeplitz(table, constant(1.0, n=n), xi)
            assert_allclose(mat.entries, np.eye(table.d), atol=1e-10)


def test_constant_symbol_scales_identity():
    table = build_index_table(2, 3)
    mat = gamma_toeplitz(table, constant(-2.5 + 0.5j, n=2), [0.3, -1.1])
    assert_allclose(mat.entries, (-2.5 + 0.5j) * np.eye(table.d), atol=1e-10)


def test_gamma_real_symmetric_for_real_symbols():
    table = build_index_table(1, 4)
    for g in [polynomial([0.0, 1.0]), sign(), box(-0.7, 1.2),
              gaussian_poly([1.0, 0.5], center=0.2, halfwidth=1.1)]:
        mat = gamma_toeplitz(table, g, [0.6])
        assert np.max(np.abs(mat.entries.imag)) == 0.0
        assert np.array_equal(mat.entries, mat.entries.T)
    # exact at every n: the one-dimensional factor matrices are symmetrized,
    # so entries (r, s) and (s, r) multiply equal numbers in equal order
    rng = np.random.default_rng(5)
    for n in (2, 3):
        table = build_index_table(n, 3)
        real = [g for g in _kind_samples(n, rng, imag=0.0) if g.is_real]
        assert len(real) == 4
        for g in real:
            for xi in rng.uniform(-3.0, 3.0, (3, n)):
                entries = gamma_toeplitz(table, g, xi).entries
                assert np.array_equal(entries, entries.T), f"{g.kind} xi={xi}"


def test_gamma_positive_semidefinite_for_nonnegative_symbols():
    table = build_index_table(1, 3)
    nonneg = [
        constant(2.0),
        box(-1.0, 0.5),
        gaussian_poly([1.0]),
        polynomial([0.0, 0.0, 1.0]),  # v^2
    ]
    for g in nonneg:
        for xi in [0.0, 0.8, -2.3]:
            mat = gamma_toeplitz(table, g, [xi])
            eigs = np.linalg.eigvalsh(mat.entries)
            assert eigs.min() >= -1e-9, f"{g.kind} at xi={xi}: min eig {eigs.min()}"


def test_gamma_operator_norm_bounded_by_sup():
    table = build_index_table(1, 4)
    bounded = [constant(0.7), sign(), box(-1.0, 0.5),
               gaussian_poly([1.0], center=0.3, halfwidth=1.2)]
    for g in bounded:
        bound = g.sup_bound()
        assert bound is not None
        for xi in [0.0, 0.8, -2.3]:
            mat = gamma_toeplitz(table, g, [xi])
            norm = np.linalg.norm(mat.entries, 2)
            assert norm <= bound + 1e-8, f"{g.kind}: {norm} > {bound}"
    # the polynomial kind is unbounded, so no bound is reported
    assert polynomial([0.0, 1.0]).sup_bound() is None


def test_gamma_linear_in_the_symbol():
    table = build_index_table(1, 3)
    xi = [0.45]
    g1 = polynomial([0.0, 1.0])
    g2 = polynomial([1.0, 0.0, 2.0])
    combo = polynomial([-1.5 * 1.0, 2.5, -1.5 * 2.0])
    lhs = gamma_toeplitz(table, combo, xi).entries
    rhs = 2.5 * gamma_toeplitz(table, g1, xi).entries - 1.5 * gamma_toeplitz(table, g2, xi).entries
    assert_allclose(lhs, rhs, atol=1e-9)


def test_gamma_against_doubled_order_bruteforce():
    table = build_index_table(1, 2)
    g = polynomial([0.0, 1.0])
    mat = gamma_toeplitz(table, g, [0.0])
    oracle = _gamma_bruteforce_1d(table, g, 0.0, order=96)
    assert_allclose(mat.entries, oracle, atol=1e-9)
    # the off-diagonal entry is genuinely nonzero: multiplication by v mixes
    # the two fiber components, the source of noncommutativity below
    assert abs(mat.entries[0, 1]) > 0.1


def test_gamma_bruteforce_agreement_smooth_symbols():
    for m in (2, 3):
        table = build_index_table(1, m)
        for g in [polynomial([0.3, -1.0, 0.25]),
                  gaussian_poly([1.0, 1.0], center=0.0, halfwidth=1.3)]:
            for xi in (0.0, -1.2, 2.1):
                mat = gamma_toeplitz(table, g, [xi])
                oracle = _gamma_bruteforce_1d(table, g, xi, order=96)
                assert_allclose(mat.entries, oracle, atol=1e-9)


def test_gamma_matches_fiber_inner_products():
    # entry (r, s) is the inner product of g * q_{phi(s), xi} with
    # q_{phi(r), xi} in L^2(dv / (2 pi)^{n/2})
    table = build_index_table(2, 3)
    xi = np.array([0.7, -0.4])
    g = gaussian_poly([(1.0, (0, 0)), (0.5, (1, 1))],
                      center=0.0, halfwidth=1.4, n=2)
    grid = tensor_grid(2, 32, center=-xi / 2, scale=1.0)
    Q = q_matrix(table, xi, grid.nodes)
    gv = np.asarray(g(grid.nodes))
    oracle = Q.T @ ((grid.weights * gv)[:, None] * Q) / (2 * math.pi)
    mat = gamma_toeplitz(table, g, xi)
    assert_allclose(mat.entries, oracle, atol=1e-10)


def test_sign_symbol_offdiagonal_closed_form():
    # 2 integral_0^inf psi_0 psi_1 dt = sqrt(2/pi)
    table = build_index_table(1, 2)
    mat = gamma_toeplitz(table, sign(), [0.0])
    assert_allclose(mat.entries[0, 0], 0.0, atol=1e-12)
    assert_allclose(mat.entries[1, 1], 0.0, atol=1e-12)
    assert_allclose(mat.entries[0, 1], math.sqrt(2 / math.pi), rtol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_axis_factors_reproduce_symbol(n):
    rng = np.random.default_rng(40 + n)
    v = rng.uniform(-2.0, 2.0, (200, n))
    for g in _kind_samples(n, rng):
        split = sum(coeff * np.prod([f(v[:, r]) for r, f in enumerate(factors)], axis=0)
                    for coeff, factors in _axis_factors(g))
        assert_allclose(split, g(v), rtol=1e-13, atol=1e-15, err_msg=g.kind)


@pytest.mark.parametrize("n, m", [(1, 1), (1, 4), (2, 2), (2, 4), (3, 3)])
def test_gamma_matches_direct_sigma_route(n, m):
    # sigma_g(eta) = gamma_g(-eta / sqrt(2)); the direct route integrates
    # g itself over a tensor rule, sharing no assembly with gamma_toeplitz
    rng = np.random.default_rng(10 * n + m)
    table = build_index_table(n, m)
    for g in _kind_samples(n, rng):
        if n == 3 and g.kind == "box-indicator":
            continue  # the direct route's rule is over the allocation budget
        for eta in rng.uniform(-3.0, 3.0, (3, n)):
            gam = gamma_toeplitz(table, g, -eta / math.sqrt(2.0)).entries
            direct = sigma_from_gamma(table, g, eta, route="direct").entries
            assert_allclose(gam, direct, rtol=0, atol=1e-12, err_msg=f"{g.kind} eta={eta}")


def test_gamma_and_direct_route_share_no_assembly(monkeypatch):
    # gamma_toeplitz builds no tensor rule and never evaluates g; the direct
    # sigma route never uses the per-axis split it is the check for
    from polyfock import symbols

    def refuse(*args, **kwargs):
        raise AssertionError("called across the route boundary")

    table = build_index_table(2, 3)
    g = gaussian_poly([(1.0, (0, 0)), (0.5, (2, 1))], center=[0.3, -0.2], n=2)
    with monkeypatch.context() as patch:
        for name in ("tensor_rule", "_psi_product_matrix"):
            patch.setattr(symbols, name, refuse)
        patch.setattr(VerticalSymbol, "__call__", refuse)
        gamma = gamma_toeplitz(table, g, [0.4, -1.0]).entries
    monkeypatch.setattr(symbols, "_axis_factors", refuse)
    direct = sigma_from_gamma(table, g, [-0.4 * math.sqrt(2.0), math.sqrt(2.0)],
                              route="direct").entries
    assert_allclose(gamma, direct, rtol=0, atol=1e-12)


def test_direct_route_budget_counts_psi_products(monkeypatch):
    from polyfock import quadrature

    # n = 1, m = 2 (d = 2) on 10 nodes: 10 * (1 + 1 + 2 + 3 * 2) * 8 = 800 bytes
    table = build_index_table(1, 2)
    monkeypatch.setattr(quadrature, "RULE_BYTES_BUDGET", 800)
    sigma_from_gamma(table, constant(1.0), [0.3], order=10, route="direct")
    monkeypatch.setattr(quadrature, "RULE_BYTES_BUDGET", 799)
    with pytest.raises(ValueError, match=r"10 nodes \(10\) at 10 words per node "
                                         r"needs 800 bytes"):
        sigma_from_gamma(table, constant(1.0), [0.3], order=10, route="direct")


def test_direct_route_refuses_large_products_before_allocating(monkeypatch):
    # A 128^3 rule alone is 67 MB, under the budget; with d = 35 its psi
    # products would take 2.1 GB.  Nothing large may be built before refusing.
    from polyfock import symbols

    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the budget check")

    for name in ("tensor_rule", "hermite_fn_table", "_psi_product_matrix"):
        monkeypatch.setattr(symbols, name, refuse)
    with pytest.raises(ValueError, match=r"2097152 nodes \(128x128x128\) at 124 words "
                                         r"per node needs 2080374784 bytes"):
        sigma_from_gamma(build_index_table(3, 5), constant(1.0, n=3), [0.1, -0.2, 0.3],
                         order=128, route="direct")


def test_gamma_box_n3_bounded_and_psd():
    table = build_index_table(3, 4)
    g = box([-1.0, -0.9, -1.1], [1.0, 1.1, 0.95], n=3)
    for xi in ([0.1, -0.2, 0.05], [2.0, -1.0, 0.5], [-8.0, -8.0, -8.0]):
        entries = gamma_toeplitz(table, g, xi).entries
        assert np.all(np.isfinite(entries))
        assert np.linalg.eigvalsh(entries)[0] >= -1e-9
        assert np.linalg.norm(entries, 2) <= g.sup_bound() + 1e-8


def test_gamma_dimension_mismatch():
    table = build_index_table(1, 2)
    with pytest.raises(ValueError):
        gamma_toeplitz(table, constant(1.0, n=2), [0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gamma_rejects_non_finite_frequency(bad):
    table = build_index_table(2, 2)
    with pytest.raises(ValueError, match="finite"):
        gamma_toeplitz(table, constant(1.0, n=2), [0.3, bad])


@pytest.mark.parametrize("route", ["via-gamma", "direct"])
def test_sigma_rejects_non_finite_frequency(route):
    table = build_index_table(1, 2)
    with pytest.raises(ValueError, match="finite"):
        sigma_from_gamma(table, sign(), [math.nan], route=route)


def test_sigma_two_routes_agree():
    rng = np.random.default_rng(11)
    symbols_1d = [polynomial([0.0, 1.0]),
                  gaussian_poly([1.0, 1.0], center=0.0, halfwidth=1.3),
                  sign(),
                  box(-0.6, 0.9)]
    for m in (2, 3):
        table = build_index_table(1, m)
        for g in symbols_1d:
            for eta in rng.uniform(-2.5, 2.5, size=10):
                via = sigma_from_gamma(table, g, [eta], route="via-gamma")
                direct = sigma_from_gamma(table, g, [eta], route="direct")
                assert_allclose(via.entries, direct.entries, atol=1e-9)


def test_sigma_two_routes_agree_2d():
    table = build_index_table(2, 2)
    g = sign(axis=1, n=2)
    rng = np.random.default_rng(12)
    for eta in rng.uniform(-2.0, 2.0, size=(3, 2)):
        via = sigma_from_gamma(table, g, eta, route="via-gamma")
        direct = sigma_from_gamma(table, g, eta, route="direct")
        assert_allclose(via.entries, direct.entries, atol=1e-9)


def test_sigma_is_gamma_at_scaled_argument():
    table = build_index_table(1, 3)
    g = polynomial([0.5, 1.0])
    eta = 1.7
    sig = sigma_from_gamma(table, g, [eta], route="direct")
    gam = gamma_toeplitz(table, g, [-eta / math.sqrt(2.0)])
    assert_allclose(sig.entries, gam.entries, atol=1e-9)
    assert_allclose(sig.xi, [eta])
    with pytest.raises(ValueError):
        sigma_from_gamma(table, g, [eta], route="sideways")


def test_sigma_of_unit_symbol():
    table = build_index_table(2, 3)
    sig = sigma_from_gamma(table, constant(1.0, n=2), [0.4, -1.0], route="direct")
    assert_allclose(sig.entries, np.eye(table.d), atol=1e-10)


def test_weyl_symbol_character():
    table = build_index_table(2, 2)
    xi = np.array([0.7, -1.2])
    a = np.array([1.3, 0.4])
    mat = weyl_symbol(table, a, xi)
    phase = np.exp(-1j * float(xi @ a))
    assert_allclose(mat.entries, phase * np.eye(table.d), atol=1e-14)
    assert_allclose(abs(np.linalg.det(mat.entries)), 1.0, rtol=1e-12)
    # unitary at every frequency
    assert_allclose(mat.entries @ mat.entries.conj().T, np.eye(table.d), atol=1e-14)

    ident = weyl_symbol(table, np.zeros(2), xi)
    assert_allclose(ident.entries, np.eye(table.d), atol=0)


def test_weyl_symbol_group_law():
    table = build_index_table(1, 3)
    rng = np.random.default_rng(3)
    for _ in range(5):
        xi, a, b = rng.uniform(-2, 2, size=3)
        lhs = symbol_compose(weyl_symbol(table, [a], [xi]),
                             weyl_symbol(table, [b], [xi]))
        rhs = weyl_symbol(table, [a + b], [xi])
        assert_allclose(lhs.entries, rhs.entries, atol=1e-13)


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_translation_and_convolution_symbols_reject_non_finite_frequency(bad):
    table = build_index_table(2, 2)
    with pytest.raises(ValueError, match="^frequency must be finite"):
        weyl_symbol(table, [0.3, -0.1], [bad, 0.2])
    with pytest.raises(ValueError, match="^frequency must be finite"):
        convolution_symbol(table, lambda xi: 1.0, [0.2, bad])


def test_convolution_symbol_gaussian():
    table = build_index_table(1, 3)
    h_hat = lambda xi: np.exp(-float(xi @ xi) / 2)
    mat = convolution_symbol(table, h_hat, [0.8])
    assert_allclose(mat.entries, math.exp(-0.32) * np.eye(table.d), rtol=1e-12)
    far = convolution_symbol(table, h_hat, [12.0])
    assert abs(far.entries[0, 0]) < 1e-6


def test_convolution_symbol_factors_kernel_image():
    # convolving the generating kernel section against a Gaussian multiplies
    # its fiber image by the scalar symbol, entry by entry
    spec = KernelSpec(n=1, m=3, alpha=1.0)
    table = build_index_table(1, 3)
    h_hat = lambda xi: np.exp(-float(xi @ xi) / 2)
    y = np.array([0.6])
    for xi in ([0.0], [1.1], [-2.0]):
        image = R_F_kernel_image(spec, y, xi)
        mat = convolution_symbol(table, h_hat, xi)
        assert_allclose(mat.entries @ image.components,
                        h_hat(np.asarray(xi)) * image.components, rtol=1e-12)


def test_compose_identity_and_mismatch_errors():
    table = build_index_table(1, 2)
    g = polynomial([0.0, 1.0])
    mat = gamma_toeplitz(table, g, [0.3])
    ident = gamma_toeplitz(table, constant(1.0), [0.3])
    prod = symbol_compose(mat, ident)
    assert_allclose(prod.entries, mat.entries, atol=1e-10)

    other_xi = gamma_toeplitz(table, g, [0.4])
    with pytest.raises(ValueError):
        symbol_compose(mat, other_xi)
    bigger = gamma_toeplitz(build_index_table(1, 3), g, [0.3])
    with pytest.raises(ValueError):
        symbol_compose(mat, bigger)


def test_adjoint_matches_conjugate_symbol():
    table = build_index_table(1, 3)
    xi = [0.55]
    g_real = gaussian_poly([0.5, 1.0], center=0.1, halfwidth=1.0)
    mat = gamma_toeplitz(table, g_real, xi)
    assert_allclose(mat.entries.conj().T, mat.entries, atol=1e-13)

    g_cplx = polynomial([1j, 2.0])
    mat_c = gamma_toeplitz(table, g_cplx, xi)
    conj_mat = gamma_toeplitz(table, g_cplx.conjugate(), xi)
    assert_allclose(mat_c.entries.conj().T, conj_mat.entries, atol=1e-13)


def test_matrix_symbols_do_not_commute_beyond_first_order():
    g1 = polynomial([0.0, 1.0])
    g2 = sign()
    # at xi = 0 both matrices are purely off-diagonal and commute by
    # accident, so the witness frequency must be nonzero
    xi = [1.0]

    # m = 1 is the classical scalar calculus: everything commutes
    table1 = build_index_table(1, 1)
    a1 = gamma_toeplitz(table1, g1, xi)
    b1 = gamma_toeplitz(table1, g2, xi)
    comm1 = symbol_compose(a1, b1).entries - symbol_compose(b1, a1).entries
    assert np.linalg.norm(comm1, 2) < 1e-14

    # m = 2 already fails to commute
    table2 = build_index_table(1, 2)
    a2 = gamma_toeplitz(table2, g1, xi)
    b2 = gamma_toeplitz(table2, g2, xi)
    comm2 = symbol_compose(a2, b2).entries - symbol_compose(b2, a2).entries
    assert np.linalg.norm(comm2, 2) > 1e-3


def test_symbol_kind_validation():
    with pytest.raises(ValueError):
        VerticalSymbol(1, "wavelet")
    with pytest.raises(ValueError):
        VerticalSymbol(0, "constant")
    with pytest.raises(TypeError):
        VerticalSymbol(1.5, "constant", ((1.0, (0,)),))
    with pytest.raises(TypeError):
        constant(1, n=True)
    with pytest.raises(TypeError):
        sign(axis=0.0, n=2)
    with pytest.raises(TypeError):
        sign(axis=True, n=2)
    with pytest.raises(ValueError):
        sign(axis=-1, n=2)
    with pytest.raises(ValueError):
        sign(axis=1, n=1)
    with pytest.raises(ValueError):
        box([-1.0, math.nan], [1.0, 1.0], n=2)
    with pytest.raises(ValueError):
        box(math.nan, 1.0)
    with pytest.raises(ValueError):
        VerticalSymbol(2, "box-indicator", lo=(-1.0,), hi=(1.0,))
    with pytest.raises(ValueError):
        gaussian_poly([1.0], center=[0.0, math.inf], n=2)
    with pytest.raises(ValueError):
        gaussian_poly([1.0], center=math.nan)
    with pytest.raises(ValueError):
        gaussian_poly([1.0], halfwidth=math.inf)
    # NumPy integers are integers; half-infinite boxes are boxes
    assert sign(axis=np.int64(1), n=np.int64(2)).axis == 1
    assert box(-math.inf, 0.0).breakpoints_on_axis(0) == (-math.inf, 0.0)
    with pytest.raises(ValueError):
        box(1.0, -1.0)
    with pytest.raises(ValueError):
        gaussian_poly([1.0], halfwidth=0.0)
    with pytest.raises(ValueError):
        polynomial([1.0, 2.0], n=2)  # flat lists are n=1 only
    with pytest.raises(ValueError):
        polynomial([(1.0, (0, 1, 0))], n=2)


def test_symbol_evaluation_and_breakpoints():
    g = box([-1.0, 0.0], [0.5, 2.0], n=2)
    vals = g(np.array([[0.0, 1.0], [0.6, 1.0], [0.0, -0.5]]))
    assert_allclose(vals, [1.0, 0.0, 0.0])
    assert g.breakpoints_on_axis(0) == (-1.0, 0.5)
    assert g.breakpoints_on_axis(1) == (0.0, 2.0)

    s = sign(axis=1, n=2)
    assert s.breakpoints_on_axis(0) == ()
    assert s.breakpoints_on_axis(1) == (0.0,)
    assert_allclose(s(np.array([[3.0, -0.2]])), [-1.0])

    smooth = polynomial([1.0, 0.0, 1.0])
    assert smooth.breakpoints_on_axis(0) == ()
    assert_allclose(smooth(np.array([[2.0]])), [5.0])

    g_c = polynomial([1j, 2.0])
    assert_allclose(g_c.conjugate()(np.array([[0.5]])), [1.0 - 1j])
    assert not g_c.is_real
    assert sign().is_real


def test_sup_bound_per_kind():
    assert constant(-3.0 + 4.0j).sup_bound() == 5.0
    assert sign().sup_bound() == 1.0
    assert box(0.0, 1.0).sup_bound() == 1.0
    assert polynomial([2.5]).sup_bound() == 2.5
    # pure Gaussian peaks at its center
    assert_allclose(gaussian_poly([1.0], center=0.7).sup_bound(), 1.0, rtol=1e-3)


def test_symbol_matrix_shape_and_dimension():
    table = build_index_table(2, 2)
    mat = gamma_toeplitz(table, constant(1.0, n=2), [0.0, 0.0])
    assert isinstance(mat, SymbolMatrix)
    assert mat.d == table.d
    assert mat.entries.shape == (table.d, table.d)
