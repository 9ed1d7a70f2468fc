"""Tests for the vertical-operator matrix symbol calculus."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.optimize import minimize
from scipy.special import eval_hermite

from polyfock import symbols
from polyfock.kernels import KernelSpec
from polyfock.multiindex import build_index_table, index_products
from polyfock.orthopoly import hermite_fn_table
from polyfock.quadrature import FIBER_ORDER, gauss_hermite_1d, place_hermite, tensor_grid
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


@pytest.mark.parametrize("m, order, xi", [(FIBER_ORDER, None, 0.0), (10, 10, 0.3)])
def test_m_up_to_the_order_is_still_exact_for_constants(m, order, xi):
    # An order-N Gauss-Hermite rule integrates psi_{N-1}^2 exactly; at
    # m = N + 1 both routes missed I by 1 and are refused (test_domains).
    table = build_index_table(1, m)
    for mat in (gamma_toeplitz(table, constant(1.0), [xi], order=order),
                sigma_from_gamma(table, constant(1.0), [xi], order=order, route="direct")):
        assert np.max(np.abs(mat.entries - np.eye(m))) <= 1e-14


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


def _gamma_per_xi_and_term(table, g, xi):
    """gamma_toeplitz of a smooth symbol assembled per xi and per term, with
    the Hermite table of every axis built at t = (xi + 2v)/sqrt(2) from the
    placed nodes."""
    n, m = table.n, table.m
    rules = []
    for r in range(n):
        v, w = place_hermite(gauss_hermite_1d(FIBER_ORDER), -xi[r] / 2, math.sqrt(2.0) / 2)
        rules.append((v, w, hermite_fn_table(m - 1, (xi[r] + 2 * v) / math.sqrt(2.0))))
    entries = np.zeros((table.d, table.d), dtype=complex)
    for coeff, factors in _axis_factors(g):
        per_axis = []
        for f, (v, w, psi), cols in zip(factors, rules, table.array.T):
            M = (psi * (w * f(v))) @ psi.T
            per_axis.append(((M + M.T) / 2)[:, cols])
        rows = np.stack(list(index_products(table, np.stack(per_axis, axis=-1))))
        entries = entries + coeff * rows
    entries = 2 ** (n / 2) * entries
    return entries.real.astype(complex) if g.is_real else entries


@pytest.mark.parametrize("n, m", [(1, 4), (2, 3), (3, 3)])
def test_gamma_matches_the_per_xi_per_term_assembly(n, m):
    # The cached smooth axes read the Hermite table at the raw Gauss-Hermite
    # nodes, and the terms of an axis are one stacked product; both move
    # gamma by round-off only.  Jump axes are closed form: _gram_below is
    # pinned against quad below.
    rng = np.random.default_rng(70 + n)
    table = build_index_table(n, m)
    for g in _kind_samples(n, rng):
        if g.kind in ("sign-of-coordinate", "box-indicator"):
            continue
        for x in (-8.0, -3.3, 0.0, 2.7, 8.0):
            xi = np.full(n, x)
            got = gamma_toeplitz(table, g, xi).entries
            want = _gamma_per_xi_and_term(table, g, xi)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= 2e-15 * scale, f"{g.kind} xi={x}"
            if g.is_real:
                assert np.array_equal(got, got.T)


def _psi(a, t):
    """psi_a from scipy's physicists' Hermite polynomials, not the library's recurrence."""
    return eval_hermite(a, t) * math.exp(-t * t / 2) / math.sqrt(
        2.0 ** a * math.factorial(a) * math.sqrt(math.pi))


@pytest.mark.parametrize("m", [1, 3, 8])
def test_gram_below_matches_quad(m):
    t = np.array([-6.0, -2.3, -0.4, 0.0, 0.7, 3.1, 7.5])
    P = symbols._gram_below(m, t)
    for j, top in enumerate(t):
        for a in range(m):
            for b in range(a, m):
                # below t = -15 the integrand is under e^{-200}; quad itself
                # lands within 1.3e-15 here, and a tighter epsabs only warns
                want = quad(lambda s: _psi(a, s) * _psi(b, s), -15.0, top,
                            epsabs=1e-13, epsrel=0.0)[0]
                assert abs(P[j, a, b] - want) <= 1e-14, (top, a, b)
                assert P[j, a, b] == P[j, b, a]


@pytest.mark.parametrize("m", [1, 2, 20, 64, 128])
def test_gram_below_identities(m):
    t = np.array([-40.0, -12.0, -3.3, -0.6, 0.0, 0.6, 3.3, 12.0, 40.0])
    P = symbols._gram_below(m, t)
    assert np.all(np.isfinite(P))
    assert np.array_equal(np.diagonal(P[4]), np.full(m, 0.5))  # psi_a^2 is even
    assert np.array_equal(P[0], np.zeros((m, m))) and np.array_equal(P[-1], np.eye(m))
    # reflection t -> -t: psi_a(-t) = (-1)^a psi_a(t), and the whole line gives I
    D = (-1.0) ** np.arange(m)
    reflected = D[:, None] * (np.eye(m) - P[::-1]) * D
    assert np.max(np.abs(P - reflected)) <= 1e-14


@pytest.mark.parametrize("m", [20, 30, 40, 64])
def test_a_wide_box_is_the_identity_at_large_m(m):
    # ROADMAP item 19: jump axes have no cut, so box(-50, 50) covers psi_{m-1}
    # (support |t| < sqrt(2m)) at any m this table reaches.
    table = build_index_table(1, m)
    for xi in (-8.0, 0.0, 3.7):
        mat = gamma_toeplitz(table, box(-50.0, 50.0), [xi]).entries
        assert np.max(np.abs(mat - np.eye(m))) <= 1e-13


@pytest.mark.parametrize("n, m", [(1, 6), (1, 40), (2, 4)])
def test_boxes_that_partition_the_line_sum_to_the_identity(n, m):
    table = build_index_table(n, m)
    for c in (-1.3, 0.0, 0.4):
        for xi in (np.full(n, -2.0), np.linspace(0.5, 1.5, n)):
            left = gamma_toeplitz(table, box([-np.inf] * n, [c] + [np.inf] * (n - 1), n=n), xi)
            right = gamma_toeplitz(table, box([c] + [-np.inf] * (n - 1), [np.inf] * n, n=n), xi)
            total = left.entries + right.entries
            assert np.max(np.abs(total - np.eye(table.d))) <= 1e-14, (c, xi)


def test_smooth_axis_cache_is_read_only_and_keyed_by_the_parsed_order():
    table = build_index_table(2, 3)
    g = gaussian_poly([(1.0, (0, 0)), (0.5, (2, 0))], center=[0.2, -0.1], n=2)
    symbols._smooth_axis.cache_clear()
    with pytest.raises(TypeError, match="order must be an integer"):
        gamma_toeplitz(table, g, [0.1, 0.2], order=True)
    assert symbols._smooth_axis.cache_info().currsize == 0
    first = gamma_toeplitz(table, g, [0.1, 0.2], order=48).entries
    again = gamma_toeplitz(table, g, [0.1, 0.2], order=np.int64(48)).entries
    info = symbols._smooth_axis.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 3)
    assert np.array_equal(first, again)
    offsets, weights, psi = symbols._smooth_axis(3, 48)
    assert psi.shape == (3, 48) and offsets.shape == weights.shape == (48,)
    assert not any(values.flags.writeable for values in (offsets, weights, psi))


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
            continue  # the direct route's rule is over the budget (a bound on its work)
        for eta in rng.uniform(-3.0, 3.0, (3, n)):
            gam = gamma_toeplitz(table, g, -eta / math.sqrt(2.0)).entries
            direct = sigma_from_gamma(table, g, eta, route="direct").entries
            assert_allclose(gam, direct, rtol=0, atol=1e-12, err_msg=f"{g.kind} eta={eta}")


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


def _refuse_direct_route_work(monkeypatch):
    from polyfock import symbols

    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the budget check")

    for name in ("stream_pairs", "hermite_fn_table"):
        monkeypatch.setattr(symbols, name, refuse)


def test_direct_route_refuses_large_products_before_allocating(monkeypatch):
    # A 128^3 rule alone is 67 MB, under the budget; with d = 35 the psi
    # products it would carry take 2.1 GB.  The count bounds the streamed
    # work, and nothing is built or evaluated before refusing.
    _refuse_direct_route_work(monkeypatch)
    with pytest.raises(ValueError, match=r"2097152 nodes \(128x128x128\) at 124 words "
                                         r"per node needs 2080374784 bytes"):
        sigma_from_gamma(build_index_table(3, 5), constant(1.0, n=3), [0.1, -0.2, 0.3],
                         order=128, route="direct")


# A 2x2 rule with a 100^4 complex sum (n = 2, m = 100), and a 1000x1000
# factor on each of 384 sign-axis nodes (n = 1, m = 1000): each rule is tiny
# at its word count, but the sum or the factors are over the budget.
DIRECT_MEMORY_REFUSALS = {
    "sum-n2-m100": ((2, 100, box([-1, -1], [1, 1], n=2), 2),
                    r"100000000 nodes \(100x100x100x100\) at 2 words per node "
                    r"needs 1600000000 bytes"),
    "factors-n1-m1000": ((1, 1000, sign(), 48),
                         r"384000000 nodes \(1000x1000x384\) at 1 words per node "
                         r"needs 3072000000 bytes"),
}


@pytest.mark.parametrize("case, message", DIRECT_MEMORY_REFUSALS.values(),
                         ids=DIRECT_MEMORY_REFUSALS)
def test_direct_route_refuses_large_sums_and_factors_before_allocating(case, message,
                                                                      monkeypatch):
    n, m, g, order = case
    table = build_index_table(n, m)
    _refuse_direct_route_work(monkeypatch)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            sigma_from_gamma(table, g, [0.3] * n, order=order, route="direct")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_direct_route_streams_the_n3_rule():
    # The 384 x 48 x 48 sign rule took 223 MiB when it was built whole.
    table = build_index_table(3, 3)
    g = sign(axis=0, n=3)
    eta = np.array([0.7, -1.3, 2.1])
    tracemalloc.start()
    try:
        direct = sigma_from_gamma(table, g, eta, route="direct").entries
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    via = sigma_from_gamma(table, g, eta, route="via-gamma").entries
    assert_allclose(direct, via, rtol=0, atol=1e-12)


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
    # d = 3 at both (n, m) = (1, 3) and (2, 2): equal sizes, but xi of
    # different lengths must not broadcast into a match
    one = gamma_toeplitz(build_index_table(1, 3), g, [0.5])
    two = gamma_toeplitz(build_index_table(2, 2), sign(0, n=2), [0.5, 0.5])
    assert one.entries.shape == two.entries.shape
    with pytest.raises(ValueError, match="^frequency mismatch"):
        symbol_compose(one, two)


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
        VerticalSymbol(0, "polynomial")
    with pytest.raises(TypeError):
        VerticalSymbol(1.5, "polynomial", ((1.0, (0,)),))
    # a constant is a degree-0 polynomial, not a kind of its own
    with pytest.raises(ValueError, match="^unknown symbol kind 'constant'"):
        VerticalSymbol(1, "constant", ((1.0, (0,)),))
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
    assert gaussian_poly([1.0], center=0.7).sup_bound() == 1.0
    # v^300 e^{-v^2/2} peaks at v = sqrt(300), where v^300 alone is past 1e308
    assert_allclose(gaussian_poly([(1.0, (300,))]).sup_bound(),
                    math.exp(150 * math.log(300) - 150), rtol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_gaussian_sup_bound_dominates_a_dense_scan(seed):
    rng = np.random.default_rng(seed)
    n = 1 + seed % 2
    terms = [(complex(*rng.uniform(-1, 1, 2)), tuple(rng.integers(0, 4, n)))
             for _ in range(3)]
    g = gaussian_poly(terms, center=rng.uniform(-1, 1, n), halfwidth=rng.uniform(0.5, 1.5), n=n)
    axes = [np.linspace(c - 12, c + 12, 2001 if n == 1 else 401) for c in g.gauss_center]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    assert g.sup_bound() >= np.max(np.abs(g(mesh))) * (1 - 1e-12)
    # one term: the bound is the supremum itself, found by polishing the scan's best point
    single = gaussian_poly(terms[:1], center=g.gauss_center, halfwidth=g.gauss_halfwidth, n=n)
    values = np.abs(single(mesh))
    start = mesh[np.unravel_index(np.argmax(values), values.shape)]
    polished = minimize(lambda v: -abs(single(v)), start, method="Nelder-Mead",
                        options=dict(xatol=1e-10, fatol=1e-14))
    assert_allclose(single.sup_bound(), -polished.fun, rtol=1e-9)


def test_gaussian_sup_bound_needs_no_mesh():
    g = gaussian_poly([(1.0, (0, 0, 0, 0)), (0.5, (2, 1, 0, 3))],
                      center=[0.1, -0.4, 0.7, 0.0], halfwidth=1.3, n=4)
    tracemalloc.start()
    try:
        bound = g.sup_bound()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert bound > 1.0


RAW = {
    "constant": (lambda: constant(2.5, n=2),
                 lambda: VerticalSymbol(2, "polynomial", ((2.5, (0, 0)),))),
    "polynomial": (lambda: polynomial([0, 1.5, np.float64(2.0)]),
                   lambda: VerticalSymbol(1, "polynomial", [0, 1.5, np.float64(2.0)])),
    "gaussian_poly": (lambda: gaussian_poly([(1.0, [2, 0])], [0.3, -0.1], 1.2, n=2),
                      lambda: VerticalSymbol(2, "gaussian-modulated-polynomial",
                                             [(1.0, [2, 0])], [0.3, -0.1], 1.2)),
    "sign": (lambda: sign(np.int64(1), n=2), lambda: VerticalSymbol(2, "sign-of-coordinate",
                                                                    axis=np.int64(1))),
    "box": (lambda: box(-1.0, [0.5, 2.0], n=2),
            lambda: VerticalSymbol(2, "box-indicator", lo=-1.0, hi=[0.5, 2.0])),
}


@pytest.mark.parametrize("named, direct", RAW.values(), ids=RAW)
def test_constructors_only_name_the_kind(named, direct):
    g = named()
    assert g == direct()
    # list-valued raw fields are parsed into tuples, so every symbol hashes
    assert hash(g) == hash(direct())
    assert type(g.n) is int and type(g.axis) is int
    # parsing is idempotent: replace() runs __post_init__ again
    assert g.conjugate() == g


def test_empty_terms_are_the_zero_symbol():
    table = build_index_table(2, 2)
    g = VerticalSymbol(2, "polynomial", ())
    assert g == constant(0, n=2)
    assert not np.any(gamma_toeplitz(table, g, [0.3, -0.2]).entries)


def test_symbol_matrix_shape_and_dimension():
    table = build_index_table(2, 2)
    mat = gamma_toeplitz(table, constant(1.0, n=2), [0.0, 0.0])
    assert isinstance(mat, SymbolMatrix)
    assert mat.entries.shape == (table.d, table.d)
