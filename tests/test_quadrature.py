"""Tensor Gauss-Hermite grids against closed-form Gaussian integrals."""

import itertools
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import roots_hermite, roots_legendre

from polyfock import quadrature
from polyfock.quadrature import (
    DEFAULT_ORDERS,
    MAX_ORDER,
    default_order,
    fourier_1d_gaussian_type,
    gauss_hermite_1d,
    gaussian_mean_rule,
    legendre_panels,
    place_hermite,
    stream_pairs,
    tensor_grid,
    tensor_rule,
)
from polyfock.kernels import KernelSpec, kernel_F
from polyfock.multiindex import build_index_table
from polyfock.spectral import R_F_apply, R_H_apply
from polyfock.symbols import constant, sigma_from_gamma
from polyfock.transforms import flatten, fock_function


def test_gauss_hermite_nodes_symmetric():
    nodes, weights = gauss_hermite_1d(16)
    assert_allclose(nodes, -nodes[::-1], atol=1e-14)
    assert_allclose(weights, weights[::-1], rtol=1e-14)
    assert np.sum(weights) == pytest.approx(math.sqrt(math.pi), rel=1e-14)


def test_gauss_hermite_order_validation():
    with pytest.raises(ValueError):
        gauss_hermite_1d(0)
    with pytest.raises(ValueError):
        gauss_hermite_1d(MAX_ORDER + 1)
    with pytest.raises(TypeError):
        gauss_hermite_1d(12.5)


def test_raw_rules_are_built_once_per_order_and_read_only():
    rule = gauss_hermite_1d(48)
    assert gauss_hermite_1d(48) is rule
    assert gauss_hermite_1d(np.int64(48)) is rule
    raw = quadrature._legendre_rule(48)
    assert quadrature._legendre_rule(48) is raw
    for values in (*rule, *raw):
        assert not values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            values *= 2.0


RULE_ORDERS = [1, 2, 7, 48, 64, MAX_ORDER]


@pytest.mark.parametrize("order", RULE_ORDERS)
def test_raw_rules_agree_with_scipy(order):
    # scipy is a test-only reference.  Worst cases of numpy's rules over
    # these orders: nodes 2.3e-16 * max(1, |t|), compensated Gauss-Hermite
    # weights w e^{t^2} 7.8e-13 and Gauss-Legendre weights 4.1e-11
    # relative, both at the outermost node of order 128; the bounds keep
    # one decade of margin.
    t, w = gauss_hermite_1d(order)
    ref_t, ref_w = roots_hermite(order)
    assert np.all(np.abs(t - ref_t) <= 3e-15 * np.maximum(1.0, np.abs(ref_t)))
    assert_allclose(w * np.exp(t * t), ref_w * np.exp(ref_t * ref_t), rtol=8e-12, atol=0)
    x, v = quadrature._legendre_rule(order)
    ref_x, ref_v = roots_legendre(order)
    assert np.all(np.abs(x - ref_x) <= 3e-15)
    assert_allclose(v, ref_v, rtol=8e-10, atol=0)


@pytest.mark.parametrize("order", RULE_ORDERS)
def test_raw_rules_are_exact_to_degree_2_order_minus_1(order):
    # Even moments up to degree 2*order - 2 (odd ones vanish by symmetry).
    # Worst relative gaps over these orders: 4.2e-15 (Hermite, t^202 at
    # order 128) and 1.2e-12 (Legendre, x^254 at order 128); the bounds
    # keep one decade of margin.
    t, w = gauss_hermite_1d(order)
    x, v = quadrature._legendre_rule(order)
    for k in range(order):
        assert np.sum(w * t ** (2 * k)) == pytest.approx(math.gamma(k + 0.5), rel=5e-14)
        assert np.sum(v * x ** (2 * k)) == pytest.approx(2 / (2 * k + 1), rel=2e-11)


def test_bad_orders_are_refused_with_the_rules_cached():
    gauss_hermite_1d(1)
    gauss_hermite_1d(MAX_ORDER)
    legendre_panels([0.0, 1.0], 1)
    with pytest.raises(TypeError, match="order must be an integer"):
        gauss_hermite_1d(True)
    with pytest.raises(TypeError, match="order must be an integer"):
        legendre_panels([0.0, 1.0], True)
    for call in (gauss_hermite_1d, lambda k: legendre_panels([0.0, 1.0], k)):
        with pytest.raises(ValueError, match=f"order must lie in 1..{MAX_ORDER}"):
            call(MAX_ORDER + 1)


def _fresh_legendre_panels(breakpoints, order):
    """legendre_panels spelled out on the cached raw rule."""
    x, w = quadrature._legendre_rule(order)
    nodes, weights = [], []
    for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
        edges = np.linspace(lo, hi, max(1, math.ceil((hi - lo) / quadrature.MAX_PANEL_WIDTH)) + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            nodes.append((a + b) / 2 + (b - a) / 2 * x)
            weights.append((b - a) / 2 * w)
    return np.concatenate(nodes), np.concatenate(weights)


@pytest.mark.parametrize("breakpoints, order", [([-1.0, 0.0, 3.0], 12), ([0.0, 50.0], 8),
                                                ([-4.1, -0.3, 0.2, 2.5, 9.7], 48),
                                                ([0.0, 2.5, 5.0 + 1e-12], 5)])
def test_legendre_panels_match_a_fresh_rule(breakpoints, order):
    nodes, weights = legendre_panels(breakpoints, order)
    expected = _fresh_legendre_panels(np.array(breakpoints), order)
    assert_array_equal(nodes, expected[0])
    assert_array_equal(weights, expected[1])
    assert nodes.flags.writeable and weights.flags.writeable


def test_tensor_grid_node_count_and_shape():
    grid = tensor_grid(3, order=5)
    assert grid.nodes.shape == (125, 3)
    assert grid.weights.shape == (125,)


@pytest.mark.parametrize("placement", [dict(scale=math.nan), dict(center=math.inf),
                                       dict(scale=math.inf), dict(center=[0.0, -math.inf])])
def test_tensor_grid_rejects_non_finite_placement(placement):
    with pytest.raises(ValueError, match="must be finite"):
        tensor_grid(2, 4, **placement)


@pytest.mark.parametrize("scale, error, message",
                         [(0.0, ValueError, "finite and positive"),
                          (-1.5, ValueError, "finite and positive"),
                          ([1.0, 2.0], TypeError, "a real number")],
                         ids=["0.0", "-1.5", "vector"])
def test_place_hermite_rejects_non_positive_scale(scale, error, message):
    # tensor_grid takes one scale for every axis, so a vector is refused.
    with pytest.raises(error, match="^scale must be " + message):
        place_hermite(gauss_hermite_1d(4), 0.0, scale)
    with pytest.raises(error, match="^scale must be " + message):
        tensor_grid(2, 4, scale=scale)


@pytest.mark.parametrize("center, alpha", [([0.0, math.nan], 1.0), ([math.inf, 0.0], 1.0),
                                           ([0.0, 0.0], math.nan), ([0.0, 0.0], 0.0)])
def test_gaussian_mean_rule_rejects_bad_placement(center, alpha):
    message = ("alpha must be finite and positive" if np.all(np.isfinite(center))
               else "center must be finite")
    with pytest.raises(ValueError, match="^" + message):
        gaussian_mean_rule(center, alpha, 4)


def test_default_orders_table():
    for dim, order in DEFAULT_ORDERS.items():
        assert default_order(dim) == order
    assert default_order(9) == DEFAULT_ORDERS[6]


@pytest.mark.parametrize("dim, order", [(1, 7), (2, 5), (3, 4)])
def test_tensor_grid_is_tensor_rule_of_mapped_1d_rules(dim, order):
    center = np.array([0.3, -1.2, 2.0])[:dim]
    scale = 1.9
    grid = tensor_grid(dim, order, center=center, scale=scale)

    t, w = gauss_hermite_1d(order)
    per_axis = [(center[a] + scale * t, scale * (w * np.exp(t * t))) for a in range(dim)]
    nodes, weights = tensor_rule(per_axis)
    assert np.array_equal(grid.nodes, nodes)
    assert np.array_equal(grid.weights, weights)

    # the same cube spelled out with meshgrid; last axis fastest
    mesh_nodes = np.meshgrid(*[pn for pn, _ in per_axis], indexing="ij")
    mesh_weights = np.meshgrid(*[pw for _, pw in per_axis], indexing="ij")
    expected_weights = np.ones(order**dim)
    for axis_weights in mesh_weights:
        expected_weights = expected_weights * axis_weights.ravel()
    assert np.array_equal(nodes, np.stack([c.ravel() for c in mesh_nodes], axis=-1))
    assert np.array_equal(weights, expected_weights)


def test_tensor_rule_mixed_axis_lengths():
    nodes, weights = tensor_rule([(np.array([1.0, 2.0]), np.array([0.5, 0.25])),
                                  (np.array([10.0, 20.0, 30.0]), np.array([1.0, 2.0, 3.0]))])
    assert nodes.tolist() == [[1, 10], [1, 20], [1, 30], [2, 10], [2, 20], [2, 30]]
    assert weights.tolist() == [0.5, 1.0, 1.5, 0.25, 0.5, 0.75]


def test_tensor_rule_budget_is_checked_before_allocation(monkeypatch):
    axis = (np.zeros(4), np.ones(4))
    # 4^3 nodes, 3 coordinates and one weight each: 2048 bytes
    monkeypatch.setattr(quadrature, "RULE_BYTES_BUDGET", 2048)
    nodes, _ = tensor_rule([axis] * 3)
    assert nodes.shape == (64, 3)
    monkeypatch.setattr(quadrature, "RULE_BYTES_BUDGET", 2047)
    with pytest.raises(ValueError, match=r"64 nodes \(4x4x4\) at 4 words per node needs 2048 bytes"):
        tensor_rule([axis] * 3)


def test_one_budget_refuses_each_rule_at_its_own_word_count(monkeypatch):
    # Only quadrature's budget is lowered; every rule builder must read it
    # and count its own per-node words (n = 1, m = 2, so d = 2).
    spec = KernelSpec(1, 2)
    table = build_index_table(1, 2)
    f = fock_function(lambda z: kernel_F(spec, 0.2j, z))
    monkeypatch.setattr(quadrature, "RULE_BYTES_BUDGET", 1000)
    refusals = {
        # 8^2 nodes * (4 + 5) words
        r"64 nodes \(8x8\) at 9 words per node needs 4608 bytes":
            lambda: R_F_apply(spec, f, [0.5], order=8),
        # 8^2 nodes * ((2 + 1) + 6 + (2 + 2 * 2)) words
        r"64 nodes \(8x8\) at 15 words per node needs 7680 bytes":
            lambda: R_H_apply(table, flatten(spec, f), [0.5], order=8),
        # 48 nodes * (1 + 1 + 2 + 3 * 2) words
        r"48 nodes \(48\) at 10 words per node needs 3840 bytes":
            lambda: sigma_from_gamma(table, constant(1.0), [0.3], route="direct"),
        # 8^2 nodes * (2 + 1) words
        r"64 nodes \(8x8\) at 3 words per node needs 1536 bytes":
            lambda: tensor_rule([(np.zeros(8), np.ones(8))] * 2),
    }
    for message, call in refusals.items():
        with pytest.raises(ValueError, match=rf"^tensor rule of {message}, "
                                             r"over the 1000-byte budget$"):
            call()


ADDRESS_SPACE_LIMIT = 2 << 30

# Each snippet would allocate more than a gigabyte without the budget; the
# child process runs it under a 2 GiB address-space limit, so a missing
# guard ends in a MemoryError there rather than in the test runner.
OVER_BUDGET = {
    "tensor-rule-336-cubed": "tensor_rule([(np.zeros(336), np.ones(336))] * 3)",
    "sigma-direct-box-n3": ("symbols.sigma_from_gamma(build_index_table(3, 3), "
                            "symbols.box(-1.0, 1.0, n=3), [0.1, -0.2, 0.3], route='direct')"),
    "sigma-direct-products-n3": ("symbols.sigma_from_gamma(build_index_table(3, 5), "
                                 "symbols.constant(1.0, n=3), [0.1, -0.2, 0.3], order=128, "
                                 "route='direct')"),
}


@pytest.mark.parametrize("call", OVER_BUDGET.values(), ids=OVER_BUDGET)
def test_over_budget_rules_refused_under_address_space_limit(call):
    root = Path(__file__).resolve().parent.parent
    script = textwrap.dedent(f"""
        import resource
        import numpy as np
        from polyfock import symbols
        from polyfock.multiindex import build_index_table
        from polyfock.quadrature import tensor_rule
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE_LIMIT}, hard))
        try:
            {call}
        except ValueError as exc:
            print("refused:", exc)
    """)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run([sys.executable, "-c", script], cwd=root, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "refused: tensor rule of" in result.stdout
    assert "bytes, over the 1073741824-byte budget" in result.stdout


def test_scalar_only_evaluators_are_rejected():
    with pytest.raises(ValueError, match=r"shape \(\) for 64 points"):
        fourier_1d_gaussian_type(lambda u: 1.0, 0.5)


def test_gaussian_mass_is_one():
    # integral of (2 pi h^2)^{-1/2} exp(-(t-c)^2 / (2 h^2)) over R
    c, h = 1.7, 0.6
    grid = tensor_grid(1, 24, center=c, scale=math.sqrt(2) * h)

    def f(pts):
        t = pts[:, 0]
        return np.exp(-((t - c) ** 2) / (2 * h * h)) / math.sqrt(2 * math.pi * h * h)

    assert np.sum(grid.weights * f(grid.nodes)) == pytest.approx(1.0, rel=1e-13)


def test_polynomial_exactness():
    """Degree 2*order-1 polynomials against the exact Gaussian moments."""
    order = 7
    grid = tensor_grid(1, order, center=0.0, scale=1.0)
    # E[t^k] for the weight e^{-t^2}: Gamma((k+1)/2) for even k
    for k in range(0, 2 * order - 1, 2):
        exact = math.gamma((k + 1) / 2)
        t = grid.nodes[:, 0]
        got = np.sum(grid.weights * t ** k * np.exp(-t ** 2))
        assert got == pytest.approx(exact, rel=1e-12)


def test_separable_product_identity():
    # int f(x) g(y) = (int f)(int g) on a 2D grid
    grid2 = tensor_grid(2, 14)
    grid1 = tensor_grid(1, 14)

    def fx(t):
        return np.exp(-t * t) * (1 + t * t)

    def gy(t):
        return np.exp(-t * t) * np.cos(t)

    lhs = np.sum(grid2.weights * fx(grid2.nodes[:, 0]) * gy(grid2.nodes[:, 1]))
    rhs = (np.sum(grid1.weights * fx(grid1.nodes[:, 0]))
           * np.sum(grid1.weights * gy(grid1.nodes[:, 0])))
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_order_doubling_converges():
    def f(pts):
        t = pts[:, 0]
        return np.exp(-t * t / 2) / (1 + t * t)

    coarse, fine, finer = (np.sum(grid.weights * f(grid.nodes))
                           for grid in (tensor_grid(1, order) for order in (16, 32, 64)))
    # poles at +-i limit GH to geometric convergence; still strictly improving
    assert abs(fine - finer) < abs(coarse - finer)
    assert abs(fine - finer) < 1e-5


def test_offcenter_gaussian_needs_matching_grid():
    # a grid centered at the mass point integrates exactly what a grid at the
    # origin misses badly at low order
    c = 6.0
    f = lambda pts: np.exp(-((pts[:, 0] - c) ** 2))
    good, bad = (np.sum(grid.weights * f(grid.nodes))
                 for grid in (tensor_grid(1, 10, center=c, scale=1.0),
                              tensor_grid(1, 10, center=0.0, scale=1.0)))
    assert good == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert abs(bad - math.sqrt(math.pi)) > 1e-3


@pytest.mark.parametrize("xi", [math.nan, -math.inf])
def test_fourier_rejects_non_finite_frequency(xi):
    with pytest.raises(ValueError, match="^frequency must be finite"):
        fourier_1d_gaussian_type(lambda u: np.exp(-u * u / 2), xi)


def test_fourier_of_gaussian():
    # (2 pi)^{-1/2} int e^{-u^2/2} e^{-i u xi} du = e^{-xi^2/2}
    for xi in (-2.0, 0.0, 0.7, 3.1):
        got = fourier_1d_gaussian_type(lambda u: np.exp(-u * u / 2), xi)
        assert got == pytest.approx(math.exp(-xi * xi / 2), rel=1e-12, abs=1e-14)


def test_legendre_panels_integrate_jump():
    # int_{-1}^{3} sign(t) dt = 2, with a panel break exactly at the jump
    nodes, weights = legendre_panels([-1.0, 0.0, 3.0], 12)
    val = np.sum(weights * np.sign(nodes))
    assert val == pytest.approx(2.0, rel=1e-13)
    assert nodes.min() >= -1.0 and nodes.max() <= 3.0


def test_legendre_panels_subdivide_wide_intervals():
    nodes, _ = legendre_panels([0.0, 50.0], 8)
    assert len(nodes) >= 8 * 20


@pytest.mark.parametrize("breakpoints", [[0.0, math.inf], [-math.inf, 0.0, 1.0], [0.0, math.nan]])
def test_legendre_panels_reject_non_finite_breakpoints(breakpoints):
    with pytest.raises(ValueError, match="must be finite"):
        legendre_panels(breakpoints, 4)


def test_legendre_panels_order_validation():
    with pytest.raises(TypeError, match="order must be an integer"):
        legendre_panels([0.0, 1.0], 4.5)
    with pytest.raises(ValueError):
        legendre_panels([0.0, 1.0], MAX_ORDER + 1)


def test_weights_are_overflow_compensated():
    # raw GH weights underflow around order 100; compensated ones stay O(1)
    grid = tensor_grid(1, 96)
    assert np.all(np.isfinite(grid.weights))
    assert grid.weights.max() < 10.0
    assert grid.weights.min() > 0.0


def _stacked_stream_pairs(integrand, re_nodes, im_nodes, factors, fixed, chunks):
    """stream_pairs on a given block plan, each block's points listed into a fresh (N, n) array.

    The first ``fixed`` real axes go node by node, the next real axis (if
    any) in ``chunks`` near-equal chunks, the rest whole.  A block's points
    run pair-major, (re_0, im_0, ..., re_{n-1}, im_{n-1}) with the last
    fastest.  Its pairs are contracted last to first, each by one np.matmul
    of its factor, sliced to the block's real range and flattened to
    (extra, pair): on the right, transposed, of the (rest, pair) values
    while no pair is contracted yet, and on the left of the (rest, pair,
    inner) block after that.
    """
    n = len(re_nodes)
    sizes = [len(nodes) for nodes in re_nodes]
    ranges = [[(i, i + 1) for i in range(size)] for size in sizes[:fixed]]
    ranges += [[(size * k // chunks, size * (k + 1) // chunks) for k in range(chunks)]
               for size in sizes[fixed:fixed + 1]]
    ranges += [[(0, size)] for size in sizes[fixed + 1:]]
    total = 0.0
    for block in itertools.product(*ranges):
        pairs = [itertools.product(range(lo, hi), range(len(im_nodes[r])))
                 for r, (lo, hi) in enumerate(block)]
        points = np.array([[re_nodes[r][i] + 1j * im_nodes[r][j] for r, (i, j) in enumerate(node)]
                           for node in itertools.product(*pairs)])
        cube, inner = integrand(points), 1
        for r in reversed(range(n)):
            lo, hi = block[r]
            factor = factors[r][..., lo:hi, :].reshape(-1, (hi - lo) * len(im_nodes[r]))
            if inner == 1:
                cube = np.matmul(cube.reshape(-1, factor.shape[1]), factor.T)
            else:
                cube = np.matmul(factor, cube.reshape(-1, factor.shape[1], inner))
            inner *= len(factor)
        total = total + cube.reshape([k for f in factors for k in f.shape[:-2]])
    return total


# id -> (real sizes, imaginary sizes, BLOCK_NODES, real axes fixed node by
# node, chunks of the next real axis); the id is n-fixed.  A plan that fixes
# every real axis has blocks of the imaginary axes alone, larger than
# BLOCK_NODES here.
STREAM_PLANS = {"1-0": ([5], [4], 12, 0, 2), "1-1": ([5], [4], 3, 1, None),
                "2-0": ([3, 4], [5, 2], 120, 0, 1), "2-1": ([3, 4], [5, 2], 30, 1, 2),
                "2-2": ([3, 4], [5, 2], 9, 2, None),
                # a fixed axis before the uneven chunks (0, 2), (2, 5)
                "2-1-uneven": ([3, 5], [5, 2], 30, 1, 2),
                "3-0": ([3, 2, 4], [2, 3, 2], 200, 0, 2), "3-1": ([3, 2, 4], [2, 3, 2], 60, 1, 2),
                "3-2": ([3, 2, 4], [2, 3, 2], 30, 2, 2), "3-3": ([3, 2, 4], [2, 3, 2], 11, 3, None)}


@pytest.mark.parametrize("plan", STREAM_PLANS)
def test_stream_pairs_matches_the_stacked_blocks_bit_for_bit(plan, monkeypatch):
    # Rows reach a whole rule, chunked axes (uneven chunks included), fixed
    # axes before a chunked one (uneven chunks included), and every real
    # axis fixed.
    re_sizes, im_sizes, block_nodes, fixed, chunks = STREAM_PLANS[plan]
    n = len(re_sizes)
    rng = np.random.default_rng([n, fixed])
    monkeypatch.setattr(quadrature, "BLOCK_NODES", block_nodes)
    re_nodes = [rng.normal(size=k) for k in re_sizes]
    im_nodes = [rng.normal(size=k) for k in im_sizes]
    factors = [rng.normal(size=(r + 1, a, b)) + 1j * rng.normal(size=(r + 1, a, b))
               for r, (a, b) in enumerate(zip(re_sizes, im_sizes))]
    seen = []

    def integrand(points):
        seen.append((len(points), points.shape[1], points.flags.writeable,
                     all(points[:, r].flags.c_contiguous for r in range(n))))
        total = 0.0
        for r in range(points.shape[-1]):
            total = total + (r + 1) * points[:, r]
        return np.exp(0.2j * total) * np.cos(points[:, 0] * points[:, -1])

    got = stream_pairs(integrand, re_nodes, im_nodes, factors)
    blocks = seen[:]
    want = _stacked_stream_pairs(integrand, re_nodes, im_nodes, factors, fixed, chunks or 1)
    assert got.shape == tuple(range(1, n + 1))
    assert_array_equal(got, want)
    assert len(blocks) == math.prod(re_sizes[:fixed]) * (chunks or 1)
    assert sum(nodes for nodes, *_ in blocks) == math.prod(re_sizes + im_sizes)
    largest = math.prod(im_sizes) if fixed == n else block_nodes
    assert max(nodes for nodes, *_ in blocks) <= largest
    # Read-only (N, n) points whose coordinates are contiguous.
    assert {tuple(rest) for _, *rest in blocks} == {(n, False, True)}


@pytest.mark.parametrize("integrand, shape", [(lambda points: np.sum(points[:, 0]), r"\(\)"),
                                              (lambda points: points[:, :1], r"\(12, 1\)")],
                         ids=["one-value-per-block", "a-column-per-block"])
def test_stream_pairs_refuses_an_integrand_without_one_value_per_point(integrand, shape):
    re_nodes, im_nodes = [np.arange(3.0), np.arange(4.0)], [np.zeros(1), np.zeros(1)]
    factors = [np.ones((3, 1)), np.ones((4, 1))]
    with pytest.raises(ValueError, match=rf"^evaluator returned shape {shape} for 12 points"):
        stream_pairs(integrand, re_nodes, im_nodes, factors)


@pytest.mark.parametrize("n, real_axes, cut",
                         [(n, real_axes, cut) for n in (1, 2, 3) for real_axes in (False, True)
                          for cut in range(n + 1)])
def test_stream_pairs_matches_tensor_rule_on_a_non_product_integrand(n, real_axes, cut,
                                                                     monkeypatch):
    # The rule engine against the plain sum over tensor_rule's nodes.  The
    # real-axis form has one imaginary node 0 per coordinate, as the direct
    # sigma route uses it.  At cut = 0 the rule is one whole block; at cut
    # = k >= 1 blocks fix the first k - 1 real axes and cut real axis k - 1
    # into chunks of two nodes (an uneven last chunk at 5 nodes).
    rng = np.random.default_rng([n, real_axes, cut])
    re_axes = [place_hermite(gauss_hermite_1d(k), rng.normal(), 1.0) for k in (6, 5, 4)[:n]]
    im_axes = ([(np.zeros(1), np.ones(1))] * n if real_axes else
               [place_hermite(gauss_hermite_1d(k), rng.normal(), 0.8) for k in (3, 5, 4)[:n]])
    sizes = [len(nodes) for nodes, _ in re_axes + im_axes]
    block_nodes = 2 * math.prod(sizes[cut:]) if cut else math.prod(sizes)
    monkeypatch.setattr(quadrature, "BLOCK_NODES", block_nodes)
    powers = [np.arange(r + 2) for r in range(n)]

    def integrand(points):
        dist2 = np.sum(np.abs(points) ** 2, axis=-1)
        return np.exp(-dist2 / 2 + 0.3j * points[..., 0] * points[..., -1]) / (1 + dist2)

    factors = []
    for r in range(n):
        (x, wx), (y, wy) = re_axes[r], im_axes[r]
        w = x[:, None] + 1j * y[None, :]
        factors.append(w ** powers[r][:, None, None] * np.outer(wx, wy))
    blocks = []
    got = stream_pairs(lambda points: blocks.append(len(points)) or integrand(points),
                       [x for x, _ in re_axes], [y for y, _ in im_axes], factors)
    chunks = -(-sizes[cut - 1] // 2) if cut else 1
    assert len(blocks) == math.prod(sizes[:max(cut - 1, 0)]) * chunks
    assert max(blocks) <= block_nodes and sum(blocks) == math.prod(sizes)

    nodes, weights = tensor_rule(re_axes + im_axes)
    w = nodes[:, :n] + 1j * nodes[:, n:]
    base = weights * integrand(w)
    want = np.zeros(tuple(len(p) for p in powers), dtype=complex)
    for k in np.ndindex(*want.shape):
        want[k] = np.sum(base * np.prod(w ** np.array(k), axis=1))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
