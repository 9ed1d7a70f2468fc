"""Quadrature rules for integrands with Gaussian envelopes, and their size budget.

Every numerical cross-check in this library reduces to integrals over R^dim
or C^n of a (bounded, mildly oscillatory or piecewise smooth) factor times a
Gaussian.  Every rule here is a list of 1-D rules, one per axis, composed by
one builder.  The vocabulary:

* **Raw rules.**  numpy's ``hermgauss`` and ``leggauss``, built once per
  order and cached read-only; they share no code with the Hermite
  functions they check.
* **Placement** (:func:`place_hermite`).  The raw Gauss-Hermite rule (t, w)
  of :func:`gauss_hermite_1d`, built once per order and returned read-only
  to every caller, mapped to new arrays of nodes center + scale*t with
  *Lebesgue* weights scale * w * e^{t^2}.  Summing weight * f(node) then
  approximates the plain integral of f, with the e^{-t^2} implicit in the
  rule cancelled against the integrand's own Gaussian decay.  When the
  placement matches that Gaussian (center at its peak, scale = sqrt(2) *
  halfwidth), polynomial-times-Gaussian integrands of degree <= 2*order - 1
  are integrated exactly.  The compensated weights are O(1); with the order
  capped at 128 the intermediate e^{t^2} stays below 1e112.
* **Gaussian-mean rule** (:func:`gaussian_mean_axes`,
  :func:`gaussian_mean_rule`).  The mean against (alpha/pi)^n
  e^{-alpha|w|^2} on C^n: the Gaussian is folded into the weights, so
  summing weight * f(node) is the mean of f.  Its placement is the
  Gaussian's own width, moved to the peak of what f adds to it.  The
  library's routes stream the axes (see below); the built rule is the
  plain reference their sums are checked against.
* **Legendre panels** (:func:`legendre_panels`).  Composite Gauss-Legendre
  rules split at the points where an integrand jumps, built from one
  read-only raw rule per order (as for Gauss-Hermite).  The panels are
  counted against the budget before any is built.
* **Tensor rules** (:func:`tensor_rule`).  The one builder of
  multi-dimensional rules from per-axis rules; :func:`tensor_grid` is the
  placed Gauss-Hermite case, one scale for every axis.
* **Streamed rules** (:func:`stream_pairs`).  A tensor rule on C^n whose
  integrand is one non-separable function times a product of per-coordinate
  factors is summed in blocks of at most ``BLOCK_NODES`` nodes, and never
  built: leading real axes are fixed node by node only while the rest is
  too large, and the next real axis is cut into near-equal chunks that fill
  a block.  A block is laid out pair-major (re_0, im_0, re_1, im_1, ...);
  a coordinate is written only when its real range changes: a whole one
  once, a fixed one with each node and the chunked one with each chunk.
  The integrand takes each block's points as an (N, n) complex array and
  returns one value per point; the pairs are then contracted last to
  first, each by one matrix product with its factor.  A rule on R^n is the
  case of one imaginary node 0 per coordinate.  ``R_F_apply``,
  ``R_H_apply``, ``fock_norm``, the reproducing oracle and the direct route
  of ``sigma_from_gamma`` sum their rules this way.
* **Budget** (:func:`check_rule_budget`).  The one size check: any tensor
  rule whose per-node arrays would exceed ``RULE_BYTES_BUDGET`` is refused
  before it is built.  :func:`tensor_rule` and :func:`legendre_panels` call
  it for the rule itself; the fiber integrals, ``fock_norm`` and the
  direct sigma route call it with their own per-node word counts.

Arguments are parsed by their owners, never by hand here: orders and
``dim`` by ``multiindex._integer`` (a Python int, so NumPy integers pass
and bools or floats raise TypeError), a scalar center, scale, alpha or
frequency by ``kernels._scalar`` (a finite float; bools and complex values
raise TypeError), vector centers by ``kernels._rpoint`` and breakpoints by
``kernels._real``.

Oscillatory Fourier factors e^{-i u xi} are handled by the same rules; for
the frequency ranges used here (|xi| <= ~10) orders around 48-64 leave
errors well below 1e-10, which the convergence tests pin down.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .kernels import _real, _rpoint, _scalar
from .multiindex import _integer

MAX_ORDER = 128

# Default nodes per axis by total dimension; chosen so the verification
# integrals converge past their tolerances.  At dimension 6 that is 12^6
# (about 3M) nodes, which the reproducing oracle visits in blocks without
# building the grid.
DEFAULT_ORDERS = {1: 48, 2: 32, 3: 24, 4: 20, 5: 16, 6: 12}

# Per-axis order of the fiber and symbol integrals (L_via_fourier,
# fiber_project, gamma_toeplitz, the direct sigma route).  Their integrands
# carry Hermite functions or Fourier phases on every axis, so unlike
# DEFAULT_ORDERS the order does not fall with the dimension.
FIBER_ORDER = 48

# Largest set of per-node float64 arrays that any tensor rule may carry
# (see check_rule_budget).  The streamed integrals (see stream_pairs),
# which never build their rules, are held to what the rule would take, so
# their node count, and with it their run time, stays bounded.
RULE_BYTES_BUDGET = 1 << 30

# Largest block of nodes on which a streamed rule (see stream_pairs)
# evaluates its integrand at once.  Small blocks keep the integrand's
# temporaries in cache.  On a 2-vCPU Xeon (medians of 9 alternating passes),
# R_F_apply at n = 2, m = 3 and its default order took 7.2 ms per call with
# 2^13 here (blocks of 8000 nodes), 7.7 ms with 2^12 and 12.7 ms with 2^14;
# a reproducing-suite case at n = 3, m = 3 took 139, 162 and 138 ms.
BLOCK_NODES = 1 << 13

# Widest Gauss-Legendre panel of legendre_panels: each panel then resolves
# a unit-scale Gaussian comfortably.
MAX_PANEL_WIDTH = 2.5


def default_order(dim: int) -> int:
    """Per-axis order used when a caller does not pin one."""
    return DEFAULT_ORDERS.get(dim, 12)


def _check_order(order) -> int:
    order = _integer(order, "order", 1)
    if order > MAX_ORDER:
        raise ValueError(f"order must lie in 1..{MAX_ORDER}, got {order}")
    return order


def _read_only(rule: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    for values in rule:
        values.flags.writeable = False
    return rule


# One raw rule per family and order, built on first use and shared after.
# They are keyed by the parsed order, a Python int in 1..MAX_ORDER, so each
# cache holds at most MAX_ORDER rules (under 1 MB for both families).  The
# first rule imports numpy.polynomial, which ``import polyfock`` does not.
@functools.lru_cache(maxsize=None)
def _hermite_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    from numpy.polynomial.hermite import hermgauss
    return _read_only(hermgauss(order))


@functools.lru_cache(maxsize=None)
def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    from numpy.polynomial.legendre import leggauss
    return _read_only(leggauss(order))


def gauss_hermite_1d(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the order-point Gauss-Hermite rule (weight e^{-t^2}).

    Each order's rule is built once per process and shared by every caller:
    both arrays are read-only, so a caller that needs to modify them must
    copy them first.
    """
    return _hermite_rule(_check_order(order))


def check_rule_budget(sizes: Sequence[int], words_per_node: int) -> None:
    """Refuse a tensor rule whose per-node arrays would exceed RULE_BYTES_BUDGET.

    ``sizes`` holds the rule's length on each axis and ``words_per_node``
    the float64 words its caller keeps for every node: the rule itself
    (coordinates and weight) plus the per-node arrays built from it.  The
    count covers only arrays of the library's own making.  The working
    memory of a caller-supplied evaluator (the f or g being integrated) is
    not counted, so a call just under the budget can still need a multiple
    of it.  The budget is read at call time, and the check allocates
    nothing; callers make it before they build the rule.
    """
    total = math.prod(sizes)
    size_bytes = total * words_per_node * 8
    if size_bytes > RULE_BYTES_BUDGET:
        raise ValueError(f"tensor rule of {total} nodes ({'x'.join(map(str, sizes))}) at "
                         f"{words_per_node} words per node needs {size_bytes} bytes, "
                         f"over the {RULE_BYTES_BUDGET}-byte budget")


def place_hermite(rule: tuple[np.ndarray, np.ndarray], center: float, scale: float):
    """Gauss-Hermite rule placed at center + scale*t, with Lebesgue weights.

    ``rule`` is the raw (t, w) of :func:`gauss_hermite_1d`.  Returns the
    nodes center + scale*t and the weights scale * w * e^{t^2}, so summing
    weight * f(node) approximates the plain integral of f.  ``center`` must
    be finite and ``scale`` finite and positive.
    """
    center = _scalar(center, "center")
    scale = _scalar(scale, "scale", positive=True)
    t, w = rule
    return center + scale * t, scale * (w * np.exp(t * t))


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor product of 1-D rules."""

    nodes: np.ndarray      # (N, dim), last axis fastest
    weights: np.ndarray    # (N,), all positive


def tensor_rule(per_axis: Sequence[tuple[np.ndarray, np.ndarray]]):
    """Tensor product of 1-D rules: (nodes (N, dim), weights (N,)).

    ``per_axis`` holds one (nodes, weights) pair per axis; the last axis
    varies fastest.  Nodes and weights are assembled one column at a time
    (repeat/tile patterns) so no meshgrid temporaries of the full cube are
    created.  The rule takes dim + 1 words per node, checked against the
    budget by :func:`check_rule_budget` before any allocation.
    """
    sizes = [len(nodes) for nodes, _ in per_axis]
    check_rule_budget(sizes, len(per_axis) + 1)
    total = math.prod(sizes)
    nodes = np.empty((total, len(per_axis)))
    weights = np.ones(total)
    for axis, (axis_nodes, axis_weights) in enumerate(per_axis):
        inner = math.prod(sizes[axis + 1 :])
        outer = total // (sizes[axis] * inner)
        nodes[:, axis] = np.tile(np.repeat(axis_nodes, inner), outer)
        weights *= np.tile(np.repeat(axis_weights, inner), outer)
    return nodes, weights


def tensor_grid(dim: int, order: int | None = None, center=0.0, scale=1.0) -> QuadratureGrid:
    """Tensor Gauss-Hermite rule of order**dim nodes, placed axis by axis.

    ``center`` is a real scalar or length-dim vector and ``scale`` one real
    scalar shared by every axis (complex values, and a vector scale, raise
    TypeError); each axis is :func:`place_hermite` of the same order-point
    rule.
    """
    dim = _integer(dim, "dim", 1)
    if order is None:
        order = default_order(dim)
    center = np.broadcast_to(_real(center, "center"), (dim,))
    scale = _scalar(scale, "scale", positive=True)
    rule = gauss_hermite_1d(order)
    return QuadratureGrid(*tensor_rule([place_hermite(rule, c, scale) for c in center]))


def gaussian_mean_axes(center, alpha: float, order: int | None = None):
    """Per-axis rules for the mean against (alpha/pi)^n e^{-alpha|w|^2} on C^n.

    ``center`` holds the 2n real coordinates (real parts, then imaginary
    parts) the rule is placed at; they must be real (complex values raise
    TypeError) and finite, and alpha finite and positive.  ``order``
    defaults to :func:`default_order` of 2n.  Each axis maps Gauss-Hermite
    nodes t to x = c + t/sqrt(alpha), the Gaussian's own width, and
    carries the Gaussian in its weight,
    (1/sqrt(alpha)) w e^{t^2 - alpha x^2} sqrt(alpha/pi); the exponent is
    written as -alpha c^2 - 2 sqrt(alpha) c t, which stays small.  Returns
    one (nodes, weights) pair per axis; their tensor product is
    :func:`gaussian_mean_rule`.
    """
    center = _rpoint(center, np.size(center), "center")
    alpha = _scalar(alpha, "alpha", positive=True)
    if order is None:
        order = default_order(len(center))
    t, w = gauss_hermite_1d(order)
    root = math.sqrt(alpha)
    return [(c + t / root, w * np.exp(-alpha * c * c - 2 * root * c * t) / math.sqrt(math.pi))
            for c in center]


def gaussian_mean_rule(center, alpha: float, order: int | None = None):
    """Tensor rule of :func:`gaussian_mean_axes`: (nodes (N, 2n), weights (N,)).

    Summing weight * f(node) approximates the Gaussian mean of f.  It is
    exact when f(w) e^{-alpha|w|^2} is e^{-alpha|w - center|^2} times a
    polynomial of degree <= 2*order - 1 in each coordinate, as
    |K_c|^2 e^{-alpha|w|^2} is for a kernel section K_c.
    """
    return tensor_rule(gaussian_mean_axes(center, alpha, order))


def stream_pairs(integrand: Callable, re_nodes, im_nodes, factors) -> np.ndarray:
    """Sum of integrand(w) prod_r factors[r][..., i_r, j_r] over a tensor grid on C^n.

    The grid's points are w_r = re_nodes[r][i_r] + i im_nodes[r][j_r].
    ``factors[r]`` has shape extra_r + (len(re_nodes[r]), len(im_nodes[r]))
    and carries the weights of coordinate r.  The grid is never built; it
    is cut into blocks of at most ``BLOCK_NODES`` nodes (read at call
    time), the real axes in the order re_0..re_{n-1}, then the imaginary
    axes:

    * leading real axes are fixed node by node while the axes after them
      hold more than ``BLOCK_NODES`` nodes;
    * the next real axis is cut into near-equal chunks, as few as keep a
      block within ``BLOCK_NODES`` (one chunk, the whole axis, if it fits);
    * the remaining axes are whole in every block.

    A block exceeds ``BLOCK_NODES`` only when the imaginary axes alone do.
    A block is laid out pair-major, axes re_0, im_0, ..., re_{n-1}, im_{n-1}
    with the last fastest, so each coordinate pair is two adjacent axes.
    ``integrand`` is called once per block on a read-only (N, n) complex
    array of its points and must return one value per point (checked as by
    :func:`_evaluate`); ``points[:, r]`` is contiguous, and the points of
    one block are overwritten by the next.  A coordinate is written only
    when its real range changes: a whole one once and a fixed one when its
    node changes, both into the whole buffer (so a wider chunk never reads a
    stale point), and the chunked one into the block's prefix of its axis
    with each new chunk.  The pairs are then contracted last to first, each
    by one matrix product of its factor, sliced to the block's real range
    and flattened to extra_r x pair, against the block flattened to rest x
    pair x inner (inner: the extra sizes of the pairs already contracted).
    The last pair, the largest in every block that does not cut it, shrinks
    the block first, and no transpose is needed: the block results are added
    in block order and come out indexed extra_0 + ... + extra_{n-1}.  Cost:
    one integrand value per node plus the contractions, about E
    multiply-adds per node for the last pair's extra size E; peak memory is
    one block.

    A real axis is a pair whose imaginary axis is the single node 0 (with
    factors of shape extra_r + (len(re_nodes[r]), 1)); the integrand then
    reads ``points.real``.  Callers: ``spectral.R_F_apply``,
    ``spectral.R_H_apply`` and ``transforms.fock_norm`` (complex pairs),
    the reproducing oracle of ``verify`` (complex pairs, moments read out
    of the sum) and the direct route of ``symbols.sigma_from_gamma`` (real
    axes).
    """
    n = len(re_nodes)
    sizes = [len(nodes) for nodes in (*re_nodes, *im_nodes)]
    fixed = 0
    while fixed < n and math.prod(sizes[fixed + 1:]) > BLOCK_NODES:
        fixed += 1
    # Each real axis as its (lo, hi) ranges: single nodes, chunks, or whole.
    ranges = [[(i, i + 1) for i in range(size)] for size in sizes[:fixed]]
    if fixed < n:
        size = sizes[fixed]
        chunks = -(-size // (BLOCK_NODES // math.prod(sizes[fixed + 1:])))
        ranges.append([(size * k // chunks, size * (k + 1) // chunks) for k in range(chunks)])
        ranges += [[(0, size)] for size in sizes[fixed + 1:n]]
    widths = [max(hi - lo for lo, hi in axis) for axis in ranges]

    # Coordinate-first points of the widest block; a narrower chunk is a
    # prefix of the chunked axis, so its points are a view of the same buffer.
    buf = np.empty((n, *(k for pair in zip(widths, sizes[n:]) for k in pair)), dtype=complex)
    extras = [f.shape[:-2] for f in factors]
    total, last = 0.0, (None,) * n
    for block in itertools.product(*ranges):
        view = buf[(slice(None), *(k for lo, hi in block for k in (slice(hi - lo), slice(None))))]
        for r, (lo, hi) in enumerate(block):
            # Coordinate r along its pair's two axes, written only when its
            # range changes; all but the chunked one into the whole buffer, so
            # a wider chunk never reads a stale point.
            if (lo, hi) != last[r]:
                pair = re_nodes[r][lo:hi, None] + 1j * im_nodes[r]
                pair = pair.reshape((1, 1) * r + pair.shape + (1, 1) * (n - r - 1))
                (view if r == fixed else buf)[r] = pair
        last = block
        points = view.reshape(n, -1).T
        points.flags.writeable = False
        cube, inner = _evaluate(integrand, points), 1
        for r in reversed(range(n)):
            lo, hi = block[r]
            factor = factors[r][..., lo:hi, :].reshape(math.prod(extras[r]), -1)
            # (rest, pair, inner) -> (rest, extra_r, inner).  While inner is 1
            # this is one plain product, faster than a stack of rest ones.
            if inner == 1:
                cube = np.matmul(cube.reshape(-1, factor.shape[1]), factor.T)
            else:
                cube = np.matmul(factor, cube.reshape(-1, factor.shape[1], inner))
            inner *= factor.shape[0]
        total = total + cube
    return np.reshape(total, sum(extras, ()))


def _evaluate(evaluator: Callable, points: np.ndarray) -> np.ndarray:
    """evaluator(points) as an array of one value per point."""
    vals = np.asarray(evaluator(points))
    if vals.shape != points.shape[:1]:
        raise ValueError(f"evaluator returned shape {vals.shape} for {len(points)} points; "
                         "it must take all points at once and return one value each")
    return vals


def fourier_1d_gaussian_type(evaluator: Callable, xi: float, order: int = 64):
    """(2 pi)^{-1/2} integral of evaluator(u) e^{-i u xi} du.

    For evaluators decaying like exp(-u^2 / 2) times a bounded factor; the
    evaluator takes the array of nodes and returns one value per node.  The
    oscillation is carried by the rule itself; at order 64 the error stays
    below ~1e-10 for |xi| <= 10; a non-finite xi is refused.
    """
    xi = _scalar(xi, "frequency")
    u, weights = place_hermite(gauss_hermite_1d(order), 0.0, math.sqrt(2.0))
    vals = _evaluate(evaluator, u)
    phase = np.exp(-1j * u * xi)
    return complex(np.sum(weights * vals * phase) / math.sqrt(2 * math.pi))


def legendre_panels(breakpoints: Sequence[float], order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule over [breakpoints[0], breakpoints[-1]].

    Panels are split at every breakpoint (where an integrand may jump) and
    spans wider than MAX_PANEL_WIDTH are further subdivided.  Breakpoints
    must be finite and strictly increasing.  The rule takes two words per
    node (node and weight); one that would exceed the budget of
    :func:`check_rule_budget` is refused before any panel is built.  The
    raw order-point rule comes from a per-order cache; the returned Lebesgue
    nodes and weights are new arrays.
    """
    pts = _real(breakpoints, "breakpoints")
    if pts.ndim != 1 or len(pts) < 2 or np.any(pts[1:] <= pts[:-1]):
        raise ValueError("breakpoints must be strictly increasing with >= 2 entries")
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"breakpoints must be finite, got {pts}")
    order = _check_order(order)
    # Panels per span, counted as floats so that a span too wide to split
    # (one of two finite breakpoints that overflows to inf included) is
    # refused like any other.
    with np.errstate(over="ignore"):
        pieces = np.maximum(1.0, np.ceil(np.diff(pts) / MAX_PANEL_WIDTH))
    check_rule_budget([float(pieces.sum()) * order], 2)
    x, w = _legendre_rule(order)
    # Every panel's edges, span by span; then all panels at once.
    edges = [np.linspace(lo, hi, int(count) + 1)
             for lo, hi, count in zip(pts[:-1], pts[1:], pieces)]
    a = np.concatenate([e[:-1] for e in edges])[:, None]
    b = np.concatenate([e[1:] for e in edges])[:, None]
    half = (b - a) / 2
    return ((a + b) / 2 + half * x).ravel(), (half * w).ravel()
