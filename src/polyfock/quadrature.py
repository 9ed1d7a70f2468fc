"""Quadrature rules for integrands with Gaussian envelopes, and their size budget.

Every numerical cross-check in this library reduces to integrals of the form

    integral over R^dim of f(t) dt,    f(t) ~ (bounded, mildly oscillatory) * Gaussian,

so one grid construction serves them all.  A grid is built from a 1D
Gauss-Hermite rule, affinely mapped axis by axis (node -> center + scale*node),
and stores *Lebesgue* weights: the Gauss-Hermite weight times e^{t^2} times
the scale.  Summing weight * f(node) then approximates the plain integral of
f, with the e^{-|t|^2} implicit in the rule cancelled against the integrand's
own Gaussian decay.  When the affine map matches that Gaussian (center at its
peak, scale = sqrt(2) * halfwidth), polynomial-times-Gaussian integrands of
degree <= 2*order - 1 are integrated exactly.  Integrands that jump use
composite Gauss-Legendre panels split at the jumps (:func:`legendre_panels`).

The compensated weights w * e^{t^2} are O(1) in size; with the order capped
at 128 the intermediate exp(t^2) stays below 1e112, far from overflow.

Oscillatory Fourier factors e^{-i u xi} are handled by the same rules; for
the frequency ranges used here (|xi| <= ~10) orders around 48-64 leave
errors well below 1e-10, which the convergence tests pin down.

This module alone holds the size policy: :func:`check_rule_budget` refuses
any tensor rule whose per-node arrays would exceed ``RULE_BYTES_BUDGET``.
:func:`tensor_rule` calls it for the rule itself; the fiber integrals and
the direct sigma route call it with their own per-node word counts before
they build anything large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import roots_hermite, roots_legendre

MAX_ORDER = 128

# Default nodes per axis by total dimension; chosen so the verification
# integrals converge past their tolerances while the 6D tensor grid stays
# below ~3M nodes.
DEFAULT_ORDERS = {1: 48, 2: 32, 3: 24, 4: 20, 5: 16, 6: 12}

# Per-axis order of the fiber and symbol integrals (L_via_fourier,
# fiber_project, gamma_toeplitz, the direct sigma route).  Their integrands
# carry Hermite functions or Fourier phases on every axis, so unlike
# DEFAULT_ORDERS the order does not fall with the dimension.
FIBER_ORDER = 48

# Largest set of per-node float64 arrays that any tensor rule may carry
# (see check_rule_budget); the 6-D default grid takes about 167 MB of it.
RULE_BYTES_BUDGET = 1 << 30

# Nodes per evaluator call in integrate, which bounds its temporaries.
INTEGRATE_CHUNK = 262144

# Widest Gauss-Legendre panel of legendre_panels: each panel then resolves
# a unit-scale Gaussian comfortably.
MAX_PANEL_WIDTH = 2.5


def default_order(dim: int) -> int:
    """Per-axis order used when a caller does not pin one."""
    return DEFAULT_ORDERS.get(dim, 12)


def _check_order(order) -> None:
    if not isinstance(order, int):
        raise TypeError(f"order must be an integer, got {order!r}")
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must lie in 1..{MAX_ORDER}, got {order}")


def gauss_hermite_1d(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the order-point Gauss-Hermite rule (weight e^{-t^2})."""
    _check_order(order)
    return roots_hermite(order)


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


def _broadcast_axis_param(value, dim: int, default: float) -> np.ndarray:
    if value is None:
        return np.full(dim, float(default))
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.shape == (1,):
        arr = np.full(dim, arr[0])
    if arr.shape != (dim,):
        raise ValueError(f"expected scalar or length-{dim} vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class QuadratureGrid:
    """Affinely placed tensor Gauss-Hermite rule with Lebesgue weights."""

    dim: int
    order: int
    nodes: np.ndarray      # (order**dim, dim)
    weights: np.ndarray    # (order**dim,), all positive


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


def tensor_grid(
    dim: int,
    order: int | None = None,
    center=None,
    scale=None,
) -> QuadratureGrid:
    """Build the tensor rule with order**dim nodes mapped to center + scale*t.

    ``center`` and ``scale`` are scalars or length-dim vectors (default 0
    and 1); both must be finite and ``scale`` positive on every axis.
    """
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    if order is None:
        order = default_order(dim)
    center = _broadcast_axis_param(center, dim, 0.0)
    scale = _broadcast_axis_param(scale, dim, 1.0)
    if not (np.all(np.isfinite(center)) and np.all(np.isfinite(scale))):
        raise ValueError(f"center and scale must be finite, got center={center}, scale={scale}")
    if np.any(scale <= 0):
        raise ValueError("scale must be positive on every axis")

    t, w = gauss_hermite_1d(order)
    compensated = w * np.exp(t * t)
    nodes, weights = tensor_rule([(center[axis] + scale[axis] * t, scale[axis] * compensated)
                                  for axis in range(dim)])
    return QuadratureGrid(dim=dim, order=order, nodes=nodes, weights=weights)


def _evaluate(evaluator: Callable, points: np.ndarray) -> np.ndarray:
    """evaluator(points) as an array of one value per point."""
    vals = np.asarray(evaluator(points))
    if vals.shape != points.shape[:1]:
        raise ValueError(f"evaluator returned shape {vals.shape} for {len(points)} points; "
                         "it must take all points at once and return one value each")
    return vals


def integrate(evaluator: Callable, grid: QuadratureGrid):
    """Sum weight * evaluator(node) over the grid in bounded-memory chunks.

    The evaluator is called on (N, dim) blocks of at most INTEGRATE_CHUNK
    nodes and must return N values.
    """
    total = 0.0 + 0.0j
    for start in range(0, grid.nodes.shape[0], INTEGRATE_CHUNK):
        vals = _evaluate(evaluator, grid.nodes[start : start + INTEGRATE_CHUNK])
        total += np.sum(grid.weights[start : start + INTEGRATE_CHUNK] * vals)
    return complex(total)


def fourier_1d_gaussian_type(
    evaluator: Callable,
    center: float,
    xi: float,
    order: int = 64,
):
    """(2 pi)^{-1/2} integral of evaluator(u) e^{-i u xi} du.

    For evaluators decaying like exp(-(u - center)^2 / 2) times a bounded
    factor; the evaluator takes the array of nodes and returns one value
    per node.  The oscillation is carried by the rule itself; at order 64 the
    error stays below ~1e-10 for |xi| <= 10.
    """
    grid = tensor_grid(1, order, center=center, scale=math.sqrt(2.0))
    u = grid.nodes[:, 0]
    vals = _evaluate(evaluator, u)
    phase = np.exp(-1j * u * xi)
    return complex(np.sum(grid.weights * vals * phase) / math.sqrt(2 * math.pi))


def legendre_panels(breakpoints: Sequence[float], order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule over [breakpoints[0], breakpoints[-1]].

    Panels are split at every breakpoint (where an integrand may jump) and
    spans wider than MAX_PANEL_WIDTH are further subdivided.  Breakpoints
    must be finite and strictly increasing.  Returns Lebesgue nodes and
    weights.
    """
    pts = np.asarray(breakpoints, dtype=float)
    if pts.ndim != 1 or len(pts) < 2 or np.any(np.diff(pts) <= 0):
        raise ValueError("breakpoints must be strictly increasing with >= 2 entries")
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"breakpoints must be finite, got {pts}")
    _check_order(order)
    x, w = roots_legendre(order)
    nodes, weights = [], []
    for lo, hi in zip(pts[:-1], pts[1:]):
        pieces = max(1, math.ceil((hi - lo) / MAX_PANEL_WIDTH))
        edges = np.linspace(lo, hi, pieces + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            half = (b - a) / 2
            nodes.append((a + b) / 2 + half * x)
            weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)
