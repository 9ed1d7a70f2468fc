"""Fiber decomposition of the flattened space under horizontal Fourier transform.

Taking a Fourier transform in the horizontal variable turns the flattened
space into a direct integral of d-dimensional fibers, d = C(n+m-1, n).  The
fiber over xi is spanned by the shifted Hermite products

    q_{k, xi}(v) = 2^{n/2} pi^{n/4} prod_r psi_{k_r}((xi_r + 2 v_r) / sqrt(2)),

orthonormal in L^2(R^n, (2 pi)^{-n/2} dv) for |k| <= m - 1.  The horizontal
Fourier transform of the kernel section at (0, y) collapses onto the fiber:

    (2 pi)^{-n/2} int K^H_{0,y}(u, v) e^{-i<u, xi>} du = sum_k q_{k,xi}(y) q_{k,xi}(v),

and the decomposition operator R (Fourier transform followed by fiberwise
coefficients) is what carries Toeplitz-type operators to matrix symbols.
Closed-form images of kernel sections are provided next to the quadrature
routes so each can check the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import KernelSpec, kernel_H, _frequency, _one_point, _rpoint, _scalar
from .multiindex import IndexTable, _integer, _multi_index, build_index_table, index_products
from .orthopoly import hermite_fn_table
from .quadrature import (FIBER_ORDER, _evaluate, check_rule_budget, default_order,
                         gauss_hermite_1d, place_hermite, stream_pairs, tensor_grid)
from .transforms import FieldFunction, FLAT, FOCK, _require


def q_matrix(table: IndexTable, xi, v) -> np.ndarray:
    """All fiber basis values q_{phi(j), xi}(v), stacked on a last axis of size d.

    q_{k, xi}(v) is column ``table.position(k) - 1``."""
    n = table.n
    xi, v = _rpoint(xi, n, "frequency"), _rpoint(v, n)
    t = (xi + 2 * v) / math.sqrt(2.0)
    psi = hermite_fn_table(table.m - 1, t)  # (m, ..., n)
    front = 2 ** (n / 2) * math.pi ** (n / 4)
    return front * np.stack(list(index_products(table, psi)), axis=-1)


def L_closed(table: IndexTable, xi, y, v):
    """Transformed kernel L_{xi, y}(v) = sum over |k| <= m-1 of q_{k,xi}(y) q_{k,xi}(v).

    ``y`` and ``v`` broadcast against each other over leading axes.
    """
    qy = q_matrix(table, xi, y)
    qv = q_matrix(table, xi, v)
    return np.sum(qy * qv, axis=-1)


def L_via_fourier(table: IndexTable, xi, y, v, order: int | None = None):
    """Horizontal Fourier transform of the kernel section, by quadrature.

    (2 pi)^{-n/2} integral over u in R^n of K^H_{0,y}(u, v) e^{-i<u, xi>} du,
    computed on a tensor rule centered at the kernel's Gaussian peak u = 0.
    Independent route against :func:`L_closed`.
    """
    n = table.n
    xi, y, v = _frequency(xi, n), _rpoint(y, n), _rpoint(v, n)
    if order is None:
        order = FIBER_ORDER
    grid = tensor_grid(n, order, center=0.0, scale=math.sqrt(2.0))
    u = grid.nodes
    vals = kernel_H(KernelSpec(n, table.m), np.zeros(n), y, u, v) * np.exp(-1j * u @ xi)
    return complex(np.sum(grid.weights * vals)) / (2 * math.pi) ** (n / 2)


@dataclass(frozen=True)
class FiberVector:
    """Coefficient vector of one fiber, ordered by the index table positions."""

    xi: np.ndarray
    components: np.ndarray


def fiber_project(
    table: IndexTable,
    xi,
    g_slice: Callable,
    order: int | None = None,
) -> FiberVector:
    """Coefficients <g(xi, .), q_{phi(j), xi}> of one vertical slice.

    ``g_slice`` maps v arrays of shape (..., n) to values.  The quadrature
    grid is placed by the q factor itself (Gaussian centered at -xi/2, unit
    width); slices with additional decay elsewhere converge anyway.
    """
    n = table.n
    xi = _frequency(xi, n)
    if order is None:
        order = FIBER_ORDER
    grid = tensor_grid(n, order, center=-xi / 2, scale=1.0)
    vals = _evaluate(g_slice, grid.nodes)
    q = q_matrix(table, xi, grid.nodes)  # (N, d)
    comps = q.T @ (grid.weights * vals) / (2 * math.pi) ** (n / 2)
    return FiberVector(xi=xi, components=comps)


def fiber_reconstruct(table: IndexTable, fiber: FiberVector) -> Callable:
    """Vertical slice v -> sum_j components_j q_{phi(j), xi}(v).

    Adjoint of :func:`fiber_project` on the fiber span; applying both in
    sequence reproduces a slice exactly iff the slice lies in the span.
    """

    def slice_fn(v):
        q = q_matrix(table, fiber.xi, v)
        return q @ fiber.components

    return slice_fn


def R_F_kernel_image(spec: KernelSpec, y, xi) -> FiberVector:
    """Closed-form fiber image of the Fock kernel section at z = i y.

    components_j = 2^{-n/2} e^{alpha |y|^2 / 2} q_{phi(j), xi}(sqrt(alpha) y).
    Its squared norm integrated over xi against (2 pi)^{-n/2} d xi equals
    C(n+m-1, n) e^{alpha |y|^2}.
    """
    table = build_index_table(spec.n, spec.m)
    y, xi = _rpoint(y, spec.n), _rpoint(xi, spec.n, "frequency")
    front = 2 ** (-spec.n / 2) * math.exp(spec.alpha * float(np.sum(y * y)) / 2)
    comps = front * q_matrix(table, xi, math.sqrt(spec.alpha) * y)
    return FiberVector(xi=xi, components=comps.astype(complex))


def R_true_poly_image(spec: KernelSpec, beta, y, xi) -> FiberVector:
    """Closed-form fiber image of the true-polyanalytic kernel section at z = i y.

    For type beta = phi(j0) + 1 only component j0 of
    :func:`R_F_kernel_image` survives.  The domain of beta is n integers
    >= 1 with |beta| - n <= m - 1; y and xi are one point each.
    """
    n, m = spec.n, spec.m
    domain = f"beta must be {n} integers >= 1 with |beta| - n <= m - 1 = {m - 1}, got {beta!r}"
    try:
        beta = _multi_index(beta, n, low=1)
    except ValueError:
        raise ValueError(domain) from None
    if sum(beta) - n > m - 1:
        raise ValueError(domain)
    j0 = build_index_table(n, m).position(tuple(b - 1 for b in beta))
    full = R_F_kernel_image(spec, _one_point(_rpoint(y, n), "y"), _frequency(xi, n))
    comps = np.zeros_like(full.components)
    comps[j0 - 1] = full.components[j0 - 1]
    return FiberVector(xi=full.xi, components=comps)


def R_H_apply(
    table: IndexTable,
    g: FieldFunction,
    xi,
    order: int | None = None,
) -> FiberVector:
    """Decomposition operator on the flattened side, by 2n-dim quadrature.

    components_j = (2 pi)^{-n} iint g(u, v) e^{-i<u, xi>} q_{phi(j), xi}(v) du dv.
    Supported inputs are kernel-derived (Gaussian envelopes): the u axes
    are placed at 0 with scale sqrt(2) (decay e^{-|u|^2/2}), the v axes at
    the q-factor Gaussian, -xi/2 with scale 1.  As in :func:`R_F_apply`,
    the order^{2n} rule is streamed by :func:`stream_pairs` on the points
    u + i v, with one (m, order, order) factor per coordinate carrying
    e^{-i u_r xi_r}, the Hermite functions of q and both 1-D weights.
    Cost: order^{2n} evaluations of g plus O(m * order^{2n}); peak memory
    is one block.

    Before g is called, :func:`check_rule_budget` counts (2n + 1) + 6 +
    (m n + 2d) float64 words per node, what the rule with its values, phase
    and q matrix would take if built: a bound on the work.  g's own working
    memory is not counted.
    """
    _require(g, FLAT)
    n, m = table.n, table.m
    xi = _frequency(xi, n)
    if order is None:
        order = default_order(2 * n)
    check_rule_budget([order] * (2 * n), (2 * n + 1) + 6 + (m * n + 2 * table.d))
    rule = gauss_hermite_1d(order)
    u, u_weights = place_hermite(rule, 0.0, math.sqrt(2.0))
    vs, factors = [], []
    for r in range(n):
        v, v_weights = place_hermite(rule, -xi[r] / 2, 1.0)
        phase = np.exp(-1j * u * xi[r])
        psi = hermite_fn_table(m - 1, (xi[r] + 2 * v) / math.sqrt(2.0))
        vs.append(v)
        factors.append(np.outer(u_weights * phase, v_weights) * psi[:, None, :])
    total = stream_pairs(lambda points: g(points.real, points.imag), [u] * n, vs, factors)
    front = 2 ** (n / 2) * math.pi ** (n / 4) / (2 * math.pi) ** n
    return FiberVector(xi=xi, components=total[tuple(table.array.T)] * front)


def R_F_apply(
    spec: KernelSpec,
    f: FieldFunction,
    xi,
    order: int | None = None,
) -> FiberVector:
    """Decomposition operator on the Fock side, by its explicit 2n-dim integral.

    components_j = pi^{-3n/4} iint f((u + i v)/sqrt(alpha))
        e^{-|u|^2/2 - |v|^2/2 - i<u, v> - i<u, xi>}
        prod_r psi_{phi(j)_r}((xi_r + 2 v_r)/sqrt(2)) du dv.

    Everything but f is a product over r of a function of (u_r, v_r), so
    the order^{2n} rule (u axes placed at 0 with scale sqrt(2), v axes at
    -xi/2 with scale 1) is streamed by :func:`stream_pairs`: f is called
    once per block of at most ``BLOCK_NODES`` nodes (leading u axes fixed
    or cut into chunks),
    and each (u_r, v_r) pair is contracted against an (m, order, order)
    factor that carries the pair's phase, Hermite functions and 1-D
    weights.  Cost: order^{2n} evaluations of f plus O(m * order^{2n}) for
    the contractions; peak memory is one block.

    Before f is called, :func:`check_rule_budget` still counts the full
    rule at 4n + 5 float64 words per node: the rule (2n coordinates and a
    weight), the complex points handed to f (2n) and the weighted values
    (4).  The rule is never built, so the count bounds the work rather
    than the memory.  f's own working memory is not counted.

    Written out directly rather than composed from :func:`flatten` and
    :func:`R_H_apply`, so the two routes stay independent checks of the
    same operator.
    """
    _require(f, FOCK)
    n, m = spec.n, spec.m
    table = build_index_table(n, m)
    xi = _frequency(xi, n)
    if order is None:
        order = default_order(2 * n)
    check_rule_budget([order] * (2 * n), 4 * n + 5)
    rule = gauss_hermite_1d(order)
    u, u_weights = place_hermite(rule, 0.0, math.sqrt(2.0))
    uc = u[:, None]
    vs, factors = [], []
    for r in range(n):
        v, v_weights = place_hermite(rule, -xi[r] / 2, 1.0)
        phase = np.exp(-uc * uc / 2 - v * v / 2 - 1j * uc * (v + xi[r]))
        psi = hermite_fn_table(m - 1, (xi[r] + 2 * v) / math.sqrt(2.0))
        vs.append(v)
        factors.append(np.outer(u_weights, v_weights) * phase * psi[:, None, :])
    root = math.sqrt(spec.alpha)
    total = stream_pairs(lambda points: f(points / root), [u] * n, vs, factors)
    comps = total[tuple(table.array.T)] * math.pi ** (-3 * n / 4)
    return FiberVector(xi=xi, components=comps)


def default_xi_grid(count: int = 64, lo: float = -8.0, hi: float = 8.0) -> np.ndarray:
    """Uniform frequency grid used when a sweep does not specify one."""
    count = _integer(count, "count", 1)
    return np.linspace(_scalar(lo, "grid end"), _scalar(hi, "grid end"), count)

