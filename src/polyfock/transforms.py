"""Unitary maps between the Fock picture and the flattened picture.

The flattening map sends a function on C^n to one on R^n x R^n,

    (U f)(x, y) = 2^{n/2} e^{-|x|^2/2 - |y|^2/2 - i<x,y>} f((x + i y) / sqrt(alpha)),

and is unitary from the Fock space onto the flattened space; its inverse
multiplies back and rescales.  Under U the Fock-side Weyl shifts turn into
plain horizontal translations:

    U (rho_F(a) f) = translate by sqrt(alpha) a in x, then U f,

which is what makes the translation-invariant operator calculus on the
flattened side available to Fock-side operators.

Functions are carried around as thin evaluator wrappers tagged with the
picture they live in.  Fock-side callables take one complex (..., n) array;
flattened-side callables take the two real (..., n) arrays (x, y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import KernelSpec, _cpoint, _one_point, _rpoint, _shift
from .multiindex import _integer
from .quadrature import (_evaluate, check_rule_budget, gaussian_mean_axes, stream_pairs,
                         tensor_grid)

FOCK = "fock"
FLAT = "flat"


@dataclass(frozen=True)
class FieldFunction:
    """Evaluator plus the tag of the picture its arguments live in."""

    evaluator: Callable
    side: str

    def __post_init__(self) -> None:
        if self.side not in (FOCK, FLAT):
            raise ValueError(f"side must be {FOCK!r} or {FLAT!r}, got {self.side!r}")

    def __call__(self, *args):
        return self.evaluator(*args)


def fock_function(evaluator: Callable) -> FieldFunction:
    return FieldFunction(evaluator, FOCK)


def flat_function(evaluator: Callable) -> FieldFunction:
    return FieldFunction(evaluator, FLAT)


def _require(f: FieldFunction, side: str) -> None:
    if not isinstance(f, FieldFunction):
        raise TypeError("expected a FieldFunction; wrap plain callables with "
                        "fock_function()/flat_function()")
    if f.side != side:
        raise ValueError(f"operator needs a {side}-side function, got {f.side}-side")


def flatten(spec: KernelSpec, f: FieldFunction) -> FieldFunction:
    """Unitary map from the Fock picture to the flattened picture."""
    _require(f, FOCK)
    n, alpha = spec.n, spec.alpha
    root = math.sqrt(alpha)

    def g(x, y):
        x, y = _rpoint(x, n), _rpoint(y, n)
        weight = np.exp(-np.sum(x * x, axis=-1) / 2
                        - np.sum(y * y, axis=-1) / 2
                        - 1j * np.sum(x * y, axis=-1))
        return 2 ** (n / 2) * weight * f((x + 1j * y) / root)

    return flat_function(g)


def unflatten(spec: KernelSpec, g: FieldFunction) -> FieldFunction:
    """Inverse of :func:`flatten`."""
    _require(g, FLAT)
    n, alpha = spec.n, spec.alpha
    root = math.sqrt(alpha)

    def f(z):
        z = _cpoint(z, n)
        u = np.real(z)
        v = np.imag(z)
        weight = np.exp(alpha * (np.sum(u * u, axis=-1) + np.sum(v * v, axis=-1)) / 2
                        + 1j * alpha * np.sum(u * v, axis=-1))
        return 2 ** (-n / 2) * weight * g(root * u, root * v)

    return fock_function(f)


def weyl_F(spec: KernelSpec, a, f: FieldFunction) -> FieldFunction:
    """Fock-side Weyl shift by the point a in C^n.

    (rho_F(a) f)(z) = f(z - a) e^{alpha <z, a> - alpha |a|^2 / 2}.  Unitary
    on the Fock space; kernel sections shift according to
    rho_F(a) K_z = e^{-alpha <a, z> - alpha |a|^2/2} K_{z + a}.
    """
    _require(f, FOCK)
    n, alpha = spec.n, spec.alpha
    a = _one_point(_cpoint(a, n), "shift")
    norm2 = float(np.sum(np.abs(a) ** 2))
    a_bar = np.conj(a)

    def shifted(z):
        z = _cpoint(z, n)
        phase = np.exp(alpha * np.sum(z * a_bar, axis=-1) - alpha * norm2 / 2)
        return f(z - a) * phase

    return fock_function(shifted)


def translate_H(a, g: FieldFunction) -> FieldFunction:
    """Horizontal translation (x, y) -> (x - a, y) by a real point a."""
    _require(g, FLAT)
    a = _shift(a, np.shape(a)[-1] if np.ndim(a) else 1)  # n from the last axis: a grid is refused

    def shifted(x, y):
        return g(_rpoint(x, a.size) - a, y)

    return flat_function(shifted)


def check_intertwining(spec: KernelSpec, a, f: FieldFunction, x, y) -> float:
    """Max deviation of U rho_F(a) f from (translate by sqrt(alpha) a) U f.

    The shift a is a real point of R^n: only horizontal Weyl shifts become
    translations.  Evaluated pointwise on the sample arrays (x, y); exact
    up to rounding, so values around 1e-14 are what a correct pair of
    routes produces.
    """
    a = _shift(a, spec.n)
    lhs = flatten(spec, weyl_F(spec, a, f))
    rhs = translate_H(math.sqrt(spec.alpha) * a, flatten(spec, f))
    dev = np.abs(lhs(x, y) - rhs(x, y))
    return float(np.max(dev))


def to_gaussian_picture(spec: KernelSpec, f: FieldFunction) -> FieldFunction:
    """Multiply by exp(-sigma^2 sum z_r^2): Fock space onto the Gaussian-RBF space.

    The RBF scale is sigma = sqrt(alpha / 2), so the exponent is
    -(alpha / 2) sum z_r^2.
    """
    _require(f, FOCK)
    n, half = spec.n, spec.alpha / 2

    def g(z):
        z = _cpoint(z, n)
        return np.exp(-half * np.sum(z * z, axis=-1)) * f(z)

    return fock_function(g)


def from_gaussian_picture(spec: KernelSpec, g: FieldFunction) -> FieldFunction:
    """Inverse of :func:`to_gaussian_picture` (multiply by exp(+(alpha/2) sum z_r^2))."""
    _require(g, FOCK)
    n, half = spec.n, spec.alpha / 2

    def f(z):
        z = _cpoint(z, n)
        return np.exp(half * np.sum(z * z, axis=-1)) * g(z)

    return fock_function(f)


def fock_norm(spec: KernelSpec, f: FieldFunction, center=None, order: int | None = None) -> float:
    """Weighted L^2 norm of a Fock-side function by Gaussian-mean quadrature.

    Computes ((alpha/pi)^n integral |f(z)|^2 e^{-alpha |z|^2} dA(z))^{1/2}
    over C^n = R^{2n}, the Gaussian mean of |f|^2 on the order^{2n} rule of
    :func:`~polyfock.quadrature.gaussian_mean_axes`.  ``center`` (a complex
    point) places the rule; for a kernel section K_w pass center = w, where
    the weighted modulus peaks, and the default order is exact to round-off.

    The rule is streamed by :func:`~polyfock.quadrature.stream_pairs`, with
    each coordinate's weights np.outer(w_re, w_im) as its factor: f is
    called on (N, n) points, at most ``BLOCK_NODES`` at a time.  Before f is
    called, :func:`~polyfock.quadrature.check_rule_budget` still counts the
    whole rule at 2n + 1 words per node, a bound on the work.
    """
    _require(f, FOCK)
    n = spec.n
    w = _cpoint(np.zeros(n) if center is None else center, n)
    axes = gaussian_mean_axes(np.concatenate((w.real, w.imag)), spec.alpha, order)
    check_rule_budget([len(nodes) for nodes, _ in axes], 2 * n + 1)
    total = stream_pairs(lambda points: np.abs(f(points)) ** 2,
                         [x for x, _ in axes[:n]], [y for y, _ in axes[n:]],
                         [np.outer(axes[r][1], axes[n + r][1]) for r in range(n)])
    return math.sqrt(max(float(total), 0.0))


def flat_norm(n: int, g: FieldFunction, center=None, order: int | None = None) -> float:
    """L^2 norm of a flattened-side function against (2 pi)^{-n} dx dy.

    ``center`` is a real 2n-vector (x-part then y-part) placing the grid.
    The grid has unit width, the width of |g|^2 for a flattened kernel
    section; for the flattened K_w, center = sqrt(alpha) (Re w, Im w) makes
    the default order exact to round-off.  g is called once, on the (N, n)
    x and y parts of all N nodes, and must return one value per node.
    """
    _require(g, FLAT)
    n = _integer(n, "n", 1)
    c = np.zeros(2 * n) if center is None else _rpoint(center, 2 * n, "center")
    grid = tensor_grid(2 * n, order, center=c, scale=1.0)
    vals = np.abs(_evaluate(lambda nodes: g(nodes[:, :n], nodes[:, n:]), grid.nodes)) ** 2
    total = float(np.sum(grid.weights * vals)) / (2 * math.pi) ** n
    return math.sqrt(max(total, 0.0))
