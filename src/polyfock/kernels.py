"""Closed-form reproducing kernels of the polyanalytic Fock family.

All kernels share the shape (entire or Gaussian prefactor) * generalized
Laguerre factor L_{m-1}^{(n)} evaluated at a squared distance; m = 1
collapses every formula to its classical analytic counterpart.

Conventions, fixed once for the whole library:

* complex points are arrays of shape (..., n), broadcasting over the
  leading axes;
* the Hermitian pairing is <z, w> = sum_r z_r * conj(w_r), linear in the
  first slot;
* kernels are written K_index(argument): conjugate-symmetry reads
  K(z, w) = conj(K(w, z)) with the index first.

The flattened-space kernels live on R^n x R^n pairs and are passed the
real and imaginary parts separately; keeping the split form everywhere
avoids sign mistakes in the mixed phases.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .multiindex import _integer, _multi_index, build_index_table, dimension, index_products
from .orthopoly import laguerre_eval, laguerre_eval_all, laguerre_fn_all


@dataclass(frozen=True)
class KernelSpec:
    """Parameters (n, m, alpha) of one weighted polyanalytic Fock space."""

    n: int
    m: int
    alpha: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _integer(self.n, "n", 1))
        object.__setattr__(self, "m", _integer(self.m, "m", 1))
        # checked, not converted: a Fraction alpha stays exact for the exact routes
        _scalar(self.alpha, "alpha", positive=True)

    @property
    def d(self) -> int:
        """Dimension C(n + m - 1, n) of the index set |k| <= m - 1."""
        return dimension(self.n, self.m)


def _shaped(x: np.ndarray, n: int, label: str) -> np.ndarray:
    if x.ndim == 0 and n == 1:
        x = x.reshape(1)
    if x.shape[-1:] != (n,):
        raise ValueError(f"{label} has shape {x.shape}, expected a last axis of {n}")
    return x


def _cpoint(z, n: int) -> np.ndarray:
    return _shaped(np.asarray(z, dtype=complex), n, "point")


def _real(x, label: str) -> np.ndarray:
    """x as a float array; complex input raises TypeError instead of losing its imaginary part."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise TypeError(f"{label} must be real, got {x}")
    return x.astype(float, copy=False)


def _scalar(x, label: str, positive: bool = False) -> float:
    """x as a finite float, also positive when asked.

    Bools and non-real values raise TypeError; non-finite values, and
    non-positive ones when ``positive``, raise ValueError.
    """
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise TypeError(f"{label} must be a real number, got {x!r}")
    if not (math.isfinite(x) and (x > 0 or not positive)):
        raise ValueError(f"{label} must be finite{' and positive' if positive else ''}, got {x}")
    return float(x)


def _rpoint(x, n: int, _label: str = "point") -> np.ndarray:
    """A real point of length n (a bare number at n = 1), finite in every coordinate."""
    x = _shaped(_real(x, _label), n, _label)
    if not np.isfinite(x).all():
        raise ValueError(f"{_label} must be finite, got {x}")
    return x


def _one_point(x: np.ndarray, label: str) -> np.ndarray:
    """x as parsed, if it is one point of shape (n,); a grid of points raises ValueError."""
    if x.ndim != 1:
        raise ValueError(f"{label} must be one point, got shape {x.shape}")
    return x


def _frequency(x, n: int) -> np.ndarray:
    return _one_point(_rpoint(x, n, "frequency"), "frequency")


def _shift(a, n: int) -> np.ndarray:
    return _one_point(_rpoint(a, n, "shift"), "shift")


def kernel_F(spec: KernelSpec, z, w):
    """Reproducing kernel K_z(w) of the polyanalytic Fock space.

    K_z(w) = exp(alpha <w, z>) L_{m-1}^{(n)}(alpha |w - z|^2).
    The diagonal value K_z(z) = C(n+m-1, n) e^{alpha |z|^2} is the squared
    norm of the kernel section.
    """
    z = _cpoint(z, spec.n)
    w = _cpoint(w, spec.n)
    # Summed coordinate by coordinate: numpy reduces a short trailing axis
    # far more slowly than it adds whole arrays.
    ip = 0.0
    dist2 = 0.0
    for r in range(spec.n):
        ip = ip + w[..., r] * np.conj(z[..., r])
        d = w[..., r] - z[..., r]
        dist2 = dist2 + (d.real * d.real + d.imag * d.imag)
    out = np.exp(spec.alpha * ip)
    out *= laguerre_eval(spec.m - 1, spec.n, spec.alpha * dist2)
    return out


def kernel_true_poly(spec: KernelSpec, beta, z, w):
    """Kernel of the true-polyanalytic subspace of type beta (componentwise >= 1).

    prod_r exp(alpha w_r conj(z_r)) L_{beta_r - 1}(alpha |w_r - z_r|^2).
    Summing over beta = k + 1, |k| <= m - 1, recovers ``kernel_F``.
    """
    beta = _multi_index(beta, spec.n, low=1)
    z = _cpoint(z, spec.n)
    w = _cpoint(w, spec.n)
    out = np.ones(np.broadcast_shapes(z.shape[:-1], w.shape[:-1]), dtype=complex)
    for r, b in enumerate(beta):
        d2 = np.abs(w[..., r] - z[..., r]) ** 2
        out = out * np.exp(spec.alpha * w[..., r] * np.conj(z[..., r]))
        out = out * laguerre_eval(b - 1, 0.0, spec.alpha * d2)
    return out


def _laguerre_sum(m: int, arg: np.ndarray, functions: bool) -> np.ndarray:
    """sum over |k| <= m-1 of prod_r L_{k_r}(arg_r), or of ell_{k_r}(arg_r) if ``functions``.

    ``arg`` has shape (..., n).  The real rows are computed with the
    coordinate axis first, so each coordinate's row is contiguous, and the
    products are added in table order into one real buffer of shape
    arg.shape[:-1].
    """
    x = np.ascontiguousarray(np.moveaxis(arg, -1, 0))
    rows = laguerre_fn_all(m - 1, x) if functions else laguerre_eval_all(m - 1, 0.0, x)
    total = np.zeros(arg.shape[:-1])
    for prod in index_products(build_index_table(arg.shape[-1], m), np.moveaxis(rows, 1, -1)):
        total += prod
    return total


def _exp_product(exponents) -> np.ndarray:
    """The product of np.exp(e) over the exponent arrays, taken left to right."""
    out = None
    for e in exponents:
        out = np.exp(e) if out is None else out * np.exp(e)
    return out


def kernel_F_products(spec: KernelSpec, z, w, form: str = "polynomials"):
    """Kernel as a sum over |k| <= m-1 of per-coordinate products.

    form="polynomials" uses factors e^{alpha w_r conj(z_r)} L_{k_r}(alpha |w_r-z_r|^2);
    form="functions" the equivalent Laguerre-function split
    e^{(alpha/2)(|w_r|^2+|z_r|^2) + i alpha Im(w_r conj(z_r))} ell_{k_r}(alpha |w_r-z_r|^2).
    Every summand carries the same exponential factors, so the products
    are taken over the real rows L_{k_r} (or ell_{k_r}) and summed in table
    order, and the sum is multiplied once by the product of the n
    per-coordinate exponentials.  Both forms equal ``kernel_F``; the tests
    hold them to 1e-11 of the batch maximum.  They are kept as independent
    evaluation routes for cross-checks, so they never use its single
    exponential.
    """
    n, alpha = spec.n, spec.alpha
    z = _cpoint(z, n)
    w = _cpoint(w, n)
    shape = np.broadcast_shapes(z.shape[:-1], w.shape[:-1])
    z = np.broadcast_to(z, shape + (n,))
    w = np.broadcast_to(w, shape + (n,))
    coords = [(z[..., r], w[..., r]) for r in range(n)]

    if form == "polynomials":
        exponents = (alpha * wr * np.conj(zr) for zr, wr in coords)
    elif form == "functions":
        exponents = (alpha / 2 * (np.abs(wr) ** 2 + np.abs(zr) ** 2)
                     + 1j * alpha * np.imag(np.conj(zr) * wr) for zr, wr in coords)
    else:
        raise ValueError(f"form must be 'polynomials' or 'functions', got {form!r}")

    lag = _laguerre_sum(spec.m, alpha * np.abs(w - z) ** 2, form == "functions")
    return lag * _exp_product(exponents)


def kernel_H(spec: KernelSpec, x, y, u, v):
    """Kernel of the flattened space on R^{2n}, indexed at (x, y), argument (u, v).

    2^n exp(-(|u-x|^2 + |v-y|^2)/2 - i <u-x, v+y>) L_{m-1}^{(n)}(|u-x|^2 + |v-y|^2).
    Only spec.n and spec.m enter: the flattening rescales points by
    sqrt(alpha), so every alpha gives this one kernel.
    """
    n, m = spec.n, spec.m
    x, y, u, v = (_rpoint(a, n) for a in (x, y, u, v))
    du = u - x
    dv = v - y
    t = np.sum(du * du, axis=-1) + np.sum(dv * dv, axis=-1)
    phase = np.sum(du * (v + y), axis=-1)
    return (2.0**n) * np.exp(-t / 2 - 1j * phase) * laguerre_eval(m - 1, n, t)


def kernel_H_products(spec: KernelSpec, x, y, u, v):
    """Flattened-space kernel as 2^n sum over |k| <= m-1 of Laguerre-function products.

    Per coordinate the factor is e^{-i (u_r-x_r)(v_r+y_r)} ell_{k_r}((u_r-x_r)^2 + (v_r-y_r)^2).
    As in ``kernel_F_products``, the products run over the real rows
    ell_{k_r}, summed in table order, and the sum is multiplied once by the
    product of the n per-coordinate phases.  Independent evaluation route
    for cross-checking ``kernel_H``; like it, independent of spec.alpha.
    """
    n, m = spec.n, spec.m
    x, y, u, v = (_rpoint(a, n) for a in (x, y, u, v))
    du = u - x
    dv = v - y
    s = v + y
    phase = _exp_product(-1j * du[..., r] * s[..., r] for r in range(n))
    return (2.0**n) * _laguerre_sum(m, du * du + dv * dv, functions=True) * phase


def kernel_G(spec: KernelSpec, x, y, u, v):
    """Kernel of the twisted comparison space on R^{2n}.

    ``kernel_H`` times the twist e^{-i(<x,y> - <v,u>)}, so its phase is
    -i(<u-x, y+v> + <x,y> - <v,u>); the extra terms break translation
    covariance in (x, y), which is the point of carrying this kernel
    around.  Like ``kernel_H``, independent of spec.alpha.
    """
    x, y, u, v = (_rpoint(a, spec.n) for a in (x, y, u, v))
    twist = np.sum(x * y, axis=-1) - np.sum(v * u, axis=-1)
    return kernel_H(spec, x, y, u, v) * np.exp(-1j * twist)


def kernel_S(spec: KernelSpec, z, w):
    """Kernel of the polyanalytic Gaussian-RBF space, the alpha = 2 sigma^2 picture.

    exp(-(alpha/2) sum_r (w_r - conj(z_r))^2) L_{m-1}^{(n)}(alpha |w - z|^2);
    note the analytic square in the exponent, not a squared modulus.  On
    real points with m = 1 this is the classical Gaussian RBF kernel of
    scale sigma = sqrt(alpha / 2).
    """
    z = _cpoint(z, spec.n)
    w = _cpoint(w, spec.n)
    sq = np.sum((w - np.conj(z)) ** 2, axis=-1)
    dist2 = np.sum(np.abs(w - z) ** 2, axis=-1)
    return np.exp(-(spec.alpha / 2) * sq) * laguerre_eval(spec.m - 1, spec.n, spec.alpha * dist2)


def kernel_F_gram(spec: KernelSpec, points) -> np.ndarray:
    """Gram matrix [K_{z_i}(z_j)]_{ij} of kernel sections at the given points.

    Hermitian positive semidefinite for any point family; used by the
    structural checks.
    """
    pts = _cpoint(points, spec.n)
    if pts.ndim != 2:
        raise ValueError("points must have shape (N, n)")
    return kernel_F(spec, pts[:, None, :], pts[None, :, :])
