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

from .multiindex import _multi_index, _validate_nm, build_index_table, dimension, index_products
from .orthopoly import laguerre_eval, laguerre_eval_all, laguerre_fn_all


@dataclass(frozen=True)
class KernelSpec:
    """Parameters (n, m, alpha) of one weighted polyanalytic Fock space."""

    n: int
    m: int
    alpha: float = 1.0

    def __post_init__(self) -> None:
        _validate_nm(self.n, self.m)
        if isinstance(self.alpha, bool) or not isinstance(self.alpha, numbers.Real):
            raise TypeError(f"alpha must be a real number, got {self.alpha!r}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")

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


def _rpoint(x, n: int, _label: str = "point") -> np.ndarray:
    """A real point of length n (a bare number at n = 1), finite in every coordinate."""
    x = _shaped(_real(x, _label), n, _label)
    if not np.isfinite(x).all():
        raise ValueError(f"{_label} must be finite, got {x}")
    return x


def _frequency(x, n: int) -> np.ndarray:
    return _rpoint(x, n, "frequency")


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
    return np.exp(spec.alpha * ip) * laguerre_eval(spec.m - 1, spec.n, spec.alpha * dist2)


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


def kernel_F_products(spec: KernelSpec, z, w, form: str = "polynomials"):
    """Kernel as a sum over |k| <= m-1 of per-coordinate products.

    form="polynomials" uses factors e^{alpha w_r conj(z_r)} L_{k_r}(alpha |w_r-z_r|^2);
    form="functions" the equivalent Laguerre-function split
    e^{(alpha/2)(|w_r|^2+|z_r|^2) + i alpha Im(w_r conj(z_r))} ell_{k_r}(alpha |w_r-z_r|^2).
    Both agree with ``kernel_F`` identically; they are kept as independent
    evaluation routes for cross-checks.
    """
    z = _cpoint(z, spec.n)
    w = _cpoint(w, spec.n)
    shape = np.broadcast_shapes(z.shape[:-1], w.shape[:-1])
    z = np.broadcast_to(z, shape + (spec.n,))
    w = np.broadcast_to(w, shape + (spec.n,))
    d2 = np.abs(w - z) ** 2
    arg = spec.alpha * d2

    if form == "polynomials":
        lag = laguerre_eval_all(spec.m - 1, 0.0, arg)  # (m, ..., n)
        pref = np.exp(spec.alpha * w * np.conj(z))
    elif form == "functions":
        lag = laguerre_fn_all(spec.m - 1, arg).astype(complex)
        wb = np.conj(z) * w
        pref = np.exp(spec.alpha / 2 * (np.abs(w) ** 2 + np.abs(z) ** 2)
                      + 1j * spec.alpha * np.imag(wb))
    else:
        raise ValueError(f"form must be 'polynomials' or 'functions', got {form!r}")

    factors = pref * lag  # (m, ..., n)
    return sum(index_products(build_index_table(spec.n, spec.m), factors))


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
    Independent evaluation route for cross-checking ``kernel_H``; like it,
    independent of spec.alpha.
    """
    n, m = spec.n, spec.m
    x, y, u, v = (_rpoint(a, n) for a in (x, y, u, v))
    du = u - x
    dv = v - y
    t = du * du + dv * dv
    ell = laguerre_fn_all(m - 1, t)  # (m, ..., n)
    factors = np.exp(-1j * du * (v + y)) * ell
    return (2.0**n) * sum(index_products(build_index_table(n, m), factors))


def kernel_G(spec: KernelSpec, x, y, u, v):
    """Kernel of the twisted comparison space on R^{2n}.

    Same modulus as ``kernel_H`` but phase -i(<u-x, y+v> + <x,y> - <v,u>);
    the extra terms break translation covariance in (x, y), which is the
    point of carrying this kernel around.  Like ``kernel_H``, independent
    of spec.alpha.
    """
    n, m = spec.n, spec.m
    x, y, u, v = (_rpoint(a, n) for a in (x, y, u, v))
    du = u - x
    dv = v - y
    t = np.sum(du * du, axis=-1) + np.sum(dv * dv, axis=-1)
    phase = (np.sum(du * (y + v), axis=-1)
             + np.sum(x * y, axis=-1)
             - np.sum(v * u, axis=-1))
    return (2.0**n) * np.exp(-t / 2 - 1j * phase) * laguerre_eval(m - 1, n, t)


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
