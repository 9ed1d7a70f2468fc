"""
A tour of the reproducing kernels
=================================

One closed form, several disguises.  The kernel of the order-m polyanalytic
space on C^n is an exponential times a single Laguerre polynomial of the
squared distance; the same object can be written as a sum of C(n+m-1,n)
products, reconstructed from an orthonormal basis, flattened to the real
phase-space picture, or rescaled into the Gaussian-RBF normalization.
"""

import numpy as np

from polyfock.basis_oracle import kernel_via_basis
from polyfock.kernels import (
    KernelSpec,
    kernel_F,
    kernel_F_products,
    kernel_H,
    kernel_S,
    kernel_true_poly,
)
from polyfock.multiindex import build_index_table

rng = np.random.default_rng(0)
spec = KernelSpec(n=2, m=3, alpha=1.5)
z = rng.uniform(-1, 1, (4, 2)) + 1j * rng.uniform(-1, 1, (4, 2))
w = rng.uniform(-1, 1, (4, 2)) + 1j * rng.uniform(-1, 1, (4, 2))

# ---------------------------------------------------------------------------
# same values along four routes
# ---------------------------------------------------------------------------
closed = kernel_F(spec, z, w)
as_products = kernel_F_products(spec, z, w, form="polynomials")
as_functions = kernel_F_products(spec, z, w, form="functions")
print("closed form:        ", closed[0])
print("sum of products:    ", as_products[0])
print("sum over true poly: ", as_functions[0])
print("max relative spread:",
      float(np.max(np.abs(as_products - closed) / np.abs(closed))))

small = rng.uniform(-0.3, 0.3, (4, 2)) + 1j * rng.uniform(-0.3, 0.3, (4, 2))
via_basis = kernel_via_basis(spec.alpha, 2, 3, 40, small, small[::-1])
print("vs basis truncation:",
      float(np.max(np.abs(via_basis - kernel_F(spec, small, small[::-1])))))

# ---------------------------------------------------------------------------
# the diagonal carries the dimension of the index set
# ---------------------------------------------------------------------------
table = build_index_table(2, 3)
diag = kernel_F(spec, z, z)
print("\nK(z, z) / e^{alpha |z|^2} =",
      (diag / np.exp(spec.alpha * np.sum(np.abs(z) ** 2, -1))).real,
      f"(d = {table.d})")

# the space splits into true-polyanalytic layers indexed by type beta;
# their kernels add up to the full one
layered = sum(
    kernel_true_poly(spec, [b1, b2], z, w)
    for b1 in range(1, 4) for b2 in range(1, 4) if (b1 - 1) + (b2 - 1) <= 2
)
print("sum of true-poly layers matches:",
      bool(np.allclose(layered, closed, rtol=1e-12)))

# ---------------------------------------------------------------------------
# flat picture: translation invariance on the nose
# ---------------------------------------------------------------------------
x, y, u, v = (rng.uniform(-1, 1, (4, 2)) for _ in range(4))
shift = rng.uniform(-1, 1, 2)
before = kernel_H(spec, x, y, u, v)
after = kernel_H(spec, x + shift, y, u + shift, v)
print("\nflat kernel shift residual:", float(np.max(np.abs(after - before))))

# Gaussian-RBF normalization (the same space, scale sigma = sqrt(alpha / 2)):
# invariant under common real translation
t = rng.uniform(-1, 1, 2)
before = kernel_S(spec, z, w)
after = kernel_S(spec, z + t, w + t)
print("RBF kernel real-shift residual:",
      float(np.max(np.abs(after - before))))
