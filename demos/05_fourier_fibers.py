"""
Diagonalizing translations: the fiber picture
=============================================

Fourier transforming the flat space in its first variable turns every
horizontal translation into multiplication by a character, and the space
itself into a field of d-dimensional fibers spanned by shifted Hermite
products q_{k,xi}.  The transform R maps a function to its coordinate
vector in that basis, frequency by frequency.
"""

import math

import numpy as np

from polyfock.kernels import KernelSpec, kernel_F
from polyfock.multiindex import build_index_table
from polyfock.quadrature import tensor_grid
from polyfock.spectral import (
    L_closed,
    L_via_fourier,
    R_F_apply,
    R_F_kernel_image,
    default_xi_grid,
    q_matrix,
)
from polyfock.transforms import fock_function

n, m, alpha = 1, 3, 1.2
table = build_index_table(n, m)
spec = KernelSpec(n, m, alpha)

# the fiber basis is orthonormal at every frequency
xi = np.array([0.8])
grid = tensor_grid(n, 48, center=-xi / 2, scale=1.0)
Q = q_matrix(table, xi, grid.nodes)
gram = Q.T @ (grid.weights[:, None] * Q) / math.sqrt(2 * math.pi)
print("fiber Gram deviation from I:",
      float(np.max(np.abs(gram - np.eye(table.d)))))

# the fiber-projected kernel L has a closed form; the quadrature Fourier
# transform reproduces it
y, v = np.array([0.4]), np.array([-0.3])
closed = complex(L_closed(table, xi, y, v))
quad = complex(L_via_fourier(table, xi, y, v))
print(f"L closed {closed:.12f}  vs quadrature {quad:.12f}")

# kernel sections have an explicit image: 2^{-n/2} e^{alpha|y|^2/2} times
# the q-vector at sqrt(alpha) y.  Compare with the integral route.
y0 = np.array([0.5])
section = fock_function(lambda z: kernel_F(spec, 1j * y0, z))
direct = R_F_apply(spec, section, xi)
closed_image = R_F_kernel_image(spec, y0, xi)
print("kernel image residual:",
      float(np.max(np.abs(direct.components - closed_image.components))))

# in two variables the integral is four-dimensional; R_F_apply contracts it
# one (u_r, v_r) pair of axes at a time.  Its default order, 20 nodes per
# axis, leaves a larger residual here than the 32 nodes of one variable.
spec2 = KernelSpec(2, 3, alpha)
y2, xi2 = np.array([0.5, -0.3]), np.array([0.8, -0.4])
section2 = fock_function(lambda z: kernel_F(spec2, 1j * y2, z))
direct2 = R_F_apply(spec2, section2, xi2)
closed_image2 = R_F_kernel_image(spec2, y2, xi2)
print("kernel image residual (n = 2):",
      float(np.max(np.abs(direct2.components - closed_image2.components))))

# integrating the squared image over xi recovers the section's squared
# norm d e^{alpha |y|^2}
norm_grid = tensor_grid(n, 48, center=0.0, scale=math.sqrt(2.0))
total = sum(
    w * float(np.sum(np.abs(R_F_kernel_image(spec, y0, pt).components) ** 2))
    for pt, w in zip(norm_grid.nodes, norm_grid.weights)
) / math.sqrt(2 * math.pi)
print(f"integrated squared image {total:.9f} "
      f"vs d e^(alpha y^2) = {spec.d * math.exp(alpha * 0.25):.9f}")

# one call on an (X, n) frequency grid gives the whole field at once, (X, d)
sweep = R_F_kernel_image(spec, y0, default_xi_grid(17)[:, None]).components
print("sweep shape:", sweep.shape,
      " largest component:", float(np.max(np.abs(sweep))))
