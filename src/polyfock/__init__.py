"""Reproducing kernels and symbol calculus for polyanalytic Fock spaces.

The package covers, for the weighted Fock space of polyanalytic type m over
C^n and its relatives:

* closed-form reproducing kernels (Fock, true-polyanalytic, flattened,
  twisted comparison, Gaussian-RBF) and their product decompositions;
* the flattening unitary, Weyl shifts, horizontal translations, and the
  intertwining between them;
* the fiber decomposition under horizontal Fourier transform and the
  resulting d x d matrix symbols of vertical Toeplitz operators;
* independent numerical oracles (exact rational polynomial identities,
  Gaussian-moment Gram-Schmidt, streamed Gaussian-mean and Gauss-Hermite
  rules, Legendre panels at jumps) that cross-check every closed form,
  runnable via :mod:`polyfock.verify` or the ``polyfock`` command line
  tool.
"""

from .basis_oracle import (
    BasisElement,
    build_orthonormal_basis,
    gaussian_monomial_inner,
    kernel_via_basis,
)
from .kernels import (
    KernelSpec,
    kernel_F,
    kernel_F_gram,
    kernel_F_products,
    kernel_G,
    kernel_H,
    kernel_H_products,
    kernel_S,
    kernel_true_poly,
)
from .multiindex import IndexTable, build_index_table, dimension
from .orthopoly import (
    check_laguerre_decomposition,
    check_laguerre_of_sum,
    check_laguerre_telescoping,
    hermite_fn,
    hermite_fn_table,
    laguerre_eval,
    laguerre_fn,
    laguerre_poly,
)
from .quadrature import (
    QuadratureGrid,
    fourier_1d_gaussian_type,
    gauss_hermite_1d,
    gaussian_mean_rule,
    place_hermite,
    tensor_grid,
)
from .ratpoly import RationalPoly
from .spectral import (
    FiberVector,
    L_closed,
    L_via_fourier,
    R_F_apply,
    R_F_kernel_image,
    R_H_apply,
    R_true_poly_image,
    default_xi_grid,
    fiber_project,
    fiber_reconstruct,
    q_matrix,
)
from .symbols import (
    SymbolMatrix,
    VerticalSymbol,
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
from .transforms import (
    FieldFunction,
    check_intertwining,
    flat_function,
    flatten,
    fock_function,
    fock_norm,
    flat_norm,
    from_gaussian_picture,
    to_gaussian_picture,
    translate_H,
    unflatten,
    weyl_F,
)
from .verify import (
    SUITES,
    CaseResult,
    SuiteConfig,
    TOLERANCES,
    VerificationReport,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
