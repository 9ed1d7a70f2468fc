"""The public API of polyfock, pinned name by name.

Adding or removing a public name is one deliberate line here.  The list
includes the submodules that ``polyfock/__init__.py`` imports.
"""

import os
import subprocess
import sys
from pathlib import Path

import polyfock

ROOT = Path(__file__).resolve().parent.parent

PUBLIC_NAMES = [
    "BasisElement",
    "CaseResult",
    "FiberVector",
    "FieldFunction",
    "IndexTable",
    "KernelSpec",
    "L_closed",
    "L_via_fourier",
    "QuadratureGrid",
    "R_F_apply",
    "R_F_kernel_image",
    "R_H_apply",
    "R_true_poly_image",
    "RationalPoly",
    "SUITES",
    "SuiteConfig",
    "SymbolMatrix",
    "TOLERANCES",
    "VerificationReport",
    "VerticalSymbol",
    "basis_oracle",
    "box",
    "build_index_table",
    "build_orthonormal_basis",
    "check_intertwining",
    "check_laguerre_decomposition",
    "check_laguerre_of_sum",
    "check_laguerre_telescoping",
    "constant",
    "convolution_symbol",
    "default_xi_grid",
    "dimension",
    "fiber_project",
    "fiber_reconstruct",
    "flat_function",
    "flat_norm",
    "flatten",
    "fock_function",
    "fock_norm",
    "fourier_1d_gaussian_type",
    "from_gaussian_picture",
    "gamma_toeplitz",
    "gauss_hermite_1d",
    "gaussian_mean_rule",
    "gaussian_monomial_inner",
    "gaussian_poly",
    "hermite_fn",
    "hermite_fn_table",
    "kernel_F",
    "kernel_F_gram",
    "kernel_F_products",
    "kernel_G",
    "kernel_H",
    "kernel_H_products",
    "kernel_S",
    "kernel_true_poly",
    "kernel_via_basis",
    "kernels",
    "laguerre_eval",
    "laguerre_fn",
    "laguerre_poly",
    "multiindex",
    "orthopoly",
    "place_hermite",
    "polynomial",
    "q_matrix",
    "quadrature",
    "ratpoly",
    "run_suite",
    "sigma_from_gamma",
    "sign",
    "spectral",
    "symbol_compose",
    "symbols",
    "tensor_grid",
    "to_gaussian_picture",
    "transforms",
    "translate_H",
    "unflatten",
    "verify",
    "weyl_F",
    "weyl_symbol",
]


def test_public_names_are_pinned():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert sorted(polyfock.__all__) == PUBLIC_NAMES


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency: the Gauss rules are numpy's,
    # the log-factorials and triangular solves the library's own, and scipy
    # is a test-only reference.
    script = ("import sys, polyfock, polyfock.cli; "
              "print(any(name.split('.')[0] == 'scipy' for name in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
