"""Acceptance gate: one test per headline guarantee of the package.

Each criterion runs at its stated tolerance and prints one summary line
(visible with -s; `pytest -v` shows one PASSED/FAILED row per criterion
either way).  Criteria 1-7 drive the cross-verification suites; criterion 8
checks the structural properties directly.
"""

import math

import numpy as np
import pytest

from polyfock.kernels import (
    KernelSpec,
    kernel_F,
    kernel_F_gram,
    kernel_G,
    kernel_H,
)
from polyfock.multiindex import build_index_table
from polyfock.quadrature import tensor_grid
from polyfock.spectral import (
    R_F_apply,
    R_F_kernel_image,
    R_H_apply,
    q_matrix,
)
from polyfock.symbols import (
    box,
    constant,
    gamma_toeplitz,
    gaussian_poly,
    polynomial,
    sigma_from_gamma,
    sign,
    symbol_compose,
)
from polyfock.transforms import check_intertwining, flatten, fock_function
from polyfock.verify import SuiteConfig, run_suite


def _line(num: int, name: str, ok: bool, detail: str = "") -> str:
    status = "PASS" if ok else "FAIL"
    msg = f"criterion {num}: {status}  {name}"
    if detail:
        msg += f"  [{detail}]"
    print(msg)
    return msg


def _suite_line(num: int, name: str, report) -> None:
    worst = max((c.max_error for c in report.cases), default=0.0)
    msg = _line(num, name, report.passed,
                f"{len(report.cases)} cases, worst {worst:.2e}, "
                f"{report.elapsed_seconds:.1f}s")
    failed = [c.id for c in report.cases if not c.passed]
    assert report.passed, f"{msg}; failing cases: {failed}"


@pytest.fixture(scope="module")
def laguerre_report():
    return run_suite("laguerre", SuiteConfig(n_max=8, p_max=8))


def test_criterion_1_laguerre_decomposition_exact(laguerre_report):
    cases = [c for c in laguerre_report.cases if c.id.startswith("decomposition")]
    assert len(cases) == 8 * 9  # n <= 8, p <= 8
    ok = all(c.passed and c.max_error == 0.0 and c.tolerance == 0.0 for c in cases)
    msg = _line(1, "multivariate Laguerre decomposition, exact over Q, n <= 8, p <= 8",
                ok, f"{len(cases)} cases incl. summand counts")
    assert ok, msg


def test_criterion_2_laguerre_sum_and_telescoping_exact(laguerre_report):
    cases = [c for c in laguerre_report.cases
             if c.id.startswith(("laguerre-of-sum", "telescoping"))]
    sum_cases = [c for c in cases if c.id.startswith("laguerre-of-sum")]
    assert len(sum_cases) == 16  # shifts {0, 1/2, 1, 3} in both slots
    ok = all(c.passed and c.max_error == 0.0 and c.tolerance == 0.0 for c in cases)
    msg = _line(2, "Laguerre-of-sum and telescoping identities, exact over Q, p <= 8",
                ok, f"{len(cases)} cases")
    assert ok, msg


def test_criterion_3_kernel_via_orthonormal_basis():
    report = run_suite("kernel-basis", SuiteConfig(n_max=3, m_max=3, p_max=64))
    assert all(c.tolerance == 1e-10 for c in report.cases)
    _suite_line(3, "kernel vs moment-basis reconstruction, rel <= 1e-10", report)


def test_criterion_4_reproducing_property():
    report = run_suite("reproducing", SuiteConfig(n_max=3, m_max=3, p_max=5))
    assert {c.tolerance for c in report.cases} == {1e-7}
    _suite_line(4, "reproducing property on monomials, rel <= 1e-7", report)


def test_criterion_5_sum_of_products_decomposition():
    report = run_suite("sum-products", SuiteConfig(n_max=5, m_max=5))
    assert len(report.cases) == 50  # (n, m) in 5x5, two product forms
    assert all(c.tolerance == 1e-11 for c in report.cases)
    _suite_line(5, "sum-of-products kernel decomposition, rel <= 1e-11", report)


def test_criterion_6_fourier_laguerre_hermite():
    report = run_suite("fourier-laguerre", SuiteConfig(p_max=10))
    assert all(c.tolerance == 1e-8 for c in report.cases)
    _suite_line(6, "Fourier transform of Laguerre-Gaussians vs Hermite "
                   "products, p <= 10, rel <= 1e-8", report)


def test_criterion_7_horizontal_fourier_of_kernel():
    report = run_suite("fourier-kernel", SuiteConfig(n_max=2, m_max=4))
    assert all(c.tolerance == 1e-8 for c in report.cases)
    _suite_line(7, "horizontal Fourier transform of the flat kernel vs "
                   "q-product closed form, n <= 2, m <= 4, rel <= 1e-8", report)


def test_criterion_8_structural_properties():
    failures: list[str] = []

    def check(name: str, ok: bool) -> None:
        if not ok:
            failures.append(name)

    rng = np.random.default_rng(808)

    # Hermitian symmetry and Gram positive semidefiniteness
    spec = KernelSpec(2, 3, 1.4)
    z = rng.uniform(-1, 1, (20, 2)) + 1j * rng.uniform(-1, 1, (20, 2))
    w = rng.uniform(-1, 1, (20, 2)) + 1j * rng.uniform(-1, 1, (20, 2))
    check("kernel Hermitian symmetry",
          np.allclose(kernel_F(spec, z, w), np.conj(kernel_F(spec, w, z)),
                      rtol=1e-12))
    gram = kernel_F_gram(spec, z[:12])
    eigs = np.linalg.eigvalsh(gram)
    check("kernel Gram PSD", eigs.min() >= -1e-8 * max(1.0, eigs.max()))

    # exact translation covariance of the flat kernel, and its failure in
    # the twisted variant with deviation above the witness threshold
    x, y = rng.uniform(-1, 1, (2, 6, 2))
    u, v = rng.uniform(-1, 1, (2, 6, 2))
    covariant = kernel_H(KernelSpec(2, 3), x, y, u, v)
    recentred = kernel_H(KernelSpec(2, 3), np.zeros_like(x), y, u - x, v)
    check("flat kernel translation covariance exact",
          np.allclose(covariant, recentred, rtol=1e-13))
    # v = 0.4 keeps the common modulus away from the Laguerre zero at
    # |u-x|^2 + |v-y|^2 = 2, so the phase mismatch x (y - v) is visible
    wit_args = (np.array([1.0]), np.array([1.0]), np.array([0.0]), np.array([0.4]))
    deviation = abs(kernel_G(KernelSpec(1, 2), *wit_args)
                    - kernel_G(KernelSpec(1, 2), np.array([0.0]), wit_args[1],
                               wit_args[2] - wit_args[0], wit_args[3]))
    check("twisted kernel breaks covariance (witness > 0.1)",
          float(deviation) > 0.1)

    # flattening intertwines Weyl shifts with horizontal translations
    spec_tw = KernelSpec(2, 2, 1.8)
    f_tw = fock_function(
        lambda zz: kernel_F(spec_tw, np.array([0.4 - 0.2j, 0.1 + 0.3j]), zz))
    worst_tw = max(
        check_intertwining(spec_tw, rng.uniform(-1, 1, 2),
                           f_tw, rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
        for _ in range(3)
    )
    check("intertwining on kernel sections <= 1e-11", worst_tw <= 1e-11)

    # fiber basis orthonormality at random frequencies
    worst_fiber = 0.0
    for n, m in [(1, 4), (2, 3)]:
        table = build_index_table(n, m)
        for _ in range(3):
            xi = rng.uniform(-2, 2, n)
            grid = tensor_grid(n, 48, center=-xi / 2, scale=1.0)
            Q = q_matrix(table, xi, grid.nodes)
            gram_q = Q.T @ (grid.weights[:, None] * Q) / (2 * math.pi) ** (n / 2)
            worst_fiber = max(worst_fiber,
                              float(np.max(np.abs(gram_q - np.eye(table.d)))))
    check("fiber orthonormality I_d <= 1e-10", worst_fiber <= 1e-10)

    # unit symbol reproduces the identity matrix
    worst_unit = 0.0
    for n, m in [(1, 3), (2, 2)]:
        table = build_index_table(n, m)
        mat = gamma_toeplitz(table, constant(1.0, n=n), rng.uniform(-2, 2, n))
        worst_unit = max(worst_unit,
                         float(np.max(np.abs(mat.entries - np.eye(table.d)))))
    check("gamma of the unit symbol = I_d <= 1e-10", worst_unit <= 1e-10)

    # nonnegative symbols give positive semidefinite matrices
    table13 = build_index_table(1, 3)
    min_eig = min(
        float(np.linalg.eigvalsh(gamma_toeplitz(table13, g, [xi]).entries).min())
        for g in (box(-1.0, 0.5), gaussian_poly([1.0]), polynomial([0.0, 0.0, 1.0]))
        for xi in (0.0, -1.1, 1.7)
    )
    check("gamma positivity for g >= 0", min_eig >= -1e-9)

    # shifted-argument symbol: composition route vs direct integral
    worst_sigma = 0.0
    for g in (polynomial([0.0, 1.0]), sign()):
        for eta in (-1.3, 0.4, 2.0):
            via = sigma_from_gamma(table13, g, [eta], route="via-gamma")
            direct = sigma_from_gamma(table13, g, [eta], route="direct")
            worst_sigma = max(worst_sigma,
                              float(np.max(np.abs(via.entries - direct.entries))))
    check("sigma two-route agreement <= 1e-9", worst_sigma <= 1e-9)

    # fiber transform: direct integral vs flatten-then-transform vs closed form
    worst_r = 0.0
    for n, m in [(1, 2), (2, 2)]:
        spec_r = KernelSpec(n, m, 1.0)
        table_r = build_index_table(n, m)
        yr = rng.uniform(-0.8, 0.8, n)
        xir = rng.uniform(-1.5, 1.5, n)
        f_r = fock_function(lambda zz: kernel_F(spec_r, 1j * yr, zz))
        direct = R_F_apply(spec_r, f_r, xir).components
        via_flat = R_H_apply(table_r, flatten(spec_r, f_r), xir).components
        closed = R_F_kernel_image(spec_r, yr, xir).components
        worst_r = max(worst_r,
                      float(np.max(np.abs(direct - closed))),
                      float(np.max(np.abs(via_flat - closed))),
                      float(np.max(np.abs(direct - via_flat))))
    check("fiber-transform two-route equality <= 1e-7", worst_r <= 1e-7)

    # frequency-integrated squared norm of the kernel image
    alpha = 1.3
    spec_n = KernelSpec(1, 2, alpha)
    y_n = np.array([0.6])
    grid_n = tensor_grid(1, 48, center=0.0, scale=math.sqrt(2.0))
    total = sum(
        w_pt * float(np.sum(np.abs(R_F_kernel_image(spec_n, y_n, xi_pt).components) ** 2))
        for xi_pt, w_pt in zip(grid_n.nodes, grid_n.weights)
    ) / math.sqrt(2 * math.pi)
    expected = spec_n.d * math.exp(alpha * float(y_n[0]) ** 2)
    check("kernel-image norm d e^{alpha |y|^2} <= 1e-7 relative",
          abs(total - expected) / expected <= 1e-7)

    # matrix symbols stop commuting once m >= 2
    table12 = build_index_table(1, 2)
    a_nc = gamma_toeplitz(table12, polynomial([0.0, 1.0]), [1.0])
    b_nc = gamma_toeplitz(table12, sign(), [1.0])
    comm = (symbol_compose(a_nc, b_nc).entries
            - symbol_compose(b_nc, a_nc).entries)
    check("noncommutativity witness > 1e-3",
          float(np.linalg.norm(comm, 2)) > 1e-3)

    ok = not failures
    msg = _line(8, "structural and property suite (10 properties)", ok,
                "all held" if ok else "failed: " + ", ".join(failures))
    assert ok, msg
