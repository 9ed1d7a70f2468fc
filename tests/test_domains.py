"""One table of refusals for the input owners.

Real points go through ``kernels._rpoint`` (complex values raise TypeError,
non-finite ones ValueError), index tables are built from (n, m) alone, and
alpha is checked by ``KernelSpec`` and, on the exact routes, by
``basis_oracle._exact_alpha``.  Every row must raise its exception, with
its message, before anything large is allocated.
"""

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import polyfock.basis_oracle as basis_oracle
from polyfock.basis_oracle import build_orthonormal_basis, gaussian_monomial_inner, kernel_via_basis
from polyfock.kernels import KernelSpec, kernel_F, kernel_G, kernel_H, kernel_H_products
from polyfock.multiindex import IndexTable, build_index_table
from polyfock.spectral import L_closed, R_F_kernel_image, q_matrix
from polyfock.symbols import box, gamma_toeplitz, gaussian_poly, sign, weyl_symbol
from polyfock.transforms import check_intertwining, flat_function, flat_norm, fock_function

SPEC = KernelSpec(2, 3)
TABLE = build_index_table(2, 3)
XI = [0.4, -0.3]
GAUSSIAN = flat_function(lambda x, y: np.exp(-np.sum(x * x + y * y, axis=-1)))
SECTION = fock_function(lambda z: kernel_F(SPEC, [0.2j, 0.1], z))

# name -> (call taking one bad 2-vector, message for a complex one, for a NaN one)
REAL_POINTS = {
    "kernel_H": (lambda p: kernel_H(SPEC, p, [0.1, 0.2], [0.3, 0.4], [0.5, 0.6]),
                 "point must be real", "point must be finite"),
    "kernel_G": (lambda p: kernel_G(SPEC, [0.1, 0.2], p, [0.3, 0.4], [0.5, 0.6]),
                 "point must be real", "point must be finite"),
    "kernel_H_products": (lambda p: kernel_H_products(SPEC, [0.1, 0.2], [0.3, 0.4], p, [0.5, 0.6]),
                          "point must be real", "point must be finite"),
    "q_matrix": (lambda p: q_matrix(TABLE, XI, p), "point must be real", "point must be finite"),
    "L_closed": (lambda p: L_closed(TABLE, XI, p, [0.1, 0.2]),
                 "point must be real", "point must be finite"),
    "R_F_kernel_image": (lambda p: R_F_kernel_image(SPEC, p, XI),
                         "point must be real", "point must be finite"),
    "weyl_symbol": (lambda p: weyl_symbol(TABLE, p, XI), "shift must be real", "shift must be finite"),
    "VerticalSymbol.__call__": (lambda p: sign(n=2)(p), "point must be real", "point must be finite"),
    "check_intertwining": (lambda p: check_intertwining(SPEC, p, SECTION, [0.1, 0.2], [0.3, 0.4]),
                           "shift must be real", "shift must be finite"),
    # at n = 1 the center is (x, y); order 400 would build a 160k-node rule
    "flat_norm": (lambda p: flat_norm(1, GAUSSIAN, center=p, order=400),
                  "center must be real", "center must be finite"),
    "gaussian_poly": (lambda p: gaussian_poly([(1.0, (0, 0))], center=p, n=2),
                      "center must be real", "gauss_center must be 2 finite numbers"),
    "box": (lambda p: box(p, [2.0, 2.0], n=2),
            "box bound must be real", "box needs 2 non-NaN bounds"),
}

ROWS = {}
for name, (call, complex_message, nan_message) in REAL_POINTS.items():
    ROWS[f"{name}-complex"] = (lambda call=call: call(np.array([0.5 + 2j, 0.1])),
                               TypeError, complex_message)
    ROWS[f"{name}-nan"] = (lambda call=call: call([math.nan, 0.1]), ValueError, nan_message)

ROWS.update({
    "gamma_toeplitz-complex-xi": (lambda: gamma_toeplitz(TABLE, sign(n=2), np.array([0.5 + 2j, 0.1])),
                                  TypeError, "frequency must be real"),
    "IndexTable-given-indices": (lambda: IndexTable(2, 3, ((5, 5, 5),)),
                                 TypeError, "IndexTable.__init__() takes 3 positional arguments"),
    "IndexTable-float-n": (lambda: IndexTable(2.0, 3), TypeError, "n and m must be integers"),
    "IndexTable-zero-m": (lambda: IndexTable(2, 0), ValueError, "n and m must be positive"),
})

POSITIVE = "alpha must be finite and positive"
REAL = "alpha must be a real number"
RATIONAL = "exact arithmetic needs a rational alpha"
ALPHA_ROWS = {
    "KernelSpec": (lambda a: KernelSpec(1, 2, a),
                   [(math.nan, ValueError, POSITIVE), (math.inf, ValueError, POSITIVE),
                    (-1.0, ValueError, POSITIVE), (0, ValueError, POSITIVE),
                    (True, TypeError, REAL), (1 + 0j, TypeError, REAL)]),
    "gaussian_monomial_inner": (lambda a: gaussian_monomial_inner(a, [1], [0], [1], [0]),
                                [(-2, ValueError, POSITIVE), (0, ValueError, POSITIVE),
                                 (Fraction(-1, 2), ValueError, POSITIVE),
                                 (True, ValueError, RATIONAL), (1.5, ValueError, RATIONAL)]),
    "build_orthonormal_basis": (lambda a: build_orthonormal_basis(a, 1, 2, 2),
                                [(-1, ValueError, POSITIVE), (0, ValueError, POSITIVE),
                                 (True, TypeError, REAL), (1.5, ValueError, RATIONAL)]),
    "kernel_via_basis": (lambda a: kernel_via_basis(a, 1, 2, 4, [0.1j], [0.2]),
                         [(-1.0, ValueError, POSITIVE), (0.0, ValueError, POSITIVE),
                          (math.nan, ValueError, POSITIVE), (True, TypeError, REAL)]),
}
for name, (call, cases) in ALPHA_ROWS.items():
    for alpha, error, message in cases:
        ROWS[f"{name}-alpha={alpha!r}"] = (lambda call=call, alpha=alpha: call(alpha), error, message)


@pytest.mark.parametrize("call, error, message", ROWS.values(), ids=ROWS)
def test_out_of_domain_input_is_refused_up_front(call, error, message, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a charge class was built")

    monkeypatch.setattr(basis_oracle, "_charge_classes", fail)
    tracemalloc.start()
    try:
        with pytest.raises(error, match="^" + re.escape(message)):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20

