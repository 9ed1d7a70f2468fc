"""One table of refusals for the input owners, one owner per scalar kind.

* Integers (n and m, orders, degrees, counts, truncations) go through
  ``multiindex._integer``, which returns a Python int: NumPy integers pass,
  and bools, floats and complex values raise TypeError.
* Reals go through ``kernels._scalar`` (alpha, centers, scales,
  halfwidths, lone frequencies, grid ends) and ``kernels._rpoint`` (real
  points): bools and complex values raise TypeError, non-finite values
  ValueError.
* Exact rationals (``RationalPoly`` coefficients, the exact Laguerre
  parameter, the exact alpha of ``basis_oracle``) go through
  ``ratpoly._rational``: a ``Fraction`` or a Python or NumPy integer,
  nothing else.

Index tables are built from (n, m) alone, and alpha is also checked by
``KernelSpec``.  A lone frequency or shift must be one point:
``kernels._one_point`` refuses a grid of them with ValueError naming the
argument and its shape.  ``gamma_toeplitz`` alone takes a grid of xi, of
shape (X, n), and refuses a deeper one.  ``VerticalSymbol`` parses its own
fields, so its direct constructor refuses what the named ones do.  Every
row must raise its exception, with its message, before anything large is
allocated and before any ``RationalPoly`` is built.
"""

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import polyfock.basis_oracle as basis_oracle
import polyfock.orthopoly as orthopoly
import polyfock.ratpoly as ratpoly
from polyfock.basis_oracle import build_orthonormal_basis, gaussian_monomial_inner, kernel_via_basis
from polyfock.kernels import KernelSpec, kernel_F, kernel_G, kernel_H, kernel_H_products
from polyfock.multiindex import IndexTable, build_index_table, dimension
from polyfock.orthopoly import (check_laguerre_decomposition, check_laguerre_of_sum,
                                check_laguerre_telescoping, hermite_fn_table, laguerre_eval_all,
                                laguerre_poly)
from polyfock.quadrature import (
    fourier_1d_gaussian_type,
    gauss_hermite_1d,
    gaussian_mean_rule,
    legendre_panels,
    tensor_grid,
)
from polyfock.ratpoly import RationalPoly
from polyfock.spectral import (L_closed, L_via_fourier, R_F_apply, R_F_kernel_image, R_H_apply,
                               R_true_poly_image, default_xi_grid, fiber_project, q_matrix)
from polyfock.symbols import (
    VerticalSymbol,
    box,
    constant,
    convolution_symbol,
    gamma_toeplitz,
    gaussian_poly,
    polynomial,
    sigma_from_gamma,
    sign,
    weyl_symbol,
)
from polyfock.transforms import (check_intertwining, flat_function, flat_norm, fock_function,
                                 translate_H, weyl_F)
from polyfock.verify import SuiteConfig, run_suite

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
                      "gauss_center must be real", "gauss_center must be 2 finite numbers"),
    "box": (lambda p: box(p, [2.0, 2.0], n=2),
            "box bound must be real", "box bound must be 2 non-NaN numbers"),
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
    "IndexTable-float-n": (lambda: IndexTable(2.0, 3), TypeError, "n must be an integer, got 2.0"),
    "IndexTable-zero-m": (lambda: IndexTable(2, 0), ValueError, "m must be >= 1, got 0"),
    "tensor_grid-complex-center": (lambda: tensor_grid(1, 4, center=0.5 + 2j),
                                   TypeError, "center must be real"),
    "gaussian_mean_rule-complex-center": (lambda: gaussian_mean_rule(np.array([0.5 + 2j, 0.1]), 1.0, 4),
                                          TypeError, "center must be real"),
    "VerticalSymbol-complex-gauss_center": (
        lambda: VerticalSymbol(1, "gaussian-modulated-polynomial", ((1, (0,)),), (0.3 + 0.5j,), 1.0),
        TypeError, "gauss_center must be real"),
})

# name -> (call taking a grid of three points where one is due, the argument's label)
ONE_POINT = {
    "sigma_from_gamma": (lambda p: sigma_from_gamma(TABLE, sign(n=2), p), "frequency"),
    "sigma_from_gamma-direct": (lambda p: sigma_from_gamma(TABLE, sign(n=2), p, route="direct"),
                                "frequency"),
    "weyl_symbol": (lambda p: weyl_symbol(TABLE, [0.1, 0.2], p), "frequency"),
    "convolution_symbol": (lambda p: convolution_symbol(TABLE, lambda xi: 1.0, p), "frequency"),
    "R_F_apply": (lambda p: R_F_apply(SPEC, SECTION, p), "frequency"),
    "R_H_apply": (lambda p: R_H_apply(TABLE, GAUSSIAN, p), "frequency"),
    "fiber_project": (lambda p: fiber_project(TABLE, p, lambda v: np.ones(v.shape[:-1])),
                      "frequency"),
    "L_via_fourier": (lambda p: L_via_fourier(TABLE, p, [0.1, 0.2], [0.3, 0.4]), "frequency"),
    "R_true_poly_image": (lambda p: R_true_poly_image(SPEC, (1, 1), [0.1, 0.2], p), "frequency"),
    "R_true_poly_image-y": (lambda p: R_true_poly_image(SPEC, (1, 1), p, XI), "y"),
    "R_F_kernel_image-y": (lambda p: R_F_kernel_image(SPEC, p, XI), "y"),
    "weyl_symbol-shift": (lambda p: weyl_symbol(TABLE, p, XI), "shift"),
    "check_intertwining": (lambda p: check_intertwining(SPEC, p, SECTION, [0.1, 0.2], [0.3, 0.4]),
                           "shift"),
    "weyl_F": (lambda p: weyl_F(SPEC, p, SECTION), "shift"),
    "translate_H": (lambda p: translate_H(p, GAUSSIAN), "shift"),
}
GRID = np.array([[0.4, -0.3], [0.1, 0.2], [0.0, 0.5]])
for name, (call, label) in ONE_POINT.items():
    ROWS[f"{name}-grid"] = (lambda call=call: call(GRID), ValueError,
                            f"{label} must be one point, got shape (3, 2)")

# gamma_toeplitz takes one xi or a grid of shape (X, n), nothing deeper, and
# a NaN in any row of the grid refuses the whole call.
ROWS["gamma_toeplitz-3d-xi"] = (lambda: gamma_toeplitz(TABLE, sign(n=2), GRID[None]), ValueError,
                                "frequency must be one point or a grid of shape (X, 2), "
                                "got shape (1, 3, 2)")
for i in range(len(GRID)):
    NAN_GRID = GRID.copy()
    NAN_GRID[i, i % 2] = math.nan
    ROWS[f"gamma_toeplitz-nan-in-grid-row-{i}"] = (
        lambda grid=NAN_GRID: gamma_toeplitz(TABLE, sign(n=2), grid), ValueError,
        "frequency must be finite")

# name -> (call taking one bad integer, the label its message starts with, bad values)
INTEGERS = {
    "gauss_hermite_1d": (gauss_hermite_1d, "order", (True, 2.5)),
    "legendre_panels": (lambda k: legendre_panels([0.0, 1.0], k), "order", (True, 2.5)),
    "gamma_toeplitz": (lambda k: gamma_toeplitz(TABLE, sign(n=2), XI, order=k), "order", (True, 2.5)),
    "hermite_fn_table": (lambda k: hermite_fn_table(k, 0.3), "degree", (True,)),
    "laguerre_eval_all": (lambda k: laguerre_eval_all(k, 0.0, 0.3), "degree", (True,)),
    "laguerre_poly": (laguerre_poly, "degree", (True,)),
    "kernel_via_basis": (lambda k: kernel_via_basis(1.0, 1, 2, k, [0.1j], [0.2]), "p_max", (True, 2.5)),
    "build_orthonormal_basis": (lambda k: build_orthonormal_basis(1, 1, 2, k), "p_max", (True, 2.5)),
    "tensor_grid": (lambda k: tensor_grid(k, 4), "dim", (True,)),
    "default_xi_grid": (default_xi_grid, "count", (True,)),
    "flat_norm": (lambda k: flat_norm(k, GAUSSIAN), "n", (True, 2.5)),
}
for name, (call, label, bads) in INTEGERS.items():
    for bad in bads:
        ROWS[f"{name}-{label}={bad!r}"] = (lambda call=call, bad=bad: call(bad),
                                           TypeError, f"{label} must be an integer")

ROWS.update({
    "VerticalSymbol-halfwidth=True": (
        lambda: VerticalSymbol(1, "gaussian-modulated-polynomial", ((1, (0,)),), (0.0,), True),
        TypeError, "halfwidth must be a real number"),
    "gaussian_poly-halfwidth=1j": (lambda: gaussian_poly([1.0], halfwidth=1j),
                                   TypeError, "halfwidth must be a real number"),
    "fourier_1d_gaussian_type-xi=1j": (lambda: fourier_1d_gaussian_type(np.exp, 1j),
                                       TypeError, "frequency must be a real number"),
    "default_xi_grid-end=1j": (lambda: default_xi_grid(8, 1j, 2.0),
                               TypeError, "grid end must be a real number"),
    "constant-nan": (lambda: constant(math.nan), ValueError, "coefficients must be finite"),
    "polynomial-inf": (lambda: polynomial([math.inf, 1.0]), ValueError, "coefficients must be finite"),
    "gaussian_poly-nan": (lambda: gaussian_poly([math.nan]), ValueError, "coefficients must be finite"),
})

# VerticalSymbol parses its own fields, so the direct constructor refuses
# what the named constructors refuse
POLY = "polynomial"
ROWS.update({
    "VerticalSymbol-nan-coefficient": (lambda: VerticalSymbol(1, POLY, ((math.nan, (0,)),)),
                                       ValueError, "coefficients must be finite"),
    "VerticalSymbol-exponent=0.5": (lambda: VerticalSymbol(1, POLY, ((1.0, (0.5,)),)),
                                    TypeError, "multi-index entries must be integers"),
    "VerticalSymbol-exponent=True": (lambda: VerticalSymbol(1, POLY, ((1.0, (True,)),)),
                                     TypeError, "multi-index entries must be integers"),
    "VerticalSymbol-exponent-length": (lambda: VerticalSymbol(1, POLY, ((1.0, (0, 2)),)),
                                       ValueError, "expected a multi-index of 1 integers"),
    "VerticalSymbol-coefficient=True": (lambda: VerticalSymbol(1, POLY, ((True, (0,)),)),
                                        TypeError, "coefficients must be numbers"),
    "VerticalSymbol-coefficient='1'": (lambda: VerticalSymbol(1, POLY, (("1", (0,)),)),
                                       TypeError, "coefficients must be numbers"),
    "polynomial-flat-coefficient=True": (lambda: polynomial([1.0, True]),
                                         TypeError, "coefficients must be numbers"),
    "VerticalSymbol-one-center-at-n=2": (
        lambda: VerticalSymbol(2, "gaussian-modulated-polynomial", ((1.0, (0, 0)),), (0.0,), 1.0),
        ValueError, "gauss_center must be 2 finite numbers"),
    "VerticalSymbol-one-bound-at-n=2": (
        lambda: VerticalSymbol(2, "box-indicator", lo=(-1.0,), hi=(1.0,)),
        ValueError, "box bound must be 2 non-NaN numbers"),
    "box-one-bound-at-n=2": (lambda: box([-1.0], [1.0], n=2),
                             ValueError, "box bound must be 2 non-NaN numbers"),
    "constant-n=1.5": (lambda: constant(1.0, n=1.5), TypeError, "n must be an integer"),
    # 4e6 panels of 48 nodes at two words each; a span of 1e300 would fail
    # inside np.linspace, and one of 2e308 overflows to inf
    "legendre_panels-span=1e7": (lambda: legendre_panels([0.0, 1e7], 48),
                                 ValueError, "tensor rule of 192000000.0 nodes"),
    "legendre_panels-span=1e300": (lambda: legendre_panels([0.0, 1e300], 48),
                                   ValueError, "tensor rule of 1.92e+301 nodes"),
    "legendre_panels-span=inf": (lambda: legendre_panels([-1e308, 1e308], 48),
                                 ValueError, "tensor rule of inf nodes"),
    # a field the kind does not use must keep its default
    "sign-given-lo": (lambda: VerticalSymbol(1, "sign-of-coordinate", lo=[1.0]),
                      ValueError, "a sign-of-coordinate symbol takes no lo"),
    "sign-given-terms": (lambda: VerticalSymbol(1, "sign-of-coordinate", ((1.0, (0,)),)),
                         ValueError, "a sign-of-coordinate symbol takes no terms"),
    "box-given-terms": (lambda: VerticalSymbol(1, "box-indicator", ((1.0, (0,)),), lo=-1.0, hi=1.0),
                        ValueError, "a box-indicator symbol takes no terms"),
})

# The exact track takes a rational Laguerre parameter only: a float's binary
# expansion, a string Fraction would parse, or a bool read as 0 or 1 is refused.
PARAMETER = "Laguerre parameter must be an int or a Fraction"
ROWS.update({
    "laguerre_poly-a=0.1": (lambda: laguerre_poly(2, 0.1), TypeError, PARAMETER),
    "laguerre_poly-a=nan": (lambda: laguerre_poly(2, math.nan), TypeError, PARAMETER),
    "laguerre_poly-a='1/2'": (lambda: laguerre_poly(2, "1/2"), TypeError, PARAMETER),
    "laguerre_poly-a=True": (lambda: laguerre_poly(2, True), TypeError, PARAMETER),
    "check_laguerre_telescoping-a=True": (lambda: check_laguerre_telescoping(True, 2),
                                          TypeError, PARAMETER),
    "check_laguerre_telescoping-p=2.0": (lambda: check_laguerre_telescoping(1, 2.0),
                                         TypeError, "degree must be an integer"),
    "check_laguerre_of_sum-b=0.5": (lambda: check_laguerre_of_sum(Fraction(1, 2), 0.5, 2),
                                    TypeError, PARAMETER),
    "check_laguerre_of_sum-a=True": (lambda: check_laguerre_of_sum(True, 0, 2),
                                     TypeError, PARAMETER),
    "check_laguerre_decomposition-n=True": (lambda: check_laguerre_decomposition(True, 2),
                                            TypeError, "n must be an integer"),
    "check_laguerre_decomposition-n=0": (lambda: check_laguerre_decomposition(0, 2),
                                         ValueError, "n must be >= 1"),
})

POSITIVE = "alpha must be finite and positive"
REAL = "alpha must be a real number"
RATIONAL = "alpha must be an int or a Fraction"
ALPHA_ROWS = {
    "KernelSpec": (lambda a: KernelSpec(1, 2, a),
                   [(math.nan, ValueError, POSITIVE), (math.inf, ValueError, POSITIVE),
                    (-1.0, ValueError, POSITIVE), (0, ValueError, POSITIVE),
                    (True, TypeError, REAL), (1 + 0j, TypeError, REAL)]),
    "gaussian_monomial_inner": (lambda a: gaussian_monomial_inner(a, [1], [0], [1], [0]),
                                [(-2, ValueError, POSITIVE), (0, ValueError, POSITIVE),
                                 (Fraction(-1, 2), ValueError, POSITIVE),
                                 (True, TypeError, RATIONAL), (1.5, TypeError, RATIONAL)]),
    "build_orthonormal_basis": (lambda a: build_orthonormal_basis(a, 1, 2, 2),
                                [(-1, ValueError, POSITIVE), (0, ValueError, POSITIVE),
                                 (True, TypeError, RATIONAL), (1.5, TypeError, RATIONAL)]),
    "kernel_via_basis": (lambda a: kernel_via_basis(a, 1, 2, 4, [0.1j], [0.2]),
                         [(-1.0, ValueError, POSITIVE), (0.0, ValueError, POSITIVE),
                          (math.nan, ValueError, POSITIVE), (True, TypeError, REAL)]),
    "gaussian_mean_rule": (lambda a: gaussian_mean_rule([0.0, 0.0], a, 4),
                           [(math.nan, ValueError, POSITIVE), (0.0, ValueError, POSITIVE),
                            (True, TypeError, REAL), (1 + 0j, TypeError, REAL)]),
}
for name, (call, cases) in ALPHA_ROWS.items():
    for alpha, error, message in cases:
        ROWS[f"{name}-alpha={alpha!r}"] = (lambda call=call, alpha=alpha: call(alpha), error, message)


# m above the Gauss-Hermite order: an order-N axis without jumps cannot
# integrate psi_{m-1}^2 once m > N, so gamma and direct sigma refuse.
M49, M11, M11_N2 = build_index_table(1, 49), build_index_table(1, 11), build_index_table(2, 11)
ABOVE = "m = {} exceeds the order {}: an axis without jumps needs a Gauss-Hermite order"
ROWS.update({
    "gamma_toeplitz-m=49-default-order": (lambda: gamma_toeplitz(M49, constant(1.0), [0.0]),
                                          ValueError, ABOVE.format(49, 48)),
    "gamma_toeplitz-m=11-order=10": (lambda: gamma_toeplitz(M11, constant(1.0), [0.3], order=10),
                                     ValueError, ABOVE.format(11, 10)),
    # sign on axis 0 jumps there, but axis 1 is smooth
    "gamma_toeplitz-sign-n=2-order=10": (lambda: gamma_toeplitz(M11_N2, sign(n=2), XI, order=10),
                                         ValueError, ABOVE.format(11, 10)),
    "sigma_from_gamma-direct-m=49": (
        lambda: sigma_from_gamma(M49, constant(1.0), [0.0], route="direct"),
        ValueError, ABOVE.format(49, 48)),
    "sigma_from_gamma-direct-m=11-order=10": (
        lambda: sigma_from_gamma(M11, gaussian_poly([1.0]), [0.3], order=10, route="direct"),
        ValueError, ABOVE.format(11, 10)),
    "sigma_from_gamma-via-gamma-m=49": (lambda: sigma_from_gamma(M49, constant(1.0), [0.0]),
                                        ValueError, ABOVE.format(49, 48)),
})

# m above MAX_ORDER, for every symbol: psi_0 underflows past |t| ~ 38.6, so
# a jump axis would be silently wrong once psi_{m-1} reaches that far.
M129 = build_index_table(1, 129)
CAP = "m = 129 exceeds 128, the largest m of a matrix symbol"
ROWS.update({
    "gamma_toeplitz-m=129-sign": (lambda: gamma_toeplitz(M129, sign(), [0.0]), ValueError, CAP),
    "gamma_toeplitz-m=129-box": (lambda: gamma_toeplitz(M129, box(-27.5, 27.5), [0.0]),
                                 ValueError, CAP),
    "gamma_toeplitz-m=129-order=128": (
        lambda: gamma_toeplitz(M129, constant(1.0), [0.0], order=128), ValueError, CAP),
    "sigma_from_gamma-direct-m=129-sign": (
        lambda: sigma_from_gamma(M129, sign(), [0.0], route="direct"), ValueError, CAP),
    "sigma_from_gamma-via-gamma-m=129-box": (
        lambda: sigma_from_gamma(M129, box(-1.0, 1.0), [0.0]), ValueError, CAP),
})


@pytest.mark.parametrize("call, error, message", ROWS.values(), ids=ROWS)
def test_out_of_domain_input_is_refused_up_front(call, error, message, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a charge class or a polynomial was built")

    # the class enumeration both basis routes read, and every RationalPoly:
    # its constructor and the one primitive that builds the rest
    monkeypatch.setattr(basis_oracle, "_class_charges", fail)
    monkeypatch.setattr(RationalPoly, "__init__", fail)
    monkeypatch.setattr(ratpoly, "_sum_of_products", fail)
    monkeypatch.setattr(orthopoly, "_sum_of_products", fail)
    tracemalloc.start()
    try:
        with pytest.raises(error, match="^" + re.escape(message)):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_numpy_integers_are_integers():
    default = gamma_toeplitz(TABLE, sign(n=2), XI)
    assert np.array_equal(gamma_toeplitz(TABLE, sign(n=2), XI, order=np.int64(48)).entries,
                          default.entries)
    cases = [run_suite("fourier-laguerre", SuiteConfig(order=order, p_max=1)).cases
             for order in (64, np.int64(64))]
    assert [(c.id, c.max_error) for c in cases[0]] == [(c.id, c.max_error) for c in cases[1]]


# Infinite box bounds are in the domain (only NaN is refused): gamma skips a
# jump at +-inf, and a huge finite one, whose t overflows, is clipped.
INFINITE_BOXES = {
    "whole-line": (box(-math.inf, math.inf), True),
    "whole-line-1e308": (box(-1.7e308, 1.7e308), True),
    "half-line": (box(-math.inf, 0.3), False),
    "n=2-one-sided": (box([-math.inf, 0.0], [1.0, math.inf], n=2), False),
}


@pytest.mark.parametrize("g, whole", INFINITE_BOXES.values(), ids=INFINITE_BOXES)
@pytest.mark.filterwarnings("error")
def test_boxes_with_infinite_bounds_give_finite_symbols(g, whole):
    table = build_index_table(g.n, 3)
    for xi in ([0.0] * g.n, [-7.5] * g.n, [1e300] * g.n):
        mats = [gamma_toeplitz(table, g, xi).entries,
                sigma_from_gamma(table, g, xi, route="direct").entries]
        assert all(np.all(np.isfinite(mat)) for mat in mats)
        if whole:
            assert all(np.max(np.abs(mat - np.eye(table.d))) <= 1e-14 for mat in mats)


# Every exact entry point parses its rational through ratpoly._rational: a
# bool, a float, a string or a complex value raises the one TypeError.
X = RationalPoly.variable("x", ("x",))
EXACT = {
    "RationalPoly": (lambda c: RationalPoly(("x",), {(1,): c}), "coefficient"),
    "RationalPoly.constant": (lambda c: RationalPoly.constant(c, ("x",)), "coefficient"),
    "RationalPoly.scale": (lambda c: X.scale(c), "coefficient"),
    "RationalPoly.__mul__": (lambda c: X * c, "coefficient"),
    "RationalPoly.__add__": (lambda c: X + c, "coefficient"),
    "RationalPoly.__sub__": (lambda c: X - c, "coefficient"),
    "laguerre_poly": (lambda a: laguerre_poly(2, a), "Laguerre parameter"),
    "check_laguerre_of_sum-a": (lambda a: check_laguerre_of_sum(a, 0, 2), "Laguerre parameter"),
    "check_laguerre_of_sum-b": (lambda b: check_laguerre_of_sum(0, b, 2), "Laguerre parameter"),
    "check_laguerre_telescoping": (lambda a: check_laguerre_telescoping(a, 2), "Laguerre parameter"),
    "gaussian_monomial_inner": (lambda a: gaussian_monomial_inner(a, [1], [0], [1], [0]), "alpha"),
    "build_orthonormal_basis": (lambda a: build_orthonormal_basis(a, 1, 2, 2), "alpha"),
}
NOT_RATIONAL = (True, 1.5, "1/2", 1 + 0j)


@pytest.mark.parametrize("bad", NOT_RATIONAL, ids=repr)
@pytest.mark.parametrize("name", EXACT)
def test_exact_entry_points_refuse_what_is_not_rational(name, bad, monkeypatch):
    call, label = EXACT[name]
    init = RationalPoly.__init__

    def fail(*args, **kwargs):
        raise AssertionError("a charge class or a product was built")

    def init_unless_built(self, *args, **kwargs):
        # the constructor is an entry point itself: it may run, but not finish
        init(self, *args, **kwargs)
        raise AssertionError("a polynomial was built")

    monkeypatch.setattr(basis_oracle, "_class_charges", fail)
    monkeypatch.setattr(RationalPoly, "__init__", init_unless_built)
    monkeypatch.setattr(ratpoly, "_sum_of_products", fail)
    monkeypatch.setattr(orthopoly, "_sum_of_products", fail)
    tracemalloc.start()
    try:
        with pytest.raises(TypeError, match="^" + re.escape(f"{label} must be an int or a "
                                                              f"Fraction, got {bad!r}")):
            call(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_exact_entry_points_take_numpy_integers_as_ints():
    two = np.int64(2)
    for name, (call, _) in EXACT.items():
        if name != "build_orthonormal_basis":
            assert call(two) == call(2), name
    for got, want in zip(build_orthonormal_basis(two, 1, 2, 2), build_orthonormal_basis(2, 1, 2, 2),
                         strict=True):
        assert (got.p, got.q, got.monomials) == (want.p, want.q, want.monomials)
        assert np.array_equal(got.coeffs, want.coeffs)
    expected = X * 2 + RationalPoly.constant(3, ("x",))
    assert ratpoly._sum_of_products(("x",), [(two, (X,)), (np.int32(3), ())]) == expected
    # a scalar operand of + and - is the constant it names
    assert X + 1 == X + RationalPoly.constant(1, ("x",))
    assert X - Fraction(1, 2) == X - RationalPoly.constant(Fraction(1, 2), ("x",))
    assert X * 2 + 3 == expected


def test_specs_and_tables_store_python_ints():
    spec = KernelSpec(np.int64(2), np.int32(3))
    table = IndexTable(np.int64(2), np.int32(3))
    # repr tells a stored NumPy integer from a Python int
    assert repr(spec) == repr(KernelSpec(2, 3)) and repr(table) == repr(IndexTable(2, 3))
    assert all(type(value) is int for value in (spec.n, spec.m, spec.d, table.n, table.m, table.d))
    assert type(dimension(np.int64(2), np.int32(3))) is int
    z, w = np.array([0.2 + 0.1j, -0.3j]), np.array([0.1, 0.25 - 0.2j])
    assert np.array_equal(kernel_F(spec, z, w), kernel_F(KernelSpec(2, 3), z, w))
    assert np.array_equal(table.array, IndexTable(2, 3).array)
