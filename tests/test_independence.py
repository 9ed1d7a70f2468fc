"""Each closed form and its oracle share no library code beyond the parsers.

One row per boundary: (closed form, oracle, helpers the two may share
beyond ``SHARED_BY_DESIGN``).  A side is a tuple of calls.  Each side runs
under ``sys.setprofile`` with every ``functools`` cache of the ``polyfock``
modules cleared (the Gauss rules, gamma's smooth axes), so its call set
holds every function it reaches whatever ran before it.  A row fails
when the two call sets meet outside the allowed names, or when a side
never reaches its own entry point.  Every function and method defined in
a ``polyfock`` source file is keyed by its code object; nested functions
and lambdas have no key and are seen through the keyed function that runs
them.  A new route adds a row.
"""

import importlib
import inspect
import math
import pkgutil
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import AbstractSet, NamedTuple

import numpy as np
import pytest

import polyfock
from polyfock import quadrature, symbols
from polyfock.basis_oracle import kernel_via_basis
from polyfock.kernels import KernelSpec, kernel_F, kernel_F_products
from polyfock.multiindex import build_index_table
from polyfock.orthopoly import (check_laguerre_decomposition, check_laguerre_of_sum,
                                check_laguerre_telescoping, hermite_fn, hermite_fn_table,
                                laguerre_fn)
from polyfock.quadrature import MAX_ORDER, fourier_1d_gaussian_type, gauss_hermite_1d
from polyfock.spectral import (L_closed, L_via_fourier, R_F_apply, R_F_kernel_image, R_H_apply,
                               q_matrix)
from polyfock.symbols import box, gamma_toeplitz, gaussian_poly, sigma_from_gamma, sign
from polyfock.transforms import flatten, fock_function
from polyfock.verify import _reproducing_error

PACKAGE = str(Path(polyfock.__file__).parent)
MODULES = [importlib.import_module(f"polyfock.{info.name}")
           for info in pkgutil.iter_modules(polyfock.__path__) if not info.name.startswith("_")]


def _candidates():
    for module in MODULES:
        for obj in vars(module).values():
            yield obj
            if isinstance(obj, type):
                for attr in vars(obj).values():
                    # a property by its getter, a static or class method by its function
                    attr = attr.fget if isinstance(attr, property) else attr
                    yield getattr(attr, "__func__", attr)


# code object -> "module.qualname", lru_cache wrappers unwrapped
KEYS = {}
for _obj in _candidates():
    _fn = inspect.unwrap(_obj) if callable(_obj) else None
    _code = getattr(_fn, "__code__", None)
    if _code is not None and _code.co_filename.startswith(PACKAGE):
        KEYS[_code] = f"{_fn.__module__.removeprefix('polyfock.')}.{_fn.__qualname__}"

# The argument parsers and the spec and index-table types: every route
# reads its input through them, and they evaluate nothing under test.
SHARED_BY_DESIGN = frozenset({
    "kernels._shaped", "kernels._cpoint", "kernels._real", "kernels._scalar", "kernels._rpoint",
    "kernels._one_point", "kernels._frequency", "kernels._shift",
    "multiindex._is_integer", "multiindex._integer", "multiindex._multi_index",
    "multiindex._validate_nm",
    "kernels.KernelSpec.__post_init__", "kernels.KernelSpec.d",
    "multiindex.IndexTable.__post_init__", "multiindex.IndexTable.d",
    "multiindex.IndexTable.__iter__",
    "multiindex.build_index_table", "multiindex.index_array", "multiindex.dimension",
})

# The raw Gauss-Hermite rule and its placement, built cold on each side.
HERMITE_RULE = frozenset({
    "quadrature.gauss_hermite_1d", "quadrature._check_order", "quadrature._hermite_rule",
    "quadrature._gauss_rule", "quadrature._read_only", "quadrature.place_hermite",
})


class Row(NamedTuple):
    closed: tuple
    oracle: tuple
    allowed: AbstractSet[str] = frozenset()


SPEC = KernelSpec(2, 3)
TABLE = build_index_table(2, 3)
XI = np.array([0.4, -1.0])
Y = np.array([0.3, -0.5])
V = np.array([-0.2, 0.6])
Z = np.array([[0.2 + 0.1j, -0.3j], [0.1, 0.25 - 0.2j]])
W = np.array([[-0.1j, 0.3], [0.2 + 0.2j, -0.15]])
T = np.linspace(-3.0, 3.0, 7)
# Inputs are built outside the traced calls.  F is plain numpy, so
# evaluating it reaches no polyfock function; G = flatten(F) adds only the
# point parser and F's FieldFunction.__call__.
F = fock_function(lambda z: np.exp(-0.25 * np.sum(np.abs(z) ** 2, axis=-1)))
G = flatten(SPEC, F)
SYMBOLS = {
    "gaussian_poly": gaussian_poly([(1.0, (0, 0)), (0.5, (2, 1))], center=[0.3, -0.2], n=2),
    "sign": sign(1, n=2),
    "box": box([-1.0, -0.5], [0.5, 1.0], n=2),
}
RAW_RULES = tuple(partial(rule, order) for order in range(1, MAX_ORDER + 1)
                  for rule in (gauss_hermite_1d, quadrature._legendre_rule))

ROWS = {
    "R_F_apply vs R_F_kernel_image": Row(
        (partial(R_F_apply, SPEC, F, XI, order=8),), (partial(R_F_kernel_image, SPEC, Y, XI),),
        {"orthopoly.hermite_fn_table"}),
    "R_H_apply vs R_F_kernel_image": Row(
        (partial(R_H_apply, TABLE, G, XI, order=8),), (partial(R_F_kernel_image, SPEC, Y, XI),),
        {"orthopoly.hermite_fn_table"}),
    # stream_pairs is a rule engine, not a closed form; it may be shared
    # while test_stream_pairs_matches_tensor_rule_on_a_non_product_integrand
    # pins it against the built tensor rule.
    "R_F_apply vs R_H_apply": Row(
        (partial(R_F_apply, SPEC, F, XI, order=8),), (partial(R_H_apply, TABLE, G, XI, order=8),),
        HERMITE_RULE | {"quadrature.stream_pairs", "quadrature._evaluate",
                        "quadrature.check_rule_budget", "orthopoly.hermite_fn_table",
                        "transforms.FieldFunction.__call__", "transforms._require"}),
    **{f"gamma_toeplitz vs direct sigma, {kind}": Row(
        (partial(gamma_toeplitz, TABLE, g, XI, order=16),),
        (partial(sigma_from_gamma, TABLE, g, -math.sqrt(2.0) * XI, order=16, route="direct"),),
        HERMITE_RULE | {"orthopoly.hermite_fn_table", "quadrature.legendre_panels",
                        "quadrature._legendre_rule", "quadrature.check_rule_budget",
                        "symbols.VerticalSymbol.breakpoints_on_axis",
                        "symbols.VerticalSymbol.is_real"})
       for kind, g in SYMBOLS.items()},
    "fourier-kernel": Row((partial(L_closed, TABLE, XI, Y, V),),
                          (partial(L_via_fourier, TABLE, XI, Y, V),)),
    "kernel-basis": Row((partial(kernel_F, SPEC, Z, W),),
                        (partial(kernel_via_basis, 1.0, 2, 3, 4, Z, W),)),
    "sum-products": Row((partial(kernel_F, SPEC, Z, W),),
                        tuple(partial(kernel_F_products, SPEC, Z, W, form=form)
                              for form in ("polynomials", "functions"))),
    "fourier-laguerre": Row(
        (partial(hermite_fn, 3, T),),
        (partial(fourier_1d_gaussian_type, lambda u: laguerre_fn(3, u * u + 0.16), 0.7),)),
    "raw Gauss rules vs Hermite functions": Row(
        RAW_RULES, (partial(hermite_fn, 5, T), partial(hermite_fn_table, 5, T))),
    "reproducing": Row((partial(_reproducing_error, 2, 3, 1.0, 2, Z[0], 8),),
                       (partial(kernel_F_products, SPEC, Z, W),)),
    "laguerre": Row((partial(check_laguerre_decomposition, 2, 3),
                     partial(check_laguerre_of_sum, Fraction(1, 2), 1, 3),
                     partial(check_laguerre_telescoping, Fraction(1, 2), 3)),
                    (partial(kernel_F, SPEC, Z, W),)),
}


# Every functools cache of the package, found by its cache_clear method.
CACHES = {id(obj): obj for module in MODULES for obj in vars(module).values()
          if callable(getattr(obj, "cache_clear", None))}


def _calls(side) -> tuple[set, list]:
    """Names of the keyed functions that the calls of one side reach, and the calls' values."""
    for cache in CACHES.values():
        cache.cache_clear()
    seen = set()

    def record(frame, event, arg):
        if event == "call" and frame.f_code in KEYS:
            seen.add(KEYS[frame.f_code])

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        values = [call() for call in side]
    finally:
        sys.setprofile(previous)
    return seen, values


def _crossings(row: Row) -> tuple[set, list]:
    """The helpers the two sides share beyond what the row allows, and the closed side's values."""
    (closed, values), (oracle, _) = _calls(row.closed), _calls(row.oracle)
    for side, seen in ((row.closed, closed), (row.oracle, oracle)):
        entries = {KEYS[inspect.unwrap(call.func).__code__] for call in side}
        assert entries <= seen, f"entry points {entries - seen} never ran"
    return (closed & oracle) - SHARED_BY_DESIGN - row.allowed, values


@pytest.mark.parametrize("row", ROWS.values(), ids=ROWS)
def test_closed_form_and_oracle_share_only_allowed_helpers(row):
    assert row.allowed <= set(KEYS.values())
    crossings, values = _crossings(row)
    assert crossings == set()
    if row.closed is RAW_RULES:
        # every order, built cold, has that many nodes
        assert [len(nodes) for nodes, _ in values] == [call.args[0] for call in RAW_RULES]


def test_every_cache_is_cleared_so_a_warm_side_still_reports_its_calls():
    assert {quadrature._hermite_rule, quadrature._legendre_rule,
            symbols._smooth_axis} <= set(CACHES.values())
    # gamma on a smooth symbol reads its Hermite table from the smooth-axis
    # cache once it is warm; the traced side must still reach the table.
    side = ROWS["gamma_toeplitz vs direct sigma, gaussian_poly"].closed
    for call in side:
        call()
    assert symbols._smooth_axis.cache_info().currsize > 0
    seen, _ = _calls(side)
    assert {"orthopoly.hermite_fn_table", "quadrature._hermite_rule",
            "symbols._smooth_axis"} <= seen


def test_a_route_that_crosses_the_boundary_is_reported():
    before = sys.getprofile()
    row = ROWS["R_F_apply vs R_F_kernel_image"]
    crossing = row._replace(closed=(partial(q_matrix, TABLE, XI, V), *row.closed))
    assert _crossings(crossing)[0] == {"spectral.q_matrix", "multiindex.index_products"}
    assert sys.getprofile() is before
