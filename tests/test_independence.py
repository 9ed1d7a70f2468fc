"""Each closed form and its oracle share no library code beyond the parsers.

A row runs both sides of one boundary under ``sys.setprofile``: a float suite's own
``run_suite`` at small sizes, with the entries its ``verify._SUITE_TABLE`` row names,
or a route's closed calls, then its oracle calls.  Each entry call clears every
``functools`` cache of the package, so a helper the other side warmed still shows up,
and each ``polyfock`` call counts for the side of the innermost entry running.  A row
fails when the sides reach a common function it does not allow, when an entry runs
beneath the other side's unless listed as nested, or when an entry never runs.
"""

import importlib
import inspect
import pkgutil
import sys
from fractions import Fraction
from functools import cache, partial
from typing import AbstractSet, Callable, NamedTuple

import numpy as np
import pytest

import polyfock
from polyfock import basis_oracle, quadrature, symbols, verify
from polyfock.kernels import KernelSpec, kernel_F, kernel_F_products
from polyfock.multiindex import build_index_table
from polyfock.orthopoly import (check_laguerre_decomposition, check_laguerre_of_sum,
                                check_laguerre_telescoping, hermite_fn, hermite_fn_table)
from polyfock.quadrature import MAX_ORDER, gauss_hermite_1d
from polyfock.spectral import R_F_apply, R_F_kernel_image, R_H_apply, q_matrix
from polyfock.symbols import box, gamma_toeplitz, gaussian_poly, sigma_from_gamma, sign
from polyfock.transforms import flatten, fock_function
from polyfock.verify import SuiteConfig, _reproducing_error, run_suite

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


# code object -> "module.qualname", lru_cache wrappers unwrapped; lambdas and
# nested functions have no key and are seen through the keyed function running them
KEYS = {}
for _obj in _candidates():
    _fn = inspect.unwrap(_obj) if callable(_obj) else None
    _code = getattr(_fn, "__code__", None)
    if _code is not None and _code.co_filename.startswith(polyfock.__path__[0]):
        KEYS[_code] = f"{_fn.__module__.removeprefix('polyfock.')}.{_fn.__qualname__}"

# Argument parsers, spec and index-table types: every route reads its input through them.
SHARED_BY_DESIGN = frozenset({
    "kernels._shaped", "kernels._cpoint", "kernels._real", "kernels._scalar", "kernels._rpoint",
    "kernels._one_point", "kernels._frequency", "kernels._shift", "kernels.KernelSpec.__post_init__",
    "kernels.KernelSpec.d", "multiindex._is_integer", "multiindex._integer",
    "multiindex._multi_index", "multiindex.IndexTable.__post_init__", "multiindex.IndexTable.d",
    "multiindex.IndexTable.__iter__", "multiindex.build_index_table", "multiindex.index_array",
    "multiindex.dimension"})

# The raw Gauss-Hermite rule and its placement, built cold on each side.
HERMITE_RULE = frozenset({
    "quadrature.gauss_hermite_1d", "quadrature._check_order", "quadrature._hermite_rule",
    "quadrature._read_only", "quadrature.place_hermite"})


class Row(NamedTuple):
    run: Callable                # runs both sides
    closed: tuple                # the entry functions of each side
    oracle: tuple
    allowed: AbstractSet[str] = frozenset()  # functions, and constants, both may reach
    nested: tuple = ()           # closed entries the oracle may call


def in_turn(closed, oracle, allowed=frozenset()) -> Row:
    return Row(lambda: [call() for call in closed + oracle], tuple(c.func for c in closed),
               tuple(c.func for c in oracle), allowed)


# Sizes and order of the generated suite rows, where a suite reads them.
SMALL = dict(n_max=2, m_max=3, p_max=4, order=8)
FLOAT_SUITES = [name for name, suite in verify._SUITE_TABLE.items() if suite.tolerance > 0]


def suite_row(name: str) -> Row:
    suite = verify._SUITE_TABLE[name]
    config = SuiteConfig(**{key: SMALL[key] for key in suite.domain})
    closed, oracle, nested = ([getattr(verify, attr) for attr in side]
                              for side in (suite.closed, suite.oracle, suite.nested))
    return Row(partial(run_suite, name, config), closed, oracle, nested=nested)


SPEC, TABLE = KernelSpec(2, 3), build_index_table(2, 3)
XI, Y, V = np.array([0.4, -1.0]), np.array([0.3, -0.5]), np.array([-0.2, 0.6])
Z = np.array([[0.2 + 0.1j, -0.3j], [0.1, 0.25 - 0.2j]])
W = np.array([[-0.1j, 0.3], [0.2 + 0.2j, -0.15]])
T = np.linspace(-3.0, 3.0, 7)
# Inputs are built outside the traced calls: F is plain numpy, and G = flatten(F)
# adds only the point parser and F's FieldFunction.__call__.
F = fock_function(lambda z: np.exp(-0.25 * np.sum(np.abs(z) ** 2, axis=-1)))
G = flatten(SPEC, F)
SYMBOLS = {"gaussian_poly": gaussian_poly([(1.0, (0, 0)), (0.5, (2, 1))], center=[0.3, -0.2], n=2),
           "sign": sign(1, n=2), "box": box([-1.0, -0.5], [0.5, 1.0], n=2)}
RAW_RULES = tuple(partial(rule, order) for order in range(1, MAX_ORDER + 1)
                  for rule in (gauss_hermite_1d, quadrature._legendre_rule))
R_F, R_H = partial(R_F_apply, SPEC, F, XI, order=8), partial(R_H_apply, TABLE, G, XI, order=8)
IMAGE = partial(R_F_kernel_image, SPEC, Y, XI)
HALF = Fraction(1, 2)

ROWS = {
    "R_F_apply vs R_F_kernel_image": in_turn((R_F,), (IMAGE,), {"orthopoly.hermite_fn_table"}),
    "R_H_apply vs R_F_kernel_image": in_turn((R_H,), (IMAGE,), {"orthopoly.hermite_fn_table"}),
    # stream_pairs is a rule engine, not a closed form; it may be shared while
    # test_stream_pairs_matches_tensor_rule_on_a_non_product_integrand pins it.
    "R_F_apply vs R_H_apply": in_turn((R_F,), (R_H,), HERMITE_RULE | {
        "quadrature.stream_pairs", "quadrature._evaluate", "quadrature.check_rule_budget",
        "orthopoly.hermite_fn_table", "transforms.FieldFunction.__call__", "transforms._require",
        "BLOCK_NODES"}),
    **{f"gamma_toeplitz vs direct sigma, {kind}": in_turn(
        (partial(gamma_toeplitz, TABLE, g, XI, order=16),),
        (partial(sigma_from_gamma, TABLE, g, -np.sqrt(2.0) * XI, order=16, route="direct"),),
        # gamma's jump axes are closed form: no Legendre panel or rule budget is shared
        HERMITE_RULE | {"orthopoly.hermite_fn_table", "symbols._checked_order",
                        "symbols.VerticalSymbol.breakpoints_on_axis",
                        "symbols.VerticalSymbol.is_real"})
       for kind, g in SYMBOLS.items()},
    "raw Gauss rules vs Hermite functions": in_turn(
        RAW_RULES, (partial(hermite_fn, 5, T), partial(hermite_fn_table, 5, T))),
    "exact Laguerre track vs kernel_F": in_turn(
        (partial(check_laguerre_decomposition, 2, 3), partial(check_laguerre_of_sum, HALF, 1, 3),
         partial(check_laguerre_telescoping, HALF, 3)), (partial(kernel_F, SPEC, Z, W),)),
    "reproducing oracle vs product route": in_turn(
        (partial(_reproducing_error, 2, 3, 1.0, 2, Z[0], 8),), (partial(kernel_F_products, SPEC, Z, W),)),
}


# Every functools cache of the package, found by its cache_clear method.
CACHES = {obj for module in MODULES for obj in vars(module).values()
          if callable(getattr(obj, "cache_clear", None))}


def trace(row: Row) -> tuple[dict, set, object]:
    """The functions each side reaches, what the sides share or nest beyond the row, the value."""
    sides = {inspect.unwrap(fn).__code__: side for side in ("closed", "oracle") for fn in getattr(row, side)}
    nested = {inspect.unwrap(fn).__code__ for fn in row.nested}
    reached, nestings, ran, stack = {"closed": set(), "oracle": set()}, set(), set(), []

    def record(frame, event, arg):
        code = frame.f_code
        if event == "call" and code in sides:
            for cache in CACHES:
                cache.cache_clear()
            if stack and sides[stack[-1].f_code] != sides[code] and code not in nested:
                nestings.add(" > ".join(KEYS.get(c, c.co_name) for c in (stack[-1].f_code, code)))
            ran.add(code)
            stack.append(frame)
        if event == "call" and stack and code in KEYS:
            reached[sides[stack[-1].f_code]].add(KEYS[code])
        elif event == "return" and stack and stack[-1] is frame:
            stack.pop()

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        value = row.run()
    finally:
        sys.setprofile(previous)
    assert ran == set(sides), f"entry points {set(sides) - ran} never ran"
    common = reached["closed"] & reached["oracle"]
    return reached, (common - SHARED_BY_DESIGN - row.allowed) | nestings, value


@cache
def traced(key: str) -> tuple[Row, dict, set, object]:
    row = ROWS[key] if key in ROWS else suite_row(key)
    return row, *trace(row)


@pytest.mark.parametrize("key", [*ROWS, *FLOAT_SUITES])
def test_closed_form_and_oracle_share_only_allowed_helpers(key):
    row, _, crossings, value = traced(key)
    assert {name for name in row.allowed if "." in name} <= set(KEYS.values())
    assert crossings == set()
    if key == "raw Gauss rules vs Hermite functions":  # every order, built cold, has that many nodes
        assert [len(rule[0]) for rule in value[:len(RAW_RULES)]] == [c.args[0] for c in RAW_RULES]


def test_every_cache_is_cleared_so_a_warm_side_still_reports_its_calls():
    assert {quadrature._hermite_rule, quadrature._legendre_rule, symbols._smooth_axis} <= CACHES
    # A warm smooth-axis cache serves gamma its Hermite table; the trace still sees it.
    row = ROWS["gamma_toeplitz vs direct sigma, gaussian_poly"]
    row.run()
    assert symbols._smooth_axis.cache_info().currsize > 0
    assert {"orthopoly.hermite_fn_table", "quadrature._hermite_rule",
            "symbols._smooth_axis"} <= trace(row)[0]["closed"]


def test_a_route_that_crosses_the_boundary_is_reported():
    def via_q_matrix():  # a closed route that builds its fiber basis as the oracle does
        return q_matrix(TABLE, XI, V), R_F()

    before = sys.getprofile()
    row = in_turn((partial(via_q_matrix),), (IMAGE,), ROWS["R_F_apply vs R_F_kernel_image"].allowed)
    assert trace(row)[1] == {"spectral.q_matrix", "multiindex.index_products"}
    assert sys.getprofile() is before


def test_an_oracle_that_calls_its_closed_form_is_reported(monkeypatch):
    # kernel_F's calls count for the closed side wherever it runs: only nesting sees this.
    charges = basis_oracle._class_charges
    monkeypatch.setattr(basis_oracle, "_class_charges",
                        lambda *args: (kernel_F(SPEC, Z, W), charges(*args))[1])
    assert trace(suite_row("kernel-basis"))[1] == {"basis_oracle.kernel_via_basis > kernels.kernel_F"}


# ---------------------------------------------------------------------------
# shared constants: a module constant read on both sides passes the traced
# rows, since they key functions.
# ---------------------------------------------------------------------------

# Limits, not inputs: a route reads them to refuse work.
SHARED_CONSTANTS = frozenset({"MAX_ORDER", "RULE_BYTES_BUDGET", "MAX_PANEL_WIDTH"})
CODES = {name: code for code, name in KEYS.items()}


def constants(names) -> set:
    """The upper-case module constants the named functions read, nested code included."""
    found = set()
    for name in names:
        module = vars(sys.modules["polyfock." + name.split(".")[0]])
        codes = [CODES[name]]
        while codes:
            code = codes.pop()
            found |= {word for word in code.co_names if word.isupper() and word in module}
            codes += [const for const in code.co_consts if inspect.iscode(const)]
    return found


# ROADMAP item 19: gamma and direct sigma default to the same FIBER_ORDER
# (gamma's jump axes are closed form and read no cut).  Fixing that turns
# these rows green, and strict marks then fail until they are taken off.
ITEM_19 = pytest.mark.xfail(strict=True, reason="ROADMAP item 19: FIBER_ORDER shared")


@pytest.mark.parametrize("key", [pytest.param(key, marks=ITEM_19) if key.startswith("gamma_") else key
                                 for key in [*ROWS, *FLOAT_SUITES]])
def test_closed_form_and_oracle_share_no_constants(key):
    row, reached, _, _ = traced(key)
    common = constants(reached["closed"]) & constants(reached["oracle"])
    assert common - SHARED_CONSTANTS - row.allowed == set()
