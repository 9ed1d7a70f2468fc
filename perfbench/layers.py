"""Where the traced run puts its wrappers, and the per-layer metrics it derives.

The layers are polyfock's modules.  Wrappers sit on the names through which
one module calls another, so a span's layer is the module that does the
work, whoever called it.  Spans around the benchmark's own calls into the
library come from ``workloads.API`` entries, wrapped the same way.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

import numpy as np

from spans import END, NAME, PARENT, START, WORK, max_concurrency, union_length
from workloads import Verify


def _size_of(position):
    return lambda args, kwargs, result: int(np.size(args[position]))


def _result_size(args, kwargs, result):
    return int(np.size(result))


def _grid_work(args, kwargs, result):
    return [int(result.nodes.shape[0]), int(result.nodes.nbytes + result.weights.nbytes)]


def _rule_work(order_position):
    """[order, nodes] of a 1-D rule call."""
    return lambda args, kwargs, result: [int(args[order_position]), int(len(result[0]))]


def _terms(args, kwargs, result):
    return len(result.terms)


def _monomials(args, kwargs, result):
    _, n, m, p_max = args[:4]
    return math.comb(n + p_max, n) * math.comb(n + m - 1, n)


def _table_shape(args, kwargs, result):
    table = args[0]
    return [table.n, table.d]


ORTHO_FLOAT = "orthopoly.float"
MULTIINDEX = "multiindex.build_index_table"
TENSOR_GRID = "quadrature.tensor_grid"

# (dotted name, span name, work, kind)
TARGETS = [
    ("polyfock.verify.kernel_via_basis", "basis_oracle.kernel_via_basis", _monomials, "timed"),
    ("polyfock.verify.check_laguerre_decomposition", "orthopoly.exact", None, "timed"),
    ("polyfock.verify.check_laguerre_of_sum", "orthopoly.exact", None, "timed"),
    ("polyfock.verify.check_laguerre_telescoping", "orthopoly.exact", None, "timed"),
    ("polyfock.verify.hermite_fn", ORTHO_FLOAT, _size_of(1), "timed"),
    ("polyfock.verify.laguerre_fn", ORTHO_FLOAT, _size_of(1), "timed"),
    ("polyfock.verify.tensor_grid", TENSOR_GRID, _grid_work, "timed"),
    ("polyfock.verify.fourier_1d_gaussian_type", "quadrature.fourier_1d", None, "timed"),
    ("polyfock.verify.kernel_F", "kernels.kernel_F", _result_size, "timed"),
    ("polyfock.verify.kernel_F_products", "kernels.kernel_F_products", _result_size, "timed"),
    ("polyfock.verify.L_closed", "spectral.L_closed", None, "timed"),
    ("polyfock.verify.L_via_fourier", "spectral.L_via_fourier", None, "timed"),
    ("polyfock.verify.build_index_table", MULTIINDEX, None, "timed"),
    ("polyfock.basis_oracle.solve_triangular", "basis_oracle.lapack", None, "counted"),
    ("polyfock.basis_oracle.build_index_table", MULTIINDEX, None, "timed"),
    ("polyfock.ratpoly.RationalPoly.__mul__", "ratpoly.mul", _terms, "timed"),
    ("polyfock.ratpoly.RationalPoly.__add__", "ratpoly.add", None, "timed"),
    ("polyfock.ratpoly.RationalPoly.__sub__", "ratpoly.sub", None, "timed"),
    ("polyfock.ratpoly.RationalPoly.scale", "ratpoly.scale", None, "timed"),
    ("polyfock.orthopoly.build_index_table", MULTIINDEX, None, "timed"),
    ("polyfock.kernels.laguerre_eval", ORTHO_FLOAT, _size_of(2), "timed"),
    ("polyfock.kernels.laguerre_eval_all", ORTHO_FLOAT, _size_of(2), "timed"),
    ("polyfock.kernels.laguerre_fn_all", ORTHO_FLOAT, _size_of(1), "timed"),
    ("polyfock.kernels.build_index_table", MULTIINDEX, None, "timed"),
    ("polyfock.spectral.tensor_grid", TENSOR_GRID, _grid_work, "timed"),
    ("polyfock.spectral.hermite_fn_table", ORTHO_FLOAT, _size_of(1), "timed"),
    ("polyfock.spectral.kernel_H", "kernels.kernel_H", _result_size, "timed"),
    ("polyfock.spectral.build_index_table", MULTIINDEX, None, "timed"),
    ("polyfock.symbols.hermite_fn_table", ORTHO_FLOAT, _size_of(1), "timed"),
    ("polyfock.symbols.gauss_hermite_1d", "quadrature.gauss_hermite_1d", _rule_work(0), "timed"),
    ("polyfock.symbols.legendre_panels", "quadrature.legendre_panels", _rule_work(1), "timed"),
    ("polyfock.transforms.FieldFunction.__call__", "transforms.field_eval", None, "timed"),
    ("polyfock.transforms.tensor_grid", TENSOR_GRID, _grid_work, "timed"),
    ("polyfock.cli.gamma_toeplitz", "symbols.gamma", _table_shape, "before"),
    ("polyfock.cli.build_index_table", MULTIINDEX, None, "timed"),
]

# Spans around the benchmark's own calls: API entry -> (span name, work, kind).
API_SPANS = {
    "run_suite": (lambda args: "verify." + args[0], None, "timed"),
    "gamma_toeplitz": ("symbols.gamma", _table_shape, "before"),
    "sigma_from_gamma": ("symbols.sigma", _table_shape, "before"),
    "symbol_compose": ("symbols.compose", None, "timed"),
    "cli_main": ("cli.main", None, "timed"),
    "kernel_F": ("kernels.kernel_F", _result_size, "timed"),
    "kernel_F_products": ("kernels.kernel_F_products", _result_size, "timed"),
    "kernel_F_gram": ("kernels.kernel_F_gram", _result_size, "timed"),
    "R_F_apply": ("spectral.R_F_apply", None, "timed"),
    "build_index_table": (MULTIINDEX, None, "timed"),
}

RULE_SPANS = ("quadrature.gauss_hermite_1d", "quadrature.legendre_panels")


def per_layer_metrics(tracer, cli_bytes_out):
    """Per-layer numbers of one traced pass, keyed by BENCHMARK.json name."""
    selfs = tracer.self_times()
    by_name = defaultdict(list)
    kids = defaultdict(list)
    for thread, index, rec in tracer.records():
        by_name[rec[NAME]].append((thread, index, rec))
        if rec[PARENT] >= 0:
            kids[(thread, rec[PARENT])].append(rec)

    def recs(*names):
        return [rec for name in names for _, _, rec in by_name.get(name, ())]

    def duration(*names):
        return sum(rec[END] - rec[START] for rec in recs(*names))

    def self_time(prefix):
        return sum(selfs[(thread, index)]
                   for name, items in by_name.items() if name.startswith(prefix)
                   for thread, index, _ in items)

    def work_sum(*names, part=None):
        return sum((rec[WORK][part] if part is not None else rec[WORK])
                   for rec in recs(*names) if rec[WORK] is not None)

    def rate(name):
        seconds = duration(name)
        return work_sum(name) / seconds if seconds > 0 else 0.0

    out = {}

    # verify: suite spans, their own time, and how many threads worked at once.
    suite_items = [(t, i, rec) for name, items in by_name.items()
                   if name.startswith("verify.") for t, i, rec in items]
    roots = [(t, rec[START], rec[END]) for t, _, rec in tracer.records() if rec[PARENT] < 0]
    verify_self = 0.0
    workers = []
    for thread, index, rec in suite_items:
        # Work done for this suite: its children on its own thread, and the
        # outermost spans of pool threads while it ran.
        inside = [(c[START], c[END]) for c in kids.get((thread, index), ())]
        inside += [(a, b) for t, a, b in roots
                   if t != thread and a < rec[END] and b > rec[START]]
        verify_self += rec[END] - rec[START] - union_length(inside, rec[START], rec[END])
        workers += inside
    for suite in Verify.SUITES:
        out[f"verify.{suite}_s"] = duration("verify." + suite)
    out["verify.self_s"] = verify_self
    out["verify.threads"] = max_concurrency(workers)

    out["ratpoly.mul_calls"] = len(recs("ratpoly.mul"))
    out["ratpoly.mul_terms"] = work_sum("ratpoly.mul")
    out["ratpoly.self_s"] = self_time("ratpoly.")
    out["orthopoly.exact_self_s"] = self_time("orthopoly.exact")
    out["orthopoly.float_self_s"] = self_time(ORTHO_FLOAT)
    out["orthopoly.points"] = work_sum(ORTHO_FLOAT)

    out["basis_oracle.self_s"] = self_time("basis_oracle.")
    out["basis_oracle.lapack_calls"] = tracer.count("basis_oracle.lapack")
    out["basis_oracle.monomials_per_s"] = rate("basis_oracle.kernel_via_basis")

    out["quadrature.tensor_grid_calls"] = len(recs(TENSOR_GRID))
    out["quadrature.tensor_grid_s"] = duration(TENSOR_GRID)
    out["quadrature.tensor_nodes"] = work_sum(TENSOR_GRID, part=0)
    out["quadrature.tensor_bytes"] = work_sum(TENSOR_GRID, part=1)
    out["quadrature.rule_1d_calls"] = len(recs(*RULE_SPANS))
    out["quadrature.rule_1d_s"] = duration(*RULE_SPANS)
    gh = recs("quadrature.gauss_hermite_1d")
    out["quadrature.gh_distinct_ratio"] = (
        len({rec[WORK][0] for rec in gh}) / len(gh) if gh else 0.0)

    kernel_names = ("kernels.kernel_F", "kernels.kernel_F_products",
                    "kernels.kernel_F_gram", "kernels.kernel_H")
    out["kernels.pairs"] = work_sum(*kernel_names)
    out["kernels.self_s"] = self_time("kernels.")
    out["kernels.pairs_per_s.F"] = rate("kernels.kernel_F")
    out["kernels.pairs_per_s.products"] = rate("kernels.kernel_F_products")

    out["multiindex.tables"] = len(recs(MULTIINDEX))
    out["multiindex.self_s"] = self_time("multiindex.")

    # symbols: per-call medians by n, and the tensor rule each call built
    # (product of the per-axis 1-D rule lengths returned to it).
    gamma = recs("symbols.gamma")
    out["symbols.gamma_calls"] = len(gamma)
    out["symbols.self_s"] = self_time("symbols.")
    for n in (1, 2, 3):
        times = [rec[END] - rec[START] for rec in gamma if rec[WORK] and rec[WORK][0] == n]
        out[f"symbols.gamma_ms.n{n}"] = 1e3 * statistics.median(times) if times else 0.0
    rule_nodes = rule_bytes = 0
    for name in ("symbols.gamma", "symbols.sigma"):
        for thread, index, rec in by_name.get(name, ()):
            lengths = [c[WORK][1] for c in kids.get((thread, index), ())
                       if c[NAME] in RULE_SPANS and c[WORK] is not None]
            if not lengths or rec[WORK] is None:
                continue
            nodes = math.prod(lengths)
            n, d = rec[WORK]
            rule_nodes += nodes
            # float64 node coordinates (n), weights (1) and psi products (d)
            rule_bytes += nodes * 8 * (n + 1 + d)
    out["symbols.rule_nodes"] = rule_nodes
    out["symbols.rule_bytes"] = rule_bytes

    out["cli.calls"] = len(recs("cli.main"))
    out["cli.self_s"] = self_time("cli.")
    out["cli.bytes_out"] = cli_bytes_out

    r_f = by_name.get("spectral.R_F_apply", ())
    out["spectral.R_F_calls"] = len(r_f)
    out["spectral.self_s"] = self_time("spectral.")
    out["spectral.R_F_nodes"] = sum(
        c[WORK][0] for thread, index, _ in r_f
        for c in kids.get((thread, index), ()) if c[NAME] == TENSOR_GRID)
    out["transforms.field_eval_s"] = duration("transforms.field_eval")
    return out
