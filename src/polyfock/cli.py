"""Command line front end.

Every command is a thin wrapper over the library: the CLI parses arguments,
calls the same public functions a script would, and serializes the result.
JSON is the canonical output format (complex numbers as [re, im] pairs);
``symbol gamma`` also offers CSV for its matrices.  Exit codes: 0 success, 1
verification failure or I/O error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import sys

import numpy as np

from .kernels import (
    KernelSpec,
    kernel_F,
    kernel_G,
    kernel_H,
    kernel_S,
    kernel_true_poly,
)
from .multiindex import build_index_table
from .quadrature import FIBER_ORDER
from .spectral import R_F_kernel_image, default_xi_grid
from . import symbols
from .symbols import VerticalSymbol, gamma_toeplitz
from .verify import SUITES, SuiteConfig, run_suite


def _complex_pairs(values: np.ndarray) -> list:
    """Nested lists with a trailing [re, im] axis replacing complex entries."""
    arr = np.asarray(values, dtype=complex)
    return np.stack((arr.real, arr.imag), axis=-1).tolist()


def _parse_xi_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--xi-grid expects lo:hi:count, got {text!r}")
    return default_xi_grid(int(parts[2]), float(parts[0]), float(parts[1]))


def _parse_floats(text: str) -> list[float]:
    return [float(piece) for piece in text.split(",") if piece != ""]


def _parse_symbol(text: str, n: int) -> VerticalSymbol:
    """Symbol mini-language: const:c | poly:c0,c1,... | sign[:axis] |
    box:lo,hi | gausspoly:c0,...;center;halfwidth.

    const, sign and box hold at every n.  The flat coefficient lists of poly
    and gausspoly are defined at n = 1 only; at n >= 2 the library refuses
    them with ValueError (exit 2).
    """
    kind, _, rest = text.partition(":")
    if kind == "const":
        return symbols.constant(float(rest or "1"), n=n)
    if kind == "poly":
        coeffs = _parse_floats(rest)
        if not coeffs:
            raise ValueError("poly symbol needs coefficients, e.g. poly:0,1")
        return symbols.polynomial(coeffs, n=n)
    if kind == "sign":
        axis = int(rest) if rest else 0
        return symbols.sign(axis, n=n)
    if kind == "box":
        bounds = _parse_floats(rest)
        if len(bounds) != 2:
            raise ValueError("box symbol needs lo,hi")
        return symbols.box(bounds[0], bounds[1], n=n)
    if kind == "gausspoly":
        pieces = rest.split(";")
        if len(pieces) != 3:
            raise ValueError("gausspoly symbol needs coeffs;center;halfwidth")
        return symbols.gaussian_poly(_parse_floats(pieces[0]),
                                     float(pieces[1]), float(pieces[2]), n=n)
    raise ValueError(f"unknown symbol kind {kind!r}")


# Complex points are named z, w; the flattened spaces take real x, y, u, v.
COMPLEX_POINTS = ("z", "w")
REAL_POINTS = ("x", "y", "u", "v")

# --space -> (kernel, names of the points it takes, in call order, the
# kernel options it reads besides --n and --m).  H and G depend on n and m
# alone, so they take no --alpha.
SPACES = {
    "F": (kernel_F, COMPLEX_POINTS, ("alpha",)),
    "H": (kernel_H, REAL_POINTS, ()),
    "G": (kernel_G, REAL_POINTS, ()),
    "S": (kernel_S, COMPLEX_POINTS, ("alpha",)),
    "true": (kernel_true_poly, COMPLEX_POINTS, ("alpha", "beta")),
}

# Defaults of --alpha and --seed.  `kernel eval` leaves both unset while it
# parses, so it can refuse one that its space or its points do not read, and
# applies these after.
DEFAULT_ALPHA = 1.0
DEFAULT_SEED = 7


def _load_points(path: str, keys: tuple[str, ...], n: int) -> dict[str, np.ndarray]:
    """Points of a JSON file as (count, n) rows; z and w are [re, im] pairs."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    out = {}
    for key in keys:
        if key not in raw:
            raise ValueError(f"points file {path} is missing field {key!r}")
        arr = np.asarray(raw[key], dtype=float)
        if key in COMPLEX_POINTS:
            if arr.shape[-1:] != (2,):
                raise ValueError(f"field {key!r} in {path} must hold [re, im] pairs")
            arr = arr[..., 0] + 1j * arr[..., 1]
        if arr.ndim == 1 and n == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[1] != n:
            raise ValueError(f"field {key!r} in {path} must hold (count, {n}) points")
        out[key] = arr
    if len({val.shape[0] for val in out.values()}) != 1:
        raise ValueError(f"point arrays in {path} have mismatched lengths")
    return out


def _default_points(keys: tuple[str, ...], n: int, seed: int,
                    count: int = 8) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)

    def draw(key):
        x = rng.uniform(-1, 1, (count, n))
        return x + 1j * rng.uniform(-1, 1, (count, n)) if key in COMPLEX_POINTS else x

    return {key: draw(key) for key in keys}


def _points_payload(points: dict[str, np.ndarray]) -> dict:
    return {key: _complex_pairs(val) if np.iscomplexobj(val) else val.tolist()
            for key, val in points.items()}


# ---------------------------------------------------------------------------
# result builders
# ---------------------------------------------------------------------------

def _build_indices(args) -> dict:
    table = build_index_table(args.n, args.m)
    return {
        "n": table.n,
        "m": table.m,
        "d": table.d,
        "indices": [{"position": j, "index": list(table.phi(j))}
                    for j in range(1, table.d + 1)],
    }


def _build_kernel(args) -> dict:
    n, m = args.n, args.m
    kernel, keys, reads = SPACES[args.space]
    for option in ("alpha", "beta"):
        if getattr(args, option) is not None and option not in reads:
            spaces = ", ".join(f"--space {space}" for space, row in SPACES.items()
                               if option in row[2])
            raise ValueError(f"--{option} is an option of {spaces} only, "
                             f"not --space {args.space}")
    if args.seed is not None and args.points:
        raise ValueError("--seed draws the default points; it is not read with --points")
    alpha = DEFAULT_ALPHA if args.alpha is None else args.alpha
    spec = KernelSpec(n, m, alpha)
    points = (_load_points(args.points, keys, n) if args.points
              else _default_points(keys, n, DEFAULT_SEED if args.seed is None else args.seed))
    inputs = [points[key] for key in keys]
    if args.space == "true":
        beta = [int(b) for b in args.beta.split(",")] if args.beta else [m] * n
        inputs.insert(0, beta)
    out = {
        "space": args.space,
        "n": n,
        "m": m,
        "points": _points_payload(points),
        "values": _complex_pairs(kernel(spec, *inputs)),
    }
    if "alpha" in reads:
        out["alpha"] = alpha
    if args.space == "true":
        out["beta"] = beta
    return out


def _build_fiber(args) -> dict:
    kind, _, rest = args.input.partition(":")
    if kind != "kernel" or not rest.startswith("iy="):
        raise ValueError("--input supports kernel:iy=y1,...,yn (kernel section at iy)")
    fiber = R_F_kernel_image(KernelSpec(args.n, args.m, args.alpha),
                             _parse_floats(rest[3:]), _parse_floats(args.xi))
    return {
        "n": args.n,
        "m": args.m,
        "alpha": args.alpha,
        "input": args.input,
        "xi": fiber.xi.tolist(),
        "components": _complex_pairs(fiber.components),
    }


def _build_symbol(args) -> dict:
    table = build_index_table(args.n, args.m)
    xi_grid = _parse_xi_grid(args.xi_grid)
    g = _parse_symbol(args.g, args.n)
    if args.order is not None and all(g.breakpoints_on_axis(r) for r in range(args.n)):
        raise ValueError(f"--order is the Gauss-Hermite order of an axis without jumps, "
                         f"and --g {args.g} jumps on every axis")
    # one call over the whole grid, xi = (v, ..., v) for each grid value v
    sym = gamma_toeplitz(table, g, np.repeat(xi_grid[:, None], args.n, axis=1), order=args.order)
    return {
        "n": args.n,
        "m": args.m,
        "d": table.d,
        "g": args.g,
        "xi": xi_grid.tolist(),
        "matrices": _complex_pairs(sym.entries),
    }


def _symbol_csv(payload: dict) -> str:
    """CSV flattening of the gamma matrices: one row per grid point."""
    d = payload["d"]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["xi"] + [f"g_{r}{s}_{part}" for r in range(d) for s in range(d)
                              for part in ("re", "im")])
    for value, matrix in zip(payload["xi"], payload["matrices"]):
        writer.writerow([repr(value)] + [repr(x) for row in matrix for pair in row for x in pair])
    return buf.getvalue()


def _render(payload: dict, fmt: str) -> str:
    if fmt == "csv":
        return _symbol_csv(payload)
    # One top-level key per line, each value in one piece by json's C encoder
    # (an indent would force the pure-Python one).  NaN and Infinity are not
    # JSON: refuse them (exit 2) rather than write them.
    lines = (f"  {json.dumps(key)}: {json.dumps(value, allow_nan=False)}"
             for key, value in payload.items())
    return "{\n" + ",\n".join(lines) + "\n}\n"


def _write_out(text: str, path: str | None) -> int:
    if path is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: could not write {path}: {exc}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    config = SuiteConfig(**{f.name: getattr(args, f.name)
                            for f in dataclasses.fields(SuiteConfig)})
    report = run_suite(args.suite, config)
    reports = report.suites if report.suite == "all" else (report,)
    for rep in reports:
        print(f"suite {rep.suite}  (seed={rep.params.get('seed')}, "
              f"{rep.elapsed_seconds:.1f}s)")
        for case in rep.cases:
            mark = "PASS" if case.passed else "FAIL"
            print(f"  {mark}  {case.id:<42s} max_error={case.max_error:.3e}  "
                  f"tol={case.tolerance:.1e}")
        status = "PASS" if rep.passed else "FAIL"
        print(f"suite {rep.suite}: {status} ({len(rep.cases)} cases)")
    if report.suite == "all":
        print(f"overall: {'PASS' if report.passed else 'FAIL'}")
    if args.out:
        code = _write_out(json.dumps(report.to_dict(), indent=2) + "\n", args.out)
        if code:
            return code
    return 0 if report.passed else 1


def _make_builder_cmd(builder):
    def cmd(args) -> int:
        payload = builder(args)
        return _write_out(_render(payload, getattr(args, "format", "json")), args.out)
    return cmd


def _add_common(parser: argparse.ArgumentParser, *, alpha=False, order=False):
    parser.add_argument("--n", type=int, default=1, help="number of complex variables")
    parser.add_argument("--m", type=int, default=1, help="order of polyanalyticity")
    if alpha:
        parser.add_argument("--alpha", type=float, default=DEFAULT_ALPHA,
                            help="weight parameter")
    if order:
        parser.add_argument("--order", type=int, default=None,
                            help=f"Gauss-Hermite order of the axes without jumps "
                                 f"(default {FIBER_ORDER}; jump axes are closed form)")
    parser.add_argument("--out", type=str, default=None, help="write to file instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of every command, built on first use and then shared.

    Parsing leaves the parser as it was and gives each call a new namespace,
    so :func:`main` reuses one tree rather than building it per call.
    """
    parser = argparse.ArgumentParser(
        prog="polyfock",
        description="Polyanalytic Fock space kernels, transforms, and operator symbols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a cross-verification suite")
    p_verify.add_argument("suite", choices=SUITES + ("all",))
    for f in dataclasses.fields(SuiteConfig):
        p_verify.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                              type=float if f.name == "alpha" else int, default=f.default)
    p_verify.add_argument("--out", type=str, default=None,
                          help="also write the JSON report here")
    p_verify.set_defaults(fn=_cmd_verify)

    p_indices = sub.add_parser("indices", help="enumerate the multi-index table")
    _add_common(p_indices)
    p_indices.set_defaults(fn=_make_builder_cmd(_build_indices))

    p_kernel = sub.add_parser("kernel", help="kernel evaluation")
    kernel_sub = p_kernel.add_subparsers(dest="kernel_command", required=True)
    p_eval = kernel_sub.add_parser("eval", help="evaluate a kernel at points")
    p_eval.add_argument("--space", choices=tuple(SPACES), required=True)
    _add_common(p_eval)
    p_eval.add_argument("--alpha", type=float, default=None,
                        help=f"weight parameter of F, S and true (default {DEFAULT_ALPHA})")
    p_eval.add_argument("--seed", type=int, default=None,
                        help=f"seed of the default points (default {DEFAULT_SEED})")
    p_eval.add_argument("--points", type=str, default=None,
                        help="JSON file of evaluation points")
    p_eval.add_argument("--beta", type=str, default=None,
                        help="comma-separated type for --space true")
    p_eval.set_defaults(fn=_make_builder_cmd(_build_kernel))

    p_fiber = sub.add_parser("fiber", help="fiber image under the joint transform")
    _add_common(p_fiber, alpha=True)
    p_fiber.add_argument("--xi", type=str, required=True, help="comma-separated frequency")
    p_fiber.add_argument("--input", type=str, required=True,
                         help="function to transform, e.g. kernel:iy=0.5")
    p_fiber.set_defaults(fn=_make_builder_cmd(_build_fiber))

    p_symbol = sub.add_parser("symbol", help="operator symbol on a frequency grid")
    symbol_sub = p_symbol.add_subparsers(dest="symbol_command", required=True)
    p_gamma = symbol_sub.add_parser("gamma", help="Toeplitz matrix symbol gamma_g")
    _add_common(p_gamma, order=True)
    p_gamma.add_argument("--format", choices=("json", "csv"), default="json")
    p_gamma.add_argument("--g", type=str, required=True,
                         help="vertical symbol: const:c | poly:c0,c1,... | sign[:axis] | "
                              "box:lo,hi | gausspoly:c0,...;center;halfwidth.  const, sign "
                              "and box hold at every n; the flat coefficient lists of poly "
                              "and gausspoly at n = 1 only")
    p_gamma.add_argument("--xi-grid", dest="xi_grid", type=str, default="-8:8:17",
                         help="frequency grid as lo:hi:count")
    p_gamma.set_defaults(fn=_make_builder_cmd(_build_symbol))

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # argparse mistakes a grid value like -8:8:64 for an option; fold the
    # value into --xi-grid= form before parsing.
    argv = list(argv)
    for i, piece in enumerate(argv[:-1]):
        if piece == "--xi-grid":
            argv[i : i + 2] = [f"--xi-grid={argv[i + 1]}"]
            break
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (TypeError, ValueError) as exc:
        parser.exit(2, f"error: {exc}\n")
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
