"""The three workloads: inputs from the seed, one timed pass, untimed checks.

Each workload runs in its own process with a single caller: the next op
starts when the previous one returns, and the benchmark starts no threads.
All library calls in a pass go through ``API`` (public polyfock names only),
so the traced run can put a span around each of them.

A pass runs a schedule of ops fixed at set-up.  Ops of different kinds are
interleaved evenly over the pass, so that each kind's latencies sample the
whole pass rather than one short stretch of it.

A check is a ``Check(unit, ok, defect)``.  ``defect`` names the known defect
a failure belongs to (see KNOWN_DEFECTS); a failure without one is a
regression.
"""

from __future__ import annotations

import json
import math
import re
import resource
import time
import types
from dataclasses import dataclass

import numpy as np

API = types.SimpleNamespace()

KNOWN_DEFECTS = {
    "a": "R_F_apply at its default quadrature order misses the 1e-7 bound of "
         "acceptance criterion 8 against R_F_kernel_image by a finite error of "
         "at most 5e-2 (ROADMAP item 4: accuracy pinned against the exact track).",
    "b": "gamma_toeplitz(box, n=3) builds a 336^3 (about 38M node) tensor rule; "
         "under the 2 GiB address-space limit it raises MemoryError, or the "
         "ValueError of item 4's allocation budget (ROADMAP item 4 guards it, "
         "item 3 removes the blowup).",
    "c": "The sum-products suite takes the error pointwise relative to "
         "kernel_F against 1e-11; on some seeds a sampled kernel value is "
         "near zero, and round-off far below the kernel's scale exceeds it "
         "(no ROADMAP item names it yet; it belongs with item 4).",
}


@dataclass(frozen=True)
class Check:
    unit: str
    ok: bool
    defect: str | None = None


def bind_api():
    """Fill API with the public polyfock functions the passes call."""
    from polyfock import cli, kernels, multiindex, spectral, symbols, transforms, verify

    API.run_suite = verify.run_suite
    API.SuiteConfig = verify.SuiteConfig
    API.build_index_table = multiindex.build_index_table
    API.gamma_toeplitz = symbols.gamma_toeplitz
    API.sigma_from_gamma = symbols.sigma_from_gamma
    API.symbol_compose = symbols.symbol_compose
    API.cli_main = cli.main
    API.KernelSpec = kernels.KernelSpec
    API.kernel_F = kernels.kernel_F
    API.kernel_F_products = kernels.kernel_F_products
    API.kernel_F_gram = kernels.kernel_F_gram
    API.R_F_apply = spectral.R_F_apply
    API.R_F_kernel_image = spectral.R_F_kernel_image
    API.fock_function = transforms.fock_function
    API.symbols = symbols


def _api(name):
    """Call API.<name>, looked up at call time so a traced run sees its wrapper."""
    return lambda *args, **kwargs: getattr(API, name)(*args, **kwargs)


def _schedule(entries):
    """Order (position in [0, 1), key, kind, fn, args, kwargs) entries by
    position; entries at the same position keep their order."""
    return [entry[1:] for entry in sorted(entries, key=lambda entry: entry[0])]


def run_schedule(schedule):
    """Run every op in turn; return ([(kind, seconds)], {key: result})."""
    ops, out = [], {}
    for key, kind, fn, args, kwargs in schedule:
        t0 = time.perf_counter()
        out[key] = fn(*args, **kwargs)
        ops.append((kind, time.perf_counter() - t0))
    return ops, out


class Workload:
    """A workload: ``setup`` returns a state holding the pass's ``schedule``;
    ``run_pass`` runs it; ``check`` judges the outputs of one pass."""

    def run_pass(self, state):
        return run_schedule(state["schedule"])


def _hermitian_gap(a):
    """max |A - A^H| relative to max(1, max |A|)."""
    return float(np.max(np.abs(a - a.conj().T))) / max(1.0, float(np.max(np.abs(a))))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

class Verify(Workload):
    """Every verification suite once per pass, through run_suite.

    The oracle layers (ratpoly, exact orthopoly, basis_oracle, 6-D quadrature
    and the suite pool) do nearly all the work here and none elsewhere.
    """

    SUITES = ("laguerre", "kernel-basis", "reproducing", "sum-products",
              "fourier-laguerre", "fourier-kernel")
    PARAMS = {"laguerre": dict(n_max=7, p_max=8),
              "kernel-basis": dict(n_max=3, m_max=3, p_max=32)}
    EXPECTED_CASES = {"laguerre": 83, "kernel-basis": 9, "reproducing": 9,
                      "sum-products": 50, "fourier-laguerre": 22, "fourier-kernel": 8}

    def setup(self, seed, out_dir):
        API.run_suite("fourier-kernel", API.SuiteConfig(seed=seed, n_max=1, m_max=1))
        return {"schedule": [(suite, "run_suite", _api("run_suite"),
                              (suite, API.SuiteConfig(seed=seed, **self.PARAMS.get(suite, {}))),
                              {})
                             for suite in self.SUITES]}

    def check(self, state, reports):
        checks = []
        for suite in self.SUITES:
            report = reports[suite]
            checks.append(Check(f"{suite} case count",
                                len(report.cases) == self.EXPECTED_CASES[suite]))
            for case in report.cases:
                defect = None
                if not case.passed and suite == "sum-products":
                    defect = self._near_zero_defect(report.params, case)
                checks.append(Check(f"{suite}: {case.id} error {case.max_error:.3g}",
                                    bool(case.passed), defect))
        return checks, {}

    @staticmethod
    def _near_zero_defect(params, case):
        """Return "c" if a failed sum-products case is known defect (c).

        The suite's inputs are drawn again as the suite draws them, from the
        seed and alpha in its report's params.  The failure is the defect
        only if the reported error is finite and the products agree with
        kernel_F to the suite's tolerance relative to the largest |kernel_F|
        of the batch, so a wrong kernel still fails.
        """
        found = re.fullmatch(r"sum-products n=(\d+) m=(\d+) form=(\w+)", case.id)
        if found is None or not math.isfinite(case.max_error):
            return None
        n, m, form = int(found[1]), int(found[2]), found[3]
        rng = np.random.default_rng([params["seed"], n, m])
        z = rng.uniform(-1, 1, (50, n)) + 1j * rng.uniform(-1, 1, (50, n))
        w = rng.uniform(-1, 1, (50, n)) + 1j * rng.uniform(-1, 1, (50, n))
        spec = API.KernelSpec(n, m, params["alpha"])
        exact = API.kernel_F(spec, z, w)
        other = API.kernel_F_products(spec, z, w, form=form)
        gap = float(np.max(np.abs(other - exact))) / float(np.max(np.abs(exact)))
        return "c" if math.isfinite(gap) and gap <= case.tolerance else None


# ---------------------------------------------------------------------------
# symbol-sweep
# ---------------------------------------------------------------------------

KINDS = ("const", "poly", "gauss-poly", "sign", "box")
ADDRESS_SPACE_LIMIT = 2 << 30


def _symbol(kind, n, rng):
    """One seeded symbol of the given kind; poly coefficients are real so
    every gamma matrix is Hermitian, and gauss-poly is nonnegative so its
    matrices are positive semidefinite."""
    s = API.symbols
    if kind == "const":
        return s.constant(1.0, n=n)
    if kind == "poly":
        terms = [(rng.uniform(-1, 1), (0,) * n)]
        for r in range(n):
            for e in (1, 2):
                exps = [0] * n
                exps[r] = e
                terms.append((rng.uniform(-1, 1), tuple(exps)))
        return s.polynomial(terms, n=n)
    if kind == "gauss-poly":
        terms = [(rng.uniform(0.2, 1.5), (0,) * n)]
        for r in range(n):
            exps = [0] * n
            exps[r] = 2
            terms.append((rng.uniform(0.2, 1.5), tuple(exps)))
        return s.gaussian_poly(terms, center=rng.uniform(-1, 1, n),
                               halfwidth=rng.uniform(0.7, 1.5), n=n)
    if kind == "sign":
        return s.sign(axis=int(rng.integers(n)), n=n)
    return s.box(rng.uniform(-1.5, -0.5, n), rng.uniform(0.5, 1.5, n), n=n)


def _run_cli(argv, out_path):
    """One in-process CLI call; its exit code (argparse errors exit)."""
    out_path.unlink(missing_ok=True)
    try:
        return API.cli_main(argv)
    except SystemExit as exc:
        return exc.code


def _gamma_or_error(table, g, xi):
    """gamma_toeplitz, or the text of the error of a rule too large to build.

    Known defect (b) is a rule too large to build, and only two errors say
    so: MemoryError under the address-space limit, and the ValueError of
    the allocation budget that ROADMAP item 4 adds to every tensor rule.
    Any other exception propagates and stops the run.  Only the text is
    kept: the exception's traceback would hold the partly built rule, and
    with it gigabytes of address space.
    """
    try:
        return API.gamma_toeplitz(table, g, xi)
    except (MemoryError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


class SymbolSweep(Workload):
    """gamma_toeplitz over xi grids, sigma, commutators, two CLI sweeps and
    the n = 3 box op.

    The symbols layer, the 1-D quadrature rules and the float Hermite
    recurrence dominate.  At n <= 2 and in the CLI the ops are many
    sub-millisecond calls, so per-call overhead dominates; at n = 3 the
    order^3 tensor rules dominate.
    """

    # (n, m, kinds, xi points)
    SWEEPS = ((1, 4, KINDS, 64), (2, 3, KINDS, 64), (3, 3, KINDS[:4], 16))
    # (n, m, CLI symbol, the same symbol built through the library)
    CLI_RUNS = ((1, 2, "poly:0,1", lambda s: s.polynomial([0.0, 1.0], n=1)),
                (2, 3, "sign", lambda s: s.sign(0, n=2)))

    def setup(self, seed, out_dir):
        # Known defect (b) allocates gigabytes; the limit turns that into a
        # MemoryError in this process instead of an OOM kill of the machine.
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        if soft == resource.RLIM_INFINITY or soft > ADDRESS_SPACE_LIMIT:
            resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, hard))
        rng = np.random.default_rng([seed, 2])
        sweeps = []
        for n, m, kinds, count in self.SWEEPS:
            table = API.build_index_table(n, m)
            # The grid is the CLI's: xi = (v, ..., v) for v in linspace(-8, 8).
            # Fixed, so the rule sizes of the panel kinds do not vary by seed.
            xis = np.repeat(np.linspace(-8.0, 8.0, count)[:, None], n, axis=1)
            for kind in kinds:
                sweeps.append(dict(n=n, m=m, kind=kind, table=table, xis=xis,
                                   g=_symbol(kind, n, rng),
                                   eta=rng.uniform(-8.0, 8.0, n)))
        entries = []
        for s, sweep in enumerate(sweeps):
            count = len(sweep["xis"])
            entries += [((i + 0.5) / count, ("gamma", s, i), "gamma", _api("gamma_toeplitz"),
                         (sweep["table"], sweep["g"], xi), {})
                        for i, xi in enumerate(sweep["xis"])]
            entries.append(((s + 0.5) / len(sweeps), ("sigma", s), "sigma",
                            _api("sigma_from_gamma"), (sweep["table"], sweep["g"], sweep["eta"]),
                            {"route": "direct"}))
        cli_runs = []
        for c, (n, m, g, make) in enumerate(self.CLI_RUNS):
            run = dict(n=n, m=m, g=g, symbol=make(API.symbols),
                       out=out_dir / f"symbol-gamma-{c}.json")
            argv = ["symbol", "gamma", "--n", str(n), "--m", str(m), "--g", g,
                    "--xi-grid", "-8:8:64", "--out", str(run["out"])]
            entries.append(((c + 0.5) / len(self.CLI_RUNS), ("cli", c), "cli", _run_cli,
                            (argv, run["out"]), {}))
            cli_runs.append(run)
        # The box op's bounds and xi keep the rule at 336 nodes per axis
        # (7 panels of 48) for every seed, so its size does not vary.
        box = (API.build_index_table(3, 3),
               API.symbols.box(rng.uniform(-1.1, -0.9, 3), rng.uniform(0.9, 1.1, 3), n=3),
               rng.uniform(-0.25, 0.25, 3))
        entries.append((0.5, ("box",), "gamma", _gamma_or_error, box, {}))
        # Warm op: the largest rule below n = 3 (the n = 2 box), so the heap
        # has grown before the first timed pass.
        warm = next(s for s in sweeps if s["n"] == 2 and s["kind"] == "box")
        API.gamma_toeplitz(warm["table"], warm["g"], warm["xis"][0])
        return {"sweeps": sweeps, "cli_runs": cli_runs, "schedule": _schedule(entries)}

    def run_pass(self, state):
        ops, out = super().run_pass(state)
        # Commutator of each kind with the next kind of the same n, at the
        # first xi; not counted as an op.
        sweeps = state["sweeps"]
        for s, sweep in enumerate(sweeps):
            group = [j for j, other in enumerate(sweeps) if other["n"] == sweep["n"]]
            other = group[(group.index(s) + 1) % len(group)]
            a, b = out[("gamma", s, 0)], out[("gamma", other, 0)]
            out[("commutator", s)] = (API.symbol_compose(a, b).entries
                                      - API.symbol_compose(b, a).entries)
        return ops, out

    def check(self, state, out):
        checks = []
        for s, sweep in enumerate(state["sweeps"]):
            label = f"n={sweep['n']} m={sweep['m']} {sweep['kind']}"
            for i, xi in enumerate(sweep["xis"]):
                checks += self._matrix_checks(f"gamma {label} xi={xi.tolist()}", sweep["kind"],
                                              out[("gamma", s, i)].entries)
            direct = out[("sigma", s)].entries
            via = API.sigma_from_gamma(sweep["table"], sweep["g"], sweep["eta"],
                                       route="via-gamma").entries
            checks.append(Check(f"sigma {label} direct vs via-gamma",
                                float(np.max(np.abs(direct - via))) <= 1e-9))
            checks += self._matrix_checks(f"sigma {label}", sweep["kind"], direct)
            comm = out[("commutator", s)]
            checks.append(Check(f"commutator {label} finite, anti-Hermitian",
                                bool(np.all(np.isfinite(comm)))
                                and _hermitian_gap(1j * comm) <= 1e-10))
        bytes_out = 0
        for c, run in enumerate(state["cli_runs"]):
            code = out[("cli", c)]
            checks.append(Check(f"cli {run['g']} exit code", code == 0))
            checks.append(Check(f"cli {run['g']} json matches library",
                                code == 0 and self._cli_matches(run)))
            bytes_out += run["out"].stat().st_size if run["out"].exists() else 0
        box = out[("box",)]
        if isinstance(box, str):
            checks.append(Check(f"gamma n=3 box: {box}", False, defect="b"))
        else:
            checks += self._matrix_checks("gamma n=3 box", "box", box.entries)
        return checks, {"cli_bytes_out": bytes_out}

    @staticmethod
    def _matrix_checks(label, kind, a):
        finite = bool(np.all(np.isfinite(a)))
        checks = [Check(f"{label} finite, Hermitian", finite and _hermitian_gap(a) <= 1e-12)]
        if kind == "const":
            checks.append(Check(f"{label} equals I",
                                finite and float(np.max(np.abs(a - np.eye(len(a))))) <= 1e-10))
        if kind in ("box", "gauss-poly"):
            checks.append(Check(f"{label} PSD",
                                finite and float(np.linalg.eigvalsh(a)[0]) >= -1e-9))
        return checks

    @staticmethod
    def _cli_matches(run):
        payload = json.loads(run["out"].read_text(encoding="utf-8"))
        table = API.build_index_table(run["n"], run["m"])
        for value, matrix in zip(payload["xi"], payload["matrices"]):
            entries = API.gamma_toeplitz(table, run["symbol"], np.full(run["n"], value)).entries
            got = np.asarray(matrix)
            if not (np.array_equal(got[..., 0], entries.real)
                    and np.array_equal(got[..., 1], entries.imag)):
                return False
        return len(payload["matrices"]) == 64


# ---------------------------------------------------------------------------
# fiber-kernel
# ---------------------------------------------------------------------------

def _points(rng, count, n):
    """Complex points with coordinates in the square [-1, 1]^2 / sqrt(n)."""
    return (rng.uniform(-1, 1, (count, n)) + 1j * rng.uniform(-1, 1, (count, n))) / math.sqrt(n)


def _kernel_section(spec, y):
    """The Fock kernel section K_z with z = i y, as a function of w."""
    z = 1j * np.asarray(y)
    return API.fock_function(lambda w: API.kernel_F(spec, z, w))


class FiberKernel(Workload):
    """Kernel batches and R_F_apply of kernel sections over xi grids.

    kernels works on large batches here (verify gives it 20 pairs at a
    time); 4-D tensor_grid, spectral and transforms do their work here too.
    ratpoly, basis_oracle and symbols do none.
    """

    # (n, m, pairs per batch, Gram points per batch)
    BATCHES = ((1, 3, 150_000, 300), (2, 4, 100_000, 300), (5, 5, 15_000, 150))
    BATCHES_PER_SHAPE = 8
    # (n, m, xi box half-width, xi points)
    R_F = ((1, 3, 8.0, 64), (2, 3, 4.0, 32))
    R_F_BOUND = 1e-7
    # Known defect (a) covers misses up to this error only.  At the commit
    # that added the benchmark the worst miss over seeds 1-60 was 5.8e-3
    # (6.1e-5 at n = 1), while most images have a largest component
    # above 5e-2, so an R_F_apply returning zeros fails here.  A larger or
    # non-finite error is a failure of its own.
    R_F_DEFECT_CEILING = 5e-2

    def setup(self, seed, out_dir):
        rng = np.random.default_rng([seed, 3])
        batches = []
        for n, m, pairs, points in self.BATCHES:
            spec = API.KernelSpec(n, m, 1.0)
            API.build_index_table(n, m)
            batches += [dict(spec=spec, z=_points(rng, pairs, n), w=_points(rng, pairs, n),
                             gram=_points(rng, points, n))
                        for _ in range(self.BATCHES_PER_SHAPE)]
        r_f = []
        for n, m, half, count in self.R_F:
            spec = API.KernelSpec(n, m, 1.0)
            for xi in rng.uniform(-half, half, (count, n)):
                y = rng.uniform(-1.0, 1.0, n)
                r_f.append(dict(spec=spec, y=y, xi=xi, f=_kernel_section(spec, y)))
        entries = []
        for i, b in enumerate(batches):
            at, spec, z, w = (i + 0.5) / len(batches), b["spec"], b["z"], b["w"]
            entries += [
                (at, ("F", i), "kernel", _api("kernel_F"), (spec, z, w), {}),
                (at, ("poly", i), "kernel", _api("kernel_F_products"), (spec, z, w),
                 {"form": "polynomials"}),
                (at, ("func", i), "kernel", _api("kernel_F_products"), (spec, z, w),
                 {"form": "functions"}),
                (at, ("gram", i), "kernel", _api("kernel_F_gram"), (spec, b["gram"]), {}),
            ]
        entries += [((i + 0.5) / len(r_f), ("R_F", i), "R_F_apply", _api("R_F_apply"),
                     (op["spec"], op["f"], op["xi"]), {})
                    for i, op in enumerate(r_f)]
        API.R_F_apply(r_f[0]["spec"], r_f[0]["f"], r_f[0]["xi"])
        API.kernel_F_products(batches[0]["spec"], batches[0]["z"][:10], batches[0]["w"][:10])
        return {"batches": batches, "r_f": r_f, "schedule": _schedule(entries)}

    def check(self, state, out):
        checks = []
        for i, b in enumerate(state["batches"]):
            label = f"batch {i} n={b['spec'].n} m={b['spec'].m}"
            exact = out[("F", i)]
            scale = float(np.max(np.abs(exact)))
            for form in ("poly", "func"):
                gap = float(np.max(np.abs(out[(form, i)] - exact))) / scale
                checks.append(Check(f"{label} products ({form}) vs kernel_F",
                                    bool(np.isfinite(gap)) and gap <= 1e-11))
            gram = out[("gram", i)]
            checks.append(Check(f"{label} Gram Hermitian",
                                bool(np.all(np.isfinite(gram)))
                                and _hermitian_gap(gram) <= 1e-12))
        errors = []
        for i, op in enumerate(state["r_f"]):
            image = API.R_F_kernel_image(op["spec"], op["y"], op["xi"])
            err = float(np.max(np.abs(out[("R_F", i)].components - image.components)))
            errors.append(err)
            known = math.isfinite(err) and err <= self.R_F_DEFECT_CEILING
            checks.append(Check(f"R_F_apply n={op['spec'].n} xi={op['xi'].tolist()} "
                                f"error {err:.3g}", err <= self.R_F_BOUND,
                                defect="a" if known else None))
        # np.max keeps a NaN, where max() would drop it.
        return checks, {"R_F_max_abs_err": float(np.max(errors))}


WORKLOADS = {"verify": Verify, "symbol-sweep": SymbolSweep, "fiber-kernel": FiberKernel}
