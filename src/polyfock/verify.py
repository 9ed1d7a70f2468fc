"""Cross-verification suites pairing closed forms with independent oracles.

Each suite re-derives a family of identities by a route that shares no code
with the closed forms it checks: exact rational polynomial expansion for
the Laguerre identities, moment-based Gram-Schmidt for the kernel, tensor
Gauss-Hermite quadrature for everything integral.  Tolerances are per-suite
constants (see ``TOLERANCES``); the identity suites are exact, the float
suites sit 2-4 decades above observed double-precision error.  The original
computer-algebra versions of these checks ran symbolically (identities, the
reproducing property) or in extended precision (kernel-vs-basis to 1e-15 at
truncation 128); the desk-scale substitutes here are documented next to
each suite.

Cases inside a suite are independent and pure.  They run one after
another in the calling thread (the work holds the interpreter lock, so a
thread pool would not overlap it); reports are sorted by case id and are
deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, asdict, field
from fractions import Fraction
from itertools import product as cartesian
from typing import Callable

import numpy as np

from .basis_oracle import kernel_via_basis
from .kernels import KernelSpec, kernel_F, kernel_F_products
from .multiindex import _is_integer, build_index_table
from .orthopoly import (
    check_laguerre_decomposition,
    check_laguerre_of_sum,
    check_laguerre_telescoping,
    hermite_fn,
    laguerre_fn,
)
from .quadrature import (
    check_rule_budget,
    default_order,
    fourier_1d_gaussian_type,
    gaussian_mean_axes,
    tensor_grid,
)
from .spectral import L_closed, L_via_fourier

SUITES = ("laguerre", "kernel-basis", "reproducing", "sum-products",
          "fourier-laguerre", "fourier-kernel")

# Acceptance tolerances per suite.  "laguerre" is exact rational arithmetic
# (tolerance 0); "reproducing" uses 1e-7 for the 4D integrals (n <= 2) and
# the relaxed 6D value for n = 3.
TOLERANCES = {
    "laguerre": 0.0,
    "kernel-basis": 1e-10,
    "reproducing": 1e-7,
    "reproducing-6d": 1e-5,
    "sum-products": 1e-11,
    "fourier-laguerre": 1e-8,
    "fourier-kernel": 1e-8,
}


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs shared by all suites; None fields fall back to suite defaults."""

    n_max: int | None = None
    m_max: int | None = None
    p_max: int | None = None
    alpha: float = 1.0
    order: int | None = None
    seed: int = 7


@dataclass(frozen=True)
class CaseResult:
    id: str
    max_error: float
    tolerance: float
    passed: bool
    # Wall time of the case; not part of the result, so equal runs compare equal.
    elapsed_seconds: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    passed: bool
    cases: tuple[CaseResult, ...]
    elapsed_seconds: float
    params: dict
    suites: tuple["VerificationReport", ...] = ()

    def to_dict(self) -> dict:
        out = {
            "suite": self.suite,
            "passed": self.passed,
            "elapsed_seconds": self.elapsed_seconds,
            "params": dict(self.params),
            "cases": [asdict(c) for c in self.cases],
        }
        if self.suites:
            out["suites"] = [s.to_dict() for s in self.suites]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "VerificationReport":
        return cls(
            suite=data["suite"],
            passed=data["passed"],
            cases=tuple(CaseResult(**c) for c in data["cases"]),
            elapsed_seconds=data["elapsed_seconds"],
            params=dict(data["params"]),
            suites=tuple(cls.from_dict(s) for s in data.get("suites", ())),
        )


_Jobs = list[tuple[str, Callable[[], float]]]


def _resolve(suite: str, config: SuiteConfig) -> dict:
    for key in ("n_max", "m_max", "p_max", "order"):
        given = getattr(config, key)
        if given is not None and not _is_integer(given):
            raise TypeError(f"{suite}: {key} must be an integer, got {given!r}")
    if not _is_integer(config.seed):
        raise TypeError(f"{suite}: seed must be an integer, got {config.seed!r}")
    try:
        KernelSpec(1, 1, config.alpha)
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"{suite}: {exc}") from None
    params = {}
    for key, (default, cap) in _SUITE_TABLE[suite][1].items():
        given = getattr(config, key)
        params[key] = default if given is None else given
        if params[key] < (0 if key == "p_max" else 1):
            raise ValueError(f"{suite}: {key} = {params[key]} is below the minimum")
        if params[key] > cap:
            raise ValueError(f"{suite}: {key} = {params[key]} exceeds supported limit {cap}")
    params["alpha"] = config.alpha
    params["seed"] = config.seed
    if config.order is not None:
        params["order"] = config.order
    return params


def _run_cases(suite: str, jobs: _Jobs) -> tuple[CaseResult, ...]:
    results = []
    for case_id, fn in jobs:
        t0 = time.perf_counter()
        err = float(fn())
        elapsed = time.perf_counter() - t0
        tol = TOLERANCES["reproducing-6d" if suite == "reproducing" and "n=3" in case_id
                         else suite]
        results.append(CaseResult(id=case_id, max_error=err, tolerance=tol,
                                  passed=bool(err <= tol), elapsed_seconds=elapsed))
    return tuple(sorted(results, key=lambda c: c.id))


def _batch_error(got, expected) -> float:
    """max |got - expected| / max |expected| over a batch of values.

    Relative to the batch's largest |expected|: a pointwise ratio turns
    round-off at a sampled near-zero of the expected values into error.
    """
    got, expected = np.asarray(got), np.asarray(expected)
    return float(np.max(np.abs(got - expected)) / np.max(np.abs(expected)))


# ---------------------------------------------------------------------------
# suite: laguerre  (exact identities)
# ---------------------------------------------------------------------------

def _laguerre_jobs(params: dict) -> _Jobs:
    """Exact decomposition, sum, and telescoping identities over Q."""
    n_max, p_max = params["n_max"], params["p_max"]
    shifts = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3))

    jobs = []
    for n, p in cartesian(range(1, n_max + 1), range(p_max + 1)):
        def job(n=n, p=p) -> float:
            ok, count = check_laguerre_decomposition(n, p)
            return 0.0 if ok and count == math.comb(n + p, n) else 1.0
        jobs.append((f"decomposition n={n} p={p:02d}", job))
    for a, b in cartesian(shifts, shifts):
        def job(a=a, b=b, p=p_max) -> float:
            return 0.0 if all(check_laguerre_of_sum(a, b, p) for p in range(p + 1)) else 1.0
        jobs.append((f"laguerre-of-sum a={a} b={b}", job))
    for a in shifts:
        def job(a=a, p=p_max) -> float:
            return 0.0 if all(check_laguerre_telescoping(a, p) for p in range(p + 1)) else 1.0
        jobs.append((f"telescoping a={a}", job))
    return jobs


# ---------------------------------------------------------------------------
# suite: kernel-basis  (closed form vs Gram-Schmidt oracle)
# ---------------------------------------------------------------------------

def _sample_disc(rng: np.random.Generator, count: int, n: int,
                 lo: float, hi: float) -> np.ndarray:
    """Random complex points with every coordinate modulus in [lo, hi]/sqrt(n)."""
    radius = rng.uniform(lo, hi, (count, n)) / math.sqrt(n)
    phase = rng.uniform(0.0, 2 * math.pi, (count, n))
    return radius * np.exp(1j * phase)


def _kernel_basis_jobs(params: dict) -> _Jobs:
    alpha = params["alpha"]

    jobs = []
    for n, m in cartesian(range(1, params["n_max"] + 1), range(1, params["m_max"] + 1)):
        def job(n=n, m=m) -> float:
            rng = np.random.default_rng([params["seed"], n, m])
            z = _sample_disc(rng, 20, n, 0.05, 0.45)
            w = _sample_disc(rng, 20, n, 0.05, 0.45)
            spec = KernelSpec(n, m, alpha)
            exact = kernel_F(spec, z, w)
            series = kernel_via_basis(alpha, n, m, params["p_max"], z, w)
            return float(np.max(np.abs(series - exact) / np.abs(exact)))
        jobs.append((f"kernel-basis n={n} m={m}", job))
    return jobs


# ---------------------------------------------------------------------------
# suite: reproducing  (quadrature of f against the kernel section)
# ---------------------------------------------------------------------------

# Largest block of nodes the reproducing oracle evaluates kernel_F on at once.
_BLOCK_NODES = 1 << 15


def _check_reproducing_budget(n: int, order: int | None) -> None:
    """Refuse an order^{2n} Gaussian-mean rule over the budget at 2n + 1 words per node.

    The oracle never builds the rule, but it evaluates kernel_F at every
    node, so the rule's size still bounds its run time.
    """
    size = default_order(2 * n) if order is None else order
    check_rule_budget([size] * (2 * n), 2 * n + 1)


def _coordinate_factors(x_axis, y_axis, p_bound: int, m: int) -> np.ndarray:
    """F[a, b, i, j] = wx_i wy_j w^a conj(w)^b at w = x_i + i y_j, a <= p_bound, b <= m - 1.

    ``x_axis`` and ``y_axis`` are the (nodes, weights) rules of the real and
    imaginary part of one coordinate.
    """
    (x, wx), (y, wy) = x_axis, y_axis
    w = x[:, None] + 1j * y[None, :]
    powers = w ** np.arange(p_bound + 1)[:, None, None]
    conj_powers = np.conj(w) ** np.arange(m)[:, None, None]
    return powers[:, None] * conj_powers[None, :] * np.outer(wx, wy)


def _reproducing_moments(spec: KernelSpec, z: np.ndarray, p_bound: int,
                         order: int | None, tables=None) -> np.ndarray:
    """Gaussian means of conj(K_z(w)) w^p conj(w)^q for |p| <= p_bound, |q| <= m - 1.

    Rows follow build_index_table(n, p_bound + 1), columns
    build_index_table(n, m).  Only kernel_F is not a product over the
    coordinate pairs (x_r, y_r) of the order^{2n} Gaussian-mean rule, so
    the rule is never built: the grid is cut into blocks of at most
    _BLOCK_NODES nodes by fixing its leading x axes, conj(kernel_F) is
    evaluated once per block, and each coordinate pair is contracted
    against its factor table F_r (a fixed x_r against its slice of F_r).
    The block results, indexed (a_1, b_1, ..., a_n, b_n), are summed and
    the (p, q) entries read out, by the two ``tables`` if given.
    """
    n = spec.n
    _check_reproducing_budget(n, order)
    axes = gaussian_mean_axes(np.concatenate((np.real(z), np.imag(z))) / 2, spec.alpha, order)
    factors = [_coordinate_factors(axes[r], axes[n + r], p_bound, spec.m) for r in range(n)]
    xs, ys = [x for x, _ in axes[:n]], [y for y, _ in axes[n:]]

    sizes = [len(x) for x, _ in axes]
    fixed = 0
    while fixed < n and math.prod(sizes[fixed:]) > _BLOCK_NODES:
        fixed += 1
    free = 2 * n - fixed

    def along(values, axis):
        return values.reshape([-1 if a == axis else 1 for a in range(free)])

    acc = 0.0
    for lead in np.ndindex(*sizes[:fixed]):
        # Block axes: the free x axes x_fixed..x_{n-1}, then y_0..y_{n-1}.
        parts = [(xs[r][lead[r]] if r < fixed else along(xs[r], r - fixed))
                 + 1j * along(ys[r], n - fixed + r) for r in range(n)]
        w = np.stack(np.broadcast_arrays(*parts), axis=-1)
        cube = np.conj(kernel_F(spec, z, w))
        for r in range(n):
            # Each contraction drops the pair's axes and appends (a_r, b_r).
            if r < fixed:
                cube = np.tensordot(cube, factors[r][:, :, lead[r], :], axes=([n - fixed], [2]))
            else:
                cube = np.tensordot(cube, factors[r], axes=([0, n - r], [2, 3]))
        acc = acc + cube

    ps, qs = (t.array for t in tables or (build_index_table(n, p_bound + 1),
                                          build_index_table(n, spec.m)))
    return acc[tuple(k for r in range(n) for k in (ps[:, r, None], qs[None, :, r]))]


def _reproducing_error(n: int, m: int, alpha: float, p_bound: int,
                       z: np.ndarray, order: int | None) -> float:
    """Max relative error of <w^p conj(w)^q, K_z> = z^p conj(z)^q over the range.

    The left side is :func:`_reproducing_moments`, the order^{2n}
    Gaussian-mean rule streamed in blocks and contracted per coordinate.
    """
    tables = build_index_table(n, p_bound + 1), build_index_table(n, m)
    moments = _reproducing_moments(KernelSpec(n, m, alpha), z, p_bound, order, tables)
    p_exps, q_exps = (table.array for table in tables)
    expected = (np.prod(z ** p_exps, axis=1)[:, None]
                * np.prod(np.conj(z) ** q_exps, axis=1)[None, :])
    return float(np.max(np.abs(moments - expected) / np.abs(expected)))


def _reproducing_jobs(params: dict) -> _Jobs:
    alpha = params["alpha"]
    order = params.get("order")

    # Every case's rule is checked before the first case runs.
    for n in range(1, params["n_max"] + 1):
        _check_reproducing_budget(n, order)

    jobs = []
    for n in range(1, params["n_max"] + 1):
        p_bound = params["p_max"] if n <= 2 else min(params["p_max"], 2)
        for m in range(1, params["m_max"] + 1):
            def job(n=n, m=m, p_bound=p_bound) -> float:
                rng = np.random.default_rng([params["seed"], n, m])
                z = _sample_disc(rng, 1, n, 0.35 * math.sqrt(n), 0.75 * math.sqrt(n))[0]
                return _reproducing_error(n, m, alpha, p_bound, z, order)
            jobs.append((f"reproducing n={n} m={m}", job))
    return jobs


# ---------------------------------------------------------------------------
# suite: sum-products  (kernel vs per-coordinate product decompositions)
# ---------------------------------------------------------------------------

def _sum_products_jobs(params: dict) -> _Jobs:
    alpha = params["alpha"]

    jobs = []
    for n, m in cartesian(range(1, params["n_max"] + 1), range(1, params["m_max"] + 1)):
        for form in ("polynomials", "functions"):
            def job(n=n, m=m, form=form) -> float:
                rng = np.random.default_rng([params["seed"], n, m])
                spec = KernelSpec(n, m, alpha)
                z = rng.uniform(-1, 1, (50, n)) + 1j * rng.uniform(-1, 1, (50, n))
                w = rng.uniform(-1, 1, (50, n)) + 1j * rng.uniform(-1, 1, (50, n))
                exact = kernel_F(spec, z, w)
                return _batch_error(kernel_F_products(spec, z, w, form=form), exact)
            jobs.append((f"sum-products n={n} m={m} form={form}", job))
    return jobs


# ---------------------------------------------------------------------------
# suite: fourier-laguerre  (1D Fourier transform of Laguerre functions)
# ---------------------------------------------------------------------------

def _fourier_laguerre_jobs(params: dict) -> _Jobs:
    order = params.get("order", 64)
    a_grid = np.array([0.0, 0.4, 1.0, 2.2])
    xi_grid = np.linspace(-6.0, 6.0, 13)
    u_grid = np.array([0.0, 0.3, 1.1, 2.4])

    jobs = []
    for p in range(params["p_max"] + 1):
        def forward(p=p) -> float:
            closed = [math.sqrt(math.pi)
                      * hermite_fn(p, (xi_grid + a) / math.sqrt(2.0))
                      * hermite_fn(p, (xi_grid - a) / math.sqrt(2.0))
                      for a in a_grid]
            quad = [[fourier_1d_gaussian_type(lambda u: laguerre_fn(p, u * u + a * a),
                                              xi, order)
                     for xi in xi_grid]
                    for a in a_grid]
            return _batch_error(quad, closed)
        jobs.append((f"fourier-laguerre forward p={p:02d}", forward))

        def inverse(p=p) -> float:
            # ell_p(u^2 + a^2) = 2^{-1/2} integral e^{i u xi} psi_p((xi+a)/sqrt2) psi_p((xi-a)/sqrt2) dxi
            grid = tensor_grid(1, order, center=0.0, scale=math.sqrt(2.0))
            xi = grid.nodes[:, 0]
            quad, closed = [], []
            for a in a_grid:
                pair = (hermite_fn(p, (xi + a) / math.sqrt(2.0))
                        * hermite_fn(p, (xi - a) / math.sqrt(2.0)))
                for u in u_grid:
                    quad.append(np.sum(grid.weights * pair * np.exp(1j * u * xi)) / math.sqrt(2.0))
                    closed.append(laguerre_fn(p, u * u + a * a))
            return _batch_error(quad, closed)
        jobs.append((f"fourier-laguerre inverse p={p:02d}", inverse))
    return jobs


# ---------------------------------------------------------------------------
# suite: fourier-kernel  (horizontal Fourier transform of the kernel)
# ---------------------------------------------------------------------------

def _fourier_kernel_jobs(params: dict) -> _Jobs:
    order = params.get("order")

    jobs = []
    for n, m in cartesian(range(1, params["n_max"] + 1), range(1, params["m_max"] + 1)):
        def job(n=n, m=m) -> float:
            rng = np.random.default_rng([params["seed"], n, m])
            table = build_index_table(n, m)
            quad, closed = [], []
            for _ in range(20):
                xi = rng.uniform(-1.5, 1.5, n)
                y = rng.uniform(-1.0, 1.0, n)
                v = rng.uniform(-1.0, 1.0, n)
                closed.append(complex(L_closed(table, xi, y, v)))
                quad.append(L_via_fourier(table, xi, y, v, order=order))
            return _batch_error(quad, closed)
        jobs.append((f"fourier-kernel n={n} m={m}", job))
    return jobs


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# One entry per suite: its job-list builder, params -> [(case id, job)],
# and {param: (default, cap)}.  Beyond the caps the runtimes and
# conditioning are untested, so configs are rejected rather than run.
_SUITE_TABLE: dict[str, tuple[Callable[[dict], _Jobs], dict]] = {
    "laguerre": (_laguerre_jobs, dict(n_max=(8, 10), p_max=(8, 12))),
    "kernel-basis": (_kernel_basis_jobs, dict(n_max=(3, 3), m_max=(3, 4), p_max=(64, 128))),
    "reproducing": (_reproducing_jobs, dict(n_max=(3, 3), m_max=(3, 3), p_max=(5, 6))),
    "sum-products": (_sum_products_jobs, dict(n_max=(5, 6), m_max=(5, 6))),
    "fourier-laguerre": (_fourier_laguerre_jobs, dict(p_max=(10, 40))),
    "fourier-kernel": (_fourier_kernel_jobs, dict(n_max=(2, 2), m_max=(4, 5))),
}


def run_suite(name: str, config: SuiteConfig | None = None) -> VerificationReport:
    """Run one named suite, or all of them under ``name='all'``.

    A suite's cases take its ``TOLERANCES`` entry, except the n = 3
    reproducing cases, which take ``reproducing-6d``.  The 'all' report
    nests the individual suite reports and passes iff every one of them
    does.
    """
    config = config or SuiteConfig()
    t0 = time.perf_counter()
    if name == "all":
        reports = tuple(run_suite(s, config) for s in SUITES)
        return VerificationReport(
            suite="all",
            passed=all(r.passed for r in reports),
            cases=(),
            elapsed_seconds=round(time.perf_counter() - t0, 3),
            params={"seed": config.seed, "alpha": config.alpha},
            suites=reports,
        )
    if name not in _SUITE_TABLE:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES + ('all',)}")
    params = _resolve(name, config)
    cases = _run_cases(name, _SUITE_TABLE[name][0](params))
    return VerificationReport(
        suite=name,
        passed=all(c.passed for c in cases),
        cases=cases,
        elapsed_seconds=round(time.perf_counter() - t0, 3),
        params=params,
    )
