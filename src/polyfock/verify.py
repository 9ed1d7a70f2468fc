"""Cross-verification suites pairing closed forms with independent oracles.

Each suite re-derives a family of identities by a route that shares no code
with the closed forms it checks: exact rational polynomial expansion for
the Laguerre identities, moment-based Gram-Schmidt for the kernel,
streamed Gaussian-mean and Gauss-Hermite rules, Legendre panels at jumps,
for everything integral.  Each suite is one :class:`Suite` row of
``_SUITE_TABLE``: its jobs, its tolerance (exact for the identities and
2-4 decades above observed double-precision error for the float suites),
the sizes and orders it reads, and the names of the closed form and the
oracle its jobs call.  The tests trace each float suite's own run through
those names to check that the two sides share no code, and patch faults
into the closed form through them.  The original
computer-algebra versions of these checks ran symbolically (identities, the
reproducing property) or in extended precision (kernel-vs-basis to 1e-15 at
truncation 128); the desk-scale substitutes here are documented next to
each suite.

Cases inside a suite are independent and pure, with one exception: the
laguerre decomposition cases of one n read a table of per-degree results
that the first of them to run builds, once per ``run_suite`` call.  Each
still compares only its own degree, and its result does not depend on
which case ran first.  Cases run one after another in the calling thread
(the work holds the interpreter lock, so a thread pool would not overlap
it); reports are sorted by case id and are deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, asdict, field, replace
from fractions import Fraction
from itertools import product as cartesian
from typing import Callable, NamedTuple

import numpy as np

from .basis_oracle import kernel_via_basis
from .kernels import KernelSpec, kernel_F, kernel_F_products
from .multiindex import _integer, build_index_table
from .orthopoly import (
    _decomposition_degrees,
    # Unused here (the decomposition cases read one build per n), but kept
    # as a name of this module: perfbench/layers.py wraps it.
    check_laguerre_decomposition,
    check_laguerre_of_sum,
    check_laguerre_telescoping,
    hermite_fn,
    laguerre_fn,
)
from .quadrature import (
    FIBER_ORDER,
    MAX_ORDER,
    check_rule_budget,
    default_order,
    fourier_1d_gaussian_type,
    gaussian_mean_axes,
    stream_pairs,
    tensor_grid,
)
from .spectral import L_closed, L_via_fourier


@dataclass(frozen=True)
class SuiteConfig:
    """Run options; a None size or order takes the suite's default (see run_suite)."""

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


# Lowest value of every size or order a suite may read.
_LOWEST = {"n_max": 1, "m_max": 1, "p_max": 0, "order": 1}


def _unread(suite: str) -> list[str]:
    return [key for key in _LOWEST if key not in _SUITE_TABLE[suite].domain]


def _resolve(suite: str, config: SuiteConfig) -> dict:
    for key in _unread(suite):
        if getattr(config, key) is not None:
            raise ValueError(f"{suite}: the suite takes no {key}, got {getattr(config, key)}")
    params = {}
    for key, (default, cap) in _SUITE_TABLE[suite].domain.items():
        got = getattr(config, key)
        params[key] = default if got is None else _integer(got, f"{suite}: {key}", _LOWEST[key])
        if got is not None and params[key] > cap:
            raise ValueError(f"{suite}: {key} = {params[key]} exceeds supported limit {cap}")
    seed = _integer(config.seed, f"{suite}: seed")
    try:
        KernelSpec(1, 1, config.alpha)
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"{suite}: {exc}") from None
    return {**params, "alpha": config.alpha, "seed": seed}


def _run_cases(jobs: _Jobs, tol: float) -> tuple[CaseResult, ...]:
    results = []
    for case_id, fn in jobs:
        t0 = time.perf_counter()
        err = float(fn())
        elapsed = time.perf_counter() - t0
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
    """Exact decomposition, sum, and telescoping identities over Q.

    Every degree of an identity comes from one build: a laguerre-of-sum
    or telescoping job checks all degrees <= p_max in one call, and the
    first decomposition case of each n fills that n's entry of
    ``degrees`` with the per-degree results, which the other cases of n
    read.  The table lives as long as this run's jobs.
    """
    n_max, p_max = params["n_max"], params["p_max"]
    shifts = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3))
    degrees: dict[int, list[tuple[bool, int]]] = {}

    jobs = []
    for n, p in cartesian(range(1, n_max + 1), range(p_max + 1)):
        def job(n=n, p=p) -> float:
            if n not in degrees:
                degrees[n] = _decomposition_degrees(n, p_max)
            ok, count = degrees[n][p]
            return 0.0 if ok and count == math.comb(n + p, n) else 1.0
        jobs.append((f"decomposition n={n} p={p:02d}", job))
    for a, b in cartesian(shifts, shifts):
        def job(a=a, b=b) -> float:
            return 0.0 if check_laguerre_of_sum(a, b, p_max) else 1.0
        jobs.append((f"laguerre-of-sum a={a} b={b}", job))
    for a in shifts:
        def job(a=a) -> float:
            return 0.0 if check_laguerre_telescoping(a, p_max) else 1.0
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
    the rule is streamed by :func:`stream_pairs`: conj(kernel_F) is
    evaluated once per block and each coordinate pair is contracted
    against its factor table F_r.  The sum, indexed (a_1, b_1, ..., a_n,
    b_n), is read out at the (p, q) entries, by the two ``tables`` if given.
    """
    n = spec.n
    _check_reproducing_budget(n, order)
    axes = gaussian_mean_axes(np.concatenate((np.real(z), np.imag(z))) / 2, spec.alpha, order)
    factors = [_coordinate_factors(axes[r], axes[n + r], p_bound, spec.m) for r in range(n)]
    acc = stream_pairs(lambda w: np.conj(kernel_F(spec, z, w)),
                       [x for x, _ in axes[:n]], [y for y, _ in axes[n:]], factors)
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
    alpha, order = params["alpha"], params["order"]

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
    a_grid = np.array([0.0, 0.4, 1.0, 2.2])
    xi_grid = np.linspace(-6.0, 6.0, 13)
    u_grid = np.array([0.0, 0.3, 1.1, 2.4])

    jobs = []
    for p in range(params["p_max"] + 1):
        order = params["order"]
        if order is None:
            # Order 64 leaves two decades of margin up to p = 12 (9.3e-11
            # forward) but misses the 1e-8 tolerance from p = 14 (2.3e-8);
            # order 128 holds 2.3e-14 up to the cap p = 40.
            order = 64 if p <= 12 else 128

        def forward(p=p, order=order) -> float:
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

        def inverse(p=p, order=order) -> float:
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
                quad.append(L_via_fourier(table, xi, y, v, order=params["order"]))
            return _batch_error(quad, closed)
        jobs.append((f"fourier-kernel n={n} m={m}", job))
    return jobs


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class Suite(NamedTuple):
    """One row of ``_SUITE_TABLE``.

    ``jobs`` maps the resolved params to [(case id, job)], and every case
    passes at ``tolerance`` (0 for the exact suites).  ``domain`` holds
    {param: (default, cap)} for each size or order the jobs read; a None
    order lets each case or rule pick its own.  Beyond the caps runtimes
    and conditioning are untested.

    ``closed`` and ``oracle`` name the attributes of this module that the
    jobs call on the two sides of the check.  A fault in a closed form is
    patched in through its name here, and the two sides share no function
    beyond the argument parsers.  ``nested`` lists the closed entries the
    oracle may call, as its integrand.  An exact suite names no sides.
    """

    jobs: Callable[[dict], _Jobs]
    tolerance: float
    domain: dict
    closed: tuple[str, ...] = ()
    oracle: tuple[str, ...] = ()
    nested: tuple[str, ...] = ()


_SUITE_TABLE: dict[str, Suite] = {
    "laguerre": Suite(_laguerre_jobs, 0.0, dict(n_max=(8, 10), p_max=(8, 12))),
    "kernel-basis": Suite(_kernel_basis_jobs, 1e-10,
                          dict(n_max=(3, 3), m_max=(3, 4), p_max=(64, 128)),
                          closed=("kernel_F",), oracle=("kernel_via_basis",)),
    "reproducing": Suite(_reproducing_jobs, 1e-7,
                         dict(n_max=(3, 3), m_max=(3, 3), p_max=(5, 6), order=(None, MAX_ORDER)),
                         closed=("kernel_F",), oracle=("_reproducing_moments",),
                         nested=("kernel_F",)),
    "sum-products": Suite(_sum_products_jobs, 1e-11, dict(n_max=(5, 6), m_max=(5, 6)),
                          closed=("kernel_F",), oracle=("kernel_F_products",)),
    "fourier-laguerre": Suite(_fourier_laguerre_jobs, 1e-8,
                              dict(p_max=(10, 40), order=(None, MAX_ORDER)),
                              closed=("hermite_fn",),
                              oracle=("laguerre_fn", "fourier_1d_gaussian_type", "tensor_grid")),
    "fourier-kernel": Suite(_fourier_kernel_jobs, 1e-8,
                            dict(n_max=(2, 2), m_max=(4, 5), order=(FIBER_ORDER, MAX_ORDER)),
                            closed=("L_closed",), oracle=("L_via_fourier",)),
}
SUITES = tuple(_SUITE_TABLE)
TOLERANCES = {name: suite.tolerance for name, suite in _SUITE_TABLE.items()}


def run_suite(name: str, config: SuiteConfig | None = None) -> VerificationReport:
    """Run one named suite, or all of them under ``name='all'``.

    A size or order outside the suite's ``_SUITE_TABLE`` row, or one the
    row does not list, raises ``ValueError`` before any job is built.
    'all' gives each suite ``config`` with the fields it does not read set
    to None, and passes iff every suite does.
    """
    config = config or SuiteConfig()
    t0 = time.perf_counter()
    if name == "all":
        reports = tuple(run_suite(s, replace(config, **dict.fromkeys(_unread(s))))
                        for s in SUITES)
        return VerificationReport(
            suite="all",
            passed=all(r.passed for r in reports),
            cases=(),
            elapsed_seconds=round(time.perf_counter() - t0, 3),
            params={"seed": reports[0].params["seed"], "alpha": config.alpha},
            suites=reports,
        )
    if name not in _SUITE_TABLE:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES + ('all',)}")
    params = _resolve(name, config)
    suite = _SUITE_TABLE[name]
    cases = _run_cases(suite.jobs(params), suite.tolerance)
    return VerificationReport(
        suite=name,
        passed=all(c.passed for c in cases),
        cases=cases,
        elapsed_seconds=round(time.perf_counter() - t0, 3),
        params=params,
    )
