"""Tests for the verification-suite runner and its reports."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import polyfock.quadrature as quadrature
import polyfock.verify as verify
from polyfock.multiindex import build_index_table
from polyfock.orthopoly import laguerre_eval
from polyfock.quadrature import gaussian_mean_rule
from polyfock.verify import (
    SUITES,
    TOLERANCES,
    SuiteConfig,
    VerificationReport,
    run_suite,
)


def test_report_json_round_trip():
    report = run_suite("sum-products", SuiteConfig(n_max=2, m_max=2))
    assert report.passed
    assert len(report.cases) == 8  # (n, m) in 2x2, two product forms each

    decoded = VerificationReport.from_dict(json.loads(json.dumps(report.to_dict())))
    assert decoded == report


def test_seed_fixes_the_sample():
    cfg = SuiteConfig(n_max=2, m_max=2, seed=123)
    first = run_suite("sum-products", cfg)
    second = run_suite("sum-products", cfg)
    assert first.cases == second.cases

    other = run_suite("sum-products", SuiteConfig(n_max=2, m_max=2, seed=124))
    assert [c.max_error for c in other.cases] != [c.max_error for c in first.cases]


def _sum_products_case(seed, case_id):
    report = run_suite("sum-products", SuiteConfig(n_max=5, m_max=2, seed=seed))
    assert len(report.cases) == 20
    return next(case for case in report.cases if case.id == case_id)


def test_sum_products_error_is_relative_to_batch_max():
    # At this seed one sampled |kernel_F| is 5e-5 where the batch's largest
    # is 50; a pointwise relative error there read 1.05e-11.
    case = _sum_products_case(94210641, "sum-products n=5 m=2 form=polynomials")
    assert case.passed
    assert case.max_error < 1e-14


def test_sum_products_still_catches_a_relative_error(monkeypatch):
    products = verify.kernel_F_products
    monkeypatch.setattr(verify, "kernel_F_products",
                        lambda *args, **kwargs: products(*args, **kwargs) * (1 + 1e-9))
    case = _sum_products_case(94210641, "sum-products n=5 m=2 form=polynomials")
    assert not case.passed
    assert case.max_error == pytest.approx(1e-9, rel=1e-3)


def _wrong_laguerre_parameter(spec, z, w):
    """e^{alpha <w, z>} L^{(n-1)}_{m-1}(alpha |w - z|^2): the kernel with the wrong parameter."""
    ip = np.sum(w * np.conj(z), axis=-1)
    d2 = np.sum(np.abs(w - z) ** 2, axis=-1)
    return np.exp(spec.alpha * ip) * laguerre_eval(spec.m - 1, spec.n - 1, spec.alpha * d2)


def _scale(s):
    return lambda closed: lambda *args, **kwargs: closed(*args, **kwargs) * (1 + s)


def _conj(closed):
    return lambda *args, **kwargs: np.conj(closed(*args, **kwargs))


def _wrong_parameter(closed):
    return _wrong_laguerre_parameter


# suite -> (a config of the smallest cases that see its faults, their number,
# {fault: (make, failing)}).  ``make`` maps the suite's closed form, read from
# verify through the row's closed name, to a faulty one, which must fail
# ``failing`` cases at seed 7.  The scale faults sit one decade above each
# tolerance; kernel-basis also has one below its tolerance.  The m = 1 cases
# cannot see the Laguerre parameter, since L^{(a)}_0 = 1 for every a.
# L_closed and hermite_fn are real, so a conjugation fault changes nothing
# there; the third fault of those suites is one they must see instead.
FAULTS = {
    "kernel-basis": (SuiteConfig(p_max=32), 9, {
        "scale 1e-12": (_scale(1e-12), 0), "scale 1e-9": (_scale(1e-9), 9),
        "conj": (_conj, 9), "L^(n-1)": (_wrong_parameter, 6)}),
    "reproducing": (SuiteConfig(n_max=2, m_max=2), 4, {
        "scale 1e-6": (_scale(1e-6), 4), "conj": (_conj, 4), "L^(n-1)": (_wrong_parameter, 2)}),
    "sum-products": (SuiteConfig(n_max=2, m_max=2), 8, {
        "scale 1e-10": (_scale(1e-10), 8), "conj": (_conj, 8), "L^(n-1)": (_wrong_parameter, 4)}),
    "fourier-kernel": (SuiteConfig(n_max=1, m_max=2), 2, {
        "scale 1e-7": (_scale(1e-7), 2), "conj": (_conj, 0),
        "-xi": (lambda L: lambda table, xi, y, v: L(table, -xi, y, v), 2)}),
    "fourier-laguerre": (SuiteConfig(p_max=1), 4, {
        "scale 1e-7": (_scale(1e-7), 4), "conj": (_conj, 0),
        "psi_(p+1)": (lambda psi: lambda p, x: psi(p + 1, x), 4)}),
}


def _assert_fault_count(suite, fault, monkeypatch):
    config, count, faults = FAULTS[suite]
    make, failing = faults[fault]
    name = verify._SUITE_TABLE[suite].closed[0]
    monkeypatch.setattr(verify, name, make(getattr(verify, name)))
    report = run_suite(suite, config)
    assert len(report.cases) == count
    assert sum(not case.passed for case in report.cases) == failing


@pytest.mark.parametrize("fault", FAULTS["kernel-basis"][2])
def test_kernel_basis_sees_faults_in_the_closed_form(fault, monkeypatch):
    _assert_fault_count("kernel-basis", fault, monkeypatch)


@pytest.mark.parametrize("suite, fault", [(suite, fault) for suite, row in FAULTS.items()
                                          if suite != "kernel-basis" for fault in row[2]])
def test_float_suites_see_faults_in_the_closed_form(suite, fault, monkeypatch):
    _assert_fault_count(suite, fault, monkeypatch)


def test_every_float_suite_has_fault_rows():
    assert set(FAULTS) == {name for name, row in verify._SUITE_TABLE.items() if row.tolerance > 0}


def test_small_exact_suite_passes():
    report = run_suite("laguerre", SuiteConfig(n_max=2, p_max=3))
    assert report.passed
    for case in report.cases:
        assert case.tolerance == 0.0
        assert case.max_error == 0.0
        assert case.passed
    ids = [c.id for c in report.cases]
    assert ids == sorted(ids)


def test_small_quadrature_suite_passes():
    report = run_suite("fourier-kernel", SuiteConfig(n_max=1, m_max=2))
    assert report.passed
    assert len(report.cases) == 2
    for case in report.cases:
        assert case.max_error < case.tolerance


def test_config_limits_rejected():
    with pytest.raises(ValueError):
        run_suite("laguerre", SuiteConfig(p_max=13))
    with pytest.raises(ValueError):
        run_suite("fourier-kernel", SuiteConfig(n_max=3))
    with pytest.raises(ValueError):
        run_suite("sum-products", SuiteConfig(m_max=0))
    with pytest.raises(ValueError):
        run_suite("spectral-gap")


def test_fourier_laguerre_rejects_order_zero():
    with pytest.raises(ValueError):
        run_suite("fourier-laguerre", SuiteConfig(order=0))


def test_fourier_laguerre_passes_at_its_p_cap():
    # At order 64 for every case, 31 of these 82 cases failed.
    report = run_suite("fourier-laguerre", SuiteConfig(p_max=40))
    assert report.passed
    assert len(report.cases) == 82
    assert report.params["order"] is None
    # The cases up to p = 12 keep order 64, bit for bit.
    low = run_suite("fourier-laguerre", SuiteConfig(p_max=12, order=64))
    assert [(c.id, c.max_error) for c in report.cases if int(c.id[-2:]) <= 12] == [
        (c.id, c.max_error) for c in low.cases]


# The sizes and orders each suite reads; every other one it refuses.
SIZES = ("n_max", "m_max", "p_max", "order")
READS = {
    "laguerre": ("n_max", "p_max"),
    "kernel-basis": ("n_max", "m_max", "p_max"),
    "reproducing": ("n_max", "m_max", "p_max", "order"),
    "sum-products": ("n_max", "m_max"),
    "fourier-laguerre": ("p_max", "order"),
    "fourier-kernel": ("n_max", "m_max", "order"),
}
LOWEST = {"n_max": 1, "m_max": 1, "p_max": 0, "order": 1}


def test_suite_table_matches_suites_and_tolerances():
    assert SUITES == tuple(READS) == tuple(verify._SUITE_TABLE)
    assert TOLERANCES == {"laguerre": 0.0, "kernel-basis": 1e-10, "reproducing": 1e-7,
                          "sum-products": 1e-11, "fourier-laguerre": 1e-8, "fourier-kernel": 1e-8}
    for name, row in verify._SUITE_TABLE.items():
        assert isinstance(row, verify.Suite)
        assert row.tolerance == TOLERANCES[name]
        assert tuple(row.domain) == READS[name]
        # a float suite names both sides of its check, an exact one neither
        assert bool(row.closed) == bool(row.oracle) == (row.tolerance > 0), name
        assert not set(row.closed) & set(row.oracle), name
        assert set(row.nested) <= set(row.closed), name
        for attr in row.closed + row.oracle:
            assert callable(getattr(verify, attr)), (name, attr)
        for key, (default, cap) in row.domain.items():
            assert getattr(SuiteConfig(), key) is None, (name, key)
            # None lets the suite's rule pick its own order
            if default is None:
                assert key == "order", name
            else:
                assert LOWEST[key] <= default <= cap, (name, key)


class _ReadRecorder(dict):
    """Params that record each key read and refuse a defaulted read."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, *args):
        raise AssertionError("a builder read a param through params.get")


@pytest.mark.parametrize("suite", SUITES)
def test_each_builder_reads_exactly_the_params_of_its_row(suite):
    row = verify._SUITE_TABLE[suite]
    params = _ReadRecorder({**{key: LOWEST[key] for key in row.domain}, "alpha": 1.0, "seed": 7})
    for _, job in row.jobs(params):
        job()
    assert params.read - {"alpha", "seed"} == set(READS[suite])


@pytest.mark.parametrize("suite, field", [(suite, field) for suite, reads in READS.items()
                                          for field in SIZES if field not in reads])
def test_a_suite_refuses_the_options_it_does_not_read(suite, field, monkeypatch):
    def fail(params):
        raise AssertionError("a job list was built")

    monkeypatch.setitem(verify._SUITE_TABLE, suite, verify._SUITE_TABLE[suite]._replace(jobs=fail))
    with pytest.raises(ValueError, match=rf"^{suite}: the suite takes no {field}, got 5$"):
        run_suite(suite, SuiteConfig(**{field: 5}))


def test_all_gives_each_suite_only_the_options_it_reads():
    report = run_suite("all", SuiteConfig(order=40, n_max=1, m_max=1, p_max=1))
    for rep in report.suites:
        assert {key: rep.params[key] for key in SIZES if key in rep.params} == {
            key: 40 if key == "order" else 1 for key in READS[rep.suite]}
    assert [r.suite for r in report.suites if "order" in r.params] == [
        "reproducing", "fourier-laguerre", "fourier-kernel"]


def test_all_aggregates_nested_reports(monkeypatch):
    def stub(*errors):
        return verify.Suite(
            lambda params: [(f"case {i}", lambda e=e: e) for i, e in enumerate(errors)], 0.0, {})

    monkeypatch.setattr(verify, "_SUITE_TABLE", {s: stub(0.0) for s in SUITES})
    report = run_suite("all")
    assert report.passed
    assert tuple(r.suite for r in report.suites) == SUITES
    assert report.cases == ()

    broken = {s: stub(0.0) for s in SUITES}
    broken[SUITES[2]] = stub(0.0, 1.0)  # one passing job, one failing job
    monkeypatch.setattr(verify, "_SUITE_TABLE", broken)
    report = run_suite("all")
    assert not report.passed
    assert [c.passed for c in report.suites[2].cases] == [True, False]
    assert all(r.passed for i, r in enumerate(report.suites) if i != 2)

    # nested reports survive serialization
    decoded = VerificationReport.from_dict(report.to_dict())
    assert decoded == report


def test_coordinate_factors_match_direct_powers():
    rng = np.random.default_rng(3)
    x_axis = (rng.normal(size=5), rng.uniform(0.1, 1.0, 5))
    y_axis = (rng.normal(size=4), rng.uniform(0.1, 1.0, 4))
    p_bound, m = 4, 3
    table = verify._coordinate_factors(x_axis, y_axis, p_bound, m)
    assert table.shape == (p_bound + 1, m, 5, 4)
    for a, b, i, j in np.ndindex(*table.shape):
        w = complex(x_axis[0][i], y_axis[0][j])
        direct = x_axis[1][i] * y_axis[1][j] * w ** a * w.conjugate() ** b
        assert abs(table[a, b, i, j] - direct) <= 1e-14 * abs(direct)


@pytest.mark.parametrize("n, order, cut", [(1, 8, 0), (1, 8, 1), (2, 6, 0), (2, 6, 1), (2, 6, 2)])
def test_reproducing_moments_match_the_materialized_rule(n, order, cut, monkeypatch):
    # At cut = 0 the rule is one whole block; at cut = k >= 1 blocks of
    # 2 order^{2n - k} nodes fix the first k - 1 x axes and cut x axis
    # k - 1 into chunks of two nodes, so whole, chunked and fixed axes are
    # all contracted.
    block_nodes = 2 * order ** (2 * n - cut) if cut else order ** (2 * n)
    monkeypatch.setattr(quadrature, "BLOCK_NODES", block_nodes)
    m, p_bound = 3, 3
    spec = verify.KernelSpec(n, m, 0.8)
    z = np.array([0.4 - 0.3j, -0.2 + 0.5j])[:n]
    moments = verify._reproducing_moments(spec, z, p_bound, order)

    nodes, weights = gaussian_mean_rule(np.concatenate((z.real, z.imag)) / 2, spec.alpha, order)
    w = nodes[:, :n] + 1j * nodes[:, n:]
    base = weights * np.conj(verify.kernel_F(spec, z, w))
    ps, qs = build_index_table(n, p_bound + 1), build_index_table(n, m)
    plain = np.array([[np.sum(base * np.prod(w ** np.array(p) * np.conj(w) ** np.array(q), axis=1))
                       for q in qs] for p in ps])
    assert moments.shape == plain.shape
    assert np.max(np.abs(moments - plain)) <= 1e-13 * np.max(np.abs(plain))


def test_reproducing_refuses_an_over_budget_order_before_any_work(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("kernel_F called before the budget check")

    monkeypatch.setattr(verify, "kernel_F", fail)
    # The n = 2 rule, 128^4 nodes at 5 words per node, is over the budget.
    with pytest.raises(ValueError, match=r"tensor rule of 268435456 nodes \(128x128x128x128\) "
                                         r"at 5 words per node"):
        run_suite("reproducing", SuiteConfig(order=128))


def test_reproducing_job_never_holds_the_full_rule():
    # The n = 3 rule has 12^6 nodes; built, it took 205 MiB.
    params = verify._resolve("reproducing", SuiteConfig())
    job = dict(verify._reproducing_jobs(params))["reproducing n=3 m=3"]
    tracemalloc.start()
    try:
        error = job()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert error <= TOLERANCES["reproducing"]
    assert peak < 16 * 2**20


def test_case_timing_round_trips_and_old_reports_load():
    report = run_suite("laguerre", SuiteConfig(n_max=1, p_max=2))
    times = [c.elapsed_seconds for c in report.cases]
    assert all(t > 0 for t in times)
    assert sum(times) <= report.elapsed_seconds + 1e-3

    data = json.loads(json.dumps(report.to_dict()))
    assert [c["elapsed_seconds"] for c in data["cases"]] == times
    decoded = VerificationReport.from_dict(data)
    assert [c.elapsed_seconds for c in decoded.cases] == times

    for case in data["cases"]:
        del case["elapsed_seconds"]
    old = VerificationReport.from_dict(data)
    assert old == report
    assert all(c.elapsed_seconds == 0.0 for c in old.cases)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_gaussian_rule_moments(n, alpha):
    # The reproducing suite's rule.  The folded weights integrate against
    # (alpha/pi)^n e^{-alpha |w|^2}: mass 1, mean 0 and E|w_r|^2 = 1/alpha,
    # at an off-centre placement.
    center = np.array([0.3, -0.35, 0.25, 0.1])[: 2 * n]
    nodes, weights = gaussian_mean_rule(center, alpha)
    w = nodes[:, :n] + 1j * nodes[:, n:]
    assert abs(np.sum(weights) - 1) <= 1e-13
    for r in range(n):
        assert abs(np.sum(weights * w[:, r])) <= 1e-13
        assert abs(np.sum(weights * np.abs(w[:, r]) ** 2) - 1 / alpha) <= 1e-13


@pytest.mark.parametrize("suite, field, value", [
    ("kernel-basis", "p_max", 2.5),
    ("laguerre", "n_max", True),
    ("sum-products", "m_max", 2.0),
    ("fourier-laguerre", "order", np.float64(32.0)),
])
def test_integer_fields_refuse_floats_and_bools(suite, field, value, monkeypatch):
    def fail(params):
        raise AssertionError("a job list was built")

    monkeypatch.setitem(verify._SUITE_TABLE, suite, verify._SUITE_TABLE[suite]._replace(jobs=fail))
    with pytest.raises(TypeError, match=rf"^{suite}: {field} must be an integer"):
        run_suite(suite, SuiteConfig(**{field: value}))


@pytest.mark.parametrize("suite, field, value, error, message", [
    ("laguerre", "alpha", math.nan, ValueError, "must be finite and positive"),
    ("kernel-basis", "alpha", -1.0, ValueError, "must be finite and positive"),
    ("reproducing", "alpha", 0, ValueError, "must be finite and positive"),
    ("sum-products", "alpha", True, TypeError, "must be a real number"),
    ("laguerre", "seed", 1.5, TypeError, "must be an integer"),
    ("fourier-kernel", "seed", True, TypeError, "must be an integer"),
    ("fourier-laguerre", "seed", None, TypeError, "must be an integer"),
])
def test_alpha_and_seed_are_checked_before_any_job(suite, field, value, error, message,
                                                   monkeypatch):
    def fail(params):
        raise AssertionError("a job list was built")

    monkeypatch.setitem(verify._SUITE_TABLE, suite, verify._SUITE_TABLE[suite]._replace(jobs=fail))
    with pytest.raises(error, match=rf"^{suite}: {field} {message}"):
        run_suite(suite, SuiteConfig(**{field: value}))


def test_numpy_integer_fields_resolve_to_python_ints():
    config = SuiteConfig(order=np.int64(16), p_max=np.int32(0), seed=np.int64(3))
    report = run_suite("fourier-laguerre", config)
    for key in ("order", "p_max", "seed"):
        assert type(report.params[key]) is int
    decoded = VerificationReport.from_dict(json.loads(json.dumps(report.to_dict())))
    assert decoded == report


@pytest.mark.parametrize("suite, field, value, message", [
    ("laguerre", "n_max", 0, "must be >= 1"),
    ("kernel-basis", "p_max", -1, "must be >= 0"),
    ("fourier-laguerre", "order", np.int64(0), "must be >= 1"),
    ("sum-products", "seed", -1, "must be >= 0"),
])
def test_integer_fields_below_their_minimum_are_refused(suite, field, value, message):
    with pytest.raises(ValueError, match=rf"^{suite}: {field} {message}"):
        run_suite(suite, SuiteConfig(**{field: value}))
