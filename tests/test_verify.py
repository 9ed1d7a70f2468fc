"""Tests for the verification-suite runner and its reports."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import polyfock.verify as verify
from polyfock.multiindex import build_index_table
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


def test_suite_table_matches_suites_and_tolerances():
    assert tuple(verify._SUITE_TABLE) == SUITES
    assert set(TOLERANCES) == set(SUITES) | {"reproducing-6d"}
    for name, (_, table) in verify._SUITE_TABLE.items():
        for key, (default, cap) in table.items():
            assert getattr(SuiteConfig(), key) is None, (name, key)
            assert (0 if key == "p_max" else 1) <= default <= cap, (name, key)


def test_all_aggregates_nested_reports(monkeypatch):
    def stub(*errors):
        return (lambda params: [(f"case {i}", lambda e=e: e) for i, e in enumerate(errors)], {})

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


@pytest.mark.parametrize("n, order, fixed", [(1, 8, 0), (1, 8, 1), (2, 6, 0), (2, 6, 1), (2, 6, 2)])
def test_reproducing_moments_match_the_materialized_rule(n, order, fixed, monkeypatch):
    # Blocks of order^{2n - fixed} nodes fix the first `fixed` x axes, so
    # the fixed-axis and the free-axis contractions are both exercised.
    monkeypatch.setattr(verify, "_BLOCK_NODES", order ** (2 * n - fixed))
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
    assert error <= TOLERANCES["reproducing-6d"]
    assert peak < 16 * 2**20


def test_reproducing_shares_no_product_route_with_the_kernel(monkeypatch):
    import polyfock.kernels as kernels

    def fail(*args, **kwargs):
        raise AssertionError("the reproducing oracle reached a product route")

    for module in (verify, kernels):
        monkeypatch.setattr(module, "kernel_F_products", fail)
        monkeypatch.setattr(module, "index_products", fail, raising=False)
    report = run_suite("reproducing", SuiteConfig(n_max=2))
    assert report.passed
    assert len(report.cases) == 6


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

    monkeypatch.setitem(verify._SUITE_TABLE, suite, (fail, verify._SUITE_TABLE[suite][1]))
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

    monkeypatch.setitem(verify._SUITE_TABLE, suite, (fail, verify._SUITE_TABLE[suite][1]))
    with pytest.raises(error, match=rf"^{suite}: {field} {message}"):
        run_suite(suite, SuiteConfig(**{field: value}))
