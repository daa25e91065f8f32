import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

import loadcast
from loadcast.baselines import seasonal_naive
from loadcast.evaluation import (
    REPORT_METRICS,
    SERIES_METRICS,
    aggregate_metrics,
    diebold_mariano,
    dm_decision,
    kurtosis,
    point_errors,
    skewness,
    z_critical,
)

from helpers import dm_reference, metrics_reference


# ---------------------------------------------------------------------------
# Seasonal-naive baseline
# ---------------------------------------------------------------------------

def test_seasonal_naive_repeats_the_last_twelve_months():
    history = np.arange(1.0, 31.0)
    expected = np.concatenate([np.arange(19.0, 31.0), [19.0, 20.0]])
    assert np.array_equal(seasonal_naive(history, 14), expected)
    with pytest.raises(ValueError, match="12 months"):
        seasonal_naive(history[:11], 3)


# ---------------------------------------------------------------------------
# Point errors
# ---------------------------------------------------------------------------

def test_point_error_hand_values():
    assert point_errors([100.0], [90.0])[0] == 10.0  # positive = underprediction
    scores = aggregate_metrics([[100.0]], [[[90.0]]])
    assert scores["mape"][0, 0] == 10.0
    assert scores["rmse"][0, 0] == 10.0  # squared error 100


def test_point_error_sign_convention_overprediction():
    pe = point_errors([100.0], [110.0])
    assert pe[0] == pytest.approx(-10.0, abs=1e-14)
    assert abs(pe[0]) == pytest.approx(10.0, abs=1e-14)


def test_point_errors_zero_when_exact_and_validation():
    y = np.array([50.0, 75.0])
    assert np.array_equal(point_errors(y, y.copy()), [0.0, 0.0])
    # forecasts may carry leading (trial) axes
    assert point_errors(y, np.stack([y, 0.5 * y])).tolist() == [[0.0, 0.0], [50.0, 50.0]]
    with pytest.raises(ValueError, match="positive"):
        point_errors([0.0], [1.0])
    with pytest.raises(ValueError, match="mismatch"):
        point_errors([1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="mismatch"):
        point_errors([[1.0, 2.0]], [1.0, 2.0])


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def test_aggregate_metrics_hand_fixture():
    # APEs 1,2,3,4 percent on y=100: forecasts 99,98,97,96
    y = np.full((1, 4), 100.0)
    y_hat = np.array([[[99.0, 98.0, 97.0, 96.0]]])
    scores = aggregate_metrics(y, y_hat)
    metrics = {name: scores[name][0, 0] for name in SERIES_METRICS}
    assert metrics["mape"] == pytest.approx(2.5, abs=1e-14)
    assert metrics["medape"] == pytest.approx(2.5, abs=1e-14)
    # linear-interpolation quartiles: Q1=1.75, Q3=3.25
    assert metrics["iqr_ape"] == pytest.approx(1.5, abs=1e-14)
    assert metrics["mpe"] == pytest.approx(2.5, abs=1e-14)
    assert metrics["rmse"] == pytest.approx(np.sqrt((1 + 4 + 9 + 16) / 4), rel=1e-14)


def test_aggregate_is_unweighted_mean_over_series():
    # every series has the same number of points, as evaluation rows do, so
    # the MedAPE is what tells a mean of per-series values (3) from a pooled
    # median (2)
    y = np.full((2, 4), 100.0)
    y_hat = np.array([[[98.0, 98.0, 98.0, 98.0], [99.0, 95.0, 93.0, 97.0]]])  # MAPE 2 and 4
    scores = aggregate_metrics(y, y_hat)
    assert scores["mape"][0].tolist() == [2.0, 4.0]
    assert scores["aggregate"]["mape"][0] == pytest.approx(3.0, abs=1e-14)
    assert scores["aggregate"]["medape"][0] == pytest.approx((2.0 + 4.0) / 2, abs=1e-14)


def test_aggregate_metrics_matches_per_series_loop_bit_for_bit():
    rng = np.random.default_rng(5)
    y = np.abs(rng.normal(1000, 200, size=(9, 12))) + 5
    y_hat = y * rng.uniform(0.8, 1.2, size=(100, 9, 12))
    y_hat[3] = y  # a perfect trial: zero spread, so skewness and kurtosis read 0
    scores = aggregate_metrics(y, y_hat)
    for t, (per_series, aggregate) in enumerate(metrics_reference(y, y_hat)):
        for name in SERIES_METRICS:
            assert scores[name][t].tolist() == [m[name] for m in per_series], (t, name)
        assert {name: float(v[t]) for name, v in scores["aggregate"].items()} == aggregate, t
    # the memory layout of the inputs must not change the summation order
    fortran = aggregate_metrics(np.asfortranarray(y), np.asfortranarray(y_hat))
    for name in SERIES_METRICS:
        assert np.array_equal(fortran[name], scores[name]), name
    for name in REPORT_METRICS:
        assert np.array_equal(fortran["aggregate"][name], scores["aggregate"][name]), name


def test_trials_are_scored_independently():
    rng = np.random.default_rng(2)
    y = np.abs(rng.normal(100, 20, size=(5, 12))) + 5
    y_hat = y * rng.uniform(0.9, 1.1, size=(3, 5, 12))
    scores = aggregate_metrics(y, y_hat)
    for t in range(3):
        alone = aggregate_metrics(y, y_hat[t : t + 1])
        for name in SERIES_METRICS:
            assert np.array_equal(scores[name][t], alone[name][0])
        for name in REPORT_METRICS:
            assert scores["aggregate"][name][t] == alone["aggregate"][name][0]
    pooled = point_errors(y, y_hat[1]).ravel()
    assert scores["aggregate"]["mpe_skewness"][1] == skewness(pooled)
    assert scores["aggregate"]["mpe_kurtosis"][1] == kurtosis(pooled)


def test_perfect_forecasts_give_all_zero_metrics():
    y = np.linspace(50, 90, 6)[None]
    scores = aggregate_metrics(y, y[None].copy())
    for name in REPORT_METRICS:
        assert scores["aggregate"][name][0] == 0.0


def test_metric_scale_behaviour():
    rng = np.random.default_rng(0)
    y = np.abs(rng.normal(100, 20, size=(1, 12))) + 5
    y_hat = y * rng.uniform(0.9, 1.1, size=(1, 1, 12))
    base = aggregate_metrics(y, y_hat)
    for k in (3.7, 1000.0):
        scaled = aggregate_metrics(k * y, k * y_hat)
        for name in ("mape", "medape", "iqr_ape", "mpe"):
            assert scaled[name][0, 0] == pytest.approx(base[name][0, 0], rel=1e-12)
        assert scaled["rmse"][0, 0] == pytest.approx(k * base["rmse"][0, 0], rel=1e-12)


def test_skewness_and_kurtosis_estimators():
    rng = np.random.default_rng(1)
    symmetric = rng.normal(size=4000)
    assert abs(skewness(symmetric)) < 3 * np.sqrt(6 / 4000)
    assert kurtosis(symmetric) == pytest.approx(3.0, abs=0.35)  # non-excess convention
    right_tailed = rng.exponential(size=4000)
    assert skewness(right_tailed) > 1.0
    assert skewness(np.full(5, 2.0)) == 0.0
    assert kurtosis(np.full(5, 2.0)) == 0.0
    # along the last axis, one value per row; zero-spread rows give 0.0
    rows = np.stack([right_tailed, np.full(4000, 2.0)])
    assert skewness(rows).tolist() == [skewness(right_tailed), 0.0]
    assert kurtosis(rows).tolist() == [kurtosis(right_tailed), 0.0]


def _active_avx512_targets():
    from numpy._core import _multiarray_umath as umath

    return [target for target in umath.__cpu_dispatch__
            if (target == "X86_V4" or target.startswith("AVX512"))
            and umath.__cpu_features__.get(target)]


def test_moments_do_not_depend_on_numpy_avx512_loops():
    """A process with numpy's AVX-512 loops off, as on an AVX2-only CPU, gives
    the same skewness and kurtosis bits as this one. On an AVX-512 machine with
    every target, that is NPY_DISABLE_CPU_FEATURES=X86_V4,AVX512_ICL,AVX512_SPR."""
    targets = _active_avx512_targets()
    if not targets:
        pytest.skip("numpy runs no AVX-512 loops here, so both processes would run the same ones")
    probe = (
        "import numpy as np; from loadcast.evaluation import kurtosis, skewness; "
        "x = 5.0 * np.random.default_rng(0).standard_t(4, size=(100, 1536)) + 1.0; "
        "print(skewness(x).tobytes().hex(), kurtosis(x).tobytes().hex())"
    )
    src = str(Path(loadcast.__file__).parents[1])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=",".join(targets),
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    x = 5.0 * np.random.default_rng(0).standard_t(4, size=(100, 1536)) + 1.0
    assert out.stdout.split() == [skewness(x).tobytes().hex(), kurtosis(x).tobytes().hex()]


def test_aggregate_requires_series():
    with pytest.raises(ValueError, match="series"):
        aggregate_metrics(np.empty((0, 12)), np.empty((1, 0, 12)))
    with pytest.raises(ValueError, match="trials"):
        aggregate_metrics(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(ValueError, match="mismatch"):
        aggregate_metrics(np.ones((2, 3)), np.ones((1, 3, 3)))


# ---------------------------------------------------------------------------
# Diebold-Mariano
# ---------------------------------------------------------------------------

def test_dm_matches_bruteforce_reference_on_monte_carlo_fixtures():
    rng = np.random.default_rng(42)
    checked = 0
    for case in range(100):
        n = int(rng.integers(24, 200))
        loss_kind = "absolute" if case % 2 == 0 else "squared"
        horizon = int(rng.integers(1, 13))
        e1 = rng.normal(0, rng.uniform(0.5, 2.0), size=n)
        e2 = rng.normal(0, rng.uniform(0.5, 2.0), size=n)
        got = diebold_mariano(e1, e2, loss_kind, horizon)
        want_stat, want_degenerate = dm_reference(e1, e2, loss_kind, horizon)
        assert got.degenerate == want_degenerate
        if not want_degenerate:
            assert got.statistic == pytest.approx(want_stat, abs=1e-9)
            checked += 1
    assert checked >= 90  # degenerate draws should be rare


def test_dm_antisymmetry_is_exact():
    rng = np.random.default_rng(3)
    e1 = rng.normal(size=60)
    e2 = rng.normal(size=60)
    forward = diebold_mariano(e1, e2, "absolute", 12)
    backward = diebold_mariano(e2, e1, "absolute", 12)
    assert forward.statistic == -backward.statistic


def test_dm_degenerate_cases_are_flagged():
    e = np.random.default_rng(4).normal(size=30)
    identical = diebold_mariano(e, e.copy(), "absolute", 12)
    assert identical.degenerate and "constant" in identical.reason
    assert identical.statistic is None and identical.p_value is None

    shifted = diebold_mariano(np.full(30, 2.0), np.full(30, 1.0), "absolute", 1)
    assert shifted.degenerate  # constant nonzero differential


def test_dm_detects_clearly_worse_model():
    rng = np.random.default_rng(5)
    e1 = rng.normal(0, 2.0, size=100)  # model A has larger-magnitude errors
    e2 = rng.normal(0, 1.0, size=100)
    result = diebold_mariano(e1, e2, "absolute", 1)
    assert result.statistic > 2.576
    assert result.p_value < 0.01


def test_dm_input_validation():
    with pytest.raises(ValueError, match="at least 8"):
        diebold_mariano(np.ones(4), np.zeros(4), "absolute", 1)
    with pytest.raises(ValueError, match="equally long"):
        diebold_mariano(np.ones(10), np.ones(9), "absolute", 1)
    with pytest.raises(ValueError, match="loss_kind"):
        diebold_mariano(np.ones(10), np.zeros(10), loss_kind="cubic", horizon_correction=1)
    with pytest.raises(ValueError, match="horizon"):
        diebold_mariano(np.ones(10), np.zeros(10), loss_kind="absolute", horizon_correction=0)


def test_critical_values_match_scipy():
    for alpha in (0.01, 0.05, 0.1):
        want = float(scipy_stats.norm.ppf(1 - alpha / 2))
        assert z_critical(alpha) == pytest.approx(want, abs=1e-9)


def test_decision_rule_reproduces_reported_comparison_format():
    # a statistic of -3.05 lies below the two-sided 1% critical value of -2.576
    decision = dm_decision(-3.05, alpha=0.01)
    assert decision["reject_equal_accuracy"]
    assert decision["critical_z"] == pytest.approx(2.5758293035489004, abs=1e-9)
    assert not dm_decision(-2.5, alpha=0.01)["reject_equal_accuracy"]


def test_dm_p_value_is_two_sided_normal():
    rng = np.random.default_rng(6)
    e1 = rng.normal(0, 1.4, size=80)
    e2 = rng.normal(0, 1.0, size=80)
    result = diebold_mariano(e1, e2, "squared", 3)
    want = 2 * (1 - scipy_stats.norm.cdf(abs(result.statistic)))
    assert result.p_value == pytest.approx(want, rel=1e-10)
