import numpy as np
import pytest
from scipy import stats as scipy_stats

from loadcast.baselines import seasonal_naive
from loadcast.evaluation import (
    aggregate_metrics,
    diebold_mariano,
    dm_decision,
    kurtosis,
    point_errors,
    series_metrics,
    skewness,
    z_critical,
)

from helpers import dm_reference


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
    errors = point_errors([100.0], [90.0])
    assert errors.ape[0] == 10.0
    assert errors.pe[0] == 10.0  # positive = underprediction
    assert errors.se[0] == 100.0


def test_point_error_sign_convention_overprediction():
    errors = point_errors([100.0], [110.0])
    assert errors.pe[0] == pytest.approx(-10.0, abs=1e-14)
    assert errors.ape[0] == pytest.approx(10.0, abs=1e-14)


def test_point_errors_zero_when_exact_and_validation():
    y = np.array([50.0, 75.0])
    errors = point_errors(y, y.copy())
    assert np.array_equal(errors.ape, [0.0, 0.0])
    assert np.array_equal(errors.se, [0.0, 0.0])
    with pytest.raises(ValueError, match="positive"):
        point_errors([0.0], [1.0])
    with pytest.raises(ValueError, match="mismatch"):
        point_errors([1.0, 2.0], [1.0])


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def test_series_metrics_hand_fixture():
    # APEs 1,2,3,4 percent on y=100: forecasts 99,98,97,96
    y = np.full(4, 100.0)
    y_hat = np.array([99.0, 98.0, 97.0, 96.0])
    metrics = series_metrics(point_errors(y, y_hat))
    assert metrics["mape"] == pytest.approx(2.5, abs=1e-14)
    assert metrics["medape"] == pytest.approx(2.5, abs=1e-14)
    # linear-interpolation quartiles: Q1=1.75, Q3=3.25
    assert metrics["iqr_ape"] == pytest.approx(1.5, abs=1e-14)
    assert metrics["mpe"] == pytest.approx(2.5, abs=1e-14)
    assert metrics["rmse"] == pytest.approx(np.sqrt((1 + 4 + 9 + 16) / 4), rel=1e-14)


def test_aggregate_is_unweighted_mean_over_series():
    groups = {
        "A": point_errors(np.full(4, 100.0), np.full(4, 98.0)),   # MAPE 2
        "B": point_errors(np.full(8, 100.0), np.full(8, 96.0)),   # MAPE 4, more points
    }
    report = aggregate_metrics(groups)
    assert report.aggregate["mape"] == pytest.approx(3.0, abs=1e-14)
    assert report.n_series == 2 and report.n_points == 12


def test_perfect_forecasts_give_all_zero_metrics():
    y = np.linspace(50, 90, 6)
    report = aggregate_metrics({"A": point_errors(y, y.copy())})
    for value in report.aggregate.values():
        assert value == 0.0
    assert report.mpe_skewness == 0.0 and report.mpe_kurtosis == 0.0


def test_metric_scale_behaviour():
    rng = np.random.default_rng(0)
    y = np.abs(rng.normal(100, 20, size=12)) + 5
    y_hat = y * rng.uniform(0.9, 1.1, size=12)
    base = series_metrics(point_errors(y, y_hat))
    for k in (3.7, 1000.0):
        scaled = series_metrics(point_errors(k * y, k * y_hat))
        for name in ("mape", "medape", "iqr_ape", "mpe"):
            assert scaled[name] == pytest.approx(base[name], rel=1e-12)
        assert scaled["rmse"] == pytest.approx(k * base["rmse"], rel=1e-12)


def test_skewness_and_kurtosis_estimators():
    rng = np.random.default_rng(1)
    symmetric = rng.normal(size=4000)
    assert abs(skewness(symmetric)) < 3 * np.sqrt(6 / 4000)
    assert kurtosis(symmetric) == pytest.approx(3.0, abs=0.35)  # non-excess convention
    right_tailed = rng.exponential(size=4000)
    assert skewness(right_tailed) > 1.0
    assert skewness(np.full(5, 2.0)) == 0.0
    assert kurtosis(np.full(5, 2.0)) == 0.0


def test_aggregate_requires_groups():
    with pytest.raises(ValueError):
        aggregate_metrics({})


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
        diebold_mariano(np.ones(4), np.zeros(4))
    with pytest.raises(ValueError, match="equally long"):
        diebold_mariano(np.ones(10), np.ones(9))
    with pytest.raises(ValueError, match="loss_kind"):
        diebold_mariano(np.ones(10), np.zeros(10), loss_kind="cubic")
    with pytest.raises(ValueError, match="horizon"):
        diebold_mariano(np.ones(10), np.zeros(10), horizon_correction=0)


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
