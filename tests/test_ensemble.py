import numpy as np
import pytest

from loadcast.data import SplitSpec
from loadcast.ensemble import (
    EnsembleSpec,
    aggregate_forecasts,
    draw_member_indices,
    member_forecast_matrix,
    run_trials,
)
from loadcast.model import config_hash, init_params
from loadcast.train import Pool, TrainSchedule, TrainedMember

from helpers import tiny_config


def make_pool(n_members, seed0=0, identical=False):
    cfg = tiny_config(sharing=True)
    members = []
    for i in range(n_members):
        params = init_params(cfg, seed0 if identical else seed0 + i)
        members.append(
            TrainedMember(
                seed=seed0 + i, config_hash=config_hash(cfg), final_loss=0.0,
                first_batch_loss=0.0, loss_trace=[], params=params,
            )
        )
    return Pool(config=cfg, schedule=TrainSchedule(pool_size=n_members), split=SplitSpec(),
                members=members)


def make_windows_fixture(n_series=3, seed=0):
    """(lookback rows, target rows, series ids): one evaluation row per series."""
    rng = np.random.default_rng(seed)
    x, y = np.empty((n_series, 6)), np.empty((n_series, 3))
    for i in range(n_series):
        base = 100.0 * (i + 1)
        x[i] = base * rng.uniform(0.8, 1.2, size=6)
        y[i] = base * rng.uniform(0.8, 1.2, size=3)
    return x, y, [f"W{i}" for i in range(n_series)]


# ---------------------------------------------------------------------------
# Drawing
# ---------------------------------------------------------------------------

def test_single_member_pool_repeats_it():
    spec = EnsembleSpec(ensemble_size=64, trials=1)
    idx = draw_member_indices(1, spec, 0)
    assert idx.shape == (64,)
    assert np.all(idx == 0)


def test_draws_are_reproducible_per_trial():
    spec = EnsembleSpec(ensemble_size=16, seed=5)
    assert np.array_equal(draw_member_indices(8, spec, 3), draw_member_indices(8, spec, 3))
    assert not np.array_equal(draw_member_indices(8, spec, 3), draw_member_indices(8, spec, 4))
    other_seed = EnsembleSpec(ensemble_size=16, seed=6)
    assert not np.array_equal(
        draw_member_indices(8, spec, 3), draw_member_indices(8, other_seed, 3)
    )


def test_bootstrap_multiplicity_matches_binomial_expectation():
    spec = EnsembleSpec(ensemble_size=64, seed=1)
    counts = np.zeros(16)
    trials = 1000
    for t in range(trials):
        for i in draw_member_indices(16, spec, t):
            counts[i] += 1
    total = 64 * trials
    expected = total / 16
    sigma = np.sqrt(total * (1 / 16) * (15 / 16))
    assert np.all(np.abs(counts - expected) < 3 * sigma)


def test_empty_pool_is_an_error():
    with pytest.raises(ValueError, match="empty pool"):
        draw_member_indices(0, EnsembleSpec(), 0)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def test_aggregate_identical_members_is_identity():
    f = np.array([3.0, 4.0])
    for aggregation in ("median", "mean"):
        assert np.array_equal(aggregate_forecasts([f, f, f], aggregation), f)


def test_aggregate_hand_values():
    members = [np.array([1.0, 1.0]), np.array([2.0, 2.0]), np.array([10.0, 10.0])]
    assert np.array_equal(aggregate_forecasts(members, "median"), [2.0, 2.0])
    assert np.allclose(aggregate_forecasts(members, "mean"), [13.0 / 3.0] * 2, rtol=1e-15)


def test_aggregate_single_member_and_errors():
    f = np.array([5.0, 6.0, 7.0])
    assert np.array_equal(aggregate_forecasts([f], "median"), f)
    assert np.array_equal(aggregate_forecasts([f], "mean"), f)
    with pytest.raises(ValueError, match="length"):
        aggregate_forecasts([np.ones(3), np.ones(4)])
    with pytest.raises(ValueError, match="at least one"):
        aggregate_forecasts([])
    with pytest.raises(ValueError, match="aggregation"):
        aggregate_forecasts([f], "mode")


def test_median_aggregation_is_elementwise_monotone():
    rng = np.random.default_rng(7)
    for _ in range(100):
        members = rng.normal(size=(5, 4))
        base = aggregate_forecasts(members, "median")
        bumped = members.copy()
        k = rng.integers(5)
        bumped[k] += rng.uniform(0.0, 2.0, size=4)
        raised = aggregate_forecasts(bumped, "median")
        assert np.all(raised >= base - 1e-15)


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------

def test_single_trial_report_equals_averaged_report():
    pool = make_pool(3)
    spec = EnsembleSpec(ensemble_size=2, trials=1, seed=3)
    report = run_trials(pool, spec, *make_windows_fixture())
    only = report.per_trial[0]
    assert sorted(only) == sorted(report.averaged)
    for name, value in report.averaged.items():
        assert value == pytest.approx(only[name], rel=1e-15)
        assert report.spread[name]["std"] == 0.0
        assert report.spread[name]["iqr"] == 0.0


def test_identical_members_have_zero_trial_variance():
    pool = make_pool(5, identical=True)
    spec = EnsembleSpec(ensemble_size=3, trials=8, seed=0)
    report = run_trials(pool, spec, *make_windows_fixture())
    for name in report.averaged:
        assert report.spread[name]["std"] == 0.0


def test_perfect_oracle_hook_gives_zero_metrics():
    pool = make_pool(4)
    spec = EnsembleSpec(ensemble_size=3, trials=5, seed=2)
    x, y, ids = make_windows_fixture()
    report = run_trials(pool, spec, x, y, ids, forecast_fn=lambda m, rows: y)
    for name in ("mape", "medape", "iqr_ape", "rmse", "mpe"):
        assert report.averaged[name] == 0.0
    assert np.allclose(report.mean_forecast, y, rtol=1e-15)


def test_run_trials_end_to_end_finite_and_deterministic():
    pool = make_pool(6)
    spec = EnsembleSpec(ensemble_size=4, trials=6, seed=9)
    windows = make_windows_fixture()
    a = run_trials(pool, spec, *windows)
    b = run_trials(pool, spec, *windows)
    assert a.averaged == b.averaged
    assert all(np.isfinite(v) for v in a.averaged.values())
    assert set(a.per_series_averaged) == {"W0", "W1", "W2"}


def test_run_trials_is_independent_of_row_order():
    # rows are scored in id order, so reversing the rows and their ids changes nothing
    pool = make_pool(5)
    spec = EnsembleSpec(ensemble_size=4, trials=16, seed=1)
    x, y, ids = make_windows_fixture(n_series=12)
    forward = run_trials(pool, spec, x, y, ids)
    backward = run_trials(pool, spec, x[::-1], y[::-1], ids[::-1])
    assert backward.to_dict() == forward.to_dict()
    assert list(backward.to_dict()["per_series"]) == sorted(ids)
    assert np.array_equal(backward.mean_forecast, forward.mean_forecast[::-1])


def test_member_forecast_matrix_shape_and_hook():
    pool = make_pool(2)
    x, _, _ = make_windows_fixture()
    matrix = member_forecast_matrix(
        pool, x, forecast_fn=lambda m, rows: np.full((len(rows), 3), m.seed)
    )
    assert matrix.shape == (2, 3, 3)
    assert np.all(matrix[0] == pool.members[0].seed)
    assert np.all(matrix[1] == pool.members[1].seed)


def test_run_trials_validates_inputs():
    pool = make_pool(2)
    with pytest.raises(ValueError, match="windows"):
        run_trials(pool, EnsembleSpec(), np.empty((0, 6)), np.empty((0, 3)), [])
    x, y, _ = make_windows_fixture()
    with pytest.raises(ValueError, match="one evaluation row per series"):
        run_trials(pool, EnsembleSpec(), x, y, ["W0", "W0", "W1"])
    empty = make_pool(2)
    empty.members = []
    with pytest.raises(ValueError, match="empty pool"):
        run_trials(empty, EnsembleSpec(), *make_windows_fixture())


def test_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(ensemble_size=0)
    with pytest.raises(ValueError):
        EnsembleSpec(trials=0)
    with pytest.raises(ValueError):
        EnsembleSpec(aggregation="mode")
