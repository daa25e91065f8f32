import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loadcast.data import SplitSpec
from loadcast.ensemble import (
    CHUNK_BYTES,
    EnsembleSpec,
    _pairwise_sum,
    aggregate_forecasts,
    draw_member_indices,
    member_forecast_matrix,
    run_trials,
)
from loadcast.evaluation import REPORT_METRICS, SERIES_METRICS, aggregate_metrics
from loadcast.model import init_params, model_forward
from loadcast.train import Pool, TrainSchedule, TrainedMember, member_dtype, save_checkpoint

from helpers import median_reference, params_of, tiny_config


def make_pool(n_members, seed0=0, identical=False, **config):
    cfg = tiny_config(**{"sharing": True, **config})
    rows = np.zeros(n_members, dtype=member_dtype(cfg))
    members = []
    for i in range(n_members):
        params = init_params(cfg, np.random.default_rng(seed0 if identical else seed0 + i))
        save_checkpoint(rows, i, params, cfg, seed0 + i)
        members.append(TrainedMember(seed0 + i, 0.0, []))
    return Pool(config=cfg, schedule=TrainSchedule(pool_size=n_members), split=SplitSpec(),
                members=members, rows=rows)


def score_pool(pool, spec, x, y, ids):
    """``run_trials`` on every member's forecasts of the lookback rows ``x``."""
    return run_trials(member_forecast_matrix(pool, x, range(len(pool.members))), spec, y, ids)


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
    matrix = np.stack([f, f, f])[:, None]
    for aggregation in ("median", "mean"):
        assert np.array_equal(aggregate_forecasts(matrix, [[0, 1, 2]], aggregation)[0, 0], f)


def test_aggregate_hand_values():
    matrix = np.array([[1.0, 1.0], [2.0, 2.0], [10.0, 10.0]])[:, None]
    assert np.array_equal(aggregate_forecasts(matrix, [[0, 1, 2]], "median")[0, 0], [2.0, 2.0])
    assert np.allclose(
        aggregate_forecasts(matrix, [[0, 1, 2]], "mean")[0, 0], [13.0 / 3.0] * 2, rtol=1e-15
    )


def test_aggregate_single_member_and_errors():
    f = np.array([5.0, 6.0, 7.0])
    matrix = f[None, None]
    assert np.array_equal(aggregate_forecasts(matrix, [[0]], "median")[0, 0], f)
    assert np.array_equal(aggregate_forecasts(matrix, [[0]], "mean")[0, 0], f)
    with pytest.raises(ValueError, match="forecast matrix"):
        aggregate_forecasts(np.ones((2, 3)), [[0, 1]], "median")
    with pytest.raises(ValueError, match="at least one member"):
        aggregate_forecasts(np.empty((0, 1, 3)), [[0]], "median")
    with pytest.raises(ValueError, match="member indices"):
        aggregate_forecasts(matrix, [0, 0], "median")
    with pytest.raises(ValueError, match="member indices"):
        aggregate_forecasts(matrix, [[]], "median")
    with pytest.raises(ValueError, match="out of range"):
        aggregate_forecasts(matrix, [[0, 1]], "median")
    with pytest.raises(ValueError, match="out of range"):
        aggregate_forecasts(matrix, [[-1]], "mean")
    with pytest.raises(ValueError, match="aggregation"):
        aggregate_forecasts(matrix, [[0]], "mode")


def test_median_aggregation_is_elementwise_monotone():
    rng = np.random.default_rng(7)
    for _ in range(100):
        members = rng.normal(size=(5, 1, 4))
        draws = rng.integers(5, size=(1, 5))
        base = aggregate_forecasts(members, draws, "median")
        bumped = members.copy()
        k = rng.integers(5)
        bumped[k] += rng.uniform(0.0, 2.0, size=(1, 4))
        raised = aggregate_forecasts(bumped, draws, "median")
        assert np.all(raised >= base - 1e-15)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("pool_size", [1, 2, 16, 100])
@pytest.mark.parametrize("size", [1, 2, 3, 63, 64])
def test_median_matches_per_trial_np_median_bit_for_bit(size, pool_size, order):
    # a pool larger than the draw takes the gathered path, the others the counted one
    rng = np.random.default_rng([size, pool_size])
    draws = rng.integers(pool_size, size=(40, size))
    spread = 1000.0 + 100.0 * rng.normal(size=(pool_size, 5, 12))
    tied = rng.choice([1.5, 2.0, 2.0, 3.25], size=(pool_size, 5, 12))
    for values in (spread, tied):
        matrix = np.asarray(values, order=order)
        got = aggregate_forecasts(matrix, draws, "median")
        assert np.array_equal(_bits(got), _bits(median_reference(matrix, draws)))
    # np.median's partition may return either sign when 0.0 and -0.0 tie, so
    # with signed zeros among the ties the values are compared, not the bits
    signed_zeros = rng.choice([-1.0, -0.0, 0.0, 0.0, 2.0], size=(pool_size, 5, 12))
    matrix = np.asarray(signed_zeros, order=order)
    assert np.array_equal(
        aggregate_forecasts(matrix, draws, "median"), median_reference(matrix, draws)
    )


@pytest.mark.parametrize("size", [3, 7])
def test_median_is_nan_exactly_where_a_drawn_member_is_nan(size):
    rng = np.random.default_rng(3)
    matrix = rng.uniform(900.0, 1100.0, size=(6, 4, 3))
    matrix[2, 1, 0] = np.nan
    draws = rng.integers(6, size=(50, size))
    got = aggregate_forecasts(matrix, draws, "median")
    drew_it = (draws == 2).any(axis=1)
    assert 0 < drew_it.sum() < len(draws)
    expected = np.zeros(got.shape, dtype=bool)
    expected[drew_it, 1, 0] = True
    assert np.array_equal(np.isnan(got), expected)
    assert np.array_equal(got[~np.isnan(got)], median_reference(matrix, draws)[~expected])


def test_median_of_a_large_pool_allocates_in_proportion_to_the_draw():
    # the counted path would sort the whole pool; a small draw must not pay for it
    rng = np.random.default_rng(4)
    matrix = rng.uniform(900.0, 1100.0, size=(2000, 10, 12))
    draws = rng.integers(2000, size=(5, 3))
    aggregate_forecasts(matrix[:, :1, :1], draws, "median")  # first-call imports and caches
    tracemalloc.start()
    try:
        got = aggregate_forecasts(matrix, draws, "median")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, median_reference(matrix, draws))
    assert peak < matrix.nbytes / 20


@pytest.mark.parametrize("size", [63, 64])
def test_median_of_a_pool_as_large_as_the_draw_matches_np_median(size):
    # the production shape: pool = draw, 128 series x 12 months, odd and even draws
    rng = np.random.default_rng(size)
    matrix = 1000.0 + 100.0 * rng.normal(size=(size, 128, 12))
    matrix[rng.integers(size, size=50), rng.integers(128, size=50), 3] = 1000.0  # ties
    draws = rng.integers(size, size=(12, size))
    got = aggregate_forecasts(matrix, draws, "median")
    assert np.array_equal(_bits(got), _bits(median_reference(matrix, draws)))


@pytest.mark.parametrize("pool_size, size", [
    (200, 255), (255, 255), (255, 256), (256, 256), (256, 257), (257, 257), (2, 256), (1, 300),
])
def test_median_across_integer_width_boundaries(pool_size, size):
    # draw counts leave uint8 above 255 draws, member ranks above 256 members
    rng = np.random.default_rng([pool_size, size])
    matrix = rng.choice(np.linspace(-3.0, 5.0, 9), size=(pool_size, 2, 3))
    matrix[:, 1] += rng.normal(size=(pool_size, 3))
    draws = rng.integers(pool_size, size=(4, size))
    draws[0] = pool_size - 1  # one trial takes every draw from one member
    got = aggregate_forecasts(matrix, draws, "median")
    assert np.array_equal(_bits(got), _bits(median_reference(matrix, draws)))


def test_median_of_the_one_trial_a_forecast_passes():
    # forecast runs only the distinct members drawn and aggregates its one trial over them
    rng = np.random.default_rng(8)
    pool = 1000.0 + 100.0 * rng.normal(size=(16, 1, 12))
    spec = EnsembleSpec(ensemble_size=64, trials=1, seed=3)
    for trial in range(20):
        drawn = draw_member_indices(16, spec, trial)
        members, inverse = np.unique(drawn, return_inverse=True)
        got = aggregate_forecasts(pool[members], inverse[None], "median")
        assert got.shape == (1, 1, 12)
        assert np.array_equal(_bits(got), _bits(median_reference(pool[members], inverse[None])))
        assert np.array_equal(_bits(got), _bits(median_reference(pool, drawn[None])))


def test_median_walk_allocates_in_proportion_to_trials_times_positions():
    # a formulation that holds members x members x positions (a count-matrix
    # product) or members x trials x positions would exceed this
    rng = np.random.default_rng(9)
    matrix = rng.uniform(900.0, 1100.0, size=(64, 128, 12))
    draws = rng.integers(64, size=(100, 64))
    aggregate_forecasts(matrix[:, :1, :1], draws, "median")  # first-call imports and caches
    tracemalloc.start()
    try:
        got = aggregate_forecasts(matrix, draws, "median")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(_bits(got), _bits(median_reference(matrix, draws)))
    assert peak < 4 * got.nbytes + matrix.nbytes


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    members=st.integers(1, 6),
    size=st.integers(1, 9),
    values=st.lists(
        st.floats(-1e9, 1e9).filter(lambda v: abs(v) >= 1e-3), min_size=6 * 4, max_size=6 * 4
    ),
    seed=st.integers(0, 2**16),
)
def test_median_lies_within_drawn_members_and_scales(members, size, values, seed):
    matrix = np.reshape(values, (6, 2, 2))[:members]
    draws = np.random.default_rng(seed).integers(members, size=(3, size))
    median = aggregate_forecasts(matrix, draws, "median")
    for trial, drawn in zip(median, draws):
        assert np.all(matrix[drawn].min(axis=0) <= trial)
        assert np.all(trial <= matrix[drawn].max(axis=0))
    assert np.array_equal(aggregate_forecasts(2.0 * matrix, draws, "median"), 2.0 * median)


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------

def test_single_trial_report_equals_averaged_report():
    pool = make_pool(3)
    spec = EnsembleSpec(ensemble_size=2, trials=1, seed=3)
    report = score_pool(pool, spec, *make_windows_fixture())
    only = report.per_trial[0]
    assert sorted(only) == sorted(report.averaged)
    for name, value in report.averaged.items():
        assert value == pytest.approx(only[name], rel=1e-15)
        assert report.spread[name]["std"] == 0.0
        assert report.spread[name]["iqr"] == 0.0


def test_identical_members_have_zero_trial_variance():
    pool = make_pool(5, identical=True)
    spec = EnsembleSpec(ensemble_size=3, trials=8, seed=0)
    report = score_pool(pool, spec, *make_windows_fixture())
    for name in report.averaged:
        assert report.spread[name]["std"] == 0.0


def test_perfect_oracle_matrix_gives_zero_metrics():
    spec = EnsembleSpec(ensemble_size=3, trials=5, seed=2)
    _, y, ids = make_windows_fixture()
    report = run_trials(np.stack([y] * 4), spec, y, ids)
    for name in ("mape", "medape", "iqr_ape", "rmse", "mpe"):
        assert report.averaged[name] == 0.0
    assert np.allclose(report.mean_forecast, y, rtol=1e-15)


def test_run_trials_end_to_end_finite_and_deterministic():
    pool = make_pool(6)
    spec = EnsembleSpec(ensemble_size=4, trials=6, seed=9)
    windows = make_windows_fixture()
    a = score_pool(pool, spec, *windows)
    b = score_pool(pool, spec, *windows)
    assert a.averaged == b.averaged
    assert all(np.isfinite(v) for v in a.averaged.values())
    assert set(a.per_series_averaged) == {"W0", "W1", "W2"}


def test_run_trials_is_independent_of_row_order():
    # rows are scored in id order, so reversing the rows and their ids changes nothing
    pool = make_pool(5)
    spec = EnsembleSpec(ensemble_size=4, trials=16, seed=1)
    x, y, ids = make_windows_fixture(n_series=12)
    forward = score_pool(pool, spec, x, y, ids)
    backward = score_pool(pool, spec, x[::-1], y[::-1], ids[::-1])
    assert backward.to_dict() == forward.to_dict()
    assert list(backward.to_dict()["per_series"]) == sorted(ids)
    assert np.array_equal(backward.mean_forecast, forward.mean_forecast[::-1])


def test_member_forecast_matrix_forecasts_the_given_members(monkeypatch):
    # the stacked scoring passes give the bits of one model_forward per member
    import loadcast.ensemble as ensemble_mod

    forward = ensemble_mod.forward_blocks
    calls = []
    monkeypatch.setattr(ensemble_mod, "forward_blocks",
                        lambda *args: calls.append(1) or forward(*args))
    rng = np.random.default_rng(5)
    members = [3, 0, 3, 4, 1, 0]  # repeated and out of order
    for width, sharing, ablation, rows in itertools.product(
        (8, 64), (True, False), ((), ("noDestd",), ("noReLU",)), (1, 3, 128)
    ):
        case = f"width {width}, sharing {sharing}, {ablation}, {rows} rows"
        pool = make_pool(5, fc_width=width, sharing=sharing, ablation=ablation)
        x = rng.uniform(500.0, 1500.0, size=(rows, pool.config.lookback))
        each = [model_forward(params_of(pool, i), x, pool.config)[0] for i in range(5)]
        expected = np.stack([each[i] for i in members]).tobytes()
        four_members = 4 * pool.rows.dtype.itemsize * (1 + rows)
        for bound in (CHUNK_BYTES, four_members):
            monkeypatch.setattr(ensemble_mod, "CHUNK_BYTES", bound)
            calls.clear()
            matrix = member_forecast_matrix(pool, x, members)
            assert matrix.shape == (6, rows, pool.config.horizon), case
            assert matrix.tobytes() == expected, f"{case}, bound {bound}"
        assert len(calls) == 2, case  # chunks of four and two members
    assert member_forecast_matrix(make_pool(2), x[:, :6], []).shape == (0, 128, 3)


def test_member_forecast_matrix_peaks_within_a_multiple_of_one_forward():
    # stacking all 64 members over 128 rows would hold 64 members' activations
    pool = make_pool(64, fc_width=64)
    x = np.random.default_rng(6).uniform(500.0, 1500.0, size=(128, pool.config.lookback))
    params = params_of(pool, 0)
    member_forecast_matrix(pool, x, [0])  # first-call imports and caches
    tracemalloc.start()
    try:
        model_forward(params, x, pool.config)
        one = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        matrix = member_forecast_matrix(pool, x, range(64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * one + matrix.nbytes


def test_member_forecast_matrix_peaks_below_one_model_forward():
    # a scoring pass keeps one block's arrays and the running forecast sum,
    # where model_forward keeps every block's record; at the production shape
    # a chunk of 128 rows holds one member
    pool = make_pool(64, fc_width=64, lookback=12, horizon=12, blocks=6, fc_layers=3)
    x = np.random.default_rng(6).uniform(500.0, 1500.0, size=(128, pool.config.lookback))
    params = params_of(pool, 0)
    member_forecast_matrix(pool, x, [0])  # first-call imports and caches
    tracemalloc.start()
    try:
        model_forward(params, x, pool.config)
        one = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        matrix = member_forecast_matrix(pool, x, range(64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < one + matrix.nbytes


def score_many_shape(trials, pool_size=16, size=64, aggregation="median"):
    """A member forecast matrix, targets, ids and spec of the benchmark's
    ``score-many`` evaluate: 128 series x 12 months, draws of 64."""
    rng = np.random.default_rng([pool_size, size])
    matrix = rng.uniform(900.0, 1100.0, size=(pool_size, 128, 12))
    y = rng.uniform(900.0, 1100.0, size=(128, 12))
    ids = [f"S{i:03d}" for i in rng.permutation(128)]
    return matrix, y, ids, EnsembleSpec(ensemble_size=size, trials=trials, aggregation=aggregation,
                                         seed=pool_size)


def test_run_trials_memory_does_not_grow_with_trials():
    # trials are scored in blocks; only the per-trial report metrics grow
    peaks = {}
    for trials in (2, 100, 400):  # the first call imports and caches
        matrix, y, ids, spec = score_many_shape(trials)
        tracemalloc.start()
        try:
            run_trials(matrix, spec, y, ids)
            peaks[trials] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[400] < 1.5 * peaks[100]


def report_bits(report):
    return json.dumps(report.to_dict(), sort_keys=True), report.mean_forecast.tobytes()


@pytest.mark.parametrize("aggregation", ["median", "mean"])
@pytest.mark.parametrize("pool_size", [8, 12], ids=["pool-at-draw", "pool-above-draw"])
def test_run_trials_is_bit_identical_across_trial_blocks(monkeypatch, aggregation, pool_size):
    import loadcast.ensemble as ensemble_mod

    matrix, y, ids, spec = score_many_shape(23, pool_size=pool_size, size=8,
                                            aggregation=aggregation)
    reports = {}
    for block in (1, 7, 23):
        monkeypatch.setattr(ensemble_mod, "TRIAL_BYTES", block * 6 * y.nbytes)
        reports[block] = report_bits(run_trials(matrix, spec, y, ids))
    assert reports[1] == reports[7] == reports[23]


@pytest.mark.parametrize("trials", [1, 5, 100, 300])
def test_run_trials_scores_as_one_pass_over_every_trial(trials):
    # the report of scoring every trial at once, with numpy's reductions over
    # the trial axis; 300 trials split numpy's pairwise sum in halves
    matrix, y, ids, spec = score_many_shape(trials)
    report = run_trials(matrix, spec, y, ids)
    draws = [draw_member_indices(len(matrix), spec, t) for t in range(trials)]
    forecasts = aggregate_forecasts(matrix, draws, spec.aggregation)
    order = sorted(range(len(ids)), key=ids.__getitem__)
    scores = aggregate_metrics(y[order], forecasts[:, order])
    assert report.mean_forecast.tobytes() == (forecasts.sum(axis=0) / trials).tobytes()
    assert report.per_trial == [
        {name: float(scores["aggregate"][name][t]) for name in REPORT_METRICS}
        for t in range(trials)
    ]
    for name, vals in scores["aggregate"].items():
        assert report.averaged[name] == float(vals.mean())
        assert report.spread[name]["std"] == float(vals.std())
    for name in SERIES_METRICS:
        means = np.ascontiguousarray(scores[name].T).mean(axis=-1)
        got = [report.per_series_averaged[ids[i]][name] for i in order]
        assert np.array(got).tobytes() == means.tobytes(), name


@pytest.mark.parametrize("n", [*range(1, 20), 64, 127, 128, 129, 255, 256, 257, 300, 1000])
def test_pairwise_sum_adds_in_numpy_order(n):
    rng = np.random.default_rng(n)
    values = rng.normal(size=(n, 40)) * 10.0 ** rng.integers(-8, 9, size=(n, 40))
    values[:, :8] = rng.choice([-0.0, 0.0, 1e16, -1e16, 1.0], size=(n, 8))  # cancellation
    got = _pairwise_sum(iter(values), n)
    assert got.tobytes() == np.ascontiguousarray(values.T).sum(axis=-1).tobytes()


def test_run_trials_validates_inputs():
    with pytest.raises(ValueError, match="windows"):
        run_trials(np.empty((2, 0, 3)), EnsembleSpec(), np.empty((0, 3)), [])
    x, y, _ = make_windows_fixture()
    matrix = member_forecast_matrix(make_pool(2), x, [0, 1])
    with pytest.raises(ValueError, match="one evaluation row per series"):
        run_trials(matrix, EnsembleSpec(), y, ["W0", "W0", "W1"])
    with pytest.raises(ValueError, match="one evaluation row per series"):
        run_trials(matrix, EnsembleSpec(), y, ["W0", "W0", "W1", "W2"])
    with pytest.raises(ValueError, match=r"forecasts \(2, 3\) do not match the targets \(3, 3\)"):
        run_trials(matrix[:, :2], EnsembleSpec(), y, ["W0", "W1", "W2"])
    with pytest.raises(ValueError, match="empty pool"):
        run_trials(matrix[:0], EnsembleSpec(), y, ["W0", "W1", "W2"])


def test_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(ensemble_size=0)
    with pytest.raises(ValueError):
        EnsembleSpec(trials=0)
    with pytest.raises(ValueError):
        EnsembleSpec(aggregation="mode")
