"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The synthetic-benchmark criterion trains a real pool of 16 members and
takes a few minutes; everything else is fast.
"""

import json
import time

import numpy as np
import pytest

from loadcast.cli import main as cli_main
from loadcast.data import SplitSpec, TimeSeries
from loadcast.loss import LossConfig, loss_components, nmse, pmape
from loadcast.model import ModelConfig, decompose, init_params, model_forward
from loadcast.evaluation import (
    SERIES_METRICS, aggregate_metrics, diebold_mariano, dm_decision, point_errors,
)
from loadcast.train import TrainSchedule, train_one

from helpers import (
    batch_objective,
    dm_reference,
    grad_check,
    positive_batch,
    relu_margins,
    sinusoid_trend_series,
    tiny_config,
    zero_head_params,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# Criterion 1: gradient correctness over the full graph
# ---------------------------------------------------------------------------

def test_c1_gradient_correctness():
    rng = np.random.default_rng(7)
    x = positive_batch(rng, (2, 6))
    y = positive_batch(rng, (2, 3))
    started = time.monotonic()
    worst = 0.0
    for sharing in (True, False):
        for flags in ((), ("noL2",), ("noVar",), ("noDestd",), ("noReLU",)):
            config = ModelConfig(
                lookback=6, horizon=3, blocks=2, fc_width=8, fc_layers=2,
                sharing=sharing, ablation=frozenset(flags), seed=3,
            )
            params = init_params(config, np.random.default_rng(3))
            # stay clear of the excluded kink bands
            assert relu_margins(params, x, config) > 1e-4
            y_hat, _ = model_forward(params, x, config)
            assert np.min(np.abs(y - y_hat) / y) > 1e-4

            result = grad_check(batch_objective(x, y, config), params, tolerance=1e-4)
            assert result.passed, (sharing, flags, result.max_rel_error)
            worst = max(worst, result.worst)
    elapsed = time.monotonic() - started
    report(
        "C1",
        worst < 1e-4 and elapsed < 30.0,
        f"max FD relative error {worst:.2e} over 10 configs in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 2: loss identities
# ---------------------------------------------------------------------------

def test_c2_loss_identities():
    rng = np.random.default_rng(11)

    y = positive_batch(rng, (8, 12))
    baseline = np.repeat(y.mean(axis=1, keepdims=True), 12, axis=1)
    mean_baseline_gap = abs(nmse(y, baseline, no_var=False) - 1.0)

    y_hat = y * rng.uniform(0.8, 1.2, size=y.shape)
    pinball_only = LossConfig(tau=0.35, nmse_weight=0.0, no_l2=False, no_var=False)
    bitwise = loss_components(y, y_hat, pinball_only)["loss"] == pmape(y, y_hat, 0.35)

    symmetric = True
    monotone = True
    taus = [0.25, 0.35, 0.5, 0.75]
    for _ in range(1000):
        row = positive_batch(rng, (1, 4))
        d = rng.uniform(0.0, 0.4 * row.min(), size=row.shape)
        if pmape(row, row + d, 0.5) != pytest.approx(pmape(row, row - d, 0.5), rel=1e-12):
            symmetric = False
        under = row * rng.uniform(0.6, 0.95, size=row.shape)
        over = row * rng.uniform(1.05, 1.4, size=row.shape)
        u_losses = [pmape(row, under, t) for t in taus]
        o_losses = [pmape(row, over, t) for t in taus]
        if not all(a < b for a, b in zip(u_losses, u_losses[1:])):
            monotone = False
        if not all(a > b for a, b in zip(o_losses, o_losses[1:])):
            monotone = False

    report(
        "C2",
        mean_baseline_gap < 1e-12 and bitwise and symmetric and monotone,
        f"mean-baseline nMSE gap {mean_baseline_gap:.1e}; lambda=0 bitwise {bitwise}; "
        f"1000-case symmetry {symmetric} and tau-monotonicity {monotone}",
    )


# ---------------------------------------------------------------------------
# Criterion 3: architecture invariants
# ---------------------------------------------------------------------------

def test_c3_architecture_invariants():
    rng = np.random.default_rng(5)
    config = tiny_config(blocks=4, fc_width=16, sharing=True)
    params = init_params(config, np.random.default_rng(21))
    x = positive_batch(rng, (6, 6))

    y_hat, forward = model_forward(params, x, config)
    contributions = decompose(forward)
    decomposition_rel = float(
        np.max(np.abs(contributions.sum(axis=0) - y_hat)) / np.max(np.abs(y_hat))
    )

    residual_ok = all(np.all(block.hidden[0] >= 0.0) for block in forward.blocks[1:])
    ceiling_ok = bool(np.all(forward.blocks[0].hidden[0].max(axis=1) == 1.0))

    zero_params = zero_head_params(tiny_config())
    constant_ok = all(
        np.array_equal(
            model_forward(zero_params, np.full((1, 6), c), tiny_config())[0], np.full((1, 3), c)
        )
        for c in (0.25, 9.0, 31250.0)
    )

    equivariant = True
    base, _ = model_forward(params, x, config)
    for k in (3.0, 1000.0, 0.02):
        scaled, _ = model_forward(params, k * x, config)
        if not np.allclose(scaled, k * base, rtol=1e-12, atol=0.0):
            equivariant = False

    report(
        "C3",
        decomposition_rel <= 1e-9 and residual_ok and ceiling_ok and constant_ok and equivariant,
        f"decomposition rel {decomposition_rel:.1e}; residuals>=0 {residual_ok}; "
        f"max(x1)=1 {ceiling_ok}; constant-series exact {constant_ok}; "
        f"scale equivariance<=1e-12 {equivariant}",
    )


# ---------------------------------------------------------------------------
# Criterion 4: end-to-end training scale invariance
# ---------------------------------------------------------------------------

def test_c4_training_scale_invariance():
    series = sinusoid_trend_series(months=36, noise=0.01, seed=4)
    scaled = TimeSeries(series.id, series.start, series.values * 1000.0)
    config = tiny_config(sharing=True)
    schedule = TrainSchedule(epochs=2, batches_per_epoch=5, batch_size=8, pool_size=1, seed=0)
    split_spec = SplitSpec(test_months=3, val_months=3)

    base = train_one([series], config, schedule, 77, split_spec=split_spec)
    big = train_one([scaled], config, schedule, 77, split_spec=split_spec)
    forecast_base, _ = model_forward(base.params, series.values[None, -config.lookback :], config)
    forecast_big, _ = model_forward(big.params, scaled.values[None, -config.lookback :], config)
    rel = float(np.max(np.abs(forecast_big - 1000.0 * forecast_base) / np.abs(1000.0 * forecast_base)))
    report("C4", rel < 1e-6, f"k=1000 retraining: max relative forecast deviation {rel:.2e}")


# ---------------------------------------------------------------------------
# Criterion 5: synthetic benchmark end to end (trains a real pool)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def benchmark_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("benchmark")
    dataset = root / "bench.csv"
    # CPU time of this thread, which runs the whole fixture: unlike wall time
    # it does not grow when other processes load the machine, and unlike the
    # process's CPU time it does not count the BLAS worker threads, which
    # spin between calls on every core
    started = time.thread_time()
    assert cli_main(["synth", "--out", str(dataset), "--series", "8", "--months", "60",
                     "--amplitude", "0.2", "--trend", "0.02", "--noise", "0.01",
                     "--seed", "0"]) == 0
    config_path = root / "config.json"
    config_path.write_text(json.dumps({
        "dataset": str(dataset),
        "output_dir": str(root / "pool"),
        "model": {"fc_width": 64},
        "train": {"pool_size": 16, "seed": 0},
        "ensemble": {"ensemble_size": 8, "trials": 10, "seed": 0},
    }))
    assert cli_main(["train", "--config", str(config_path)]) == 0
    assert cli_main(["evaluate", "--manifest", str(root / "pool" / "manifest.json"),
                     "--out-dir", str(root / "eval")]) == 0
    elapsed = time.thread_time() - started
    metrics = json.loads((root / "eval" / "metrics.json").read_text())
    return {"root": root, "metrics": metrics, "elapsed": elapsed}


def test_c5_synthetic_benchmark(benchmark_run):
    mape = benchmark_run["metrics"]["metrics"]["averaged"]["mape"]
    naive = benchmark_run["metrics"]["baseline_seasonal_naive"]["aggregate"]["mape"]
    elapsed = benchmark_run["elapsed"]
    report(
        "C5",
        mape < 5.0 and mape < naive and elapsed < 600.0,
        f"trial-averaged test MAPE {mape:.2f}% (< 5% and < seasonal-naive {naive:.2f}%) "
        f"in {elapsed / 60:.1f} min of CPU time",
    )


def test_c5_trial_spread_is_reported(benchmark_run):
    spread = benchmark_run["metrics"]["metrics"]["spread"]
    assert {"std", "iqr"} <= spread["mape"].keys()
    assert all(np.isfinite(spread[name]["std"]) for name in spread)


# ---------------------------------------------------------------------------
# Criterion 6: ablation harness
# ---------------------------------------------------------------------------

def test_c6_ablation_harness(tmp_path):
    dataset = tmp_path / "abl.csv"
    assert cli_main(["synth", "--out", str(dataset), "--series", "3", "--months", "40",
                     "--seed", "3"]) == 0
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "dataset": str(dataset),
        "model": {"lookback": 6, "horizon": 6, "blocks": 2, "fc_width": 8, "fc_layers": 1},
        "train": {"epochs": 1, "batches_per_epoch": 4, "batch_size": 8, "pool_size": 2, "seed": 5},
        "ensemble": {"ensemble_size": 2, "trials": 2, "seed": 1},
        "split": {"test_months": 6, "val_months": 6},
    }))
    out_dir = tmp_path / "ablation"
    assert cli_main(["ablate", "--config", str(config_path), "--out-dir", str(out_dir)]) == 0

    table = [
        line.split(",") for line in (out_dir / "ablation_table.csv").read_text().splitlines()
        if line and not line.startswith("#")
    ]
    header, rows = table[0], table[1:]
    doc = json.loads((out_dir / "ablation.json").read_text())
    no_l2_trace = doc["variants"]["noL2"]["loss_trace_member0"]
    shared_seeds = len({doc["variants"][v]["config_hash"] for v in doc["variants"]}) == 5

    ok = (
        header == ["variant", "mape", "rmse"]
        and [r[0] for r in rows] == ["full", "noL2", "noVar", "noDestd", "noReLU"]
        and all(entry["nmse_term"] == 0.0 for entry in no_l2_trace)
        and doc["variants"]["full"]["mape"] != doc["variants"]["noVar"]["mape"]
        and shared_seeds
    )
    report(
        "C6",
        ok,
        "5-row table with MAPE+RMSE, zero nMSE trace under noL2, full vs noVar metrics differ",
    )


# ---------------------------------------------------------------------------
# Criterion 7: Diebold-Mariano
# ---------------------------------------------------------------------------

def test_c7_diebold_mariano():
    rng = np.random.default_rng(42)
    worst_gap = 0.0
    compared = 0
    flags_agree = True
    for case in range(100):
        n = int(rng.integers(24, 200))
        loss_kind = "absolute" if case % 2 == 0 else "squared"
        horizon = int(rng.integers(1, 13))
        e1 = rng.normal(0.0, rng.uniform(0.5, 2.0), size=n)
        e2 = rng.normal(0.0, rng.uniform(0.5, 2.0), size=n)
        got = diebold_mariano(e1, e2, loss_kind, horizon)
        want, degenerate = dm_reference(e1, e2, loss_kind, horizon)
        flags_agree &= got.degenerate == degenerate
        if not degenerate:
            worst_gap = max(worst_gap, abs(got.statistic - want))
            compared += 1

    e1 = rng.normal(size=60)
    e2 = rng.normal(size=60)
    antisymmetric = (
        diebold_mariano(e1, e2, "absolute", 12).statistic
        == -diebold_mariano(e2, e1, "absolute", 12).statistic
    )
    degenerate_flagged = diebold_mariano(e1, e1.copy(), "absolute", 12).degenerate
    decision = dm_decision(-3.05, alpha=0.01)

    report(
        "C7",
        worst_gap < 1e-9 and compared >= 90 and flags_agree and antisymmetric
        and degenerate_flagged and decision["reject_equal_accuracy"],
        f"{compared} Monte-Carlo fixtures within {worst_gap:.1e} of brute force; antisymmetry "
        f"exact; degenerate flagged; -3.05 rejects at alpha=0.01",
    )


# ---------------------------------------------------------------------------
# Criterion 8: determinism of train + evaluate
# ---------------------------------------------------------------------------

def test_c8_byte_identical_reruns(tmp_path):
    dataset = tmp_path / "det.csv"
    assert cli_main(["synth", "--out", str(dataset), "--series", "2", "--months", "40",
                     "--seed", "9"]) == 0
    payloads = []
    csv_texts = []
    for run in ("one", "two"):
        run_dir = tmp_path / run
        config_path = tmp_path / f"config_{run}.json"
        config_path.write_text(json.dumps({
            "dataset": str(dataset),
            "output_dir": str(run_dir / "pool"),
            "model": {"lookback": 6, "horizon": 6, "blocks": 2, "fc_width": 8, "fc_layers": 1},
            "train": {"epochs": 1, "batches_per_epoch": 3, "batch_size": 8,
                      "pool_size": 2, "seed": 13},
            "ensemble": {"ensemble_size": 2, "trials": 3, "seed": 2},
            "split": {"test_months": 6, "val_months": 6},
        }))
        assert cli_main(["train", "--config", str(config_path)]) == 0
        assert cli_main(["evaluate", "--manifest", str(run_dir / "pool" / "manifest.json"),
                         "--out-dir", str(run_dir / "eval")]) == 0
        doc = json.loads((run_dir / "eval" / "metrics.json").read_text())
        payloads.append(json.dumps(
            {"metrics": doc["metrics"], "baseline": doc["baseline_seasonal_naive"]},
            sort_keys=True,
        ).encode())
        csv_texts.append(tuple(
            (run_dir / "eval" / name).read_text()
            for name in ("per_series.csv", "errors.csv", "mpe_points.csv")
        ))
    report(
        "C8",
        payloads[0] == payloads[1] and csv_texts[0] == csv_texts[1],
        "metric payloads and CSV reports byte-identical across re-runs",
    )


# ---------------------------------------------------------------------------
# Criterion 9: metric fixtures
# ---------------------------------------------------------------------------

def test_c9_metric_fixtures():
    def series_metrics(y, y_hat):  # one series, one trial
        scores = aggregate_metrics(np.asarray(y)[None], np.asarray(y_hat)[None, None])
        return {name: float(scores[name][0, 0]) for name in SERIES_METRICS}

    sign = series_metrics([100.0], [90.0])
    sign_ok = (
        point_errors([100.0], [90.0])[0] == 10.0 and sign["mape"] == 10.0
        and sign["rmse"] ** 2 == 100.0
    )

    metrics = series_metrics(np.full(4, 100.0), np.array([99.0, 98.0, 97.0, 96.0]))
    fixture_ok = (
        metrics["mape"] == pytest.approx(2.5, abs=1e-14)
        and metrics["medape"] == pytest.approx(2.5, abs=1e-14)
        and metrics["iqr_ape"] == pytest.approx(1.5, abs=1e-14)
        and metrics["rmse"] == pytest.approx(np.sqrt(7.5), rel=1e-14)
        and metrics["mpe"] == pytest.approx(2.5, abs=1e-14)
    )

    rng = np.random.default_rng(1)
    y = positive_batch(rng, (12,))
    y_hat = y * rng.uniform(0.9, 1.1, size=12)
    base = series_metrics(y, y_hat)
    scale_ok = True
    for k in (3.7, 1000.0):
        scaled = series_metrics(k * y, k * y_hat)
        for name in ("mape", "medape", "iqr_ape", "mpe"):
            if abs(scaled[name] - base[name]) > 1e-12 * max(1.0, abs(base[name])):
                scale_ok = False
        if abs(scaled["rmse"] - k * base["rmse"]) > 1e-12 * k * base["rmse"]:
            scale_ok = False

    report(
        "C9",
        sign_ok and fixture_ok and scale_ok,
        "PE sign (+10 for y=100, yhat=90), hand MAPE/MedAPE/IQR/RMSE fixture, scale behaviour",
    )
