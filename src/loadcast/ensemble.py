"""Bootstrap ensembling over a trained pool and multi-trial metric averaging.

A trial draws ``ensemble_size`` members from the pool with replacement,
aggregates their per-window forecasts elementwise (median by default), and
scores the result. The final report averages each metric across trials and
records the across-trial spread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evaluation import REPORT_METRICS, SERIES_METRICS, aggregate_metrics, per_series_table
from .model import model_forward

AGGREGATIONS = ("median", "mean")


@dataclass(frozen=True)
class EnsembleSpec:
    """Bootstrap draw size, trial count, aggregation function, and RNG seed."""

    ensemble_size: int = 64
    trials: int = 100
    aggregation: str = "median"
    seed: int = 0

    def __post_init__(self):
        if self.ensemble_size < 1:
            raise ValueError("ensemble_size must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(f"aggregation must be one of {AGGREGATIONS}")


def draw_member_indices(pool_size: int, spec: EnsembleSpec, trial_index: int) -> np.ndarray:
    """Bootstrap (with replacement) member indices, reproducible from (seed, trial)."""
    if pool_size < 1:
        raise ValueError("cannot draw an ensemble from an empty pool")
    rng = np.random.default_rng([int(spec.seed), int(trial_index)])
    return rng.integers(pool_size, size=spec.ensemble_size)


def aggregate_forecasts(member_forecasts, aggregation: str = "median") -> np.ndarray:
    """Elementwise median or mean over the leading (member) axis of equal-shape forecasts."""
    if aggregation not in AGGREGATIONS:
        raise ValueError(f"aggregation must be one of {AGGREGATIONS}")
    try:
        stacked = np.asarray(member_forecasts, dtype=np.float64)
    except ValueError:
        raise ValueError("member forecasts differ in length") from None
    if stacked.ndim == 0 or len(stacked) == 0:
        raise ValueError("need at least one member forecast")
    return np.median(stacked, axis=0) if aggregation == "median" else stacked.mean(axis=0)


def member_forecast_matrix(pool, x, forecast_fn=None) -> np.ndarray:
    """Forecasts of every pool member on the lookback rows ``x``, shape (members, rows, H).

    ``forecast_fn(member, x) -> (rows, H)`` overrides the model forward pass;
    tests use it to inject oracle forecasts.
    """
    out = np.empty((len(pool.members), len(x), pool.config.horizon))
    for i, member in enumerate(pool.members):
        if forecast_fn is not None:
            out[i] = forecast_fn(member, x)
        else:
            out[i] = model_forward(member.load_params(), x, pool.config)[0]
    return out


@dataclass
class TrialsReport:
    """Per-trial metrics plus their across-trial mean and spread."""

    spec: EnsembleSpec
    per_trial: list[dict]  # REPORT_METRICS of each trial
    averaged: dict
    spread: dict
    per_series_averaged: dict
    mean_forecast: np.ndarray  # (rows, H), averaged over trials

    def to_dict(self) -> dict:
        return {
            "ensemble_size": self.spec.ensemble_size,
            "trials": self.spec.trials,
            "aggregation": self.spec.aggregation,
            "ensemble_seed": self.spec.seed,
            "averaged": self.averaged,
            "spread": self.spread,
            "per_series": self.per_series_averaged,
            "per_trial": self.per_trial,
        }


def run_trials(pool, spec: EnsembleSpec, x, y, series_ids, forecast_fn=None) -> TrialsReport:
    """Draw ``spec.trials`` bootstrap ensembles and score each on the rows of
    lookbacks ``x`` and targets ``y``, one row per series in ``series_ids``."""
    if not pool.members:
        raise ValueError("cannot evaluate an empty pool")
    if len(x) == 0:
        raise ValueError("no evaluation windows")
    if len(set(series_ids)) != len(y):
        raise ValueError("need exactly one evaluation row per series id")
    matrix = member_forecast_matrix(pool, x, forecast_fn)
    forecasts = np.empty((spec.trials, *matrix.shape[1:]))
    for trial in range(spec.trials):
        indices = draw_member_indices(len(pool.members), spec, trial)
        forecasts[trial] = aggregate_forecasts(matrix[indices], spec.aggregation)

    # score the series in id order
    ids = list(series_ids)
    order = sorted(range(len(ids)), key=ids.__getitem__)
    scores = aggregate_metrics(np.take(y, order, axis=0), np.take(forecasts, order, axis=1))
    values = scores["aggregate"]
    averaged = {name: float(vals.mean()) for name, vals in values.items()}
    spread = {
        name: {
            "std": float(vals.std()),
            "iqr": float(np.quantile(vals, 0.75) - np.quantile(vals, 0.25)),
        }
        for name, vals in values.items()
    }
    # each series' mean over trials, reduced along a contiguous trial axis
    series_means = {
        name: np.ascontiguousarray(scores[name].T).mean(axis=-1) for name in SERIES_METRICS
    }
    per_series_averaged = per_series_table(
        [ids[i] for i in order], series_means, float(np.shape(y)[1])
    )
    return TrialsReport(
        spec=spec,
        per_trial=[
            {name: float(values[name][t]) for name in REPORT_METRICS} for t in range(spec.trials)
        ],
        averaged=averaged,
        spread=spread,
        per_series_averaged=per_series_averaged,
        mean_forecast=forecasts.sum(axis=0) / spec.trials,
    )
