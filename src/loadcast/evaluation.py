"""Forecast accuracy metrics, error-distribution statistics, and the
Diebold-Mariano test of equal forecast accuracy.

Sign convention: PE = 100 * (actual - forecast) / actual, so positive mean
percentage error means the model underpredicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SERIES_METRICS = ("medape", "mape", "iqr_ape", "rmse", "mpe")
REPORT_METRICS = SERIES_METRICS + ("mpe_skewness", "mpe_kurtosis")


def point_errors(y, y_hat) -> np.ndarray:
    """Percentage errors of forecasts ``y_hat`` against actuals ``y``.

    ``y_hat`` has the shape of ``y``, optionally behind leading axes (trials).
    """
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y_hat.shape[y_hat.ndim - y.ndim:] != y.shape:
        raise ValueError(f"shape mismatch: actuals {y.shape} vs forecasts {y_hat.shape}")
    if np.any(y <= 0.0):
        raise ValueError("percentage errors require strictly positive actuals")
    return 100.0 * (y - y_hat) / y


def _standardized_moment(x, k: int):
    """k-th central moment, k = 3 or 4, over m2 ** (k/2) along the last axis; 0.0
    where the spread is 0."""
    x = np.asarray(x, dtype=np.float64)
    centered = x - x.mean(axis=-1, keepdims=True)
    power = np.square(centered)
    m2 = np.mean(power, axis=-1)
    # the cube and fourth power as products with the squares, made in place:
    # numpy's array power is ~50x slower, and its bits depend on which of its
    # SIMD loops the CPU runs
    np.multiply(power, centered if k == 3 else power, out=power)
    mk = np.mean(power, axis=-1)
    # one scalar power per sample: numpy's array power can differ from it in the last bit
    denom = np.reshape([m ** (k / 2) for m in np.ravel(m2).tolist()], m2.shape)
    return np.divide(mk, denom, out=np.zeros_like(mk), where=m2 != 0.0)[()]


def skewness(x):
    """Moment-based skewness along the last axis; 0.0 for zero-spread samples."""
    return _standardized_moment(x, 3)


def kurtosis(x):
    """Moment-based kurtosis along the last axis, non-excess (Gaussian = 3);
    0.0 for zero-spread samples."""
    return _standardized_moment(x, 4)


def aggregate_metrics(y, y_hat) -> dict:
    """Score forecasts ``y_hat`` (trials, series, H) against actuals ``y`` (series, H).

    Returns each of ``SERIES_METRICS`` as a (trials, series) array, plus an
    ``aggregate`` dict of (trials,) arrays: the unweighted mean of each series
    metric over series, and the skewness/kurtosis of the percentage errors
    pooled over every series and point, in row order. Quartiles interpolate
    linearly between order statistics.
    """
    # C order fixes the summation order of every reduction below, whatever the input layout
    y = np.ascontiguousarray(y, dtype=np.float64)
    y_hat = np.ascontiguousarray(y_hat, dtype=np.float64)
    if y.ndim != 2 or y.size == 0:
        raise ValueError(f"need actuals of shape (series, H), got {y.shape}")
    if y_hat.ndim != 3 or len(y_hat) == 0:
        raise ValueError(f"need forecasts of shape (trials, series, H), got {y_hat.shape}")
    pe = point_errors(y, y_hat)
    ape = np.abs(pe)
    q1, q3 = np.quantile(ape, [0.25, 0.75], axis=-1)
    scores = {
        "medape": np.median(ape, axis=-1),
        "mape": ape.mean(axis=-1),
        "iqr_ape": q3 - q1,
        "rmse": np.sqrt(((y - y_hat) ** 2).mean(axis=-1)),
        "mpe": pe.mean(axis=-1),
    }
    pooled = pe.reshape(len(pe), -1)
    scores["aggregate"] = {
        **{name: scores[name].mean(axis=-1) for name in SERIES_METRICS},
        "mpe_skewness": skewness(pooled),
        "mpe_kurtosis": kurtosis(pooled),
    }
    return scores


def per_series_table(series_ids, columns: dict, n_points) -> dict:
    """``{series id: {metric: value, "n_points": n_points}}`` from per-series
    columns of ``SERIES_METRICS``, indexed like ``series_ids``."""
    return {
        sid: {**{name: float(columns[name][i]) for name in SERIES_METRICS}, "n_points": n_points}
        for i, sid in enumerate(series_ids)
    }


# ---------------------------------------------------------------------------
# Diebold-Mariano test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DMResult:
    """Test outcome; ``degenerate`` marks zero/invalid long-run variance cases."""

    statistic: float | None
    p_value: float | None
    n: int
    lag: int
    mean_differential: float
    long_run_variance: float
    degenerate: bool
    reason: str | None = None


def _loss_transform(errors: np.ndarray, loss_kind: str) -> np.ndarray:
    if loss_kind == "absolute":
        return np.abs(errors)
    if loss_kind == "squared":
        return errors**2
    raise ValueError("loss_kind must be 'absolute' or 'squared'")


def diebold_mariano(e1, e2, loss_kind: str, horizon_correction: int) -> DMResult:
    """Equal-accuracy test on two aligned forecast-error series.

    The loss differential d_t = g(e1_t) - g(e2_t) is scored with
    DM = mean(d) / sqrt(LRV(d)/n), where the long-run variance is the
    truncated autocovariance sum with lag window ``horizon_correction - 1``
    (the classic h-step correction). Under equal accuracy, DM is
    asymptotically standard normal. Identical models, or a non-positive
    variance estimate, yield a flagged degenerate result instead of NaN.
    """
    e1 = np.asarray(e1, dtype=np.float64)
    e2 = np.asarray(e2, dtype=np.float64)
    if e1.shape != e2.shape or e1.ndim != 1:
        raise ValueError("error series must be one-dimensional and equally long")
    n = e1.size
    if n < 8:
        raise ValueError(f"need at least 8 loss differentials, got {n}")
    if horizon_correction < 1:
        raise ValueError("horizon_correction must be >= 1")
    d = _loss_transform(e1, loss_kind) - _loss_transform(e2, loss_kind)
    lag = min(horizon_correction - 1, n - 1)
    mean_d = float(d.mean())
    if np.ptp(d) == 0.0:
        return DMResult(
            statistic=None, p_value=None, n=n, lag=lag, mean_differential=mean_d,
            long_run_variance=0.0, degenerate=True,
            reason="constant loss differential (identical models?)",
        )
    centered = d - mean_d
    # autocovariances with the 1/n convention at every lag
    lrv = float(np.sum(centered**2)) / n
    for k in range(1, lag + 1):
        lrv += 2.0 * float(np.sum(centered[k:] * centered[:-k])) / n
    if lrv <= 0.0:
        return DMResult(
            statistic=None, p_value=None, n=n, lag=lag, mean_differential=mean_d,
            long_run_variance=lrv, degenerate=True,
            reason="non-positive long-run variance estimate",
        )
    statistic = mean_d / math.sqrt(lrv / n)
    p_value = math.erfc(abs(statistic) / math.sqrt(2.0))  # two-sided
    return DMResult(
        statistic=statistic, p_value=p_value, n=n, lag=lag, mean_differential=mean_d,
        long_run_variance=lrv, degenerate=False,
    )


def z_critical(alpha: float) -> float:
    """Two-sided standard-normal critical value, via bisection on erfc."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    lo, hi = 0.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.erfc(mid / math.sqrt(2.0)) > alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def dm_decision(statistic: float, alpha: float) -> dict:
    """Two-sided decision against the standard-normal critical value."""
    critical = z_critical(alpha)
    return {
        "alpha": alpha,
        "critical_z": critical,
        "reject_equal_accuracy": abs(statistic) > critical,
    }
