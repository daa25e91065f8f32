"""Shared test utilities: tiny configs, dataset builders, independent
reference implementations used as oracles, and the finite-difference gradient
checker."""

import math
import os
from dataclasses import dataclass

import numpy as np

from loadcast.data import TimeSeries
from loadcast.model import ModelConfig, loss_and_grad, normalize_input, parameter_prefixes
from loadcast.train import BLAS_THREAD_VARIABLES


def tiny_config(**overrides) -> ModelConfig:
    base = dict(
        lookback=6, horizon=3, blocks=2, fc_width=8, fc_layers=2, sharing=False, seed=3
    )
    base.update(overrides)
    return ModelConfig(**base)


def params_of(pool, i) -> dict:
    """Member ``i``'s parameters without the member axis, as ``pool.member_params`` reads them."""
    return {name: value[0] for name, value in pool.member_params([i]).items()}


def sinusoid_trend_series(
    sid="SYN", months=48, level=1000.0, amplitude=0.2, trend_per_year=0.02,
    noise=0.0, seed=0, start=(2015, 1),
) -> TimeSeries:
    rng = np.random.default_rng(seed)
    t = np.arange(months, dtype=float)
    values = (
        level
        * (1.0 + amplitude * np.sin(2.0 * np.pi * t / 12.0))
        * (1.0 + trend_per_year * t / 12.0)
        * (1.0 + noise * rng.standard_normal(months))
    )
    return TimeSeries(sid, start, values)


def positive_batch(rng, shape, loc=100.0, spread=15.0):
    """Strictly positive random batch, comfortably away from zero."""
    return np.abs(rng.normal(loc, spread, size=shape)) + 5.0


def dm_reference(e1, e2, loss_kind="absolute", horizon_correction=1):
    """Brute-force Diebold-Mariano: plain loops, no numpy vectorization.

    Returns (statistic or None, degenerate flag). Mirrors the documented
    estimator: loss differential, truncated autocovariance sum with lag
    window h-1, DM = mean(d) / sqrt(LRV/n).
    """
    if loss_kind == "absolute":
        g1 = [abs(float(v)) for v in e1]
        g2 = [abs(float(v)) for v in e2]
    else:
        g1 = [float(v) ** 2 for v in e1]
        g2 = [float(v) ** 2 for v in e2]
    d = [a - b for a, b in zip(g1, g2)]
    n = len(d)
    mean_d = sum(d) / n
    if max(d) == min(d):
        return None, True
    lag = min(horizon_correction - 1, n - 1)
    gammas = []
    for k in range(lag + 1):
        acc = 0.0
        for t in range(k, n):
            acc += (d[t] - mean_d) * (d[t - k] - mean_d)
        gammas.append(acc / n)
    lrv = gammas[0] + 2.0 * sum(gammas[1:])
    if lrv <= 0.0:
        return None, True
    return mean_d / math.sqrt(lrv / n), False


def median_reference(matrix, draws):
    """One ``np.median`` over the gathered members per trial: the aggregation
    loop that ``aggregate_forecasts`` replaced, kept as its bit-exact oracle."""
    return np.stack([np.median(matrix[drawn], axis=0) for drawn in draws])


def metrics_reference(y, y_hat):
    """Per-trial, per-series loop of 1-D numpy calls: the scorer that
    ``aggregate_metrics`` replaced, kept as its bit-exact oracle.

    Returns one ``(per-series metric dicts, aggregate dict)`` pair per trial.
    """
    out = []
    for trial in y_hat:
        per_series, pooled = [], []
        for actual, forecast in zip(y, trial):
            pe = 100.0 * (actual - forecast) / actual
            ape = np.abs(pe)
            q1, q3 = np.quantile(ape, [0.25, 0.75])
            per_series.append({
                "medape": float(np.median(ape)),
                "mape": float(ape.mean()),
                "iqr_ape": float(q3 - q1),
                "rmse": float(np.sqrt(((actual - forecast) ** 2).mean())),
                "mpe": float(pe.mean()),
            })
            pooled.append(pe)
        aggregate = {name: float(np.mean([m[name] for m in per_series])) for name in per_series[0]}
        centered = np.concatenate(pooled) - np.concatenate(pooled).mean()
        m2 = np.mean(centered**2)
        aggregate["mpe_skewness"] = float(np.mean(centered**2 * centered) / m2**1.5) if m2 else 0.0
        aggregate["mpe_kurtosis"] = float(np.mean(centered**2 * centered**2) / m2**2) if m2 else 0.0
        out.append((per_series, aggregate))
    return out


def zero_head_params(config: ModelConfig, seed=11) -> dict:
    """Random MLP weights but exactly-zero heads, for traceable forward passes."""
    from loadcast.model import init_params

    params = init_params(config, np.random.default_rng(seed))
    for name in params:
        if ".backcast." in name or ".forecast." in name:
            params[name] = np.zeros_like(params[name])
    return params


def zero_head_reference(x, config: ModelConfig):
    """Independent trace of the forward recurrence when both heads emit zeros.

    With zero heads each block outputs its input's mean in every position
    (or zero under noDestd), so the whole pass reduces to a mean/residual
    recurrence that needs no network weights.
    """
    x = np.asarray(x, dtype=float)
    scale = x.max()
    xm = x / scale
    total = np.zeros(config.horizon)
    for m in range(config.blocks):
        out = 0.0 if config.no_destd else xm.mean()
        total = total + out
        backcast = np.full_like(xm, out)
        residual = xm - backcast
        if not config.no_relu:
            residual = np.maximum(residual, 0.0)
        xm = residual
    return scale * total


def relu_margins(params, x, config) -> float:
    """Smallest |pre-activation| over hidden layers and residual gates.

    Independent numpy trace of the forward pass, used to confirm the gradient
    check never sits within the excluded band around a ReLU kink.
    """
    normed, _ = normalize_input(np.atleast_2d(x))
    prefixes = parameter_prefixes(config)
    margin = np.inf
    xm = normed
    for m in range(config.blocks):
        prefix = prefixes[0] if config.sharing else prefixes[m]
        h = xm
        for i in range(config.fc_layers):
            pre = h @ params[f"{prefix}.fc{i}.W"].T + params[f"{prefix}.fc{i}.b"]
            margin = min(margin, float(np.abs(pre).min()))
            h = np.maximum(pre, 0.0)
        raw_b = h @ params[f"{prefix}.backcast.W"].T + params[f"{prefix}.backcast.b"]
        if config.no_destd:
            backcast = raw_b
        else:
            mu = xm.mean(axis=1, keepdims=True)
            sd = xm.std(axis=1, keepdims=True)
            backcast = raw_b * sd + mu
        residual = xm - backcast
        if m + 1 < config.blocks:
            if not config.no_relu:
                margin = min(margin, float(np.abs(residual).min()))
                xm = np.maximum(residual, 0.0)
            else:
                xm = residual
    return margin


def batch_objective(x, y, config):
    """``fn(params) -> (loss, grads)`` of the training loss on one fixed batch."""

    def fn(p):
        loss, _, grads = loss_and_grad(p, x, y, config)
        return loss, grads

    return fn


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    """Max relative error per parameter block vs central finite differences."""

    max_rel_error: dict[str, float]
    tolerance: float

    @property
    def failed(self) -> list[str]:
        return [name for name, err in self.max_rel_error.items() if err > self.tolerance]

    @property
    def passed(self) -> bool:
        return not self.failed

    @property
    def worst(self) -> float:
        return max(self.max_rel_error.values(), default=0.0)


def grad_check(
    fn,
    params: dict,
    tolerance: float = 1e-4,
    *,
    step_scale: float = 1e-5,
    abs_floor: float = 1e-7,
) -> GradCheckReport:
    """Compare the gradients of ``fn`` against central finite differences.

    ``fn(params) -> (loss, grads)`` must evaluate the objective at the current
    parameter values and return its gradient for every parameter; entries are
    perturbed in place with ``h = step_scale * max(1, |theta|)`` and restored.
    Coordinates where both gradients are below ``abs_floor`` count as matching
    zeros.
    """
    loss, analytic = fn(params)
    if not np.isfinite(loss):
        raise FloatingPointError("objective is not finite at the evaluation point")
    report = {}
    for name, arr in params.items():
        g = analytic[name]
        worst = 0.0
        for idx in np.ndindex(arr.shape):
            theta = float(arr[idx])
            h = step_scale * max(1.0, abs(theta))
            arr[idx] = theta + h
            fp = float(fn(params)[0])
            arr[idx] = theta - h
            fm = float(fn(params)[0])
            arr[idx] = theta
            fd = (fp - fm) / (2.0 * h)
            ga = float(g[idx])
            scale = max(abs(fd), abs(ga))
            if scale < abs_floor:
                continue
            worst = max(worst, abs(fd - ga) / scale)
        report[name] = worst
    return GradCheckReport(report, tolerance)


def blas_threads(_):
    """The BLAS thread-count variables and the thread count of the calling
    process after one matrix product; ``in_worker_processes`` runs it in a
    worker. OpenBLAS starts its threads when numpy loads it."""
    matrix = np.ones((64, 64))
    matrix @ matrix
    variables = {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES}
    return variables, len(os.listdir("/proc/self/task"))
