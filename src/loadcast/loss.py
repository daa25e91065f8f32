"""Training losses: pinball-on-percentage-error, variance-normalized squared
error, and their weighted combination, with closed-form gradients.

Training calls these same functions. Their float order is fixed, because
trained checkpoints depend on it: pinball ``mean(d * (coef / y))`` and squared
error ``mean(d * d * (1 / var))``, with ``d = y - y_hat``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LossConfig:
    """Pinball level, weight of the normalized-MSE term, and ablation switches.

    ``no_l2`` drops the squared-error term entirely; ``no_var`` keeps it but
    skips the per-row variance normalization.
    """

    tau: float
    nmse_weight: float
    no_l2: bool
    no_var: bool

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        if not 0.0 <= self.nmse_weight < math.inf:
            raise ValueError(f"nmse_weight must be >= 0 and finite, got {self.nmse_weight}")


def _check_pair(y, y_hat):
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    y_hat = np.atleast_2d(np.asarray(y_hat, dtype=np.float64))
    if y.shape != y_hat.shape:
        raise ValueError(f"shape mismatch: targets {y.shape} vs forecasts {y_hat.shape}")
    if np.any(y <= 0.0):
        raise ValueError("percentage losses require strictly positive targets")
    return y, y_hat


def pinball_coefficients(y, y_hat, tau: float) -> np.ndarray:
    """tau on the underprediction branch (y >= y_hat, ties included), tau-1 otherwise."""
    return np.where(y >= y_hat, tau, tau - 1.0)


def pmape(y, y_hat, tau: float) -> float:
    """Mean pinball loss on percentage errors over all N*H points."""
    y, y_hat = _check_pair(y, y_hat)
    return float(np.mean((y - y_hat) * (pinball_coefficients(y, y_hat, tau) / y)))


def row_variance(y) -> np.ndarray:
    """Population variance of each target row (divide by the row length)."""
    return np.atleast_2d(np.asarray(y, dtype=np.float64)).var(axis=-1)


def _inverse_variance(y: np.ndarray, no_var: bool) -> np.ndarray:
    """1 / Var of each target row as a column; ones when ``no_var`` is set."""
    var = row_variance(y)
    if no_var:
        return np.ones_like(var)[:, None]
    zero = np.flatnonzero(var == 0.0)
    if zero.size:
        raise ValueError(
            f"target row {int(zero[0])} is constant (zero variance); "
            "variance-normalized squared error is undefined"
        )
    return 1.0 / var[:, None]


def nmse(y, y_hat, *, no_var: bool) -> float:
    """Squared error normalized by each row's variance.

    Equals 1.0 when the forecast is the row mean, i.e. when the model does no
    better than a per-window mean baseline.
    """
    y, y_hat = _check_pair(y, y_hat)
    d = y - y_hat
    return float(np.mean(d * d * _inverse_variance(y, no_var)))


def _uses_l2(config: LossConfig) -> bool:
    return not (config.no_l2 or config.nmse_weight == 0.0)


def loss_components(y, y_hat, config: LossConfig) -> dict:
    """The combined loss and its terms, as logged during training.

    ``loss`` is ``pmape + nmse_term``. ``nmse`` is None and ``nmse_term`` 0.0
    when the L2 term is disabled; otherwise ``nmse_term`` is the weighted value
    actually added to ``pmape``.
    """
    parts = {"pmape": pmape(y, y_hat, config.tau), "nmse": None, "nmse_term": 0.0}
    if _uses_l2(config):
        parts["nmse"] = nmse(y, y_hat, no_var=config.no_var)
        parts["nmse_term"] = config.nmse_weight * parts["nmse"]
    parts["loss"] = parts["pmape"] + parts["nmse_term"]
    return parts


def loss_gradients(y, y_hat, config: LossConfig) -> np.ndarray:
    """d(combined loss)/d(forecast); the pinball kink takes the y >= y_hat branch."""
    orig_shape = np.asarray(y_hat, dtype=np.float64).shape
    y2, yh2 = _check_pair(y, y_hat)
    n = y2.size
    grad = (1.0 / n) * (pinball_coefficients(y2, yh2, config.tau) / y2)
    if _uses_l2(config):
        l2 = (config.nmse_weight / n) * _inverse_variance(y2, config.no_var) * (y2 - yh2)
        grad = 2.0 * l2 + grad
    return (-grad).reshape(orig_shape)
