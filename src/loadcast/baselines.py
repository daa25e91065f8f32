"""Sanity baselines for benchmark comparisons."""

from __future__ import annotations

import numpy as np

PERIOD = 12  # months in one seasonal period


def seasonal_naive(history, horizon: int) -> np.ndarray:
    """Repeat the value from one seasonal period earlier.

    Forecast step j is the observation ``PERIOD`` months before the same
    calendar position, taken from the trailing period of ``history``.
    """
    history = np.asarray(history, dtype=np.float64)
    if history.size < PERIOD:
        raise ValueError(f"seasonal-naive needs at least {PERIOD} months of history")
    last_period = history[-PERIOD:]
    return np.array([last_period[j % PERIOD] for j in range(horizon)])
