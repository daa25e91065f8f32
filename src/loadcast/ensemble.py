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
from .model import block_sum, forward_blocks

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


def aggregate_forecasts(matrix, draws, aggregation: str) -> np.ndarray:
    """Elementwise median or mean of each trial's drawn members.

    ``matrix`` holds the member forecasts, shape (members, rows, H); ``draws``
    holds each trial's member indices, shape (trials, ensemble_size), repeats
    allowed. Returns (trials, rows, H).

    A draw with replacement is fixed by how often it takes each member, so when
    the pool is no larger than the draw, the members are sorted once at every
    position and one walk over the sorted members serves every trial. Each
    step adds the count of the member sorted there to every trial's running
    draw count, in the smallest unsigned dtype that holds the draw. Per middle
    order statistic k, the number of steps that end with at most k draws is
    the sorted rank of that statistic. The median is the middle one for an
    odd draw and half the sum of the two middle ones for an even draw, as in
    ``np.median``, so the bits equal ``np.median`` over the drawn members, NaN
    wherever a drawn member is NaN. Only which of two tied zeros of opposite
    sign comes back may differ. The walk's work grows with members x trials x
    positions and its memory with trials x positions, so a pool larger than the
    draw takes ``np.median`` of each trial's gathered members instead, in
    proportion to the draw.
    """
    return next(aggregate_blocks(matrix, [draws], aggregation))


def aggregate_blocks(matrix, blocks, aggregation: str):
    """``aggregate_forecasts`` of each trial block in ``blocks``, an iterable of
    ``draws`` arrays, yielded block by block. The walk sorts the members once,
    when the first block needs it, and serves every block from that sort."""
    if aggregation not in AGGREGATIONS:
        raise ValueError(f"aggregation must be one of {AGGREGATIONS}")
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 3 or len(matrix) == 0:
        raise ValueError("need a (members, rows, H) forecast matrix with at least one member")
    flat = matrix.reshape(len(matrix), -1)
    positions = flat.shape[1]
    ordered = None  # the members sorted at every position, once the walk needs them
    for draws in blocks:
        draws = np.asarray(draws)
        if draws.ndim != 2 or draws.shape[1] == 0 or draws.dtype.kind not in "iu":
            raise ValueError("need (trials, ensemble_size) integer member indices")
        if draws.size and not 0 <= draws.min() <= draws.max() < len(matrix):
            raise ValueError(f"member index out of range for a pool of {len(matrix)}")
        out = np.empty((len(draws), *matrix.shape[1:]))
        if aggregation == "mean" or len(matrix) > draws.shape[1]:
            reduce = np.mean if aggregation == "mean" else np.median
            for t, drawn in enumerate(draws):
                out[t] = reduce(matrix[drawn], axis=0)
            yield out
            continue

        if ordered is None:
            order = np.argsort(flat, axis=0)
            ordered = np.take_along_axis(flat, order, axis=0)
            order = order.astype(np.min_scalar_type(len(matrix) - 1))
            nan = np.isnan(flat)
        trials, size = draws.shape
        count = np.min_scalar_type(size)
        # counts[m, t]: how often trial t draws member m
        counts = np.bincount((draws + len(matrix) * np.arange(trials)[:, None]).ravel(),
                             minlength=len(matrix) * trials).reshape(trials, -1).T.astype(count)
        # the walk's state is laid out (positions, trials), so that one step's
        # counts are one row gather of ``counts``
        middles = sorted({(size - 1) // 2, size // 2})
        drawn_upto = np.zeros((positions, trials), dtype=count)
        ranks = [np.zeros_like(drawn_upto) for _ in middles]
        passed = np.empty(drawn_upto.shape, dtype=bool)
        for j in range(len(matrix) - 1):  # every draw is at or below the last member
            drawn_upto += counts[order[j]]
            for k, rank in zip(middles, ranks):
                np.less_equal(drawn_upto, k, out=passed)
                rank += passed

        # the middle order statistics, (trials, positions) like ``out``
        columns = np.arange(positions)
        median = out.reshape(trials, -1)
        median[...] = ordered[ranks[0].T, columns]
        if len(ranks) == 2:
            median += ordered[ranks[1].T, columns]
            median /= 2
        if nan.any():
            median[(counts.T > 0) @ nan] = np.nan
        yield out


# Bytes one chunk of ``member_forwards`` may hold. A chunk of k members on n
# lookback rows counts as k * (1 + n) member rows: the k rows of parameters,
# and per lookback row a generous bound on what its forward keeps.
CHUNK_BYTES = 4 << 20

# Bytes one block of ``run_trials`` may hold. A trial counts as 6 float64
# values per forecast position: its median, the median's copy in series
# order, and the ~4.6 that ``aggregate_metrics`` peaks at in tracemalloc. So
# the ``score-many`` benchmark shape (128 series x 12 months) takes 14 trials
# a block, and a shape of up to 18 series takes the default 100 in one.
TRIAL_BYTES = 1 << 20


def member_forwards(pool, x, members):
    """Run the pool members numbered ``members`` on the lookback rows ``x``.

    The members run in chunks of as many as ``CHUNK_BYTES`` allows, and at
    least one. Each chunk reads its members' parameters with
    ``pool.member_params`` and makes one ``forward_blocks`` pass with a
    leading member axis. Yields ``(start, scale, blocks)`` per chunk: the
    chunk's offset in ``members``, each row's input scale, and the pass's
    iterator of ``Block``s, each shaped (chunk, rows, ...). A caller keeps of
    each block what it needs before it takes the next chunk; nothing else of
    the pass stays.
    """
    size = max(1, CHUNK_BYTES // (pool.rows.dtype.itemsize * (1 + len(x))))
    for start in range(0, len(members), size):
        # the gathered parameters are freed once the chunk's blocks are all taken
        yield (start, *forward_blocks(pool.member_params(members[start : start + size]), x,
                                      pool.config))


def member_forecast_matrix(pool, x, members) -> np.ndarray:
    """Forecasts of the pool members numbered ``members`` on the lookback rows
    ``x``, shape (len(members), rows, H), from ``member_forwards``: of each
    pass only the running sum of the block forecasts stays."""
    out = np.empty((len(members), len(x), pool.config.horizon))
    for start, scale, blocks in member_forwards(pool, x, members):
        y_hat = block_sum(scale, (block.forecast for block in blocks))
        out[start : start + len(y_hat)] = y_hat
    return out


def _pairwise_sum(values, n):
    """The elementwise sum of the next ``n`` arrays of the iterator ``values``,
    added in the order numpy sums ``n`` values along a contiguous axis: 0.0
    plus their pairwise sum. So a sum over trials taken as the trials arrive
    has the bits of a sum over a contiguous trial axis, without holding every
    trial."""
    return 0.0 + _pairwise(values, n)


def _pairwise(values, n):
    # numpy's pairwise summation: fewer than 8 values in turn; up to 128 in
    # eight interleaved partial sums, then the rest in turn; above that, the
    # two halves, split at a multiple of 8
    if n < 8:
        total = -0.0
        for _ in range(n):
            total = total + next(values)
        return total
    if n <= 128:
        lanes = [next(values) for _ in range(8)]
        for i in range(8, n - n % 8):
            lanes[i % 8] = lanes[i % 8] + next(values)
        total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + (
            (lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
        for _ in range(n % 8):
            total = total + next(values)
        return total
    half = n // 2 - n // 2 % 8
    return _pairwise(values, half) + _pairwise(values, n - half)


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


def run_trials(matrix, spec: EnsembleSpec, y, series_ids) -> TrialsReport:
    """Draw ``spec.trials`` bootstrap ensembles from the pool whose member
    forecasts are ``matrix``, shape (members, rows, H) (see
    ``member_forecast_matrix``), and score each against the targets ``y``, one
    row per series in ``series_ids``.

    The trials are drawn, aggregated and scored in blocks of as many as
    ``TRIAL_BYTES`` allows, and at least one, so what a call holds beside its
    report does not grow with ``spec.trials``. The report has the bits of
    scoring every trial at once.
    """
    matrix = np.asarray(matrix)
    ids = list(series_ids)
    if len(matrix) == 0:
        raise ValueError("cannot evaluate an empty pool")
    if len(y) == 0:
        raise ValueError("no evaluation windows")
    if len(set(ids)) != len(ids) or len(ids) != len(y):
        raise ValueError(f"need exactly one evaluation row per series id, got {len(ids)} ids "
                         f"({len(set(ids))} distinct) for {len(y)} rows")
    if matrix.shape[1:] != np.shape(y):
        raise ValueError(f"member forecasts {matrix.shape[1:]} do not match the targets "
                         f"{np.shape(y)}")
    # score the series in id order
    order = sorted(range(len(ids)), key=ids.__getitem__)
    targets = np.take(y, order, axis=0)
    size = max(1, TRIAL_BYTES // (6 * 8 * np.size(y)))
    draws = ([draw_member_indices(len(matrix), spec, trial)
              for trial in range(start, min(start + size, spec.trials))]
             for start in range(0, spec.trials, size))
    values = {name: [] for name in REPORT_METRICS}  # each block's per-trial metrics
    forecast_sum = np.zeros(matrix.shape[1:])

    def series_scores():
        # each trial's SERIES_METRICS per series, (series, metrics), trial by
        # trial; scoring a block also keeps its trials' report metrics and adds
        # their forecasts to the sum, in trial order, as a sum over trials does
        for forecasts in aggregate_blocks(matrix, draws, spec.aggregation):
            for forecast in forecasts:
                np.add(forecast_sum, forecast, out=forecast_sum)
            scores = aggregate_metrics(targets, np.take(forecasts, order, axis=1))
            for name, vals in scores["aggregate"].items():
                values[name].append(vals)
            yield from np.stack([scores[name] for name in SERIES_METRICS], axis=-1)

    series_means = _pairwise_sum(series_scores(), spec.trials) / spec.trials
    values = {name: np.concatenate(vals) for name, vals in values.items()}
    averaged = {name: float(vals.mean()) for name, vals in values.items()}
    spread = {
        name: {
            "std": float(vals.std()),
            "iqr": float(np.quantile(vals, 0.75) - np.quantile(vals, 0.25)),
        }
        for name, vals in values.items()
    }
    per_series_averaged = per_series_table(
        [ids[i] for i in order],
        {name: series_means[:, k] for k, name in enumerate(SERIES_METRICS)},
        float(np.shape(y)[1]),
    )
    return TrialsReport(
        spec=spec,
        per_trial=[
            {name: float(values[name][t]) for name in REPORT_METRICS} for t in range(spec.trials)
        ],
        averaged=averaged,
        spread=spread,
        per_series_averaged=per_series_averaged,
        mean_forecast=forecast_sum / spec.trials,
    )
