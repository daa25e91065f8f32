"""Loading, validation, splitting, windowing, and sampling of monthly demand series.

The engine ingests long-form UTF-8 CSV (``series_id,year,month,value``), the
one dataset format; a ``.json`` dataset path is refused. Series are validated on
load: strictly positive values, contiguous months, and enough history to hold
at least one training window plus the held-out evaluation blocks.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
import re
import warnings
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

CSV_HEADER = ("series_id", "year", "month", "value")


class DatasetError(ValueError):
    """Input data is unreadable or violates a series invariant."""


def month_index(year: int, month: int) -> int:
    return year * 12 + (month - 1)


def index_to_month(index: int) -> tuple[int, int]:
    year, m = divmod(index, 12)
    return year, m + 1


@dataclass(frozen=True)
class TimeSeries:
    """One country's monthly demand history, chronologically ordered.

    Immutable after construction; the value buffer is marked read-only so the
    same instance can be shared by concurrent trainers.
    """

    id: str
    start: tuple[int, int]  # (year, month) of the first observation
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise DatasetError(f"series '{self.id}': values must be one-dimensional")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "start", (int(self.start[0]), int(self.start[1])))

    def __len__(self) -> int:
        return int(self.values.size)

    def month_at(self, index: int) -> tuple[int, int]:
        """Calendar (year, month) of the observation at a 0-based offset."""
        return index_to_month(month_index(*self.start) + index)


class _SearchedRow:
    """The row number of the line that starts after ``text[offset]``, a
    newline. It is counted only when a message names it; rows order as their
    offsets do, which is file order."""

    __slots__ = ("text", "offset")

    def __init__(self, text: str, offset: int):
        self.text, self.offset = text, offset

    def __lt__(self, other: _SearchedRow) -> bool:
        return self.offset < other.offset

    def __str__(self) -> str:
        return str(self.text.count("\n", 0, self.offset) + 2)


def _kept_records(fh, keep) -> tuple[Iterator[list[str]], Iterator]:
    """A reader of the records left in ``fh``, a CSV file read past its header,
    that may belong to the ``keep`` ids, and an iterator of their row numbers.

    Text with no quote, no NUL and no lone CR holds one record per line. Then
    one regular-expression pass over the text finds the lines whose stripped
    first field is a kept id, and only those are split, in file order; every
    other line is skipped unsplit, and a kept line's row number is counted
    only if a message names it. Other text goes through the full reader,
    which yields every record.
    """
    text = fh.read()
    if '"' in text or "\0" in text or "\r" in text and re.search(r"\r(?!\n)", text):
        if not fh.seekable():  # a pipe: the reader gets a copy, four bytes a character
            return csv.reader(io.StringIO(text, newline="")), itertools.count(2)
        fh.seek(0)  # stream the file again rather than copy its text
        reader = csv.reader(fh)
        next(reader)  # the header, checked by the caller
        return reader, itertools.count(2)
    text = "\n" + text  # every line then starts after a "\n"
    # an id holding a newline matches no record, and would run into the next line
    ids = "|".join(re.escape(sid) for sid in map(str, keep) if "\n" not in sid)
    hits = list(re.finditer(rf"\n([^\S\n]*(?:{ids})[^\S\n]*(?:,[^\n]*)?)(?=\n|\Z)", text))
    return csv.reader([hit[1] for hit in hits]), (_SearchedRow(text, hit.start()) for hit in hits)


def _read_csv_rows(path: Path, keep) -> dict[str, list[tuple]]:
    """Each kept series' (month index, value, row number) triples; a searched
    line's row number is a ``_SearchedRow``, which reads as the number."""
    per_id: dict[str, list[tuple]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        # the reader is zipped ahead of the row numbers, so when it fails on a
        # record, that record's number is the next one left
        reader, rownos = csv.reader(fh), itertools.count(1)
        try:
            header = next(reader, None)
            next(rownos)
            if header is None or tuple(c.strip() for c in header) != CSV_HEADER:
                raise DatasetError(
                    f"{path}: expected header '{','.join(CSV_HEADER)}', got {header}"
                )
            if keep is not None:
                reader, rownos = _kept_records(fh, keep)
            for row, rowno in zip(reader, rownos):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                sid = row[0].strip()
                if sid.startswith("#") or (keep is not None and sid not in keep):
                    continue
                if len(row) != 4:
                    raise DatasetError(f"{path}: row {rowno}: expected 4 fields, got {len(row)}")
                try:
                    year, month, value = int(row[1]), int(row[2]), float(row[3])
                except ValueError as exc:
                    raise DatasetError(f"{path}: row {rowno}: {exc}") from None
                if not 1 <= month <= 12:
                    raise DatasetError(f"{path}: row {rowno}: month {month} out of range 1..12")
                if not math.isfinite(value) or value <= 0.0:
                    raise DatasetError(
                        f"{path}: row {rowno}: value {value} violates the strictly-positive rule"
                    )
                per_id.setdefault(sid, []).append((month_index(year, month), value, rowno))
        except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
            raise DatasetError(f"{path}: row {next(rownos)}: {exc}") from None
    return per_id


def _month_location(rows, month: int, k: int) -> str:
    """Where the k-th of ``month``'s (month index, value, row number) ``rows``
    was read, as "row <number>"; a month's rows are ordered by value, then by
    that text."""
    return sorted((v, f"row {rowno}") for i, v, rowno in rows if i == month)[k][1]


def check_dataset_path(path) -> Path:
    """``path`` as a Path; a DatasetError naming it if it ends in ``.json`` (in
    any case), checked first, or if it does not exist."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        raise DatasetError(
            f"{path}: datasets are CSV with header '{','.join(CSV_HEADER)}'; "
            "JSON datasets are no longer read"
        )
    if not path.exists():
        raise DatasetError(f"dataset file not found: {path}")
    return path


def load_dataset(
    path,
    *,
    min_length: int,
    on_short: str = "error",
    series_ids=None,
) -> list[TimeSeries]:
    """Load and validate a dataset, returning one TimeSeries per distinct id.

    A dataset is UTF-8 CSV with header ``series_id,year,month,value``. A path
    ending in ``.json`` (in any case) is refused before it is opened: JSON
    datasets are no longer read (``check_dataset_path``). Series shorter than
    ``min_length`` are a hard error unless ``on_short="drop"``, which drops
    them with a warning. Months must be contiguous within each series; rows
    may arrive unsorted.

    ``series_ids`` (a collection of ids; default: every id) restricts loading
    to those series: rows of other ids are skipped unparsed and unvalidated,
    and a requested id that the file lacks is an error. One regular-expression
    pass finds the requested series' lines, and other series' lines are
    skipped unsplit; the file's text is then held in memory whole. The search
    costs more per kept line than the reader, so it is slower once the
    requested series hold more than about a third of the file. A file holding
    a quote, a NUL or a lone CR takes the full reader instead, which splits
    every record.
    """
    path = check_dataset_path(path)
    try:
        per_id = _read_csv_rows(path, None if series_ids is None else set(series_ids))
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: cannot be read as text: {exc}") from None
    for sid in series_ids or ():
        if sid not in per_id:
            raise DatasetError(f"{path}: unknown series id '{sid}'")
    if not per_id:
        raise DatasetError(f"{path}: no data rows")
    if on_short not in ("error", "drop"):
        raise DatasetError(f"on_short must be 'error' or 'drop', got '{on_short}'")

    out: list[TimeSeries] = []
    short: list[str] = []
    for sid in sorted(per_id):
        rows = sorted(per_id[sid])
        for (ia, _, _), (ib, _, _) in zip(rows, rows[1:]):
            if ib == ia:
                where = _month_location(rows, ib, 1)
                raise DatasetError(f"{path}: series '{sid}': duplicate month at {where}")
            if ib != ia + 1:
                raise DatasetError(
                    f"{path}: series '{sid}': gap in month sequence between "
                    f"{_month_location(rows, ia, -1)} and {_month_location(rows, ib, 0)}"
                )
        series = TimeSeries(sid, index_to_month(rows[0][0]), np.array([r[1] for r in rows]))
        if len(series) < min_length:
            short.append(f"{sid} ({len(series)} months)")
            continue
        out.append(series)
    if short:
        msg = f"{path}: series shorter than {min_length} months: {', '.join(short)}"
        if on_short == "error":
            raise DatasetError(msg)
        warnings.warn(msg)
    if not out:
        raise DatasetError(f"{path}: no series left after the length check")
    return out


@contextmanager
def open_replacing(path, newline):
    """A UTF-8 text file that replaces ``path`` whole when the block ends.

    The block writes a temporary file in ``path``'s directory, which is
    created first; ``os.replace`` then moves it over ``path``. If the block
    raises, the temporary file is removed and ``path`` is left as it was. A
    plain ``open`` creates the file, so it gets the mode a direct write gives.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline, encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_dataset_csv(series_list, path) -> None:
    """Write ``series_list`` as a CSV dataset; the file is replaced whole
    (``open_replacing``)."""
    with open_replacing(path, "") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for series in series_list:
            for i, value in enumerate(series.values):
                year, month = series.month_at(i)
                writer.writerow([series.id, year, month, repr(float(value))])


# ---------------------------------------------------------------------------
# Splitting and windowing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitSpec:
    """Chronological split: the final block is the test set, the block before
    it the validation set (``val_months=0`` merges validation into training)."""

    test_months: int = 12
    val_months: int = 12

    def __post_init__(self):
        if self.test_months < 0 or self.val_months < 0:
            raise ValueError("split month counts must be >= 0")


@dataclass(frozen=True)
class RegionSplit:
    """Half-open index ranges into a series; concatenating them reconstructs it."""

    train: tuple[int, int]
    val: tuple[int, int]
    test: tuple[int, int]


def split(series: TimeSeries, spec: SplitSpec) -> RegionSplit:
    """Partition a series into train/validation/test regions."""
    n = len(series)
    held = spec.test_months + spec.val_months
    train_stop = n - held
    if train_stop < 0:
        raise DatasetError(
            f"series '{series.id}' is too short for the requested split: {n} months, "
            f"{held} held out"
        )
    return RegionSplit(
        train=(0, train_stop),
        val=(train_stop, train_stop + spec.val_months),
        test=(n - spec.test_months, n),
    )


def training_windows(
    series_list, spec: SplitSpec, lookback: int, horizon: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every stride-1 window of each series' training region, stacked in series order.

    Returns ``(x, y, counts)``: lookback rows (n, lookback), target rows
    (n, horizon) and each series' window count (0 when its training region
    cannot host lookback + horizon months). The training region starts at
    offset 0, so window k of a series has its last lookback month (its anchor)
    at offset ``lookback - 1 + k``.
    """
    width = lookback + horizon
    empty = np.empty((0, width))
    views = []
    for series in series_list:
        stop = split(series, spec).train[1]
        views.append(sliding_window_view(series.values[:stop], width) if stop >= width else empty)
    rows = np.concatenate([empty, *views])
    return rows[:, :lookback], rows[:, lookback:], np.array([len(v) for v in views], dtype=np.int64)


def evaluation_windows(
    series_list, spec: SplitSpec, lookback: int, horizon: int, region: str
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """One window per series, in ``series_list`` order: the target row is the
    chosen held-out region and the lookback row the months right before it.

    Returns ``(x, y, starts)``, with ``starts[i]`` the region's start offset in
    series i.
    """
    if region not in ("val", "test"):
        raise ValueError("region must be 'val' or 'test'")
    x = np.empty((len(series_list), lookback))
    y = np.empty((len(series_list), horizon))
    starts = []
    for i, series in enumerate(series_list):
        start, stop = getattr(split(series, spec), region)
        if stop - start == 0:
            raise DatasetError(f"series '{series.id}' has an empty {region} region")
        if stop - start != horizon:
            raise DatasetError(
                f"series '{series.id}': {region} region spans {stop - start} months "
                f"but the forecast horizon is {horizon}"
            )
        if start < lookback:
            raise DatasetError(
                f"series '{series.id}': fewer than {lookback} months precede the {region} region"
            )
        x[i] = series.values[start - lookback : start]
        y[i] = series.values[start:stop]
        starts.append(start)
    return x, y, starts


class StratifiedSampler:
    """Infinite stream of window indices: uniform over series, then uniform
    within the series.

    ``sizes`` holds each series' window count; series without windows are
    never drawn. Every other series has the same expected representation per
    batch regardless of its length. Single-owner (stateful RNG); reproducible
    from the seed for an identical sequence of draw calls.
    """

    def __init__(self, sizes, seed):
        sizes = np.asarray(sizes, dtype=np.int64)
        self._series = np.flatnonzero(sizes > 0)
        if self._series.size == 0:
            raise DatasetError("all per-series window collections are empty")
        self._sizes = sizes[self._series]
        self._rng = np.random.default_rng(seed)

    def draw_batch_indices(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(series index into ``sizes``, window index within that series) of ``n`` draws."""
        k = self._rng.integers(self._series.size, size=n)
        return self._series[k], self._rng.integers(self._sizes[k])


# ---------------------------------------------------------------------------
# Synthetic benchmark
# ---------------------------------------------------------------------------

SYNTHETIC_START = (2010, 1)  # (year, month) of every synthetic series' first observation


def synthetic_dataset(
    n_series: int, months: int, *, amplitude: float, trend_per_year: float, noise: float,
    seed: int,
) -> list[TimeSeries]:
    """Benchmark generator: sinusoidal seasonality + linear trend + multiplicative noise.

    Per series, a random base level (log-uniform) and seasonal phase; the
    seasonal swing is ``amplitude`` of the level, the trend ``trend_per_year``
    per year, and the noise factor ``1 + noise * N(0,1)`` (clipped away from 0).
    """
    rng = np.random.default_rng(seed)
    series = []
    t = np.arange(months, dtype=np.float64)
    for i in range(n_series):
        level = float(np.exp(rng.uniform(np.log(2e3), np.log(8e4))))
        phase = float(rng.uniform(0.0, 12.0))
        seasonal = 1.0 + amplitude * np.sin(2.0 * np.pi * (t + phase) / 12.0)
        trend = 1.0 + trend_per_year * t / 12.0
        factor = np.clip(1.0 + noise * rng.standard_normal(months), 0.05, None)
        series.append(TimeSeries(f"S{i:02d}", SYNTHETIC_START, level * seasonal * trend * factor))
    return series
