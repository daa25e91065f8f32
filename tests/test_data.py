import csv
import math
import os
import random
import re
import threading
import warnings

import numpy as np
import pytest
from scipy import stats as scipy_stats

from loadcast import data
from loadcast.data import (
    DatasetError,
    SplitSpec,
    StratifiedSampler,
    TimeSeries,
    evaluation_windows,
    load_dataset,
    split,
    synthetic_dataset,
    training_windows,
    write_dataset_csv,
)

# the `synth` command's default generator settings
SYNTH = dict(amplitude=0.2, trend_per_year=0.02, noise=0.01)


def write_rows(path, rows, header=("series_id", "year", "month", "value")):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def test_minimal_csv_parse(tmp_path):
    path = tmp_path / "mini.csv"
    write_rows(path, [("AT", 2001, 1, 5000), ("AT", 2001, 2, 5200), ("AT", 2001, 3, 5100)])
    series = load_dataset(path, min_length=3)
    assert len(series) == 1
    ts = series[0]
    assert ts.id == "AT" and len(ts) == 3 and ts.start == (2001, 1)
    assert np.array_equal(ts.values, [5000.0, 5200.0, 5100.0])
    # too short for the default config length requirement
    with pytest.raises(DatasetError, match="36"):
        load_dataset(path, min_length=36)


def test_non_positive_value_names_row_and_rule(tmp_path):
    path = tmp_path / "bad.csv"
    write_rows(path, [("AT", 2001, 1, 5000), ("AT", 2001, 2, -1)])
    with pytest.raises(DatasetError, match=r"row 3.*positive"):
        load_dataset(path, min_length=2)


def test_unsorted_rows_are_sorted(tmp_path):
    path = tmp_path / "unsorted.csv"
    write_rows(path, [("AT", 2001, 3, 3.0), ("AT", 2001, 1, 1.0), ("AT", 2001, 2, 2.0)])
    (ts,) = load_dataset(path, min_length=3)
    assert np.array_equal(ts.values, [1.0, 2.0, 3.0])


def test_month_gap_detected(tmp_path):
    path = tmp_path / "gap.csv"
    write_rows(path, [("AT", 2001, 1, 1.0), ("AT", 2001, 3, 3.0)])
    with pytest.raises(DatasetError, match="gap in month sequence between row 2 and row 3$"):
        load_dataset(path, min_length=2)
    # rows of one month and value are ordered by their location text, "row 10" before "row 9"
    write_rows(path, [("AT", 2001, m, 1.0) for m in range(1, 8)] + [("AT", 2001, 9, 1.0)] * 2)
    with pytest.raises(DatasetError, match="gap in month sequence between row 8 and row 10$"):
        load_dataset(path, min_length=2)


def test_duplicate_month_detected(tmp_path):
    path = tmp_path / "dup.csv"
    write_rows(path, [("AT", 2001, 1, 1.0), ("AT", 2001, 1, 2.0)])
    with pytest.raises(DatasetError, match="duplicate month at row 3$"):
        load_dataset(path, min_length=2)
    write_rows(path, [("AT", 2001, m, 1.0) for m in range(1, 9)] + [("AT", 2001, 8, 1.0)])
    with pytest.raises(DatasetError, match="duplicate month at row 9$"):
        load_dataset(path, min_length=2)


def test_bad_header_and_missing_file(tmp_path):
    path = tmp_path / "head.csv"
    write_rows(path, [("AT", 2001, 1, 1.0)], header=("id", "y", "m", "v"))
    with pytest.raises(DatasetError, match="header"):
        load_dataset(path, min_length=1)
    with pytest.raises(DatasetError, match="not found"):
        load_dataset(tmp_path / "nope.csv", min_length=36)


@pytest.mark.parametrize("name", ["d.json", "d.JSON"])
def test_json_dataset_path_is_refused_unopened(tmp_path, name):
    path = tmp_path / name
    write_dataset_csv(synthetic_dataset(2, 40, **SYNTH, seed=5), path)
    message = "datasets are CSV with header 'series_id,year,month,value'"
    for target in (path, tmp_path / "missing" / name):
        with pytest.raises(DatasetError, match=message) as raised:
            load_dataset(target, min_length=36)
        assert str(raised.value).startswith(f"{target}: ")


@pytest.mark.parametrize("suffix", [".csv"])
def test_series_ids_parse_only_the_requested_series(tmp_path, suffix):
    series = synthetic_dataset(3, 40, **SYNTH, seed=5)
    path = tmp_path / f"d{suffix}"
    write_dataset_csv(series, path)
    with open(path, "a") as fh:
        fh.write("S01,2013,5,abc\n")  # row 122
    kept = load_dataset(path, min_length=36, series_ids=["S02", "S00"])
    assert [s.id for s in kept] == ["S00", "S02"]
    for got, want in zip(kept, [series[0], series[2]]):
        assert got.start == want.start and np.array_equal(got.values, want.values)
    for ids in (None, ["S01"], ["S00", "S01"]):
        with pytest.raises(DatasetError, match="row 122"):
            load_dataset(path, min_length=36, series_ids=ids)
    with pytest.raises(DatasetError, match="unknown series id 'NOPE'"):
        load_dataset(path, min_length=36, series_ids=["S00", "NOPE"])


@pytest.mark.parametrize("suffix", [".csv"])
def test_undecodable_dataset_names_its_path(tmp_path, suffix):
    path = tmp_path / f"d{suffix}"
    path.write_bytes(b"\xff\xfe" + "series_id,year,month,value\n".encode("utf-16-le"))
    with pytest.raises(DatasetError, match="cannot be read as text") as raised:
        load_dataset(path, min_length=36)
    assert str(raised.value).startswith(f"{path}: ")


def test_cohort_shape(tmp_path):
    # 35 series mirroring the benchmark cohort: 11x288, 6x204, 4x144, 2x96, 12x60
    lengths = [288] * 11 + [204] * 6 + [144] * 4 + [96] * 2 + [60] * 12
    rows = []
    for i, n in enumerate(lengths):
        sid = f"C{i:02d}"
        for j in range(n):
            year, month = 2014 - (n // 12) + (j // 12), j % 12 + 1
            rows.append((sid, year, month, 1000.0 + i + j * 0.1))
    path = tmp_path / "cohort.csv"
    write_rows(path, rows)
    series = load_dataset(path, min_length=36)
    assert len(series) == 35
    got = sorted((len(s) for s in series), reverse=True)
    assert got == sorted(lengths, reverse=True)


def test_drop_short_warns_and_keeps_rest(tmp_path):
    path = tmp_path / "mixed.csv"
    rows = [("LONG", 2000 + j // 12, j % 12 + 1, 10.0 + j) for j in range(40)]
    rows += [("SHORT", 2001, j + 1, 5.0) for j in range(5)]
    write_rows(path, rows)
    with pytest.raises(DatasetError, match="SHORT"):
        load_dataset(path, min_length=36)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        series = load_dataset(path, min_length=36, on_short="drop")
    assert [s.id for s in series] == ["LONG"]
    assert any("SHORT" in str(w.message) for w in caught)


@pytest.mark.parametrize(
    "name, asked, quoted, searched",
    [("S{:02d}", ["S07"], None, True),
     ("S{:02d}", [f"S{7 + 11 * k:02d}" for k in range(8)], None, True),
     ("{}", ["1"], None, True),  # an id that occurs inside most lines' years and values
     ("S{:02d}", ["S07"], "S100", False),
     ("S{:02d}", ["S07"], "S07", False)],
    ids=["plain", "eight-ids", "numeric-ids", "quote-other", "quote-kept"],
)
def test_series_ids_split_only_the_requested_lines(
    tmp_path, monkeypatch, name, asked, quoted, searched
):
    path = tmp_path / "d.csv"
    series = {
        name.format(i): TimeSeries(name.format(i), s.start, s.values)
        for i, s in enumerate(synthetic_dataset(128, 60, **SYNTH, seed=5))
    }
    write_dataset_csv(series.values(), path)
    if quoted is not None:  # a quote anywhere sends the whole file through the reader
        with open(path, newline="") as fh:
            text = fh.read()
        with open(path, "w", newline="") as fh:
            fh.write(text.replace(f"\n{quoted},", f'\n"{quoted}",', 1))
    handed = []
    real_reader = csv.reader

    def counting_reader(lines, *args, **kwargs):
        def counted():
            for line in lines:
                handed.append(line)
                yield line
        return real_reader(counted(), *args, **kwargs)

    monkeypatch.setattr(data.csv, "reader", counting_reader)
    got = load_dataset(path, min_length=36, series_ids=asked)
    assert [s.id for s in got] == sorted(asked)
    for s in got:
        assert s.start == series[s.id].start and np.array_equal(s.values, series[s.id].values)
    assert handed[0].strip() == "series_id,year,month,value"
    records = [line for line in handed if not line.startswith("series_id,")]
    if searched:
        assert len(records) == 60 * len(asked)
        assert all(line.split(",")[0] in asked for line in records)
    else:  # the full reader, which reads the header again
        assert len(records) == 128 * 60


def _reference_read_csv_rows(path, keep):
    """Reference record loop that sends every record through ``csv.reader``:
    the oracle of the fuzz below."""
    per_id = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(c.strip() for c in header) != data.CSV_HEADER:
            raise DatasetError(
                f"{path}: expected header '{','.join(data.CSV_HEADER)}', got {header}"
            )
        for rowno, row in enumerate(reader, start=2):
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
            per_id.setdefault(sid, []).append((data.month_index(year, month), value, rowno))
    return per_id


FILE_IDS = ["S1", "S12", "S120", "T", " S12", "S1 ", "\xa0S12\t", "#S1", "1", "20"]
ASKED_IDS = [
    "S1", "S12", "S120", "T", "S", "1", "2001", " S1", "S12 ", "#S1", "", "NOPE", "S1\nS12",
    "S1,2001",
]
BAD_FIELDS = {
    1: ["x", "", "2001.5"], 2: ["13", "0", "ab", ""], 3: ["-1", "0", "nan", "inf", "abc", ""],
}


def _fuzz_csv(rng):
    """One CSV text, mostly well formed, with a few faults drawn from ``rng``,
    and the ids to ask it for."""
    rows = []
    file_ids = rng.sample(FILE_IDS, rng.randint(1, 4))
    for sid in file_ids:
        year, month = rng.randint(2000, 2003), rng.randint(1, 12)
        for j in range(rng.randint(2, 6)):
            y, m = divmod(month - 1 + j, 12)
            rows.append([sid, str(year + y), str(m + 1), f"{rng.uniform(0.5, 99.0):.3f}"])
    if rng.random() < 0.1:
        del rows[rng.randrange(len(rows))]  # a missing month
    if rng.random() < 0.1:
        rows.insert(rng.randrange(len(rows) + 1), list(rng.choice(rows)))  # a duplicate month
    if rng.random() < 0.3:
        rng.shuffle(rows)
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        row = rng.choice(rows)
        fault = rng.random()
        if fault < 0.15:
            row.append("7")
        elif fault < 0.3:
            row.pop()
        else:
            field = rng.randint(1, len(row) - 1)
            row[field] = rng.choice(BAD_FIELDS.get(field, ["x"]))
    if rng.random() < 0.3:  # an asked-for id inside another field
        rows.insert(rng.randrange(len(rows) + 1),
                    [rng.choice(["Q", "xS1", "S12x"]), "2001", "1", rng.choice(ASKED_IDS[:7])])
    lines = [",".join(row) for row in rows]
    for _ in range(rng.choice([0, 0, 1, 3])):
        lines.insert(rng.randrange(len(lines) + 1),
                     rng.choice(["", "  ", "\t", "# note", "# S1,2001,1,5"]))
    header = rng.choice(["series_id,year,month,value", " series_id , year,month,value"])
    endings = rng.choice([["\n"], ["\r\n"], ["\n", "\r\n"], ["\n", "\r\n", "\r"]])
    text = header + "".join(rng.choice(endings) + line for line in lines)
    if rng.random() < 0.6:
        text += rng.choice(endings)
    # a quote, a NUL, and characters that str.splitlines, unlike a file, splits at
    for char, p in (('"', 0.15), ("\0", 0.08), (rng.choice("\x0b\x0c\x1c\x85\u2028"), 0.1)):
        if rng.random() < p:
            at = rng.randrange(len(header), len(text) + 1)
            text = text[:at] + char + text[at:]
    asked = rng.sample(file_ids, rng.randint(1, len(file_ids)))
    if rng.random() < 0.15:
        asked.append(rng.choice(ASKED_IDS))
    return text, [sid.strip() if rng.random() < 0.9 else sid for sid in asked]


def _load_outcome(path, ids, min_length):
    try:
        loaded = load_dataset(path, min_length=min_length, series_ids=ids)
    except Exception as exc:  # the outcome compared is the exception's type and message
        return type(exc).__name__, str(exc)
    return [(s.id, s.start, s.values.tobytes()) for s in loaded]


def test_series_ids_load_matches_the_full_reader_on_fuzzed_csv(tmp_path, monkeypatch):
    rng = random.Random(20241203)
    path = tmp_path / "fuzz.csv"
    loaded = failed = 0
    for case in range(3000):
        text, ids = _fuzz_csv(rng)
        with open(path, "w", newline="") as fh:
            fh.write(text)
        min_length = rng.choice([1, 1, 3])
        got = _load_outcome(path, ids, min_length)
        with monkeypatch.context() as patched:
            patched.setattr(data, "_read_csv_rows", _reference_read_csv_rows)
            want = _load_outcome(path, ids, min_length)
        assert got == want, (case, path.read_bytes(), ids)
        loaded += isinstance(want, list)
        failed += isinstance(want, tuple)
    assert loaded >= 600 and failed >= 600  # both outcomes are exercised


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("quoted", [False, True], ids=["searched", "full-reader"])
def test_series_ids_load_from_a_pipe(tmp_path, quoted):
    """A pipe cannot be read twice, so the full reader takes its text from memory."""
    path = tmp_path / "d.csv"
    os.mkfifo(path)
    sid = '"S1"' if quoted else "S1"
    text = f"series_id,year,month,value\n{sid},2001,1,5\nS2,2001,1,6\nS1,2001,2,7\n"

    def write():
        with open(path, "w") as fh:
            fh.write(text)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    got = load_dataset(path, min_length=1, series_ids=["S1"])
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert [(s.id, s.start, list(s.values)) for s in got] == [("S1", (2001, 1), [5.0, 7.0])]


def test_series_id_holding_a_newline_matches_no_record(tmp_path):
    """Such an id spans two lines of the file, and must hide neither of them."""
    path = tmp_path / "d.csv"
    path.write_text("series_id,year,month,value\nS1\nS12,2001,1,5\nS12,2001,2,6\n")
    assert len(load_dataset(path, min_length=1, series_ids=["S12"])[0]) == 2
    with pytest.raises(DatasetError, match="unknown series id 'S1\nS12'"):
        load_dataset(path, min_length=1, series_ids=["S1\nS12", "S12"])


@pytest.mark.parametrize("series_ids, row, tail", [
    (None, 4, []),
    (["S1"], 4, []),
    (["S1"], 4, ['S2,2001,1,"8"']),  # a quote sends the search to the full reader
    (None, 1, []),
], ids=["full-reader", "searched", "searched-quoted-file", "header"])
def test_field_over_the_csv_limit_names_file_and_row(tmp_path, series_ids, row, tail):
    lines = ["series_id,year,month,value", "S1,2001,1,5", "S1,2001,2,6", "S1,2001,3,7", *tail]
    lines[row - 1] += "1" * 200_000  # longer than csv.field_size_limit(), 131,072 characters
    path = tmp_path / "d.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match=re.escape(f"{path}: row {row}: field larger than")):
        load_dataset(path, min_length=1, series_ids=series_ids)


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

def make_series(n, sid="S", start=(2000, 1)):
    return TimeSeries(sid, start, np.linspace(100.0, 200.0, n))


def test_split_default_partition():
    regions = split(make_series(60), SplitSpec())
    assert regions.train == (0, 36) and regions.val == (36, 48) and regions.test == (48, 60)
    regions = split(make_series(288), SplitSpec())
    assert regions.train == (0, 264) and regions.val == (264, 276) and regions.test == (276, 288)


def test_split_reconstruction():
    ts = make_series(60)
    regions = split(ts, SplitSpec())
    joined = np.concatenate(
        [ts.values[slice(*regions.train)], ts.values[slice(*regions.val)], ts.values[slice(*regions.test)]]
    )
    assert np.array_equal(joined, ts.values)


def test_split_too_short_for_training_window():
    # 20 months cannot hold the 24 held-out months of the default split
    with pytest.raises(DatasetError, match="too short"):
        split(make_series(20), SplitSpec())


def test_split_merged_validation_mode():
    regions = split(make_series(60), SplitSpec(test_months=12, val_months=0))
    assert regions.train == (0, 48)
    assert regions.val == (48, 48)
    assert regions.test == (48, 60)


# ---------------------------------------------------------------------------
# Windowing
# ---------------------------------------------------------------------------

def test_window_counts():
    # training regions of 36, 24 and 23 months (60, 48 and 47 months minus 24 held out)
    series = [make_series(60, "A"), make_series(48, "B"), make_series(47, "C")]
    x, y, counts = training_windows(series, SplitSpec(), 12, 12)
    assert counts.tolist() == [13, 1, 0]
    assert x.shape == (14, 12) and y.shape == (14, 12)


def test_window_roundtrip_reslices_source():
    spec = SplitSpec(test_months=0, val_months=0)  # the whole series is the training region
    for seed in range(3):
        series = synthetic_dataset(2, 50, **SYNTH, seed=seed)
        x, y, counts = training_windows(series, spec, 7, 4)
        assert counts.tolist() == [40, 40]
        for row in range(len(x)):
            ts, anchor = series[row // 40], 6 + row % 40
            assert np.array_equal(x[row], ts.values[anchor - 6 : anchor + 1])
            assert np.array_equal(y[row], ts.values[anchor + 1 : anchor + 5])
            assert x[row].max() > 0


def test_no_leakage_into_validation_or_test():
    series = synthetic_dataset(5, 72, **SYNTH, seed=2)
    spec = SplitSpec()
    x, y, counts = training_windows(series, spec, 12, 12)
    first = 0
    for ts, count in zip(series, counts):
        train_stop = split(ts, spec).train[1]
        for k in range(count):
            anchor = 11 + k  # the training region starts at offset 0
            assert anchor + 12 <= train_stop  # target ends inside train
            assert anchor - 11 >= 0
            assert np.array_equal(x[first + k], ts.values[anchor - 11 : anchor + 1])
            assert np.array_equal(y[first + k], ts.values[anchor + 1 : anchor + 13])
        first += count
    assert first == len(x)


def test_evaluation_windows_positions():
    series = synthetic_dataset(3, 60, **SYNTH, seed=1)
    x, y, starts = evaluation_windows(series, SplitSpec(), 12, 12, region="test")
    assert starts == [48, 48, 48]
    for i, ts in enumerate(series):
        assert np.array_equal(x[i], ts.values[36:48])
        assert np.array_equal(y[i], ts.values[48:60])
    x, y, starts = evaluation_windows(series, SplitSpec(), 12, 12, region="val")
    assert starts == [36, 36, 36]
    for i, ts in enumerate(series):
        assert np.array_equal(x[i], ts.values[24:36])
        assert np.array_equal(y[i], ts.values[36:48])
    with pytest.raises(DatasetError, match="horizon"):
        evaluation_windows(series, SplitSpec(test_months=10), 12, 12, region="test")


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------

def test_sampler_balances_series_of_unequal_length():
    sidx, _ = StratifiedSampler([1, 100], seed=123).draw_batch_indices(10_000)
    count_small = int(np.sum(sidx == 0))
    sigma = np.sqrt(10_000 * 0.25)
    assert abs(count_small - 5000) < 3 * sigma


def test_sampler_uniform_within_series():
    sidx, widx = StratifiedSampler([10], seed=7).draw_batch_indices(5000)
    assert np.all(sidx == 0)
    counts = np.bincount(widx, minlength=10)
    assert counts.size == 10
    chi2 = ((counts - 500.0) ** 2 / 500.0).sum()
    assert chi2 < scipy_stats.chi2.ppf(0.99, df=9)


def test_sampler_marginals_chi_square():
    sizes = [1, 5, 20, 80, 200]
    sidx, widx = StratifiedSampler(sizes, seed=99).draw_batch_indices(10_000)
    assert np.all(widx < np.array(sizes)[sidx])
    counts = np.bincount(sidx, minlength=5)
    expected = 10_000 / 5
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert chi2 < scipy_stats.chi2.ppf(0.99, df=4)


def test_sampler_determinism_and_single_series():
    a = StratifiedSampler([4, 9], seed=5).draw_batch_indices(50)
    b = StratifiedSampler([4, 9], seed=5).draw_batch_indices(50)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))

    sidx, widx = StratifiedSampler([3], seed=1).draw_batch_indices(20)
    assert np.all(sidx == 0) and np.all(widx < 3)

    # series without windows are skipped; indices still refer to ``sizes``
    sidx, widx = StratifiedSampler([0, 4, 0], seed=2).draw_batch_indices(20)
    assert np.all(sidx == 1) and np.all(widx < 4)

    with pytest.raises(DatasetError):
        StratifiedSampler([0, 0], seed=0)


# ---------------------------------------------------------------------------
# Synthetic benchmark
# ---------------------------------------------------------------------------

def test_synthetic_dataset_shape_and_determinism():
    series = synthetic_dataset(8, 60, **SYNTH, seed=0)
    assert len(series) == 8
    assert all(len(s) == 60 for s in series)
    assert all(np.all(s.values > 0) for s in series)
    again = synthetic_dataset(8, 60, **SYNTH, seed=0)
    for a, b in zip(series, again):
        assert np.array_equal(a.values, b.values)
    changed = synthetic_dataset(8, 60, **SYNTH, seed=1)
    assert not np.array_equal(series[0].values, changed[0].values)


def test_series_values_are_read_only():
    ts = make_series(40)
    with pytest.raises(ValueError):
        ts.values[0] = 1.0
