import csv
import json
import warnings

import numpy as np
import pytest
from scipy import stats as scipy_stats

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
    write_dataset_json,
)


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
        load_dataset(path)


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
        load_dataset(tmp_path / "nope.csv")


def test_json_and_csv_produce_identical_series(tmp_path):
    series = synthetic_dataset(3, 40, seed=5)
    csv_path, json_path = tmp_path / "d.csv", tmp_path / "d.json"
    write_dataset_csv(series, csv_path)
    write_dataset_json(series, json_path)
    from_csv = load_dataset(csv_path)
    from_json = load_dataset(json_path)
    assert [s.id for s in from_csv] == [s.id for s in from_json]
    for a, b in zip(from_csv, from_json):
        assert a.start == b.start
        assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_series_ids_parse_only_the_requested_series(tmp_path, suffix):
    series = synthetic_dataset(3, 40, seed=5)
    path = tmp_path / f"d{suffix}"
    if suffix == ".csv":
        write_dataset_csv(series, path)
        with open(path, "a") as fh:
            fh.write("S01,2013,5,abc\n")  # row 122
        bad = "row 122"
    else:
        write_dataset_json(series, path)
        doc = json.loads(path.read_text())
        doc["series"][1]["values"][5] = "abc"
        path.write_text(json.dumps(doc))
        bad = "series entry 1: value at position 5 is not a number"
    kept = load_dataset(path, series_ids=["S02", "S00"])
    assert [s.id for s in kept] == ["S00", "S02"]
    for got, want in zip(kept, [series[0], series[2]]):
        assert got.start == want.start and np.array_equal(got.values, want.values)
    for ids in (None, ["S01"], ["S00", "S01"]):
        with pytest.raises(DatasetError, match=bad):
            load_dataset(path, series_ids=ids)
    with pytest.raises(DatasetError, match="unknown series id 'NOPE'"):
        load_dataset(path, series_ids=["S00", "NOPE"])


@pytest.mark.parametrize(
    "fault, message",
    [
        ({"start": 2010}, r"series entry 1: start must be \[year, month 1..12\], got 2010"),
        ({"start": ["x", 1]}, r"series entry 1: start must be \[year, month 1..12\]"),
        ({"start": [2010.5, 1]}, r"series entry 1: start must be \[year, month 1..12\]"),
        ({"values": 5}, "series entry 1: values must be a list of numbers, got int"),
        ({"values": "12"}, "series entry 1: values must be a list of numbers, got str"),
        ({"values": [5.0, 6.0, 7.0, "12"]},
         'series entry 1: value at position 3 is not a number: "12"'),
        ({"values": [5.0, True]}, "series entry 1: value at position 1 is not a number: true"),
        ({"id": None}, "series entry 1: id must be a string or integer, got null"),
        ({"id": False}, "series entry 1: id must be a string or integer, got false"),
        (None, "invalid JSON"),
    ],
    ids=["start-int", "start-text", "start-float", "values-int", "values-text", "value-text",
         "value-bool", "id-null", "id-bool", "truncated"],
)
def test_malformed_json_entry_names_file_and_entry(tmp_path, fault, message):
    path = tmp_path / "d.json"
    write_dataset_json(synthetic_dataset(2, 40, seed=5), path)
    if fault is None:
        path.write_text(path.read_text()[:-40])
    else:
        doc = json.loads(path.read_text())
        doc["series"][1].update(fault)
        path.write_text(json.dumps(doc))
    with pytest.raises(DatasetError, match=message) as raised:
        load_dataset(path)
    assert str(raised.value).startswith(f"{path}: ")


@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_undecodable_dataset_names_its_path(tmp_path, suffix):
    path = tmp_path / f"d{suffix}"
    path.write_bytes(b"\xff\xfe" + "series_id,year,month,value\n".encode("utf-16-le"))
    with pytest.raises(DatasetError, match="cannot be read as text") as raised:
        load_dataset(path)
    assert str(raised.value).startswith(f"{path}: ")


def test_json_start_may_be_whole_floats(tmp_path):
    path = tmp_path / "d.json"
    write_dataset_json(synthetic_dataset(2, 40, seed=5), path)
    expected = load_dataset(path)
    doc = json.loads(path.read_text())
    doc["series"][1]["start"] = [float(v) for v in doc["series"][1]["start"]]
    path.write_text(json.dumps(doc))
    for got, want in zip(load_dataset(path), expected):
        assert got.start == want.start and np.array_equal(got.values, want.values)


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
    series = load_dataset(path)
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


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

def make_series(n, sid="S", start=(2000, 1)):
    return TimeSeries(sid, start, np.linspace(100.0, 200.0, n))


def test_split_default_partition():
    regions = split(make_series(60))
    assert regions.train == (0, 36) and regions.val == (36, 48) and regions.test == (48, 60)
    regions = split(make_series(288))
    assert regions.train == (0, 264) and regions.val == (264, 276) and regions.test == (276, 288)


def test_split_reconstruction():
    ts = make_series(60)
    regions = split(ts)
    joined = np.concatenate(
        [ts.values[slice(*regions.train)], ts.values[slice(*regions.val)], ts.values[slice(*regions.test)]]
    )
    assert np.array_equal(joined, ts.values)


def test_split_too_short_for_training_window():
    # 20 months cannot hold the 24 held-out months of the default split
    with pytest.raises(DatasetError, match="too short"):
        split(make_series(20))


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
        series = synthetic_dataset(2, 50, seed=seed)
        x, y, counts = training_windows(series, spec, 7, 4)
        assert counts.tolist() == [40, 40]
        for row in range(len(x)):
            ts, anchor = series[row // 40], 6 + row % 40
            assert np.array_equal(x[row], ts.values[anchor - 6 : anchor + 1])
            assert np.array_equal(y[row], ts.values[anchor + 1 : anchor + 5])
            assert x[row].max() > 0


def test_no_leakage_into_validation_or_test():
    series = synthetic_dataset(5, 72, seed=2)
    spec = SplitSpec()
    x, y, counts = training_windows(series, spec)
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
    series = synthetic_dataset(3, 60, seed=1)
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
    series = synthetic_dataset(8, 60, seed=0)
    assert len(series) == 8
    assert all(len(s) == 60 for s in series)
    assert all(np.all(s.values > 0) for s in series)
    again = synthetic_dataset(8, 60, seed=0)
    for a, b in zip(series, again):
        assert np.array_equal(a.values, b.values)
    changed = synthetic_dataset(8, 60, seed=1)
    assert not np.array_equal(series[0].values, changed[0].values)


def test_series_values_are_read_only():
    ts = make_series(40)
    with pytest.raises(ValueError):
        ts.values[0] = 1.0
