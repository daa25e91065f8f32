"""tools/golden_diff.py: which bytes differ between two golden trees."""

import importlib.util
import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_golden_diff():
    spec = importlib.util.spec_from_file_location("golden_diff", ROOT / "tools" / "golden_diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden_diff = _load_golden_diff()


def test_ulp_distance_counts_float64_steps_across_zero():
    up = math.nextafter(1.0, 2.0)
    assert golden_diff.ulp_distance(1.0, 1.0) == 0
    assert golden_diff.ulp_distance(1.0, up) == 1
    assert golden_diff.ulp_distance(math.nextafter(up, 2.0), 1.0) == 2
    assert golden_diff.ulp_distance(0.0, -0.0) == 0
    tiny = math.ulp(0.0)
    assert golden_diff.ulp_distance(-tiny, tiny) == 2


def _tree(root, metrics, forecast, stdout):
    (root / "eval").mkdir(parents=True)
    (root / "eval" / "metrics.json").write_text(json.dumps(metrics, indent=2))
    (root / "forecast.csv").write_text(forecast)
    (root / "stdout.txt").write_text(stdout)
    (root / "same.json").write_text('{"a": 1}')


def test_report_names_paths_cells_and_largest_ulp(tmp_path, capsys):
    skew = 0.5
    metrics = {"averaged": {"mape": 1.5, "mpe_skewness": skew},
               "per_trial": [{"mpe_skewness": skew}, {"mpe_skewness": skew}], "label": "x"}
    csv_text = "# config_hash=abc\nseries_id,forecast\nS0,10.0\nS1,20.0\n"
    _tree(tmp_path / "old", metrics, csv_text, "one\ntwo\n")

    two_up = math.nextafter(math.nextafter(skew, 1.0), 1.0)
    changed = {"averaged": {"mape": 1.5, "mpe_skewness": math.nextafter(skew, 1.0)},
               "per_trial": [{"mpe_skewness": skew}, {"mpe_skewness": two_up}], "label": "y"}
    _tree(tmp_path / "new", changed, csv_text.replace("20.0", repr(math.nextafter(20.0, 0.0))),
          "one\n2\n")
    (tmp_path / "new" / "extra.txt").write_text("new\n")

    assert golden_diff.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "eval/metrics.json",
        "  averaged.mpe_skewness: 1 differ, max 1 ULP",
        "  label: 1 differ",
        "  per_trial[*].mpe_skewness: 1 differ, max 2 ULP",
        "extra.txt: only in NEW",
        "forecast.csv",
        "  column forecast: 1 differ (line 4), max 1 ULP",
        "stdout.txt",
        "  lines: 1 differ (line 2)",
        "4 of 5 files differ; largest numeric difference 2 ULP",
    ]


def test_identical_trees_exit_0(tmp_path, capsys):
    for side in ("old", "new"):
        _tree(tmp_path / side, {"a": [1.0, 2.0]}, "x,y\n1,2\n", "same\n")
    assert golden_diff.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 of 4 files differ"]
