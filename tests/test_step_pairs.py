"""tools/step_pairs.py: paired in-process step timings of two source trees."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_step_pairs_times_one_tree_against_itself():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "step_pairs.py"), str(ROOT), str(ROOT),
         "--width", "8", "--pairs", "1", "--steps", "1"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    pair, summary = out.stdout.splitlines()
    assert pair.startswith("width 8 pair 1 (A first): A ") and pair.endswith(" ms")
    assert summary.startswith("width 8: median A ")
    assert summary.endswith(" of 1; results identical: yes")


def test_step_pairs_refuses_a_tree_without_sources(tmp_path):
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "step_pairs.py"), str(ROOT), str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 2
    assert f"{tmp_path}: no src/loadcast" in out.stderr
