"""Golden-output gate for the CLI.

Runs ``synth``, ``train`` (with shared and with per-block weights),
``evaluate`` (test and val, and the per-block pool on test), ``dm-test``
(absolute loss at the default horizon, and squared loss at horizon 1),
``forecast`` (with a block decomposition), ``ablate`` and ``sweep`` at a tiny
config. It then trains a pool on 16 series and evaluates it with 100 trials of
64 members, enough to expose the summation order of the metrics, and of 63
members, so that the ensemble median takes a single middle value; it also
forecasts that pool with an odd ensemble of 5. It compares
every output file and the commands' stdout byte for byte with the files under
``tests/golden/``. The only field ignored is ``created_at``. Members files are
compared by their sha256 digest, listed in ``tests/golden/checkpoints.sha256``.

The golden files pin float64 results of this numpy/BLAS build. To rewrite them
(only for a change that is meant to alter the outputs), run

    LOADCAST_UPDATE_GOLDEN=1 python -m pytest tests/test_golden.py
"""

import hashlib
import json
import os
import re
from pathlib import Path

from loadcast.cli import main

GOLDEN = Path(__file__).parent / "golden"
DIGESTS = "checkpoints.sha256"
STDOUT = "stdout.txt"
INPUTS = {"config.json", "grid.json"}

CONFIG = {
    "dataset": "data.csv",
    "output_dir": "pool",
    "model": {"fc_width": 8, "seed": 0},
    "train": {"epochs": 1, "batches_per_epoch": 3, "batch_size": 32, "pool_size": 2, "seed": 0},
    "ensemble": {"ensemble_size": 4, "trials": 3, "seed": 0},
}
GRID = {"model.tau": [0.3, 0.4]}

COMMANDS = [
    ["synth", "--out", "data.csv", "--series", "4", "--months", "60", "--seed", "0"],
    ["train", "--config", "config.json"],
    ["train", "--config", "config.json", "--set", "model.sharing=false",
     "--set", "output_dir=pool_unshared"],
    ["evaluate", "--manifest", "pool/manifest.json", "--out-dir", "eval_test"],
    ["evaluate", "--manifest", "pool/manifest.json", "--split", "val", "--aggregation", "mean",
     "--label", "val", "--out-dir", "eval_val"],
    ["evaluate", "--manifest", "pool_unshared/manifest.json", "--out-dir", "eval_unshared"],
    ["dm-test", "--errors-a", "eval_test/errors.csv", "--errors-b", "eval_unshared/errors.csv",
     "--out", "dm.json"],
    ["dm-test", "--errors-a", "eval_test/errors.csv", "--errors-b", "eval_unshared/errors.csv",
     "--horizon", "1", "--loss", "squared", "--out", "dm_sq.json"],
    ["forecast", "--manifest", "pool/manifest.json", "--out", "forecast.csv",
     "--decomposition", "blocks.json"],
    ["forecast", "--manifest", "pool/manifest.json", "--series", "S01,S03", "--anchor", "2013-12",
     "--aggregation", "mean", "--trial-index", "1", "--out", "forecast_mean.csv"],
    ["ablate", "--config", "config.json", "--out-dir", "ablation"],
    ["sweep", "--config", "config.json", "--grid", "grid.json", "--out-dir", "sweep"],
    ["synth", "--out", "data16.csv", "--series", "16", "--months", "60", "--seed", "1"],
    ["train", "--config", "config.json", "--set", "dataset=data16.csv",
     "--set", "output_dir=pool16"],
    ["evaluate", "--manifest", "pool16/manifest.json", "--trials", "100", "--ensemble-size", "64",
     "--out-dir", "eval_many"],
    ["evaluate", "--manifest", "pool16/manifest.json", "--trials", "100", "--ensemble-size", "63",
     "--out-dir", "eval_many_odd"],
    ["forecast", "--manifest", "pool16/manifest.json", "--ensemble-size", "5",
     "--out", "forecast_odd.csv"],
]

_CREATED_AT = re.compile(rb'"created_at": "[^"]*"')


def _normalized(blob: bytes) -> bytes:
    return _CREATED_AT.sub(b'"created_at": null', blob)


def _run_commands(root: Path, capsys) -> dict[str, bytes]:
    """Run every command in ``root``; return {relative path: normalized bytes}."""
    (root / "config.json").write_text(json.dumps(CONFIG))
    (root / "grid.json").write_text(json.dumps(GRID))
    stdout = []
    for argv in COMMANDS:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0, f"{argv[0]} exited {code}: {captured.err}"
        stdout.append(f"$ loadcast {' '.join(argv)}\n{captured.out}")
    outputs = {STDOUT: "".join(stdout).encode()}
    digests = []
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        if rel in INPUTS:
            continue
        if path.suffix == ".npy":
            digests.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {rel}\n")
        else:
            outputs[rel] = _normalized(path.read_bytes())
    outputs[DIGESTS] = "".join(digests).encode()
    return outputs


def _first_difference(want: bytes, got: bytes) -> str:
    for lineno, (a, b) in enumerate(zip(want.splitlines(), got.splitlines()), start=1):
        if a != b:
            return f"line {lineno}: expected {a[:120]!r}, got {b[:120]!r}"
    return f"{len(want.splitlines())} lines expected, {len(got.splitlines())} produced"


def test_cli_outputs_match_golden_files(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    outputs = _run_commands(tmp_path, capsys)

    if os.environ.get("LOADCAST_UPDATE_GOLDEN") == "1":
        for rel, blob in outputs.items():
            target = GOLDEN / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(blob)

    golden = {
        p.relative_to(GOLDEN).as_posix(): p.read_bytes()
        for p in sorted(GOLDEN.rglob("*")) if p.is_file()
    }
    assert sorted(outputs) == sorted(golden), "the set of output files changed"
    mismatches = [
        f"{rel}: {_first_difference(golden[rel], blob)}"
        for rel, blob in outputs.items() if blob != golden[rel]
    ]
    assert not mismatches, "outputs differ from tests/golden:\n" + "\n".join(mismatches)
