"""Metamorphic tests through the CLI: a change to the input that must leave
every output of ``synth`` → ``train`` → ``evaluate`` → ``forecast`` as it was."""

import json
import random
import re

import pytest

from loadcast.cli import main

_CREATED_AT = re.compile(rb'"created_at": "[^"]*"')


def _pipeline(root, monkeypatch, capsys, sharing: bool) -> dict:
    """Train, evaluate and forecast on ``root/data.csv``, with every path
    relative to ``root``; each output file's bytes, and the printed text."""
    monkeypatch.chdir(root)
    config = {
        "dataset": "data.csv",
        "output_dir": "pool",
        "model": {"lookback": 6, "horizon": 6, "blocks": 2, "fc_width": 8, "fc_layers": 1,
                  "sharing": sharing, "seed": 0},
        "train": {"epochs": 1, "batches_per_epoch": 3, "batch_size": 8, "pool_size": 2, "seed": 1},
        "ensemble": {"ensemble_size": 2, "trials": 2, "seed": 0},
        "split": {"test_months": 6, "val_months": 6},
    }
    (root / "config.json").write_text(json.dumps(config))
    for argv in (
        ["train", "--config", "config.json"],
        ["evaluate", "--manifest", "pool/manifest.json", "--out-dir", "eval"],
        ["forecast", "--manifest", "pool/manifest.json", "--series", "S01",
         "--out", "one.csv", "--decomposition", "one.json"],
        ["forecast", "--manifest", "pool/manifest.json", "--out", "all.csv",
         "--decomposition", "all.json"],
    ):
        assert main(argv) == 0, argv
    printed = capsys.readouterr()
    files = {
        str(path.relative_to(root)): _CREATED_AT.sub(b'"created_at": null', path.read_bytes())
        for path in sorted(root.rglob("*")) if path.is_file() and path.name != "data.csv"
    }
    return {"files": files, "printed": printed}


@pytest.mark.parametrize("sharing", [True, False], ids=["shared", "unshared"])
def test_shuffled_dataset_rows_leave_every_output_unchanged(tmp_path, monkeypatch, capsys,
                                                            sharing):
    plain, shuffled = tmp_path / "plain", tmp_path / "shuffled"
    plain.mkdir()
    shuffled.mkdir()
    assert main(["synth", "--out", str(plain / "data.csv"), "--series", "3", "--months", "40",
                 "--seed", "7"]) == 0
    header, *rows = (plain / "data.csv").read_text().splitlines(keepends=True)
    mixed = rows[:]
    random.Random(11).shuffle(mixed)
    assert mixed != rows
    (shuffled / "data.csv").write_text(header + "".join(mixed))
    capsys.readouterr()  # drop the synth output

    want = _pipeline(plain, monkeypatch, capsys, sharing)
    got = _pipeline(shuffled, monkeypatch, capsys, sharing)
    assert sorted(want["files"]) == [
        "all.csv", "all.json", "config.json", "eval/errors.csv", "eval/metrics.json",
        "eval/mpe_points.csv", "eval/per_series.csv", "one.csv", "one.json",
        "pool/manifest.json", "pool/members.npy",
    ]
    assert got == want
