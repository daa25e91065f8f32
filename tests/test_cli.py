import argparse
import csv
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import loadcast
from loadcast import cli
from loadcast.cli import main
from loadcast.data import load_dataset, write_dataset_csv
from loadcast.model import ModelConfig, model_forward
from loadcast.train import load_pool

from helpers import dm_reference, params_of


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_csv_rows(path):
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic dataset + tiny trained pool shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    dataset = root / "bench.csv"
    assert run_cli("synth", "--out", dataset, "--series", 3, "--months", 40, "--seed", 7) == 0

    config = {
        "dataset": str(dataset),
        "output_dir": str(root / "pool"),
        "model": {
            "lookback": 6, "horizon": 6, "blocks": 2, "fc_width": 8,
            "fc_layers": 1, "sharing": True, "seed": 0,
        },
        "train": {"epochs": 1, "batches_per_epoch": 3, "batch_size": 8, "pool_size": 2, "seed": 1},
        "ensemble": {"ensemble_size": 2, "trials": 2, "seed": 0},
        "split": {"test_months": 6, "val_months": 6},
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config))
    assert run_cli("train", "--config", config_path) == 0
    return {
        "root": root,
        "dataset": dataset,
        "config_path": config_path,
        "config": config,
        "manifest": root / "pool" / "manifest.json",
    }


@pytest.fixture(scope="module")
def five_member_pools(workspace):
    """Directories of 5-member pools on the workspace dataset, by ``sharing``."""
    pools = {}
    for sharing in (True, False):
        pools[sharing] = workspace["root"] / f"pool5-{sharing}"
        config = dict(workspace["config"], output_dir=str(pools[sharing]))
        config["model"] = dict(config["model"], sharing=sharing)
        config["train"] = dict(config["train"], pool_size=5)
        config_path = workspace["root"] / f"config5-{sharing}.json"
        config_path.write_text(json.dumps(config))
        assert run_cli("train", "--config", config_path) == 0
    return pools


def test_cli_import_loads_no_process_pool():
    """Only ``train --workers`` above 1 needs a process pool; the other commands
    do not pay for importing ``multiprocessing``."""
    src = str(Path(loadcast.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys, loadcast.cli; "
        "print(sorted({'concurrent.futures.process', 'multiprocessing'} & sys.modules.keys()))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def test_synth_writes_loadable_dataset(tmp_path):
    out = tmp_path / "synth.csv"
    assert run_cli("synth", "--out", out, "--series", 8, "--months", 60, "--seed", 0) == 0
    series = load_dataset(out, min_length=36)
    assert len(series) == 8
    assert all(len(s) == 60 for s in series)


@pytest.mark.parametrize("flags, message", [
    (["--series", "-2"], "--series must be >= 1, got -2"),
    (["--series", "0"], "--series must be >= 1, got 0"),
    (["--months", "-1"], "--months must be >= 1, got -1"),
    (["--months", "0"], "--months must be >= 1, got 0"),
], ids=["series-negative", "series-zero", "months-negative", "months-zero"])
def test_synth_sizes_below_one_exit_2(tmp_path, capsys, flags, message):
    out = tmp_path / "synth.csv"
    assert run_cli("synth", "--out", out, *flags) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--amplitude", "1.5"],
     "--amplitude 1.5, --trend 0.02 and --noise 0.01 give the value -8151.895076226627;"),
    (["--trend", "-1"], "--amplitude 0.2, --trend -1.0 and --noise 0.01 give the value 0.0;"),
    (["--noise", "nan"], "--amplitude 0.2, --trend 0.02 and --noise nan give the value nan;"),
    (["--amplitude", "inf"], "--amplitude inf, --trend 0.02 and --noise 0.01 give the value inf;"),
], ids=["amplitude-1.5", "trend-minus-1", "noise-nan", "amplitude-inf"])
def test_synth_values_not_positive_and_finite_exit_2(tmp_path, capsys, flags, message):
    """Each of these flags used to write a dataset that ``train`` then refused."""
    out = tmp_path / "synth.csv"
    assert run_cli("synth", "--out", out, *flags) == 2
    err = capsys.readouterr().err
    assert message in err and "dataset values must be positive and finite" in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["synth.json", "synth.JSON"])
def test_synth_refuses_a_json_out(tmp_path, capsys, name):
    out = tmp_path / name
    assert run_cli("synth", "--out", out) == 2
    assert f"--out {out}: synth writes CSV only" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_writes_manifest_with_config_echo(workspace):
    doc = json.loads(workspace["manifest"].read_text())
    assert len(doc["members"]) == 2
    assert doc["config"]["fc_width"] == 8
    assert doc["schedule"]["pool_size"] == 2
    assert doc["run"]["dataset"] == str(workspace["dataset"])
    assert doc["config_hash"]
    assert doc["members_file"] == "members.npy"
    assert [sorted(e) for e in doc["members"]] == [["final_loss", "index", "seed"]] * 2
    rows = np.load(workspace["root"] / "pool" / "members.npy")
    assert rows.shape == (2,) and rows.dtype.names[:2] == ("config_hash", "seed")
    assert [int(s) for s in rows["seed"]] == [e["seed"] for e in doc["members"]]


def test_train_dry_run_echoes_production_defaults(tmp_path, capsys):
    dataset = tmp_path / "d.csv"
    run_cli("synth", "--out", dataset, "--series", 2, "--months", 60)
    config_path = tmp_path / "paper.json"
    config_path.write_text(json.dumps({
        "dataset": str(dataset),
        "output_dir": str(tmp_path / "out"),
        "model": {"tau": 0.35, "nmse_weight": 0.35, "fc_width": 512, "blocks": 6,
                  "fc_layers": 3, "sharing": True, "lookback": 12, "horizon": 12},
        "train": {"epochs": 20, "batches_per_epoch": 100, "batch_size": 256,
                  "lr": 0.001, "pool_size": 1024},
        "ensemble": {"ensemble_size": 64, "trials": 100},
    }))
    capsys.readouterr()  # drop the synth output
    assert run_cli("train", "--config", config_path, "--dry-run") == 0
    echoed = json.loads(capsys.readouterr().out)
    assert echoed["model"]["tau"] == 0.35
    assert echoed["model"]["fc_width"] == 512
    assert echoed["train"]["batch_size"] == 256
    assert echoed["ensemble"]["ensemble_size"] == 64


def test_train_missing_dataset_exits_2(tmp_path, capsys):
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps({"dataset": str(tmp_path / "absent.csv")}))
    assert run_cli("train", "--config", config_path) == 2
    assert capsys.readouterr().err.startswith(
        f"data error: dataset file not found: {tmp_path / 'absent.csv'}")


@pytest.mark.parametrize("doc, flags, message", [
    ({"model": {"width": 8}}, [], "unknown field(s) ['width']"),
    ({"model": 5}, [], "config section 'model' must be a JSON object, got number"),
    ({"train": None}, [], "config section 'train' must be a JSON object, got null"),
    ({"model": "abc"}, [], "config section 'model' must be a JSON object, got string"),
    ({}, ["--set", "model=5"], "config section 'model' must be a JSON object, got number"),
    ({}, ["--set", "split=[1]"], "config section 'split' must be a JSON object, got array"),
    ({}, ["--set", 'model.sharing="no"'],
     "config section 'model': field 'sharing' must be a boolean, got string \"no\""),
    ({}, ["--set", 'model.lookback="6"'],
     "config section 'model': field 'lookback' must be an integer, got string \"6\""),
    ({}, ["--set", "model.lookback=6.5"],
     "config section 'model': field 'lookback' must be an integer, got number 6.5"),
    ({}, ["--set", "model.fc_width=true"],
     "config section 'model': field 'fc_width' must be an integer, got boolean true"),
    ({}, ["--set", 'train.epochs="2"'],
     "config section 'train': field 'epochs' must be an integer, got string \"2\""),
    ({}, ["--set", "ensemble.trials=2.5"],
     "config section 'ensemble': field 'trials' must be an integer, got number 2.5"),
    ({}, ["--set", "model.tau=false"],
     "config section 'model': field 'tau' must be a number, got boolean false"),
    ({}, ["--set", 'model.ablation="noReLU"'],
     "config section 'model': field 'ablation' must be a list of strings, got string \"noReLU\""),
    ({"model": {"ablation": ["noReLU", 1]}}, [],
     "config section 'model': field 'ablation' must be a list of strings, got array"),
    # bytes are written as they are: these are not UTF-8
    (b"\xff\xfe{}", [], "c.json: cannot be read as text: 'utf-8' codec can't decode byte 0xff"),
], ids=["unknown-field", "number", "null", "string", "set-number", "set-array", "bool-string",
        "int-string", "int-fraction", "int-boolean", "train-int-string", "ensemble-int-fraction",
        "float-boolean", "ablation-string", "ablation-non-string", "not-utf-8"])
def test_unknown_config_field_exits_2(tmp_path, capsys, doc, flags, message):
    config_path = tmp_path / "c.json"
    if isinstance(doc, bytes):
        config_path.write_bytes(doc)
    else:
        config_path.write_text(json.dumps(doc))
    assert run_cli("train", "--config", config_path, *flags) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("doc, flags, message", [
    ({"output_dir": ["p", 1]}, [], "config field 'output_dir' must be a string, got [\"p\", 1]"),
    ({}, ["--set", "output_dir=true"], "config field 'output_dir' must be a string, got true"),
    ({}, ["--set", "output_dir=7"], "config field 'output_dir' must be a string, got 7"),
    ({"dataset": {"path": "d.csv"}}, [],
     "config field 'dataset' must be a string, got {\"path\": \"d.csv\"}"),
], ids=["output-dir-array", "set-output-dir-true", "set-output-dir-number", "dataset-object"])
def test_non_string_path_field_exits_2_writing_nothing(tmp_path, workspace, capsys, monkeypatch,
                                                       doc, flags, message):
    # a relative output_dir would land in the working directory
    monkeypatch.chdir(tmp_path)
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps({**workspace["config"], "output_dir": "pool", **doc}))
    assert run_cli("train", "--config", config_path, *flags) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


def test_null_output_dir_is_a_dry_run_but_no_train(tmp_path, workspace, capsys):
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps({**workspace["config"], "output_dir": None}))
    assert run_cli("train", "--config", config_path, "--dry-run") == 0
    assert json.loads(capsys.readouterr().out)["output_dir"] is None
    assert run_cli("train", "--config", config_path) == 2
    assert "config is missing 'output_dir'" in capsys.readouterr().err


@pytest.mark.parametrize("assignment, message", [
    ("train.lr=NaN", "config section 'train': lr must be positive and finite, got nan"),
    ("train.lr=Infinity", "config section 'train': lr must be positive and finite, got inf"),
    ("model.nmse_weight=NaN",
     "config section 'model': nmse_weight must be >= 0 and finite, got nan"),
    ("model.nmse_weight=Infinity",
     "config section 'model': nmse_weight must be >= 0 and finite, got inf"),
], ids=["lr-nan", "lr-infinity", "nmse-weight-nan", "nmse-weight-infinity"])
@pytest.mark.parametrize("dry_run", [True, False], ids=["dry-run", "train"])
def test_non_finite_lr_or_nmse_weight_exits_2(tmp_path, workspace, capsys, assignment, message,
                                               dry_run):
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps({**workspace["config"], "output_dir": str(tmp_path / "p")}))
    assert run_cli("train", "--config", config_path, "--set", assignment,
                   *(["--dry-run"] if dry_run else [])) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"config error: {message}\n")
    assert not (tmp_path / "p").exists()


def test_manifest_ensemble_section_not_an_object_exits_2(tmp_path, workspace, capsys):
    import shutil

    pool_dir = tmp_path / "pool"
    shutil.copytree(workspace["root"] / "pool", pool_dir)
    manifest = pool_dir / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["run"]["ensemble"] = [64]
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "f.csv"
    assert run_cli("forecast", "--manifest", manifest, "--series", "S00", "--out", out) == 2
    assert "config section 'ensemble' must be a JSON object, got array" in capsys.readouterr().err
    assert not out.exists()


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def test_manifest_ensemble_field_error_names_the_manifest(tmp_path, workspace, capsys):
    import shutil

    pool_dir = tmp_path / "pool"
    shutil.copytree(workspace["root"] / "pool", pool_dir)
    manifest = pool_dir / "manifest.json"
    _edit_json(manifest, lambda doc: doc["run"]["ensemble"].update(trials=2.5))
    out = tmp_path / "f.csv"
    assert run_cli("forecast", "--manifest", manifest, "--series", "S00", "--out", out) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: {manifest}: config section 'ensemble': "
        "field 'trials' must be an integer, got number 2.5"
    )
    assert not out.exists()


@pytest.mark.parametrize("mutate", [
    lambda path: path.write_text(path.read_text().replace('"', "'", 1)),
    lambda path: path.write_text(json.dumps([json.loads(path.read_text())])),
    lambda path: _edit_json(path, lambda doc: doc.update(run=[doc["run"]])),
    lambda path: _edit_json(path, lambda doc: doc["members"].append(3)),
    lambda path: _edit_json(path, lambda doc: doc.update(config=list(doc["config"]))),
    lambda path: _edit_json(path, lambda doc: doc["config"].update(bogus=1)),
    lambda path: _edit_json(path, lambda doc: doc["schedule"].update(epochs="x")),
    lambda path: _edit_json(path, lambda doc: doc.update(members_file=3)),
    lambda path: _edit_json(path, lambda doc: doc["schedule"].update(seed=1.5)),
    lambda path: _edit_json(path, lambda doc: doc["schedule"].update(pool_size="2")),
    lambda path: _edit_json(path, lambda doc: doc["split"].update(test_months=True)),
    lambda path: _edit_json(path, lambda doc: doc["members"][1].update(seed="1")),
    lambda path: _edit_json(path, lambda doc: doc["members"][0].update(final_loss="0.5")),
], ids=["invalid-json", "top-level-list", "run-list", "member-not-object", "config-list",
        "config-unknown-field", "epochs-string", "members-file-number", "seed-fraction",
        "pool-size-string", "test-months-boolean", "member-seed-string", "final-loss-string"])
def test_malformed_manifest_fails_naming_the_manifest(tmp_path, workspace, capsys, mutate):
    import shutil

    pool_dir = tmp_path / "pool"
    shutil.copytree(workspace["root"] / "pool", pool_dir)
    manifest = pool_dir / "manifest.json"
    mutate(manifest)
    with pytest.raises(ValueError, match="^" + re.escape(f"{manifest}: ")):
        load_pool(manifest)
    out = tmp_path / "f.csv"
    assert run_cli("forecast", "--manifest", manifest, "--series", "S00", "--out", out) == 1
    assert capsys.readouterr().err.startswith(f"runtime error: {manifest}: ")
    assert not out.exists()


def test_set_overrides_reach_the_config(tmp_path, capsys):
    config_path = tmp_path / "c.json"
    dataset = tmp_path / "d.csv"
    run_cli("synth", "--out", dataset, "--series", 2, "--months", 40)
    config_path.write_text(json.dumps({"dataset": str(dataset)}))
    capsys.readouterr()  # drop the synth output
    assert run_cli("train", "--config", config_path, "--set", "model.tau=0.4",
                   "--set", "train.pool_size=3", "--dry-run") == 0
    echoed = json.loads(capsys.readouterr().out)
    assert echoed["model"]["tau"] == 0.4
    assert echoed["train"]["pool_size"] == 3


# ---------------------------------------------------------------------------
# forecast
# ---------------------------------------------------------------------------

def test_forecast_single_member_pool_matches_member(tmp_path, workspace):
    # pool of one: the ensemble forecast IS that member's forecast
    config = dict(workspace["config"])
    config["output_dir"] = str(tmp_path / "pool1")
    config["train"] = dict(config["train"], pool_size=1)
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps(config))
    assert run_cli("train", "--config", config_path) == 0

    out = tmp_path / "fc.csv"
    assert run_cli("forecast", "--manifest", tmp_path / "pool1" / "manifest.json",
                   "--series", "S00", "--out", out) == 0
    header, rows = read_csv_rows(out)
    assert header == ["series_id", "year", "month", "forecast"]
    assert len(rows) == 6

    row = np.load(tmp_path / "pool1" / "members.npy")[0]
    params = {name: row[name] for name in row.dtype.names[2:]}
    series = load_dataset(workspace["dataset"], min_length=18)
    target = [s for s in series if s.id == "S00"][0]
    cfg = ModelConfig(**json.loads((tmp_path / "pool1" / "manifest.json").read_text())["config"])
    want = model_forward(params, target.values[None, -cfg.lookback :], cfg)[0][0]
    got = np.array([float(r[3]) for r in rows])
    assert np.array_equal(got, want)


def test_forecast_decomposition_rows_sum_to_forecast(tmp_path, workspace):
    out = tmp_path / "fc.csv"
    decomp = tmp_path / "decomp.json"
    assert run_cli("forecast", "--manifest", workspace["manifest"], "--series", "all",
                   "--out", out, "--decomposition", decomp) == 0
    doc = json.loads(decomp.read_text())
    assert set(doc["series"]) == {"S00", "S01", "S02"}
    for entry in doc["series"].values():
        blocks = np.array(entry["blocks"])
        forecast = np.array(entry["forecast"])
        assert blocks.shape == (2, 6)
        assert np.allclose(blocks.sum(axis=0), forecast, rtol=1e-9)


def test_forecast_anchor_and_series_validation(tmp_path, workspace, capsys):
    out = tmp_path / "x.csv"
    assert run_cli("forecast", "--manifest", workspace["manifest"], "--series", "NOPE",
                   "--out", out) == 2
    assert "NOPE" in capsys.readouterr().err
    # anchor too early: fewer than lookback months of history
    assert run_cli("forecast", "--manifest", workspace["manifest"], "--series", "S00",
                   "--anchor", "2010-03", "--out", out) == 2
    assert "history" in capsys.readouterr().err
    # anchor beyond the series end
    assert run_cli("forecast", "--manifest", workspace["manifest"], "--series", "S00",
                   "--anchor", "2030-01", "--out", out) == 2


@pytest.mark.parametrize("flags, message", [
    # 2012-13 and 2013-0 used to be read as 2013-01 and 2012-12
    (["--series", "S00", "--anchor", "2012-13"], "--anchor expects YYYY-MM, got '2012-13'"),
    (["--series", "S00", "--anchor", "2013-0"], "--anchor expects YYYY-MM, got '2013-0'"),
    (["--series", "S00", "--trial-index", "-1"], "--trial-index must be >= 0"),
    (["--series", "S00,S01,S00"], "--series repeats id 'S00'"),
], ids=["anchor-month-13", "anchor-month-0", "trial-index", "repeated-id"])
def test_forecast_bad_flags_exit_2_before_reading_files(tmp_path, workspace, capsys, flags,
                                                        message):
    out = tmp_path / "f.csv"
    for manifest in (workspace["manifest"], tmp_path / "missing" / "manifest.json"):
        assert run_cli("forecast", "--manifest", manifest, *flags, "--out", out) == 2
        assert message in capsys.readouterr().err
    assert not out.exists()


def _dataset_with_fault(workspace, path, fault):
    """The workspace dataset at ``path`` with one fault in series S01, or with
    an extra 3-month series SHORT; returns the id at fault and the message that
    names the fault."""
    write_dataset_csv(load_dataset(workspace["dataset"], min_length=18), path)
    extra = {"value": ["S01,2013,5,abc"], "fields": ["S01,2013,5"],
             "short": [f"SHORT,2010,{m},5.0" for m in (1, 2, 3)]}[fault]
    with open(path, "a") as fh:
        fh.write("\n".join(extra) + "\n")
    # 3 series x 40 months fill rows 2-121
    message = {"value": "row 122: could not convert", "fields": "row 122: expected 4 fields",
               "short": "SHORT (3 months)"}[fault]
    return ("SHORT" if fault == "short" else "S01"), message


@pytest.mark.parametrize("suffix", [".csv"])
@pytest.mark.parametrize("fault", ["value", "fields", "short"])
def test_forecast_validates_only_the_requested_series(tmp_path, workspace, capsys, suffix,
                                                      fault):
    dataset = tmp_path / f"faulty{suffix}"
    at_fault, message = _dataset_with_fault(workspace, dataset, fault)

    def forecast(series, path):
        out = tmp_path / f"{path.stem}-{series}.csv"
        code = run_cli("forecast", "--manifest", workspace["manifest"], "--dataset", path,
                       "--series", series, "--out", out)
        return code, out

    assert forecast(at_fault, dataset)[0] == 2
    assert message in capsys.readouterr().err
    code, out = forecast("S00", dataset)
    assert code == 0
    assert out.read_bytes() == forecast("S00", workspace["dataset"])[1].read_bytes()
    assert forecast("all", dataset)[0] == 2
    assert message in capsys.readouterr().err
    assert run_cli("evaluate", "--manifest", workspace["manifest"], "--dataset", dataset,
                   "--out-dir", tmp_path / "eval") == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("suffix", [".json", ".JSON"])
@pytest.mark.parametrize("command", ["train", "evaluate", "forecast", "ablate", "sweep",
                                     "train --dry-run"],
                         ids=["train", "evaluate", "forecast", "ablate", "sweep", "train-dry-run"])
def test_json_dataset_exits_2_naming_the_file(tmp_path, workspace, capsys, command, suffix):
    """JSON datasets are no longer read: one named in a config, or recorded in
    a pool's manifest, is refused before anything is written, and a dry run
    refuses the config that the run would."""
    command, *flags = command.split()
    dataset = tmp_path / f"d{suffix}"
    dataset.write_text(json.dumps({"series": [{"id": "S00", "start": [2010, 1],
                                               "values": [5.0] * 40}]}))
    out = tmp_path / "out"
    if command in ("evaluate", "forecast"):
        pool = tmp_path / "pool"
        shutil.copytree(workspace["root"] / "pool", pool)
        doc = json.loads((pool / "manifest.json").read_text())
        doc["run"]["dataset"] = str(dataset)
        (pool / "manifest.json").write_text(json.dumps(doc))
        flag = "--out-dir" if command == "evaluate" else "--out"
        argv = ["--manifest", pool / "manifest.json", flag, out]
    else:
        config = tmp_path / "c.json"
        config.write_text(json.dumps(dict(workspace["config"], dataset=str(dataset),
                                          output_dir=str(out))))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"model.tau": [0.3]}))
        argv = ["--config", config, *(["--grid", grid] if command == "sweep" else [])]
    assert run_cli(command, *argv, *flags) == 2
    message = f"{dataset}: datasets are CSV with header 'series_id,year,month,value'"
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_missing_manifest_exits_2_naming_the_path(tmp_path, capsys):
    missing = tmp_path / "nowhere" / "manifest.json"
    assert run_cli("forecast", "--manifest", missing, "--out", tmp_path / "f.csv") == 2
    assert str(missing) in capsys.readouterr().err
    assert run_cli("evaluate", "--manifest", missing, "--out-dir", tmp_path / "eval") == 2
    assert str(missing) in capsys.readouterr().err


def test_forecast_anchor_mid_series(tmp_path, workspace):
    out = tmp_path / "anchored.csv"
    assert run_cli("forecast", "--manifest", workspace["manifest"], "--series", "S00",
                   "--anchor", "2011-06", "--out", out) == 0
    _, rows = read_csv_rows(out)
    assert [(r[1], r[2]) for r in rows][0] == ("2011", "7")
    assert len(rows) == 6


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_writes_reports(tmp_path, workspace):
    out_dir = tmp_path / "eval"
    assert run_cli("evaluate", "--manifest", workspace["manifest"], "--out-dir", out_dir) == 0
    doc = json.loads((out_dir / "metrics.json").read_text())
    assert doc["meta"]["config_hash"]
    assert doc["meta"]["split"] == "test"
    agg = doc["metrics"]["averaged"]
    assert all(np.isfinite(agg[k]) for k in ("mape", "medape", "iqr_ape", "rmse", "mpe"))
    assert "std" in doc["metrics"]["spread"]["mape"]
    assert doc["baseline_seasonal_naive"] is not None

    header, rows = read_csv_rows(out_dir / "per_series.csv")
    assert header == ["model", "series_id", "medape", "mape", "iqr_ape", "rmse", "mpe"]
    assert len(rows) == 3

    header, rows = read_csv_rows(out_dir / "errors.csv")
    assert header == ["series_id", "year", "month", "actual", "forecast", "error"]
    assert len(rows) == 18  # 3 series x 6 test months
    for r in rows:
        assert float(r[5]) == pytest.approx(float(r[3]) - float(r[4]), rel=1e-12)

    header, rows = read_csv_rows(out_dir / "mpe_points.csv")
    assert header == ["series_id", "year", "month", "pe"]
    assert len(rows) == 18


def test_evaluate_validation_split(tmp_path, workspace):
    out_dir = tmp_path / "eval_val"
    assert run_cli("evaluate", "--manifest", workspace["manifest"], "--split", "val",
                   "--out-dir", out_dir) == 0
    doc = json.loads((out_dir / "metrics.json").read_text())
    assert doc["meta"]["split"] == "val"


def test_evaluate_reruns_byte_identical_payload(tmp_path, workspace):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("evaluate", "--manifest", workspace["manifest"], "--out-dir", out_a) == 0
    assert run_cli("evaluate", "--manifest", workspace["manifest"], "--out-dir", out_b) == 0
    doc_a = json.loads((out_a / "metrics.json").read_text())
    doc_b = json.loads((out_b / "metrics.json").read_text())
    assert doc_a["meta"].pop("created_at") != ""
    assert doc_b["meta"].pop("created_at") != ""
    assert json.dumps(doc_a, sort_keys=True) == json.dumps(doc_b, sort_keys=True)
    assert (out_a / "per_series.csv").read_text() == (out_b / "per_series.csv").read_text()


@pytest.mark.parametrize("workers", [0, -3])
@pytest.mark.parametrize("command", ["train", "ablate", "sweep"])
def test_workers_below_one_exit_2_writing_nothing(tmp_path, workspace, capsys, command, workers):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(workspace["config"], output_dir=str(tmp_path / "pool"))))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"tau": [0.3]}))
    extra = {"train": [], "ablate": ["--out-dir", tmp_path / "out"],
             "sweep": ["--grid", grid, "--out-dir", tmp_path / "out"]}[command]
    assert run_cli(command, "--config", config, "--workers", workers, *extra) == 2
    assert f"--workers must be >= 1, got {workers}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "grid.json"]


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

def test_ablate_produces_five_variant_table(tmp_path, workspace):
    out_dir = tmp_path / "ablation"
    assert run_cli("ablate", "--config", workspace["config_path"], "--out-dir", out_dir) == 0
    header, rows = read_csv_rows(out_dir / "ablation_table.csv")
    assert header == ["variant", "mape", "rmse"]
    assert [r[0] for r in rows] == ["full", "noL2", "noVar", "noDestd", "noReLU"]
    assert all(np.isfinite(float(r[1])) and np.isfinite(float(r[2])) for r in rows)

    doc = json.loads((out_dir / "ablation.json").read_text())
    trace = doc["variants"]["noL2"]["loss_trace_member0"]
    assert all(entry["nmse_term"] == 0.0 for entry in trace)
    full_trace = doc["variants"]["full"]["loss_trace_member0"]
    assert any(entry["nmse_term"] > 0.0 for entry in full_trace)
    assert doc["variants"]["full"]["mape"] != doc["variants"]["noVar"]["mape"]


# ---------------------------------------------------------------------------
# dm-test
# ---------------------------------------------------------------------------

def write_errors_file(path, errors, sid="A"):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series_id", "year", "month", "error"])
        year, month = 2014, 1
        for e in errors:
            writer.writerow([sid, year, month, repr(float(e))])
            month += 1
            if month > 12:
                year, month = year + 1, 1


def test_dm_test_matches_oracle(tmp_path, capsys):
    rng = np.random.default_rng(8)
    e1 = rng.normal(0, 2.0, size=48)
    e2 = rng.normal(0, 1.0, size=48)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_errors_file(a, e1)
    write_errors_file(b, e2)
    out = tmp_path / "dm.json"
    assert run_cli("dm-test", "--errors-a", a, "--errors-b", b, "--horizon", 12,
                   "--out", out) == 0
    doc = json.loads(out.read_text())["result"]
    want, degenerate = dm_reference(e1, e2, "absolute", 12)
    assert not degenerate
    assert doc["statistic"] == pytest.approx(want, abs=1e-9)
    assert doc["reject_equal_accuracy"] == (abs(want) > 2.5758293035489004)


def test_dm_test_identical_files_flagged_degenerate(tmp_path, capsys):
    e = np.random.default_rng(9).normal(size=24)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_errors_file(a, e)
    write_errors_file(b, e)
    assert run_cli("dm-test", "--errors-a", a, "--errors-b", b) == 0
    assert "degenerate" in capsys.readouterr().out


def test_dm_test_misaligned_files_exit_2(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_errors_file(a, np.arange(1.0, 13.0))
    write_errors_file(b, np.arange(1.0, 13.0), sid="B")
    assert run_cli("dm-test", "--errors-a", a, "--errors-b", b) == 2
    assert "aligned" in capsys.readouterr().err


@pytest.mark.parametrize("extra_row, flags, message", [
    # a second row for 2014-01 must not replace the first one silently
    ("A,2014,1,99.0", [], "a.csv: line 14: duplicate row for series 'A' 2014-01"),
    ("A,2015", [], "a.csv: line 14:"),
    ("A,x,1,0.5", [], "a.csv: line 14:"),
    ("A,2015,1,abc", [], "a.csv: line 14:"),
    # a non-finite error used to give "DM statistic +nan", and NaN tokens in --out
    ("A,2015,1,nan", [], "a.csv: line 14:"),
    ("A,2015,1,inf", [], "a.csv: line 14:"),
    ("A,2015,1,-inf", [], "a.csv: line 14:"),
    # a row that is not UTF-8, appended as it is
    (b"\xff\xfeA,2015,1,0.5\n", [], "a.csv: cannot be read as text: 'utf-8' codec can't decode"),
    (None, ["--alpha", "2"], "--alpha"),
    # identical files give a degenerate comparison, which must not hide a bad alpha
    (None, ["--alpha", "7"], "--alpha"),
    (None, ["--horizon", "0"], "--horizon"),
], ids=["duplicate", "short-row", "bad-year", "bad-error", "nan-error", "inf-error",
        "minus-inf-error", "not-utf-8", "alpha-2", "alpha-7", "horizon-0"])
def test_dm_test_bad_input_exits_2_naming_file_and_line(tmp_path, capsys, extra_row, flags,
                                                        message):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_errors_file(a, np.arange(1.0, 13.0))
    write_errors_file(b, np.arange(1.0, 13.0))
    if extra_row is not None:
        with open(a, "ab" if isinstance(extra_row, bytes) else "a") as fh:
            fh.write(extra_row if isinstance(extra_row, bytes) else extra_row + "\n")
    assert run_cli("dm-test", "--errors-a", a, "--errors-b", b, *flags) == 2
    assert message in capsys.readouterr().err


def test_two_model_evaluation_feeds_dm_test(tmp_path, workspace):
    # a second pool differing only in the master seed, evaluated on the same split
    config = dict(workspace["config"])
    config["output_dir"] = str(tmp_path / "pool_b")
    config["train"] = dict(config["train"], seed=99)
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps(config))
    assert run_cli("train", "--config", config_path) == 0

    eval_a, eval_b = tmp_path / "eval_a", tmp_path / "eval_b"
    assert run_cli("evaluate", "--manifest", workspace["manifest"], "--out-dir", eval_a) == 0
    assert run_cli("evaluate", "--manifest", tmp_path / "pool_b" / "manifest.json",
                   "--out-dir", eval_b) == 0
    out = tmp_path / "dm.json"
    assert run_cli("dm-test", "--errors-a", eval_a / "errors.csv",
                   "--errors-b", eval_b / "errors.csv", "--horizon", 6,
                   "--out", out) == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["n"] == 18
    assert "config_hash" in doc["meta"]["errors_a"]["provenance"]


def test_corrupt_checkpoint_is_a_runtime_failure(tmp_path, workspace, capsys):
    import shutil

    pool_dir = tmp_path / "broken_pool"
    shutil.copytree(workspace["root"] / "pool", pool_dir)
    (pool_dir / "members.npy").write_bytes(b"not a checkpoint")
    assert run_cli("forecast", "--manifest", pool_dir / "manifest.json",
                   "--series", "S00", "--out", tmp_path / "x.csv") == 1
    err = capsys.readouterr().err
    assert "runtime error" in err and "members.npy: unreadable members file" in err


@pytest.mark.parametrize("command", ["evaluate", "forecast-decomposition"])
def test_checkpoint_from_another_member_is_rejected(tmp_path, workspace, five_member_pools,
                                                    monkeypatch, capsys, command):
    # chunks of two members on the 3 series: member 3 is second in the second
    # chunk, so a check of each chunk's first row or of the first chunk misses it
    import shutil

    import loadcast.ensemble as ensemble_mod

    pool_dir = tmp_path / "swapped_pool"
    shutil.copytree(five_member_pools[True], pool_dir)
    rows = np.load(pool_dir / "members.npy", mmap_mode="r+")
    rows[3] = rows[0]
    rows.flush()
    monkeypatch.setattr(ensemble_mod, "CHUNK_BYTES", 2 * rows.dtype.itemsize * (1 + 3))
    del rows
    argv = ["--manifest", pool_dir / "manifest.json", "--dataset", workspace["dataset"]]
    if command == "evaluate":
        argv = ["evaluate", *argv, "--out-dir", tmp_path / "eval"]
    else:  # 64 draws take every member
        argv = ["forecast", *argv, "--series", "all", "--ensemble-size", 64,
                "--out", tmp_path / "fc.csv", "--decomposition", tmp_path / "blocks.json"]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert "runtime error" in err and "members.npy: member 3 holds" in err


def test_interrupted_pool_manifest_is_refused(tmp_path, workspace, capsys):
    # an interrupted train leaves a manifest listing only the members trained
    import shutil

    pool_dir = tmp_path / "partial_pool"
    shutil.copytree(workspace["root"] / "pool", pool_dir)
    manifest = pool_dir / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["members"] = doc["members"][:1]
    manifest.write_text(json.dumps(doc))
    assert run_cli("evaluate", "--manifest", manifest, "--out-dir", tmp_path / "eval") == 1
    err = capsys.readouterr().err
    assert f"{manifest}: no entry for member(s) [1] of a pool of 2" in err
    assert "rerun train into the same directory" in err
    assert not (tmp_path / "eval").exists()


def test_forecast_runs_each_drawn_member_once(tmp_path, workspace, monkeypatch):
    # 64 draws from a pool of 2: one scoring pass with a member axis of 2
    import loadcast.ensemble as ensemble_mod
    from loadcast.train import load_pool

    forwards = []
    forward = ensemble_mod.forward_blocks
    monkeypatch.setattr(ensemble_mod, "forward_blocks",
                        lambda params, *args: forwards.append(params) or forward(params, *args))
    assert run_cli("forecast", "--manifest", workspace["manifest"], "--series", "all",
                   "--ensemble-size", 64, "--out", tmp_path / "fc.csv") == 0
    assert len(forwards) == 1
    pool = load_pool(workspace["manifest"])
    each = [params_of(pool, i) for i in range(len(pool.members))]
    assert forwards[0].keys() == each[0].keys()
    for name, stacked in forwards[0].items():
        assert np.array_equal(stacked, np.stack([params[name] for params in each]))


@pytest.mark.parametrize("sharing", [True, False], ids=["sharing", "no-sharing"])
def test_forecast_decomposition_runs_one_pass_per_chunk(tmp_path, workspace, five_member_pools,
                                                        monkeypatch, sharing):
    # 64 draws from 5 members in chunks of two: the three scoring passes of
    # the forecast also give the blocks, bit for bit those of each member alone
    import loadcast.cli as cli
    import loadcast.ensemble as ensemble_mod
    from loadcast.ensemble import EnsembleSpec, draw_member_indices
    from loadcast.model import decompose, forward_blocks
    from loadcast.train import load_pool

    manifest = five_member_pools[sharing] / "manifest.json"
    pool = load_pool(manifest)
    chunks = []

    def counted(forward):
        def run(params, *args):
            chunks.append(len(next(iter(params.values()))))
            return forward(params, *args)
        return run

    monkeypatch.setattr(ensemble_mod, "forward_blocks", counted(forward_blocks))
    # a second pass, by either entry point, would be counted too
    monkeypatch.setattr(cli, "forward_blocks", counted(forward_blocks), raising=False)
    monkeypatch.setattr(cli, "model_forward", counted(model_forward), raising=False)
    monkeypatch.setattr(ensemble_mod, "CHUNK_BYTES", 2 * pool.rows.dtype.itemsize * (1 + 3))
    decomposition = tmp_path / "blocks.json"
    assert run_cli("forecast", "--manifest", manifest, "--series", "all", "--ensemble-size", 64,
                   "--out", tmp_path / "fc.csv", "--decomposition", decomposition) == 0
    drawn = draw_member_indices(5, EnsembleSpec(ensemble_size=64, seed=0), 0)
    assert set(drawn) == set(range(5))
    assert chunks == [2, 2, 1]

    series = sorted(load_dataset(workspace["dataset"], min_length=18), key=lambda s: s.id)
    x = np.stack([s.values[-pool.config.lookback :] for s in series])
    forwards = [model_forward(params_of(pool, i), x, pool.config)[1] for i in range(5)]
    each = [decompose(f.scale, [block.forecast for block in f.blocks]) for f in forwards]
    want = np.mean([each[i] for i in drawn], axis=0)
    doc = json.loads(decomposition.read_text())["series"]
    for k, s in enumerate(series):
        assert np.array(doc[s.id]["blocks"]).tobytes() == want[:, k].tobytes(), s.id


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_two_point_grid(tmp_path, workspace):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"tau": [0.3, 0.35]}))
    out_dir = tmp_path / "sweep"
    assert run_cli("sweep", "--config", workspace["config_path"], "--grid", grid,
                   "--out-dir", out_dir) == 0
    header, rows = read_csv_rows(out_dir / "sweep.csv")
    assert header[0] == "tau" and len(rows) == 2
    doc = json.loads((out_dir / "sweep.json").read_text())
    assert doc["best"]["val_mape"] == min(r["val_mape"] for r in doc["rows"])
    # same seeds across combinations: only tau differs in the rows
    assert {r["tau"] for r in doc["rows"]} == {0.3, 0.35}


def test_sweep_passes_workers_to_build_pool(tmp_path, workspace, monkeypatch):
    import loadcast.cli as cli

    seen = []
    real_build_pool = cli.build_pool

    def recording_build_pool(*args, workers=1, **kwargs):
        seen.append(workers)
        return real_build_pool(*args, workers=1, **kwargs)

    monkeypatch.setattr(cli, "build_pool", recording_build_pool)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"tau": [0.3, 0.35]}))
    assert run_cli("sweep", "--config", workspace["config_path"], "--grid", grid,
                   "--workers", 3, "--out-dir", tmp_path / "sweep") == 0
    assert seen == [3, 3]


def test_sweep_single_combination(tmp_path, workspace):
    grid = tmp_path / "grid1.json"
    grid.write_text(json.dumps({"train.epochs": [1]}))
    out_dir = tmp_path / "sweep1"
    assert run_cli("sweep", "--config", workspace["config_path"], "--grid", grid,
                   "--out-dir", out_dir) == 0
    _, rows = read_csv_rows(out_dir / "sweep.csv")
    assert len(rows) == 1


@pytest.mark.parametrize("grid, message", [
    ({"decoder_width": [1, 2]}, "decoder_width"),
    ({"tau": 0.3}, "list"),
    ({"sharing": ["no"]}, "grid combination {'sharing': 'no'}: config section 'model': "
                          "field 'sharing' must be a boolean, got string \"no\""),
    ({"lookback": ["6"]}, "grid combination {'lookback': '6'}: config section 'model': "
                          "field 'lookback' must be an integer, got string \"6\""),
    ({"model.ablation": ["noReLU"]}, "grid combination {'model.ablation': 'noReLU'}: config "
     "section 'model': field 'ablation' must be a list of strings, got string \"noReLU\""),
    ({"seed": [0, 1]}, "grid field 'seed' names both model.seed and train.seed"),
    # bytes are written as they are: these are not UTF-8
    (b"\xff\xfe{}", "bad.json: cannot be read as text: 'utf-8' codec can't decode byte 0xff"),
], ids=["unknown-field", "not-a-list", "bool-string", "int-string", "ablation-string",
        "seed-in-both-sections", "not-utf-8"])
def test_sweep_malformed_grid_names_field(tmp_path, workspace, capsys, grid, message):
    path = tmp_path / "bad.json"
    if isinstance(grid, bytes):
        path.write_bytes(grid)
    else:
        path.write_text(json.dumps(grid))
    assert run_cli("sweep", "--config", workspace["config_path"], "--grid", path,
                   "--out-dir", tmp_path / "sweep") == 2
    assert message in capsys.readouterr().err


def test_sweep_requires_validation_months(tmp_path, workspace, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"tau": [0.3]}))
    assert run_cli("sweep", "--config", workspace["config_path"], "--grid", grid,
                   "--set", "split.val_months=0") == 2
    assert "val_months" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------

def test_no_command_prints_help_and_exits_2(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_unknown_command_exits_2():
    assert main(["transmogrify"]) == 2


def test_help_exits_zero():
    assert main(["--help"]) == 0


# each command alone, with a required option missing; then a bad value of an
# option with choices, or of an integer option where the command has none
PARSE_ERRORS = {
    "synth": ["--series", "x"],
    "train": ["--config", "c.json", "--workers", "x"],
    "forecast": ["--manifest", "m.json", "--out", "f.csv", "--aggregation", "mode"],
    "evaluate": ["--manifest", "m.json", "--out-dir", "o", "--split", "train"],
    "ablate": ["--config", "c.json", "--workers", "x"],
    "dm-test": ["--errors-a", "a.csv", "--errors-b", "b.csv", "--loss", "huber"],
    "sweep": ["--config", "c.json", "--grid", "g.json", "--workers", "x"],
}


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h"], ["transmogrify"], ["--bogus"],
    *([command, "--help"] for command in PARSE_ERRORS),
    *([command] for command in PARSE_ERRORS),
    *([command, *flags] for command, flags in PARSE_ERRORS.items()),
    ["forecast", "--manifest", "m.json", "--out", "f.csv", "stray"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_main_parses_as_the_all_commands_parser(argv, monkeypatch, capsys):
    """``main`` builds only the parser of the command it runs; its help, usage
    errors and exit codes are those of the parser of every command."""
    got = main(argv), *capsys.readouterr()
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda names: build(list(cli.COMMANDS)))
    want = main(argv), *capsys.readouterr()
    assert got == want
    assert got[0] == (0 if {"-h", "--help"} & set(argv) else 2)
    assert got[1] or got[2]


def test_forecast_builds_one_command_parser(tmp_path, workspace, monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting_add_parser(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting_add_parser)
    assert run_cli("forecast", "--manifest", workspace["manifest"], "--series", "S01",
                   "--out", tmp_path / "f.csv") == 0
    assert built == ["forecast"]
    built.clear()
    assert main(["--help"]) == 0
    assert built == list(cli.COMMANDS)


def test_outputs_do_not_depend_on_the_locale_encoding(tmp_path, workspace):
    """Every file is read and written as UTF-8, and so is the text of
    ``--series`` and ``--label``. Under the C locale with Python's UTF-8 mode
    off, the default text encoding is ASCII; a dataset with a non-ASCII id,
    and that id or a label on the command line, must still give the bytes a
    UTF-8 locale gives."""
    dataset = tmp_path / "d.csv"
    assert run_cli("synth", "--out", dataset, "--series", 2, "--months", 40) == 0
    text = dataset.read_text(encoding="utf-8")
    dataset.write_text(text.replace("\nS00,", "\nÖsterreich,"), encoding="utf-8")
    config = tmp_path / "c.json"
    config.write_text(json.dumps(dict(workspace["config"], dataset=str(dataset))))
    src = str(Path(loadcast.__file__).parents[1])
    outputs = {}
    for locale in ("C", "C.UTF-8"):
        out = tmp_path / locale
        env = dict(os.environ, PYTHONPATH=src, PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                   LC_ALL=locale)
        manifest = out / "pool" / "manifest.json"
        for argv in (["train", "--config", config, "--set", f"output_dir={out / 'pool'}"],
                     ["evaluate", "--manifest", manifest, "--out-dir", out / "eval"],
                     ["forecast", "--manifest", manifest, "--series", "all",
                      "--out", out / "forecast.csv"],
                     ["evaluate", "--manifest", manifest, "--label", "Österreich",
                      "--out-dir", out / "labelled"],
                     ["forecast", "--manifest", manifest, "--series", "Österreich",
                      "--out", out / "one.csv"]):
            subprocess.run([sys.executable, "-m", "loadcast.cli", *map(str, argv)], env=env,
                           capture_output=True, check=True, timeout=120)
        outputs[locale] = {
            path.relative_to(out): re.sub(rb'"created_at": "[^"]*"', b"", path.read_bytes())
            for path in sorted(out.rglob("*")) if path.is_file()
        }
    assert "Österreich".encode() in outputs["C.UTF-8"][Path("forecast.csv")]
    assert "\nÖsterreich,".encode() in outputs["C.UTF-8"][Path("one.csv")]
    assert "\nÖsterreich,S01,".encode() in outputs["C.UTF-8"][Path("labelled/per_series.csv")]
    assert len(outputs["C"]) == 12  # manifest, members, two forecasts, twice four evaluate files
    assert outputs["C"] == outputs["C.UTF-8"]
