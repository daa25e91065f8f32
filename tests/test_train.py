import json
import os
import re
import stat
from dataclasses import replace

import numpy as np
import pytest
from numpy.lib.format import open_memmap

import loadcast.train as train_mod
from loadcast.cli import _write_csv
from loadcast.data import DatasetError, SplitSpec, TimeSeries, write_dataset_csv
from loadcast.model import config_hash, init_params, model_forward
from loadcast.train import (
    BLAS_THREAD_VARIABLES,
    Pool,
    TrainSchedule,
    TrainedMember,
    build_pool,
    in_worker_processes,
    load_pool,
    member_dtype,
    member_seeds,
    open_members,
    pool_manifest,
    save_checkpoint,
    train_one,
    training_set,
    write_json,
)

from helpers import blas_threads, params_of, sinusoid_trend_series, tiny_config

TINY_SCHEDULE = TrainSchedule(epochs=2, batches_per_epoch=5, batch_size=8, pool_size=2, seed=42)
TINY_SPLIT = SplitSpec(test_months=3, val_months=3)


def tiny_dataset(n=2, months=42, noise=0.01):
    return [
        sinusoid_trend_series(sid=f"T{i}", months=months, level=800.0 * (i + 1), noise=noise, seed=i)
        for i in range(n)
    ]


def test_training_reduces_loss_on_clean_sinusoid_with_trend():
    windows = training_set([sinusoid_trend_series(months=48, noise=0.0)], tiny_config(), TINY_SPLIT)
    trace = train_one(windows, tiny_config(), TINY_SCHEDULE, 7).loss_trace
    assert trace[-1]["loss"] < trace[0]["loss"]
    assert len(trace) == 2
    assert {"epoch", "loss", "pmape", "nmse_term"} <= trace[0].keys()


def test_training_is_bit_deterministic():
    series = tiny_dataset()
    a = train_one(training_set(series, tiny_config(), TINY_SPLIT), tiny_config(), TINY_SCHEDULE, 99)
    b = train_one(training_set(series, tiny_config(), TINY_SPLIT), tiny_config(), TINY_SCHEDULE, 99)
    assert a.loss_trace == b.loss_trace
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])
    c = train_one(training_set(series, tiny_config(), TINY_SPLIT), tiny_config(), TINY_SCHEDULE,
                  100)
    assert any(not np.array_equal(a.params[n], c.params[n]) for n in a.params)


def test_empty_dataset_is_a_precondition_error():
    # long enough to pass load validation, too short to host a training window
    short = [TimeSeries("S", (2020, 1), np.linspace(10, 20, 14))]
    with pytest.raises(DatasetError, match="no training windows"):
        training_set(short, tiny_config(), TINY_SPLIT)


def test_constant_target_window_is_surfaced_before_training():
    flat = [TimeSeries("FLAT", (2020, 1), np.full(42, 50.0))]
    with pytest.raises(DatasetError, match="FLAT.*constant target"):
        training_set(flat, tiny_config(), TINY_SPLIT)
    # disabling the variance normalization (or the L2 term) lifts the guard
    no_var = tiny_config(ablation=frozenset({"noVar"}))
    result = train_one(training_set(flat, no_var, TINY_SPLIT), no_var, TINY_SCHEDULE, 1)
    assert np.isfinite(result.loss_trace[-1]["loss"])


def test_constant_target_names_its_series_and_anchor():
    # SHORT hosts no training window (8 training months < 6 + 3); in RAMP only
    # the window anchored at offset 19 has a constant target, values[20:23]
    short = TimeSeries("SHORT", (2020, 1), np.linspace(10.0, 20.0, 14))
    values = np.linspace(100.0, 200.0, 42)
    values[20:23] = values[20]
    ramp = TimeSeries("RAMP", (2020, 1), values)
    with pytest.raises(DatasetError, match="series 'RAMP': training window at anchor 19 "):
        training_set([short, ramp], tiny_config(), TINY_SPLIT)
    # rows of a series with windows before them shift RAMP's rows, not its anchors
    with pytest.raises(DatasetError, match="series 'RAMP': training window at anchor 19 "):
        training_set([tiny_dataset(1)[0], short, ramp], tiny_config(), TINY_SPLIT)


def test_non_finite_loss_aborts_with_diagnostics(monkeypatch):
    def poisoned(config, seed=None):
        params = init_params(config, np.random.default_rng(seed))
        first = next(iter(params))
        params[first] = params[first] * np.nan
        return params

    monkeypatch.setattr(train_mod, "init_params", poisoned)
    with pytest.raises(FloatingPointError, match="epoch 1, batch 1"):
        train_one(training_set(tiny_dataset(), tiny_config(), TINY_SPLIT), tiny_config(),
                  TINY_SCHEDULE, 5)


def assert_same_params(a, b):
    assert list(a) == list(b)
    assert all(a[n].shape == b[n].shape and a[n].tobytes() == b[n].tobytes() for n in a)


def row_bytes(path, index):
    return open_memmap(path, mode="r")[index].tobytes()


def test_checkpoint_roundtrip(tmp_path):
    # a row round-trips bit for bit, in the members file and in memory, with
    # the config hash and seed that member_params checks
    seed = member_seeds(0, 1)[0]  # a full-width uint64
    for sharing in (True, False):
        cfg = tiny_config(sharing=sharing)
        params = init_params(cfg, np.random.default_rng(17))
        path = tmp_path / f"members-{sharing}.npy"
        save_checkpoint(open_memmap(path, mode="w+", dtype=member_dtype(cfg), shape=(3,)), 1,
                        params, cfg, seed=seed)
        in_memory = np.zeros(3, dtype=member_dtype(cfg))
        save_checkpoint(in_memory, 1, params, cfg, seed=seed)
        for rows in (open_members(path, cfg, 3), in_memory):
            pool = Pool(cfg, replace(TINY_SCHEDULE, pool_size=3), TINY_SPLIT,
                        [TrainedMember(seed, 0.0, [])] * 3, rows)
            assert (rows[1]["config_hash"].decode(), int(rows[1]["seed"])) == (config_hash(cfg), seed)
            assert_same_params(params_of(pool, 1), params)
            with pytest.raises(ValueError, match=re.escape(
                    f"member 0 holds config  seed 0, expected config {config_hash(cfg)} seed {seed}")):
                pool.member_params([1, 0])
        assert row_bytes(path, 0) == row_bytes(path, 2) == bytes(member_dtype(cfg).itemsize)
        assert in_memory.tobytes() == open_memmap(path, mode="r").tobytes()


def test_train_one_persists_checkpoint(tmp_path):
    # a pool's stored row holds exactly the parameters train_one returns
    schedule = replace(TINY_SCHEDULE, pool_size=1)
    for sharing in (True, False):
        cfg = tiny_config(sharing=sharing)
        out_dir = tmp_path / f"sharing-{sharing}"
        pool = build_pool(tiny_dataset(), cfg, schedule, split_spec=TINY_SPLIT, workers=1,
                          out_dir=out_dir)
        assert not hasattr(pool.members[0], "params")
        assert str(pool.rows.filename) == str(out_dir / "members.npy")
        direct = train_one(training_set(tiny_dataset(), cfg, TINY_SPLIT), cfg, schedule,
                           pool.members[0].seed)
        assert_same_params(params_of(pool, 0), direct.params)


# ---------------------------------------------------------------------------
# Pools
# ---------------------------------------------------------------------------

def test_member_seeds_are_stable_and_distinct():
    seeds = member_seeds(0, 16)
    assert seeds == member_seeds(0, 16)
    assert len(set(seeds)) == 16
    assert member_seeds(1, 16) != seeds


def test_pool_members_differ(tmp_path):
    pool = build_pool(
        tiny_dataset(), tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT, workers=1,
        out_dir=tmp_path,
    )
    assert len(pool.members) == 2
    a = params_of(pool, 0)
    b = params_of(pool, 1)
    assert any(not np.array_equal(a[n], b[n]) for n in a)

    x = tiny_dataset()[0].values[None, -9:-3]
    fa, _ = model_forward(a, x, pool.config)
    fb, _ = model_forward(b, x, pool.config)
    assert np.max(np.abs(fa - fb)) > 0.0


def test_pool_rebuild_gives_identical_manifest(tmp_path):
    series = tiny_dataset()
    pool1 = build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT, workers=1,
                       out_dir=tmp_path / "a")
    pool2 = build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT, workers=1,
                       out_dir=tmp_path / "b")
    doc1 = json.loads((tmp_path / "a" / "manifest.json").read_text())
    doc2 = json.loads((tmp_path / "b" / "manifest.json").read_text())
    doc1.pop("created_at")
    doc2.pop("created_at")
    assert doc1 == doc2
    assert pool_manifest(pool1) == pool_manifest(pool2)


def record_row_writes(monkeypatch):
    written = []
    original = train_mod.save_checkpoint
    monkeypatch.setattr(train_mod, "save_checkpoint",
                        lambda rows, i, *args: written.append(i) or original(rows, i, *args))
    return written


def test_pool_resume_skips_existing_members(tmp_path, monkeypatch):
    series = tiny_dataset()
    store = tmp_path / "members.npy"
    build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT, workers=1,
               out_dir=tmp_path)
    first = (store.stat().st_mtime_ns, store.read_bytes())
    written = record_row_writes(monkeypatch)
    build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT, workers=1,
               out_dir=tmp_path)
    assert written == [] and (store.stat().st_mtime_ns, store.read_bytes()) == first

    # a config change invalidates the stored rows and retrains every member
    build_pool(series, tiny_config(tau=0.4), TINY_SCHEDULE, split_spec=TINY_SPLIT, workers=1,
               out_dir=tmp_path)
    assert written == [0, 1] and store.read_bytes() != first[1]


def test_partial_pool_resume_retrains_only_missing_members(tmp_path, monkeypatch):
    series = tiny_dataset()
    reference = build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT, workers=1,
                           out_dir=tmp_path)
    store, manifest = tmp_path / "members.npy", tmp_path / "manifest.json"
    kept, lost = row_bytes(store, 0), row_bytes(store, 1)
    doc = json.loads(manifest.read_text())
    doc["members"] = [e for e in doc["members"] if e["index"] != 1]
    manifest.write_text(json.dumps(doc))

    written = record_row_writes(monkeypatch)
    rebuilt = build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT, workers=1,
                         out_dir=tmp_path)
    assert written == [1]
    assert (row_bytes(store, 0), row_bytes(store, 1)) == (kept, lost)
    for i in range(len(reference.members)):
        assert_same_params(params_of(reference, i), params_of(rebuilt, i))


def test_truncated_checkpoint_is_retrained_on_resume(tmp_path):
    # a crash mid-write leaves a truncated members file; resume must rebuild
    # it and retrain every member, not abort
    series = tiny_dataset()
    clean = build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT, workers=1,
                       out_dir=tmp_path / "clean")
    build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT, workers=1,
               out_dir=tmp_path / "crashed")
    broken = tmp_path / "crashed" / "members.npy"
    broken.write_bytes(broken.read_bytes()[: broken.stat().st_size // 2])

    resumed = build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT, workers=1,
                         out_dir=tmp_path / "crashed")
    docs = [json.loads((tmp_path / d / "manifest.json").read_text()) for d in ("clean", "crashed")]
    for doc in docs:
        doc.pop("created_at")
    assert docs[0] == docs[1]
    assert broken.read_bytes() == (tmp_path / "clean" / "members.npy").read_bytes()
    for i in range(len(clean.members)):
        assert_same_params(params_of(clean, i), params_of(resumed, i))


def test_truncated_manifest_resume_matches_clean_build(tmp_path):
    # a crash while the manifest is written leaves intact checkpoints whose loss
    # no manifest records; the resume must not write NaN for them
    series = tiny_dataset()
    build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT, workers=1,
               out_dir=tmp_path / "clean")
    build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT, workers=1,
               out_dir=tmp_path / "crashed")
    manifest = tmp_path / "crashed" / "manifest.json"
    manifest.write_bytes(manifest.read_bytes()[:100])

    build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT, workers=1,
               out_dir=tmp_path / "crashed")
    docs = [json.loads((tmp_path / d / "manifest.json").read_text()) for d in ("clean", "crashed")]
    for doc in docs:
        doc.pop("created_at")
    assert docs[0] == docs[1]


@pytest.mark.parametrize("edit, retrained", [
    (lambda doc: doc["members"].append(dict(doc["members"][0])), [0, 1]),
    (lambda doc: doc["schedule"].update(seed=1.5), [0, 1]),
    (lambda doc: doc["members"][0].update(final_loss="0.5"), [0, 1]),
    (lambda doc: doc["members"][1].pop("final_loss"), [1]),
], ids=["repeated-index", "schedule-seed-fraction", "final-loss-string", "no-final-loss"])
def test_resume_reads_the_manifest_as_load_pool_does(tmp_path, monkeypatch, edit, retrained):
    # a manifest load_pool calls corrupt keeps no member; a sound one keeps
    # every member it records a loss for
    series = tiny_dataset()
    build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT, workers=1,
               out_dir=tmp_path)
    manifest = tmp_path / "manifest.json"
    doc = json.loads(manifest.read_text())
    edit(doc)
    manifest.write_text(json.dumps(doc))
    written = record_row_writes(monkeypatch)
    build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT, workers=1,
               out_dir=tmp_path)
    assert written == retrained
    assert params_of(load_pool(manifest), 1)


def test_manifest_written_once_per_trained_member(tmp_path, monkeypatch):
    writes = []
    original = train_mod.write_manifest
    monkeypatch.setattr(train_mod, "write_manifest",
                        lambda pool, path: writes.append(path) or original(pool, path))
    schedule = TrainSchedule(epochs=1, batches_per_epoch=2, batch_size=8, pool_size=3, seed=42)
    series = tiny_dataset()
    build_pool(series, tiny_config(), schedule, split_spec=TINY_SPLIT, workers=1, out_dir=tmp_path)
    assert len(writes) == 3
    # a resume that trains nothing still rewrites the manifest, once
    build_pool(series, tiny_config(), schedule, split_spec=TINY_SPLIT, workers=1, out_dir=tmp_path)
    assert len(writes) == 4


def test_pool_manifest_loads_back(tmp_path):
    series = tiny_dataset()
    built = build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT, workers=1,
                       out_dir=tmp_path)
    loaded = load_pool(tmp_path / "manifest.json")
    assert loaded.config == built.config
    assert loaded.schedule == built.schedule
    assert loaded.split == built.split
    assert [m.seed for m in loaded.members] == [m.seed for m in built.members]
    for i in range(len(built.members)):
        a, b = params_of(loaded, i), params_of(built, i)
        assert all(np.array_equal(a[n], b[n]) for n in a)


def test_pool_built_in_memory_holds_the_members_file_rows(tmp_path):
    # without out_dir the members are rows of the same dtype, held in memory
    series = tiny_dataset()
    stored = build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT, workers=1,
                        out_dir=tmp_path)
    in_memory = build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT, workers=1)
    rows = in_memory.rows
    assert type(rows) is np.ndarray and rows.dtype == member_dtype(tiny_config())
    assert rows.tobytes() == open_memmap(tmp_path / "members.npy", mode="r").tobytes()
    assert pool_manifest(in_memory) == pool_manifest(stored)
    assert [m.loss_trace for m in in_memory.members] == [m.loss_trace for m in stored.members]


@pytest.mark.parametrize("edit, message", [
    # what an interrupted train leaves
    (lambda doc: doc["members"].pop(),
     r"no entry for member\(s\) \[1\] of a pool of 2, .*rerun train"),
    (lambda doc: doc["members"][1].pop("seed"), "member entry 1 has no seed"),
    (lambda doc: doc["members"][1].update(index=7), "member entry 1 has index 7, outside 0..1"),
    (lambda doc: doc["members"][1].update(index=0), "member entry 1 repeats member 0"),
    (lambda doc: doc.pop("schedule"), "manifest has no field 'schedule'"),
], ids=["interrupted", "no-seed", "index-out-of-range", "repeated-index", "no-schedule"])
def test_load_pool_refuses_a_manifest_not_listing_each_member_once(tmp_path, edit, message):
    build_pool(tiny_dataset(), tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT, workers=1,
               out_dir=tmp_path)
    manifest = tmp_path / "manifest.json"
    doc = json.loads(manifest.read_text())
    edit(doc)
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(f"{manifest}: ") + message):
        load_pool(manifest)


def test_parallel_workers_match_sequential(tmp_path):
    series = tiny_dataset()
    seq = build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT,
                     out_dir=tmp_path / "seq", workers=1)
    par = build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT,
                     out_dir=tmp_path / "par", workers=2)
    for i in range(len(seq.members)):
        pa, pb = params_of(seq, i), params_of(par, i)
        assert all(np.array_equal(pa[n], pb[n]) for n in pa)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
def test_a_worker_sees_one_blas_thread(monkeypatch):
    # a forked worker would inherit this process's BLAS, whose default
    # thread count is one per core
    for name in BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    (variables, threads), = in_worker_processes(2, blas_threads, [0])
    assert variables == dict.fromkeys(BLAS_THREAD_VARIABLES, "1")
    assert threads == 1
    assert not set(BLAS_THREAD_VARIABLES) & set(os.environ)  # this process's are unset again
    # a count the user sets is kept
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    (variables, _), = in_worker_processes(2, blas_threads, [0])
    assert variables == {**dict.fromkeys(BLAS_THREAD_VARIABLES, "1"), "OPENBLAS_NUM_THREADS": "2"}
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
    assert not {"OMP_NUM_THREADS", "MKL_NUM_THREADS"} & set(os.environ)


def test_parallel_build_writes_the_same_members_file(tmp_path):
    series = tiny_dataset()
    for workers in (1, 2):
        build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT,
                   out_dir=tmp_path / str(workers), workers=workers)
    assert (tmp_path / "1" / "members.npy").read_bytes() == (
        tmp_path / "2" / "members.npy").read_bytes()


def test_version_1_pool_is_refused_and_retrained(tmp_path, monkeypatch):
    series = tiny_dataset()
    build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT, workers=1,
               out_dir=tmp_path)
    manifest = tmp_path / "manifest.json"
    doc = json.loads(manifest.read_text())
    manifest.write_text(json.dumps(dict(doc, version=1)))
    with pytest.raises(ValueError, match=re.escape(f"{manifest}: pool format version 1 ")) as err:
        load_pool(manifest)
    assert str(err.value).endswith("the pool must be retrained")

    written = record_row_writes(monkeypatch)
    build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT, workers=1,
               out_dir=tmp_path)
    assert written == [0, 1]
    assert params_of(load_pool(manifest), 1)


def test_schedule_validation():
    with pytest.raises(ValueError):
        TrainSchedule(epochs=0)
    with pytest.raises(ValueError):
        TrainSchedule(lr=0.0)


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), -float("inf")])
def test_schedule_rejects_a_non_finite_lr(lr):
    with pytest.raises(ValueError, match="lr must be positive and finite"):
        TrainSchedule(lr=lr)


def test_no_l2_trace_has_zero_l2_component():
    no_l2 = tiny_config(ablation=frozenset({"noL2"}))
    member = train_one(training_set(tiny_dataset(), no_l2, TINY_SPLIT), no_l2, TINY_SCHEDULE, 11)
    assert all(entry["nmse_term"] == 0.0 for entry in member.loss_trace)
    windows = training_set(tiny_dataset(), tiny_config(), TINY_SPLIT)
    full = train_one(windows, tiny_config(), TINY_SCHEDULE, 11)
    assert any(entry["nmse_term"] > 0.0 for entry in full.loss_trace)


def _csv_writer(rows):
    return lambda path: _write_csv(path, "hash", 0, ["a", "b"], rows())


def _raising_rows():
    yield ["1", "2"]
    raise RuntimeError("row generator failed")


def _raising_series():
    yield TimeSeries("S00", (2010, 1), [5.0, 6.0])
    raise RuntimeError("series generator failed")


WRITERS = {
    # (a writer of a complete file, a writer that raises after writing a part)
    "json": (lambda path: write_json(path, {"a": 1}),
             lambda path: write_json(path, {"a": 2, "b": object()})),
    "csv": (_csv_writer(lambda: [["3", "4"]]), _csv_writer(_raising_rows)),
    "dataset": (lambda path: write_dataset_csv([TimeSeries("S00", (2010, 1), [7.0])], path),
                lambda path: write_dataset_csv(_raising_series(), path)),
}


@pytest.mark.parametrize("kind", WRITERS)
def test_a_failed_write_leaves_the_previous_file_and_no_temporary_file(tmp_path, kind):
    write, fail = WRITERS[kind]
    path = tmp_path / "out" / f"table.{kind}"
    write(path)
    before = path.read_bytes()
    with pytest.raises((TypeError, RuntimeError)):
        fail(path)
    assert path.read_bytes() == before
    assert os.listdir(path.parent) == [path.name]


@pytest.mark.parametrize("kind", WRITERS)
def test_a_replaced_file_has_the_mode_of_a_direct_write(tmp_path, kind):
    write, _ = WRITERS[kind]
    with open(tmp_path / "direct", "w"):
        pass
    write(tmp_path / "written")
    assert sorted(os.listdir(tmp_path)) == ["direct", "written"]
    modes = [stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in ("direct", "written")]
    assert modes[0] == modes[1]
