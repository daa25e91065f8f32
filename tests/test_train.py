import json

import numpy as np
import pytest

import loadcast.train as train_mod
from loadcast.data import DatasetError, SplitSpec, TimeSeries
from loadcast.model import config_hash, init_params, model_forward
from loadcast.train import (
    TrainSchedule,
    build_pool,
    load_checkpoint,
    load_pool,
    member_seeds,
    pool_manifest,
    save_checkpoint,
    train_one,
)

from helpers import sinusoid_trend_series, tiny_config

TINY_SCHEDULE = TrainSchedule(epochs=2, batches_per_epoch=5, batch_size=8, pool_size=2, seed=42)
TINY_SPLIT = SplitSpec(test_months=3, val_months=3)


def tiny_dataset(n=2, months=42, noise=0.01):
    return [
        sinusoid_trend_series(sid=f"T{i}", months=months, level=800.0 * (i + 1), noise=noise, seed=i)
        for i in range(n)
    ]


def test_training_reduces_loss_on_clean_sinusoid_with_trend():
    series = [sinusoid_trend_series(months=48, noise=0.0)]
    member = train_one(series, tiny_config(), TINY_SCHEDULE, 7, split_spec=TINY_SPLIT)
    assert member.final_loss < member.first_batch_loss
    assert len(member.loss_trace) == 2
    assert {"epoch", "loss", "pmape", "nmse_term"} <= member.loss_trace[0].keys()


def test_training_is_bit_deterministic():
    series = tiny_dataset()
    a = train_one(series, tiny_config(), TINY_SCHEDULE, 99, split_spec=TINY_SPLIT)
    b = train_one(series, tiny_config(), TINY_SCHEDULE, 99, split_spec=TINY_SPLIT)
    assert a.loss_trace == b.loss_trace
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])
    c = train_one(series, tiny_config(), TINY_SCHEDULE, 100, split_spec=TINY_SPLIT)
    assert any(not np.array_equal(a.params[n], c.params[n]) for n in a.params)


def test_empty_dataset_is_a_precondition_error():
    # long enough to pass load validation, too short to host a training window
    short = [TimeSeries("S", (2020, 1), np.linspace(10, 20, 14))]
    with pytest.raises(DatasetError, match="no training windows"):
        train_one(short, tiny_config(), TINY_SCHEDULE, 1, split_spec=TINY_SPLIT)


def test_constant_target_window_is_surfaced_before_training():
    flat = [TimeSeries("FLAT", (2020, 1), np.full(42, 50.0))]
    with pytest.raises(DatasetError, match="FLAT.*constant target"):
        train_one(flat, tiny_config(), TINY_SCHEDULE, 1, split_spec=TINY_SPLIT)
    # disabling the variance normalization (or the L2 term) lifts the guard
    member = train_one(
        flat, tiny_config(ablation=frozenset({"noVar"})), TINY_SCHEDULE, 1, split_spec=TINY_SPLIT
    )
    assert np.isfinite(member.final_loss)


def test_constant_target_names_its_series_and_anchor():
    # SHORT hosts no training window (8 training months < 6 + 3); in RAMP only
    # the window anchored at offset 19 has a constant target, values[20:23]
    short = TimeSeries("SHORT", (2020, 1), np.linspace(10.0, 20.0, 14))
    values = np.linspace(100.0, 200.0, 42)
    values[20:23] = values[20]
    ramp = TimeSeries("RAMP", (2020, 1), values)
    with pytest.raises(DatasetError, match="series 'RAMP': training window at anchor 19 "):
        train_one([short, ramp], tiny_config(), TINY_SCHEDULE, 1, split_spec=TINY_SPLIT)
    # rows of a series with windows before them shift RAMP's rows, not its anchors
    with pytest.raises(DatasetError, match="series 'RAMP': training window at anchor 19 "):
        train_one([tiny_dataset(1)[0], short, ramp], tiny_config(), TINY_SCHEDULE, 1,
                  split_spec=TINY_SPLIT)


def test_non_finite_loss_aborts_with_diagnostics(monkeypatch):
    def poisoned(config, seed=None):
        params = init_params(config, seed)
        first = next(iter(params))
        params[first] = params[first] * np.nan
        return params

    monkeypatch.setattr(train_mod, "init_params", poisoned)
    with pytest.raises(FloatingPointError, match="epoch 1, batch 1"):
        train_one(tiny_dataset(), tiny_config(), TINY_SCHEDULE, 5, split_spec=TINY_SPLIT)


def test_checkpoint_roundtrip(tmp_path):
    cfg = tiny_config()
    params = init_params(cfg, 17)
    path = tmp_path / "member.npz"
    save_checkpoint(path, params, cfg, seed=12345)
    loaded, meta = load_checkpoint(path)
    assert meta["seed"] == 12345
    assert meta["config_hash"] == config_hash(cfg)
    assert meta["config"]["fc_width"] == cfg.fc_width
    assert set(loaded) == set(params)
    for name in params:
        assert np.array_equal(loaded[name], params[name])


def test_train_one_persists_checkpoint(tmp_path):
    path = tmp_path / "m.npz"
    member = train_one(
        tiny_dataset(), tiny_config(), TINY_SCHEDULE, 3, split_spec=TINY_SPLIT, checkpoint_path=path
    )
    assert member.params is None and member.checkpoint_path == str(path)
    params = member.load_params()
    direct = train_one(tiny_dataset(), tiny_config(), TINY_SCHEDULE, 3, split_spec=TINY_SPLIT)
    for name in params:
        assert np.array_equal(params[name], direct.params[name])


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
        tiny_dataset(), tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT, out_dir=tmp_path
    )
    assert len(pool.members) == 2
    a = pool.members[0].load_params()
    b = pool.members[1].load_params()
    assert any(not np.array_equal(a[n], b[n]) for n in a)

    x = tiny_dataset()[0].values[None, -9:-3]
    fa, _ = model_forward(a, x, pool.config)
    fb, _ = model_forward(b, x, pool.config)
    assert np.max(np.abs(fa - fb)) > 0.0


def test_pool_rebuild_gives_identical_manifest(tmp_path):
    series = tiny_dataset()
    pool1 = build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT,
                       out_dir=tmp_path / "a")
    pool2 = build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT,
                       out_dir=tmp_path / "b")
    doc1 = json.loads((tmp_path / "a" / "manifest.json").read_text())
    doc2 = json.loads((tmp_path / "b" / "manifest.json").read_text())
    doc1.pop("created_at")
    doc2.pop("created_at")
    assert doc1 == doc2
    assert pool_manifest(pool1) == pool_manifest(pool2)


def test_pool_resume_skips_existing_members(tmp_path):
    series = tiny_dataset()
    build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT, out_dir=tmp_path)
    first_mtimes = {p.name: p.stat().st_mtime_ns for p in tmp_path.glob("member_*.npz")}
    build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT, out_dir=tmp_path)
    second_mtimes = {p.name: p.stat().st_mtime_ns for p in tmp_path.glob("member_*.npz")}
    assert first_mtimes == second_mtimes  # untouched files -> training skipped

    # a config change invalidates the cache and retrains
    build_pool(series, tiny_config(tau=0.4), TINY_SCHEDULE, split_spec=TINY_SPLIT, out_dir=tmp_path)
    third_mtimes = {p.name: p.stat().st_mtime_ns for p in tmp_path.glob("member_*.npz")}
    assert third_mtimes != second_mtimes


def test_partial_pool_resume_retrains_only_missing_members(tmp_path):
    series = tiny_dataset()
    reference = build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT,
                           out_dir=tmp_path)
    kept = tmp_path / "member_0000.npz"
    lost = tmp_path / "member_0001.npz"
    kept_mtime = kept.stat().st_mtime_ns
    lost.unlink()

    rebuilt = build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT,
                         out_dir=tmp_path)
    assert kept.stat().st_mtime_ns == kept_mtime  # untouched
    assert lost.exists()
    for want, got in zip(reference.members, rebuilt.members):
        a, b = want.load_params(), got.load_params()
        assert all(np.array_equal(a[n], b[n]) for n in a)


def test_truncated_checkpoint_is_retrained_on_resume(tmp_path):
    # a crash mid-write leaves a truncated zip; resume must retrain it, not abort
    series = tiny_dataset()
    clean = build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT,
                       out_dir=tmp_path / "clean")
    build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT,
               out_dir=tmp_path / "crashed")
    broken = tmp_path / "crashed" / "member_0001.npz"
    broken.write_bytes(broken.read_bytes()[: broken.stat().st_size // 2])

    resumed = build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT,
                         out_dir=tmp_path / "crashed")
    docs = [json.loads((tmp_path / d / "manifest.json").read_text()) for d in ("clean", "crashed")]
    for doc in docs:
        doc.pop("created_at")
    assert docs[0] == docs[1]
    for want, got in zip(clean.members, resumed.members):
        a, b = want.load_params(), got.load_params()
        assert a.keys() == b.keys() and all(np.array_equal(a[n], b[n]) for n in a)


def test_truncated_manifest_resume_matches_clean_build(tmp_path):
    # a crash while the manifest is written leaves intact checkpoints whose loss
    # no manifest records; the resume must not write NaN for them
    series = tiny_dataset()
    build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT,
               out_dir=tmp_path / "clean")
    build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT,
               out_dir=tmp_path / "crashed")
    manifest = tmp_path / "crashed" / "manifest.json"
    manifest.write_bytes(manifest.read_bytes()[:100])

    build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT,
               out_dir=tmp_path / "crashed")
    docs = [json.loads((tmp_path / d / "manifest.json").read_text()) for d in ("clean", "crashed")]
    for doc in docs:
        doc.pop("created_at")
    assert docs[0] == docs[1]


def test_manifest_written_once_per_trained_member(tmp_path, monkeypatch):
    writes = []
    original = train_mod.write_manifest
    monkeypatch.setattr(train_mod, "write_manifest",
                        lambda pool, path: writes.append(path) or original(pool, path))
    schedule = TrainSchedule(epochs=1, batches_per_epoch=2, batch_size=8, pool_size=3, seed=42)
    series = tiny_dataset()
    build_pool(series, tiny_config(), schedule, split_spec=TINY_SPLIT, out_dir=tmp_path)
    assert len(writes) == 3
    # a resume that trains nothing still rewrites the manifest, once
    build_pool(series, tiny_config(), schedule, split_spec=TINY_SPLIT, out_dir=tmp_path)
    assert len(writes) == 4


def test_pool_manifest_loads_back(tmp_path):
    series = tiny_dataset()
    built = build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT,
                       out_dir=tmp_path)
    loaded = load_pool(tmp_path / "manifest.json")
    assert loaded.config == built.config
    assert loaded.schedule == built.schedule
    assert loaded.split == built.split
    assert [m.seed for m in loaded.members] == [m.seed for m in built.members]
    for got, want in zip(loaded.members, built.members):
        a, b = got.load_params(), want.load_params()
        assert all(np.array_equal(a[n], b[n]) for n in a)


def test_parallel_workers_match_sequential(tmp_path):
    series = tiny_dataset()
    seq = build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT,
                     out_dir=tmp_path / "seq", workers=1)
    par = build_pool(series, tiny_config(), TINY_SCHEDULE, split_spec=TINY_SPLIT,
                     out_dir=tmp_path / "par", workers=2)
    for a, b in zip(seq.members, par.members):
        pa, pb = a.load_params(), b.load_params()
        assert all(np.array_equal(pa[n], pb[n]) for n in pa)


def test_schedule_validation():
    with pytest.raises(ValueError):
        TrainSchedule(epochs=0)
    with pytest.raises(ValueError):
        TrainSchedule(lr=0.0)


def test_no_l2_trace_has_zero_l2_component():
    series = tiny_dataset()
    member = train_one(
        series, tiny_config(ablation=frozenset({"noL2"})), TINY_SCHEDULE, 11, split_spec=TINY_SPLIT
    )
    assert all(entry["nmse_term"] == 0.0 for entry in member.loss_trace)
    full = train_one(series, tiny_config(), TINY_SCHEDULE, 11, split_spec=TINY_SPLIT)
    assert any(entry["nmse_term"] > 0.0 for entry in full.loss_trace)
