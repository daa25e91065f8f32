"""Cross-learning training loop, checkpointing, and pool construction.

One model trains on batches drawn by the stratified sampler across all series'
training regions; the loss is computed on denormalized forecasts against raw
targets. A pool is a set of members that differ only in their derived seeds
(initialization + batch order), trained independently so they can run in
parallel and be rebuilt reproducibly from the master seed.
"""

from __future__ import annotations

import json
import zipfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .data import DatasetError, SplitSpec, StratifiedSampler, training_windows
from .loss import _uses_l2
from .model import ModelConfig, config_hash, init_params, loss_and_grad, model_forward
from .nn import AdamState, adam_step

CHECKPOINT_FORMAT = "loadcast-checkpoint"
MANIFEST_FORMAT = "loadcast-pool"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class TrainSchedule:
    """Optimization budget and pool sizing; the seed drives every member."""

    epochs: int = 20
    batches_per_epoch: int = 100
    batch_size: int = 256
    lr: float = 0.001
    pool_size: int = 16
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batches_per_epoch", "batch_size", "pool_size"):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.lr <= 0.0:
            raise ValueError("lr must be positive")


@dataclass
class TrainedMember:
    """One trained model: seed, loss history, and a checkpoint (file or in-memory)."""

    seed: int
    config_hash: str
    final_loss: float
    first_batch_loss: float
    loss_trace: list
    checkpoint_path: str | None = None
    params: dict | None = None

    def load_params(self) -> dict:
        if self.params is not None:
            return self.params
        if self.checkpoint_path is None:
            raise ValueError("member has neither in-memory parameters nor a checkpoint path")
        params, meta = load_checkpoint(self.checkpoint_path)
        if meta.get("config_hash") != self.config_hash or meta.get("seed") != self.seed:
            raise ValueError(
                f"{self.checkpoint_path}: checkpoint holds config {meta.get('config_hash')} "
                f"seed {meta.get('seed')}, expected config {self.config_hash} seed {self.seed}"
            )
        return params


def save_checkpoint(path, params: dict, config: ModelConfig, seed: int) -> None:
    """Write parameters plus JSON metadata (config, hash, seed) into one .npz."""
    meta = {
        "format": CHECKPOINT_FORMAT,
        "version": FORMAT_VERSION,
        "config": config.to_dict(),
        "config_hash": config_hash(config),
        "seed": int(seed),
    }
    arrays = {f"param::{name}": arr for name, arr in params.items()}
    arrays["meta"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path):
    """Read a checkpoint; returns (params dict, metadata dict)."""
    with np.load(path) as npz:
        if "meta" not in npz.files:
            raise ValueError(f"{path}: not a checkpoint (missing metadata)")
        meta = json.loads(bytes(npz["meta"]).decode())
        if meta.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"{path}: unexpected checkpoint format {meta.get('format')!r}")
        params = {
            name[len("param::") :]: np.array(npz[name])
            for name in npz.files
            if name.startswith("param::")
        }
    return params, meta


def _loss_uses_row_variance(config: ModelConfig) -> bool:
    lc = config.loss_config()
    return _uses_l2(lc) and not lc.no_var


def train_one(
    series_list,
    config: ModelConfig,
    schedule: TrainSchedule,
    member_seed: int,
    *,
    split_spec: SplitSpec | None = None,
    checkpoint_path=None,
) -> TrainedMember:
    """Train a single model; fully reproducible from (config, schedule, member_seed)."""
    all_x, all_y, counts = training_windows(
        series_list, split_spec, config.lookback, config.horizon
    )
    if not counts.any():
        raise DatasetError("datasets yield no training windows")
    offsets = np.cumsum(counts) - counts  # first row of each series
    if _loss_uses_row_variance(config):
        # Constant targets break the variance normalization; surface them here
        # instead of mid-training.
        flat = np.flatnonzero(np.ptp(all_y, axis=1) == 0.0)
        if flat.size:
            row = int(flat[0])
            s = int(np.searchsorted(offsets, row, side="right")) - 1
            raise DatasetError(
                f"series '{series_list[s].id}': training window at anchor "
                f"{config.lookback - 1 + row - offsets[s]} has a constant target; "
                "variance-normalized loss is undefined"
            )

    init_ss, sampler_ss = np.random.SeedSequence(member_seed).spawn(2)
    params = init_params(config, np.random.default_rng(init_ss))
    sampler = StratifiedSampler(counts, sampler_ss)
    state = AdamState(lr=schedule.lr)

    trace = []
    first_batch_loss = None
    for epoch in range(schedule.epochs):
        sums = {"loss": 0.0, "pmape": 0.0, "nmse_term": 0.0}
        for step in range(schedule.batches_per_epoch):
            sidx, widx = sampler.draw_batch_indices(schedule.batch_size)
            rows = offsets[sidx] + widx
            x = all_x[rows]
            y = all_y[rows]
            loss_value, components, grads = loss_and_grad(params, x, y, config)
            if not np.isfinite(loss_value):
                y_hat, _ = model_forward(params, x, config)
                bad_rows = ~np.all(np.isfinite(y_hat), axis=1)
                bad = sorted({series_list[s].id for s in sidx[bad_rows]})
                raise FloatingPointError(
                    f"non-finite loss at epoch {epoch + 1}, batch {step + 1}"
                    + (f"; offending series: {', '.join(bad)}" if bad else "")
                )
            adam_step(params, grads, state)
            if first_batch_loss is None:
                first_batch_loss = loss_value
            sums["loss"] += loss_value
            sums["pmape"] += components["pmape"]
            sums["nmse_term"] += components["nmse_term"]
        k = schedule.batches_per_epoch
        trace.append({"epoch": epoch + 1, **{key: val / k for key, val in sums.items()}})

    member = TrainedMember(
        seed=int(member_seed),
        config_hash=config_hash(config),
        final_loss=trace[-1]["loss"],
        first_batch_loss=float(first_batch_loss),
        loss_trace=trace,
        params=params,
    )
    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, params, config, member_seed)
        member.checkpoint_path = str(checkpoint_path)
        member.params = None
    return member


# ---------------------------------------------------------------------------
# Pools
# ---------------------------------------------------------------------------

@dataclass
class Pool:
    """A set of independently trained members sharing one config and schedule."""

    config: ModelConfig
    schedule: TrainSchedule
    split: SplitSpec
    members: list[TrainedMember]
    run: dict = field(default_factory=dict)  # the manifest's free-form "run" section

    @property
    def config_hash(self) -> str:
        return config_hash(self.config)


def member_seeds(master_seed: int, pool_size: int) -> list[int]:
    """Derive well-mixed, reproducible per-member seeds from the master seed."""
    state = np.random.SeedSequence(master_seed).generate_state(pool_size, dtype=np.uint64)
    return [int(s) for s in state]


def _member_filename(index: int) -> str:
    return f"member_{index:04d}.npz"


def _train_pool_member(args):
    series_list, config, schedule, split_spec, seed, path = args
    return train_one(
        series_list, config, schedule, seed, split_spec=split_spec, checkpoint_path=path
    )


def pool_manifest(pool: Pool) -> dict:
    """Deterministic manifest document (no timestamps)."""
    doc = {
        "format": MANIFEST_FORMAT,
        "version": FORMAT_VERSION,
        "config_hash": pool.config_hash,
        "master_seed": pool.schedule.seed,
        "config": pool.config.to_dict(),
        "schedule": asdict(pool.schedule),
        "split": asdict(pool.split),
        "members": [
            {
                "index": i,
                "seed": m.seed,
                "checkpoint": Path(m.checkpoint_path).name if m.checkpoint_path else None,
                "final_loss": m.final_loss,
            }
            for i, m in enumerate(pool.members)
            if m is not None
        ],
    }
    if pool.run:
        doc["run"] = pool.run
    return doc


def write_manifest(pool: Pool, path) -> dict:
    doc = pool_manifest(pool)
    doc["created_at"] = datetime.now(timezone.utc).isoformat()
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc


def load_pool(manifest_path) -> Pool:
    """Reconstruct a pool from its manifest; member parameters load lazily."""
    manifest_path = Path(manifest_path)
    with open(manifest_path) as fh:
        doc = json.load(fh)
    if doc.get("format") != MANIFEST_FORMAT:
        raise ValueError(f"{manifest_path}: not a pool manifest")
    config = ModelConfig.from_dict(doc["config"])
    if config_hash(config) != doc["config_hash"]:
        raise ValueError(f"{manifest_path}: config hash mismatch; manifest is corrupt")
    schedule = TrainSchedule(**doc["schedule"])
    split_spec = SplitSpec(**doc["split"])
    members = []
    for entry in doc["members"]:
        checkpoint = entry.get("checkpoint")
        members.append(
            TrainedMember(
                seed=entry["seed"],
                config_hash=doc["config_hash"],
                final_loss=entry.get("final_loss", float("nan")),
                first_batch_loss=float("nan"),
                loss_trace=[],
                checkpoint_path=str(manifest_path.parent / checkpoint) if checkpoint else None,
            )
        )
    return Pool(config, schedule, split_spec, members, doc.get("run", {}))


def build_pool(
    series_list,
    config: ModelConfig,
    schedule: TrainSchedule,
    *,
    split_spec: SplitSpec | None = None,
    out_dir=None,
    workers: int = 1,
    extra_manifest: dict | None = None,
) -> Pool:
    """Train ``schedule.pool_size`` members; resumes from existing checkpoints.

    With ``out_dir`` set, each member is persisted as ``member_NNNN.npz`` and a
    manifest is (re)written as members complete, so an interrupted build can be
    resumed. ``workers > 1`` trains members in separate processes; results are
    identical to a sequential build because each member is seed-deterministic.
    """
    split_spec = split_spec or SplitSpec()
    seeds = member_seeds(schedule.seed, schedule.pool_size)
    expected_hash = config_hash(config)
    out_path = None
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)

    members: list[TrainedMember | None] = [None] * schedule.pool_size
    if out_path is not None:
        recorded = {}  # (index, seed) -> final_loss, from the prior manifest
        manifest_file = out_path / "manifest.json"
        if manifest_file.exists():
            try:
                prior = json.loads(manifest_file.read_text())
                if prior.get("config_hash") == expected_hash:
                    recorded = {(e["index"], e["seed"]): e["final_loss"] for e in prior["members"]}
            except (json.JSONDecodeError, KeyError, TypeError):
                recorded = {}
        for i, seed in enumerate(seeds):
            ckpt = out_path / _member_filename(i)
            # a checkpoint whose loss the manifest does not record (a crash before
            # the manifest write) is retrained, so no member's loss is unknown
            if not ckpt.exists() or recorded.get((i, seed)) is None:
                continue
            try:
                _, meta = load_checkpoint(ckpt)
            except (ValueError, OSError, EOFError, zipfile.BadZipFile):
                continue  # unreadable, e.g. truncated by a crash: retrain it
            if meta.get("config_hash") == expected_hash and meta.get("seed") == seed:
                members[i] = TrainedMember(
                    seed=seed,
                    config_hash=expected_hash,
                    final_loss=recorded[(i, seed)],
                    first_batch_loss=float("nan"),
                    loss_trace=[],
                    checkpoint_path=str(ckpt),
                )

    pending = [i for i in range(schedule.pool_size) if members[i] is None]
    jobs = [
        (
            series_list,
            config,
            schedule,
            split_spec,
            seeds[i],
            str(out_path / _member_filename(i)) if out_path else None,
        )
        for i in pending
    ]

    pool = Pool(config, schedule, split_spec, members, extra_manifest or {})

    def _flush():
        if out_path is not None:
            write_manifest(pool, out_path / "manifest.json")

    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool_exec:
            for i, member in zip(pending, pool_exec.map(_train_pool_member, jobs)):
                members[i] = member
                _flush()
    else:
        for i, job in zip(pending, jobs):
            members[i] = _train_pool_member(job)
            _flush()
    if not pending:
        _flush()  # nothing was trained: still (re)write the manifest once
    return pool
