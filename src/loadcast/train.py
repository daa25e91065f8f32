"""Cross-learning training loop with Adam, checkpointing, and pool construction.

One model trains on batches drawn by the stratified sampler across all series'
training regions; the loss is computed on denormalized forecasts against raw
targets. A pool is a set of members that differ only in their derived seeds
(initialization + batch order), trained independently so they can run in
parallel and be rebuilt reproducibly from the master seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from functools import cached_property
from itertools import repeat
from pathlib import Path

import numpy as np
from numpy.lib.format import open_memmap

from .data import (
    DatasetError, SplitSpec, StratifiedSampler, open_replacing, training_windows,
)
from .loss import _uses_l2
from .model import (
    ModelConfig, config_hash, init_params, loss_and_grad, model_forward, parameter_shapes,
)

MANIFEST_FORMAT = "loadcast-pool"
FORMAT_VERSION = 2
MEMBERS_FILE = "members.npy"
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's standard moment decays and denominator floor


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


@dataclass(frozen=True)
class TrainResult:
    """What ``train_one`` returns: the trained parameters and the per-epoch loss trace."""

    params: dict
    loss_trace: list


@dataclass
class TrainedMember:
    """What the manifest records about a pool member: its seed and loss history.
    Its parameters are its row of the pool's members array (``Pool.member_params``)."""

    seed: int
    final_loss: float | None  # None where the manifest records no loss
    loss_trace: list


def member_dtype(config: ModelConfig) -> np.dtype:
    """One row of the members file: the member's config hash and seed, then
    one float64 field per parameter, shaped as the parameter."""
    return np.dtype(
        [("config_hash", "S16"), ("seed", "<u8")]
        + [(name, "<f8", shape) for name, shape in parameter_shapes(config).items()]
    )


def open_members(path, config: ModelConfig, pool_size: int) -> np.memmap:
    """The members file at ``path``, memory-mapped read-only; a ValueError
    naming it unless it holds ``pool_size`` rows of ``config``'s layout."""
    try:
        rows = open_memmap(path, mode="r")
    except ValueError as exc:  # not an .npy file, or shorter than its header says
        raise ValueError(f"{path}: unreadable members file: {exc}") from None
    if rows.dtype != member_dtype(config) or rows.shape != (pool_size,):
        raise ValueError(
            f"{path}: expected {pool_size} rows of config {config_hash(config)}'s parameters, "
            f"found shape {rows.shape} with {len(rows.dtype.names or ())} fields"
        )
    return rows


def save_checkpoint(rows, index: int, params: dict, config: ModelConfig, seed: int) -> None:
    """Write member ``index``'s row of ``rows``, a ``member_dtype`` array, in place."""
    row = rows[index]
    row["config_hash"] = config_hash(config)
    row["seed"] = seed
    for name, value in params.items():
        row[name] = value


@dataclass
class AdamState:
    """Per-parameter first/second moment accumulators plus the step counter."""

    lr: float
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState):
    """One bias-corrected Adam update, applied in place in float64. Returns (params, state)."""
    state.step += 1
    bc1 = 1.0 - BETA1**state.step
    bc2 = 1.0 - BETA2**state.step
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape} for '{name}'")
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter '{name}'")
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
    return params, state


def _loss_uses_row_variance(config: ModelConfig) -> bool:
    lc = config.loss_config()
    return _uses_l2(lc) and not lc.no_var


def train_one(
    series_list,
    config: ModelConfig,
    schedule: TrainSchedule,
    member_seed: int,
    *,
    split_spec: SplitSpec,
) -> TrainResult:
    """Train a single model; fully reproducible from (config, schedule, member_seed)."""
    return _train_member(_training_set(series_list, config, split_spec), config, schedule,
                         member_seed)


def _training_set(series_list, config: ModelConfig, split_spec: SplitSpec):
    """What training reads of ``series_list``: ``data.training_windows``' rows
    ``x`` and ``y`` and per-series ``counts``, each series' first row, and the
    series ids. A DatasetError if there is no window, or if the loss
    normalizes by a target row's variance and some target row is constant."""
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
    return all_x, all_y, counts, offsets, [s.id for s in series_list]


def _train_member(training_set, config: ModelConfig, schedule: TrainSchedule,
                  member_seed: int) -> TrainResult:
    """``train_one`` on the ``_training_set`` of its series."""
    all_x, all_y, counts, offsets, ids = training_set
    init_ss, sampler_ss = np.random.SeedSequence(member_seed).spawn(2)
    params = init_params(config, np.random.default_rng(init_ss))
    sampler = StratifiedSampler(counts, sampler_ss)
    state = AdamState(lr=schedule.lr)

    trace = []
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
                bad = sorted({ids[s] for s in sidx[bad_rows]})
                raise FloatingPointError(
                    f"non-finite loss at epoch {epoch + 1}, batch {step + 1}"
                    + (f"; offending series: {', '.join(bad)}" if bad else "")
                )
            adam_step(params, grads, state)
            sums["loss"] += loss_value
            sums["pmape"] += components["pmape"]
            sums["nmse_term"] += components["nmse_term"]
        k = schedule.batches_per_epoch
        trace.append({"epoch": epoch + 1, **{key: val / k for key, val in sums.items()}})

    return TrainResult(params, trace)


# ---------------------------------------------------------------------------
# Pools
# ---------------------------------------------------------------------------

@dataclass
class Pool:
    """A set of independently trained members sharing one config and schedule.

    Member ``i``'s parameters are row ``i`` of ``rows``, a ``member_dtype``
    array: the memory-mapped members file, or an array in memory for a pool
    built without one.
    """

    config: ModelConfig
    schedule: TrainSchedule
    split: SplitSpec
    members: list[TrainedMember]
    rows: np.ndarray
    run: dict = field(default_factory=dict)  # the manifest's free-form "run" section

    @cached_property
    def config_hash(self) -> str:
        return config_hash(self.config)

    def member_params(self, indices) -> dict:
        """The parameters of the members numbered ``indices``, each shaped
        (len(indices), *shape), gathered from ``rows`` at once; a ValueError
        naming the members file unless each row holds the pool's config hash
        and that member's seed."""
        batch = self.rows[np.asarray(indices, dtype=np.intp)]
        expected_hash = self.config_hash
        for i, found_hash, found_seed in zip(indices, batch["config_hash"], batch["seed"]):
            found_hash, found_seed, seed = found_hash.decode(), int(found_seed), self.members[i].seed
            if found_hash != expected_hash or found_seed != seed:
                raise ValueError(
                    f"{getattr(self.rows, 'filename', 'pool')}: member {i} holds config "
                    f"{found_hash} seed {found_seed}, expected config {expected_hash} seed {seed}"
                )
        return {name: batch[name] for name in self.rows.dtype.names[2:]}


def member_seeds(master_seed: int, pool_size: int) -> list[int]:
    """Derive well-mixed, reproducible per-member seeds from the master seed."""
    state = np.random.SeedSequence(master_seed).generate_state(pool_size, dtype=np.uint64)
    return [int(s) for s in state]


# The BLAS thread-count variables. A worker process that finds none of them
# set loads its BLAS with one thread, since the workers share the cores.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def in_worker_processes(workers: int, function, *iterables):
    """``map(function, *iterables)``, computed in ``workers`` processes and
    yielded in order.

    The processes are spawned, not forked, so each loads numpy afresh, after
    ``BLAS_THREAD_VARIABLES`` that the environment leaves unset are set to 1;
    this process's environment gets them back unset once the results are
    all taken. A forked worker would inherit this process's BLAS with its
    default thread count, and the workers would oversubscribe the cores.
    """
    # imported here: they pull in multiprocessing, which no other command needs
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    unset = [name for name in BLAS_THREAD_VARIABLES if name not in os.environ]
    os.environ.update(dict.fromkeys(unset, "1"))  # a spawned process inherits them
    try:
        with ProcessPoolExecutor(workers, mp_context=get_context("spawn")) as executor:
            yield from executor.map(function, *iterables)
    finally:
        for name in unset:
            os.environ.pop(name, None)


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
        "members_file": MEMBERS_FILE,
        "members": [
            {"index": i, "seed": m.seed, "final_loss": m.final_loss}
            for i, m in enumerate(pool.members)
            if m is not None
        ],
    }
    if pool.run:
        doc["run"] = pool.run
    return doc


def utc_now() -> str:
    """The current UTC time in ISO 8601: the ``created_at`` of every output."""
    return datetime.now(timezone.utc).isoformat()


def write_json(path, doc: dict) -> None:
    """Write ``doc`` as indented JSON with sorted keys, creating its directory;
    the file is replaced whole (``open_replacing``)."""
    with open_replacing(path, None) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(pool: Pool, path) -> None:
    write_json(path, {**pool_manifest(pool), "created_at": utc_now()})


def _json_kind(value) -> str:
    return {dict: "object", list: "array", str: "string", bool: "boolean", type(None): "null"}.get(
        type(value), "number")


# What a field of each annotated type takes, and how a message names it
_FIELD_TYPES = {
    "int": (lambda v: type(v) is int, "an integer"),
    "float": (lambda v: type(v) in (int, float), "a number"),
    "bool": (lambda v: type(v) is bool, "a boolean"),
    "str": (lambda v: type(v) is str, "a string"),
    "frozenset": (lambda v: type(v) is list and all(type(s) is str for s in v), "a list of strings"),
}


def read_record(cls, doc, where: str):
    """The config record ``cls`` built from the JSON object ``doc``; a ValueError
    starting with ``where`` unless each field is ``cls``'s and of its JSON type."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {_json_kind(doc)}")
    types = {f.name: f.type for f in fields(cls)}
    unknown = set(doc) - set(types)
    if unknown:
        raise ValueError(f"{where}: unknown field(s) {sorted(unknown)}")
    for name, value in doc.items():
        accepts, expected = _FIELD_TYPES[types[name]]
        if not accepts(value):
            raise ValueError(f"{where}: field '{name}' must be {expected}, "
                             f"got {_json_kind(value)} {json.dumps(value)}")
    try:
        return cls(**doc)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def _read_manifest(manifest_path) -> tuple[Pool, Path]:
    """The pool the manifest at ``manifest_path`` describes, before its members
    file (the second value) is opened: ``rows`` None, and ``members[i]`` None
    where no entry lists member ``i``. A ValueError naming the manifest if malformed."""
    with open(manifest_path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not JSON, or not text
            raise ValueError(f"{manifest_path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != MANIFEST_FORMAT:
        raise ValueError(f"{manifest_path}: not a pool manifest")
    if doc.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"{manifest_path}: pool format version {doc.get('version')} is not read by this "
            f"version of loadcast (format {FORMAT_VERSION}); the pool must be retrained"
        )
    where = f"{manifest_path}: section"
    try:
        config = read_record(ModelConfig, doc["config"], f"{where} 'config'")
        schedule = read_record(TrainSchedule, doc["schedule"], f"{where} 'schedule'")
        split_spec = read_record(SplitSpec, doc["split"], f"{where} 'split'")
        members_path = Path(manifest_path).parent / doc["members_file"]
        entries, run, recorded_hash = doc["members"], doc.get("run", {}), doc["config_hash"]
        if not isinstance(entries, list) or not isinstance(run, dict):
            raise TypeError("'members' must be an array and 'run' an object")
    except KeyError as exc:
        raise ValueError(f"{manifest_path}: manifest has no field {exc}") from None
    except TypeError as exc:  # a field of the wrong type
        raise ValueError(f"{manifest_path}: malformed manifest: {exc}") from None
    size = schedule.pool_size
    pool = Pool(config, schedule, split_spec, [None] * size, None, run)
    if pool.config_hash != recorded_hash:
        raise ValueError(f"{manifest_path}: config hash mismatch; manifest is corrupt")
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            problem = "is not an object"
        elif "seed" not in entry:
            problem = "has no seed"
        elif (type(entry["seed"]) is not int
              or type(entry.get("final_loss", 0.0)) not in (int, float)):
            problem = "has a seed that is not an integer or a final_loss that is not a number"
        elif type(index := entry.get("index")) is not int or not 0 <= index < size:
            problem = f"has index {index!r}, outside 0..{size - 1}"
        elif pool.members[index] is not None:
            problem = f"repeats member {index}"
        else:
            pool.members[index] = TrainedMember(entry["seed"], entry.get("final_loss"), [])
            continue
        raise ValueError(f"{manifest_path}: member entry {k} {problem}; the manifest is corrupt")
    return pool, members_path


def load_pool(manifest_path) -> Pool:
    """Reconstruct a pool from its manifest, which must list each member
    0..pool_size-1 exactly once; member parameters stay in the memory-mapped
    members file until ``Pool.member_params`` reads them."""
    pool, members_path = _read_manifest(manifest_path)
    size = pool.schedule.pool_size
    pool.rows = open_members(members_path, pool.config, size)
    missing = [i for i, member in enumerate(pool.members) if member is None]
    if missing:
        raise ValueError(
            f"{manifest_path}: no entry for member(s) {missing} of a pool of {size}, as an "
            "interrupted train leaves it; rerun train into the same directory to finish the pool"
        )
    return pool


def build_pool(
    series_list,
    config: ModelConfig,
    schedule: TrainSchedule,
    *,
    split_spec: SplitSpec,
    out_dir=None,
    workers: int,
    extra_manifest: dict | None = None,
) -> Pool:
    """Train ``schedule.pool_size`` members; resumes from a partial build.

    Each trained member's parameters are written to its row of a
    ``member_dtype`` array. With ``out_dir`` set, that array is the members
    file ``members.npy``, created at full size (or reopened, when it already
    holds this pool's layout), and the manifest is rewritten after each row,
    so an interrupted build can be resumed; without it, the array is held in
    memory. ``workers > 1`` trains members in separate processes, which return
    the parameters for this process to write; results are identical to a
    sequential build because each member is seed-deterministic.
    """
    seeds = member_seeds(schedule.seed, schedule.pool_size)
    expected_hash = config_hash(config)
    members: list[TrainedMember | None] = [None] * schedule.pool_size
    if out_dir is None:
        rows = np.zeros(schedule.pool_size, dtype=member_dtype(config))
    else:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        store = out_path / MEMBERS_FILE
        try:
            prior, _ = _read_manifest(out_path / "manifest.json")
        except (FileNotFoundError, ValueError):  # none, or one load_pool calls corrupt
            prior = None
        # the members a prior manifest of this config lists
        recorded = prior.members if prior is not None and prior.config_hash == expected_hash else []
        try:
            rows = open_members(store, config, schedule.pool_size)
        except (OSError, ValueError):
            # missing, unreadable (e.g. truncated by a crash) or of another
            # layout: start it afresh, and every member with it
            open_memmap(store, mode="w+", dtype=member_dtype(config), shape=(schedule.pool_size,))
            rows = open_members(store, config, schedule.pool_size)
        for i, (seed, kept) in enumerate(zip(seeds, recorded)):
            # a row whose loss the manifest does not record (a crash before
            # the manifest write) is retrained, so no member's loss is unknown
            row = rows[i]
            if (kept and kept.seed == seed and kept.final_loss is not None
                    and row["seed"] == seed and row["config_hash"] == expected_hash.encode()):
                members[i] = kept

    pending = [i for i in range(schedule.pool_size) if members[i] is None]
    pool = Pool(config, schedule, split_spec, members, rows, extra_manifest or {})

    def _keep(i, result: TrainResult):
        # a file's row is written through a map of its own, so that the rows
        # written do not stay resident while the build goes on
        target = rows if out_dir is None else open_memmap(store, mode="r+")
        save_checkpoint(target, i, result.params, config, seeds[i])
        final_loss = result.loss_trace[-1]["loss"]
        members[i] = TrainedMember(seeds[i], final_loss, result.loss_trace)
        if out_dir is not None:
            write_manifest(pool, out_path / "manifest.json")

    if pending:
        # built once for every member, and sent to each worker with its jobs
        training_set = _training_set(series_list, config, split_spec)
        jobs = (repeat(training_set), repeat(config), repeat(schedule), [seeds[i] for i in pending])
        results = (in_worker_processes(workers, _train_member, *jobs)
                   if workers > 1 and len(pending) > 1 else map(_train_member, *jobs))
        for i in pending:  # no name keeps a written member while the next one trains
            _keep(i, next(results))
    if out_dir is not None and not pending:
        write_manifest(pool, out_path / "manifest.json")  # still (re)write it once
    return pool
