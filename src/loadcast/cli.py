"""Batch CLI: synthesize benchmark data, train pools, forecast, evaluate,
ablate, grid-sweep, and compare models with the Diebold-Mariano test.

All commands are driven by a single JSON config document whose defaults are
the production hyperparameters; ``--set section.field=value`` overrides any
field. Outputs embed the config hash and master seed; timestamps live in a
separate ``created_at`` field so re-runs are byte-identical elsewhere.

Exit codes: 0 success, 1 runtime failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
from dataclasses import asdict, dataclass, fields as dataclass_fields, replace
from pathlib import Path

import numpy as np

from . import data
from .baselines import PERIOD, seasonal_naive
from .ensemble import (
    EnsembleSpec, aggregate_forecasts, draw_member_indices, member_forecast_matrix,
    member_forwards, run_trials,
)
from .evaluation import (
    SERIES_METRICS, aggregate_metrics, diebold_mariano, dm_decision, per_series_table,
    point_errors,
)
from .model import ABLATION_FLAGS, ModelConfig, block_sum, config_hash
from .train import TrainSchedule, build_pool, load_pool, read_record, utc_now, write_json

SPLIT_REGIONS = ("test", "val")


class ConfigError(Exception):
    """Invalid configuration or command usage; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    dataset: str | None
    output_dir: str | None
    model: ModelConfig
    schedule: TrainSchedule
    ensemble: EnsembleSpec
    split: data.SplitSpec

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "output_dir": self.output_dir,
            "model": self.model.to_dict(),
            "train": asdict(self.schedule),
            "ensemble": asdict(self.ensemble),
            "split": asdict(self.split),
        }


_SECTIONS = {"dataset", "output_dir", "model", "train", "ensemble", "split"}


def _apply_override(doc: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"--set expects KEY=VALUE, got '{assignment}'")
    key, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = doc
    parts = key.strip().split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set path '{key}' collides with a non-object field")
    node[parts[-1]] = value


def _record(cls, doc, where: str):
    """``read_record``, with its errors as usage errors."""
    try:
        return read_record(cls, doc, where)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _read_json(path: Path, kind: str):
    """The document in the JSON ``kind`` file at ``path``; a usage error naming
    the file unless it exists and holds UTF-8 JSON."""
    if not path.exists():
        raise ConfigError(f"{kind} file not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: cannot be read as text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None


def load_run_config(path, overrides) -> RunConfig:
    """Read the JSON config document, apply --set overrides, validate fields."""
    path = Path(path)
    doc = _read_json(path, "config")
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    for assignment in overrides:
        _apply_override(doc, assignment)
    unknown = set(doc) - _SECTIONS
    if unknown:
        raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
    dataset = doc.get("dataset")
    output_dir = doc.get("output_dir")
    return RunConfig(
        dataset=str(dataset) if dataset is not None else None,
        output_dir=str(output_dir) if output_dir is not None else None,
        model=_record(ModelConfig, doc.get("model", {}), "config section 'model'"),
        schedule=_record(TrainSchedule, doc.get("train", {}), "config section 'train'"),
        ensemble=_record(EnsembleSpec, doc.get("ensemble", {}), "config section 'ensemble'"),
        split=_record(data.SplitSpec, doc.get("split", {}), "config section 'split'"),
    )


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _meta(cfg_hash: str, master_seed, **extra) -> dict:
    return {"config_hash": cfg_hash, "master_seed": master_seed, "created_at": utc_now(), **extra}


def _write_csv(path, cfg_hash: str, master_seed, header, rows) -> None:
    """Write a table: a provenance comment line, ``header``, then ``rows``; the
    file is replaced whole (``data.open_replacing``)."""
    with data.open_replacing(path, "") as fh:
        fh.write(f"# config_hash={cfg_hash} master_seed={master_seed}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _require_dataset(cfg: RunConfig) -> None:
    """A usage error unless the config names a dataset that ``load_dataset``
    would open (``data.check_dataset_path``)."""
    if not cfg.dataset:
        raise ConfigError("config is missing the 'dataset' path")
    data.check_dataset_path(cfg.dataset)


def _load_series(dataset_path, model_cfg: ModelConfig, drop_short: bool, series_ids):
    """The series of ``series_ids`` (None: every series), each long enough for
    one training window plus the two held-out blocks of ``model_cfg``'s horizon."""
    return data.load_dataset(
        dataset_path,
        min_length=model_cfg.lookback + 2 * model_cfg.horizon,
        on_short="drop" if drop_short else "error",
        series_ids=series_ids,
    )


def _ensemble_from_args(base: EnsembleSpec, args) -> EnsembleSpec:
    flags = {"ensemble_size": args.ensemble_size, "trials": args.trials,
             "aggregation": args.aggregation, "seed": args.ensemble_seed}
    updates = {name: value for name, value in flags.items() if value is not None}
    try:
        return replace(base, **updates)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _open_pool(args, series_ids):
    """The pool of ``--manifest``, its dataset path and series, and the ensemble
    spec recorded at train time with the command-line overrides applied.

    ``series_ids`` None loads and validates every series of the dataset, a
    list of ids only those series.
    """
    manifest = Path(args.manifest)
    if not manifest.exists():
        raise ConfigError(f"manifest not found: {manifest}")
    pool = load_pool(manifest)
    dataset = args.dataset or pool.run.get("dataset")
    if not dataset:
        raise ConfigError("no dataset given and the manifest records none")
    series_list = _load_series(dataset, pool.config, drop_short=False, series_ids=series_ids)
    base_spec = _record(EnsembleSpec, pool.run.get("ensemble", {}),
                        f"{manifest}: config section 'ensemble'")
    return pool, dataset, series_list, _ensemble_from_args(base_spec, args)


def _run_config(args) -> RunConfig:
    """The run config of a training command, after checking its ``--workers``."""
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    return load_run_config(args.config, args.set)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    for flag, value in (("--series", args.series), ("--months", args.months)):
        if value < 1:
            raise ConfigError(f"{flag} must be >= 1, got {value}")
    out = Path(args.out)
    if out.suffix.lower() == ".json":
        raise ConfigError(f"--out {out}: synth writes CSV only; JSON datasets are no longer read")
    series = data.synthetic_dataset(
        n_series=args.series,
        months=args.months,
        amplitude=args.amplitude,
        trend_per_year=args.trend,
        noise=args.noise,
        seed=args.seed,
    )
    values = np.concatenate([s.values for s in series])
    valid = np.isfinite(values) & (values > 0.0)
    if not valid.all():
        raise ConfigError(
            f"--amplitude {args.amplitude}, --trend {args.trend} and --noise {args.noise} "
            f"give the value {values[np.argmin(valid)]}; dataset values must be positive "
            "and finite"
        )
    data.write_dataset_csv(series, out)
    print(f"wrote {len(series)} series x {args.months} months to {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _run_config(args)
    _require_dataset(cfg)
    if args.dry_run:
        print(json.dumps(cfg.to_dict(), indent=2, sort_keys=True))
        return 0
    if not cfg.output_dir:
        raise ConfigError("config is missing 'output_dir'")
    series = _load_series(cfg.dataset, cfg.model, args.drop_short, series_ids=None)
    run_extra = {"dataset": cfg.dataset, "ensemble": cfg.to_dict()["ensemble"]}
    pool = build_pool(
        series,
        cfg.model,
        cfg.schedule,
        split_spec=cfg.split,
        out_dir=cfg.output_dir,
        workers=args.workers,
        extra_manifest=run_extra,
    )
    losses = [m.final_loss for m in pool.members]
    manifest = Path(cfg.output_dir) / "manifest.json"
    print(f"trained pool of {len(pool.members)} members (config {pool.config_hash})")
    print(f"mean final training loss: {float(np.mean(losses)):.6f}")
    print(f"manifest: {manifest}")
    return 0


def _requested_ids(text: str):
    """The ids of ``--series`` in request order, or None for 'all'."""
    if text == "all":
        return None
    ids = [sid.strip() for sid in text.split(",")]
    for k, sid in enumerate(ids):
        if sid in ids[:k]:
            raise ConfigError(f"--series repeats id '{sid}'")
    return ids


def _parse_anchor(text: str) -> int:
    """The month index of an ``--anchor`` of the form YYYY-MM."""
    try:
        year, month = (int(p) for p in text.split("-"))
        if not 1 <= month <= 12:
            raise ValueError
    except ValueError:
        raise ConfigError(f"--anchor expects YYYY-MM, got '{text}'") from None
    return data.month_index(year, month)


def cmd_forecast(args) -> int:
    if args.trial_index < 0:
        raise ConfigError(f"--trial-index must be >= 0, got {args.trial_index}")
    anchor = None if args.anchor is None else _parse_anchor(args.anchor)
    series_ids = _requested_ids(args.series)
    pool, _, series_list, spec = _open_pool(args, series_ids)
    by_id = {s.id: s for s in series_list}
    targets = [by_id[sid] for sid in series_ids or sorted(by_id)]
    config = pool.config

    anchors = []
    for s in targets:
        idx = len(s) - 1 if anchor is None else anchor - data.month_index(*s.start)
        if idx >= len(s):
            raise ConfigError(f"anchor leaves series '{s.id}' without data ({args.anchor})")
        if idx + 1 < config.lookback:
            raise ConfigError(
                f"anchor leaves series '{s.id}' with fewer than {config.lookback} months of history"
            )
        anchors.append(idx)

    x = np.stack([s.values[i + 1 - config.lookback : i + 1] for s, i in zip(targets, anchors)])
    # only the distinct members drawn are run; ``drawn`` indexes them
    members, drawn = np.unique(
        draw_member_indices(len(pool.members), spec, args.trial_index), return_inverse=True
    )
    matrix = np.empty((len(members), len(x), config.horizon))
    # per member, its block contributions, shape (members, blocks, rows, H)
    contribs = np.empty((len(members), config.blocks, *matrix.shape[1:]))
    for start, scale, blocks in member_forwards(pool, x, members):
        # each block's forecast, in the normalized scale: kept for the
        # decomposition, otherwise only summed
        forecasts = (block.forecast for block in blocks)
        if args.decomposition:
            forecasts = list(forecasts)
        y_hat = block_sum(scale, forecasts)
        matrix[start : start + len(y_hat)] = y_hat
        if args.decomposition:  # the chunk's ``decompose``, member axis first
            contribs[start : start + len(y_hat)] = np.swapaxes(
                np.stack(forecasts) * scale[:, None], 0, 1)
    aggregated = aggregate_forecasts(matrix, drawn[None], spec.aggregation)[0]

    _write_csv(
        args.out, pool.config_hash, pool.schedule.seed, ["series_id", "year", "month", "forecast"],
        ([s.id, *s.month_at(idx + j), repr(float(value))]
         for s, idx, row in zip(targets, anchors, aggregated)
         for j, value in enumerate(row, start=1)),
    )
    print(f"wrote forecasts for {len(targets)} series to {args.out}")

    if args.decomposition:
        # Mean-aggregated block contributions stay additive, so the per-block
        # rows sum exactly to the "forecast" field below (which equals the
        # forecast CSV when aggregation=mean or the ensemble has one member).
        mean_contrib = contribs[drawn].mean(axis=0)  # (M, n_series, H)
        series_docs = {}
        for k, (s, idx) in enumerate(zip(targets, anchors)):
            months = [list(s.month_at(idx + j)) for j in range(1, config.horizon + 1)]
            blocks = [mean_contrib[m, k].tolist() for m in range(config.blocks)]
            series_docs[s.id] = {
                "anchor": list(s.month_at(idx)),
                "months": months,
                "blocks": blocks,
                "forecast": mean_contrib[:, k].sum(axis=0).tolist(),
            }
        write_json(
            args.decomposition,
            {
                "meta": _meta(pool.config_hash, pool.schedule.seed, aggregation="mean"),
                "series": series_docs,
            },
        )
        print(f"wrote block decomposition to {args.decomposition}")
    return 0


def _baseline_report(series_list, starts, y):
    """Seasonal-naive scores of the target rows ``y``, which start at ``starts``,
    with the series in id order as ``load_dataset`` returns them; None when some
    series has less than one seasonal period of history before its start."""
    if min(starts) < PERIOD:
        return None
    horizon = y.shape[1]
    naive = [seasonal_naive(s.values[:start], horizon) for s, start in zip(series_list, starts)]
    scores = aggregate_metrics(y, np.array(naive)[None])
    return {
        "per_series": per_series_table(
            [s.id for s in series_list], {name: scores[name][0] for name in SERIES_METRICS},
            horizon,
        ),
        "aggregate": {name: float(vals[0]) for name, vals in scores["aggregate"].items()},
        "n_series": len(series_list),
        "n_points": int(y.size),
    }


def cmd_evaluate(args) -> int:
    pool, dataset, series_list, spec = _open_pool(args, None)
    x, y, starts = data.evaluation_windows(
        series_list, pool.split, pool.config.lookback, pool.config.horizon, region=args.split
    )
    matrix = member_forecast_matrix(pool, x, range(len(pool.members)))
    report = run_trials(matrix, spec, y, [s.id for s in series_list])
    baseline = _baseline_report(series_list, starts, y)

    out_dir = Path(args.out_dir)
    cfg_hash, master_seed = pool.config_hash, pool.schedule.seed

    write_json(
        out_dir / "metrics.json",
        {
            "meta": _meta(cfg_hash, master_seed, dataset=str(dataset), split=args.split,
                          model_label=args.label),
            "metrics": report.to_dict(),
            "baseline_seasonal_naive": baseline,
        },
    )

    _write_csv(
        out_dir / "per_series.csv", cfg_hash, master_seed, ["model", "series_id", *SERIES_METRICS],
        ([args.label, sid] + [repr(metrics[name]) for name in SERIES_METRICS]
         for sid, metrics in report.per_series_averaged.items()),
    )
    # the (series id, year, month) of each point of y, in row-major order
    keys = [(s.id, *s.month_at(start + j))
            for s, start in zip(series_list, starts) for j in range(y.shape[1])]
    forecast = report.mean_forecast
    _write_csv(
        out_dir / "errors.csv", cfg_hash, master_seed,
        ["series_id", "year", "month", "actual", "forecast", "error"],
        ([*key, repr(float(actual)), repr(float(predicted)), repr(float(actual - predicted))]
         for key, actual, predicted in zip(keys, y.ravel(), forecast.ravel())),
    )
    _write_csv(
        out_dir / "mpe_points.csv", cfg_hash, master_seed, ["series_id", "year", "month", "pe"],
        ([*key, repr(float(pe))] for key, pe in zip(keys, point_errors(y, forecast).ravel())),
    )

    agg = report.averaged
    print(
        f"{args.split} split, {spec.trials} trials: "
        f"MAPE {agg['mape']:.3f}  MedAPE {agg['medape']:.3f}  RMSE {agg['rmse']:.3f}  "
        f"MPE {agg['mpe']:+.3f}"
    )
    if baseline:
        print(f"seasonal-naive MAPE {baseline['aggregate']['mape']:.3f}")
    print(f"reports in {out_dir}")
    return 0


def _train_and_score(series, cfg: RunConfig, model_cfg, schedule, region: str, workers: int,
                     out_dir=None, run=None):
    """Build a pool for one variant of ``cfg`` and score it on ``region``."""
    pool = build_pool(series, model_cfg, schedule, split_spec=cfg.split, out_dir=out_dir,
                      workers=workers, extra_manifest=run)
    x, y, _ = data.evaluation_windows(
        series, cfg.split, model_cfg.lookback, model_cfg.horizon, region=region
    )
    matrix = member_forecast_matrix(pool, x, range(len(pool.members)))
    return pool, run_trials(matrix, cfg.ensemble, y, [s.id for s in series])


def cmd_ablate(args) -> int:
    cfg = _run_config(args)
    _require_dataset(cfg)
    out_dir = Path(args.out_dir or cfg.output_dir or "ablation")
    series = _load_series(cfg.dataset, cfg.model, args.drop_short, series_ids=None)

    variants = ["full", *ABLATION_FLAGS]
    rows = []
    details = {}
    for variant in variants:
        flags = frozenset() if variant == "full" else frozenset({variant})
        model_cfg = replace(cfg.model, ablation=flags)
        pool, report = _train_and_score(
            series, cfg, model_cfg, cfg.schedule, "test", args.workers,
            out_dir=out_dir / variant, run={"dataset": cfg.dataset, "variant": variant},
        )
        rows.append((variant, report.averaged["mape"], report.averaged["rmse"]))
        details[variant] = {
            "config_hash": config_hash(model_cfg),
            "mape": report.averaged["mape"],
            "rmse": report.averaged["rmse"],
            "loss_trace_member0": pool.members[0].loss_trace,
        }
        print(f"{variant:8s} MAPE {report.averaged['mape']:.3f}  RMSE {report.averaged['rmse']:.3f}")

    base_hash = config_hash(cfg.model)
    _write_csv(
        out_dir / "ablation_table.csv", base_hash, cfg.schedule.seed, ["variant", "mape", "rmse"],
        ([variant, repr(mape), repr(rmse)] for variant, mape, rmse in rows),
    )
    write_json(
        out_dir / "ablation.json",
        {"meta": _meta(base_hash, cfg.schedule.seed, dataset=cfg.dataset), "variants": details},
    )
    print(f"ablation table in {out_dir}")
    return 0


def _read_errors_csv(path) -> tuple[dict, str | None]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"errors file not found: {path}")
    out = {}
    provenance = None
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            raw = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: cannot be read as text: {exc}") from None
    for row in raw:
        if row and row[0].lstrip().startswith("#"):
            provenance = ",".join(row).lstrip("# ")
            break
    rows = [(n, r) for n, r in enumerate(raw, start=1)
            if r and not r[0].lstrip().startswith("#")]
    if not rows:
        raise ConfigError(f"{path}: empty errors file")
    header = [c.strip() for c in rows[0][1]]
    try:
        columns = [header.index(name) for name in ("series_id", "year", "month", "error")]
    except ValueError:
        raise ConfigError(
            f"{path}: errors file needs columns series_id, year, month, error"
        ) from None
    for line, row in rows[1:]:
        try:
            sid, year, month, error = (row[c] for c in columns)
            key, value = (sid, int(year), int(month)), float(error)
            if not np.isfinite(value):
                raise ValueError
        except (IndexError, ValueError):
            raise ConfigError(
                f"{path}: line {line}: expected a series id, an integer year and month, "
                f"and a finite numeric error, got {','.join(row)!r}"
            ) from None
        if key in out:
            raise ConfigError(
                f"{path}: line {line}: duplicate row for series '{sid}' {key[1]}-{key[2]:02d}"
            )
        out[key] = value
    return out, provenance


def cmd_dm_test(args) -> int:
    if not 0.0 < args.alpha < 1.0:
        raise ConfigError(f"--alpha must lie in (0, 1), got {args.alpha}")
    if args.horizon < 1:
        raise ConfigError(f"--horizon must be >= 1, got {args.horizon}")
    errors_a, provenance_a = _read_errors_csv(args.errors_a)
    errors_b, provenance_b = _read_errors_csv(args.errors_b)
    if errors_a.keys() != errors_b.keys():
        only_a = len(errors_a.keys() - errors_b.keys())
        only_b = len(errors_b.keys() - errors_a.keys())
        raise ConfigError(
            f"error files are not aligned: {only_a} keys only in A, {only_b} only in B"
        )
    keys = sorted(errors_a)
    e1 = np.array([errors_a[k] for k in keys])
    e2 = np.array([errors_b[k] for k in keys])
    result = diebold_mariano(e1, e2, loss_kind=args.loss, horizon_correction=args.horizon)

    doc = {"loss": args.loss, "horizon_correction": args.horizon, **asdict(result)}
    if result.degenerate:
        print(f"degenerate Diebold-Mariano comparison: {result.reason}")
    else:
        decision = dm_decision(result.statistic, args.alpha)
        doc.update(decision)
        verdict = "reject equal accuracy" if decision["reject_equal_accuracy"] else "no rejection"
        print(
            f"DM statistic {result.statistic:+.4f}  p={result.p_value:.4g}  "
            f"({verdict} at alpha={args.alpha}, |z|>{decision['critical_z']:.3f})"
        )
    if args.out:
        meta = {
            "created_at": utc_now(),
            "errors_a": {"path": str(args.errors_a), "provenance": provenance_a},
            "errors_b": {"path": str(args.errors_b), "provenance": provenance_b},
        }
        write_json(args.out, {"meta": meta, "result": doc})
    return 0


def _grid_target(field: str):
    """The (section, name) that the grid field ``model.NAME``, ``train.NAME`` or
    ``NAME`` sets; a bare NAME must be a field of exactly one of the two."""
    section, _, name = field.rpartition(".")
    sections = [key for key, cls in (("model", ModelConfig), ("train", TrainSchedule))
                if section in ("", key) and name in {f.name for f in dataclass_fields(cls)}]
    if len(sections) > 1:
        raise ConfigError(f"grid field '{field}' names both model.{name} and train.{name}; "
                          "write one of them")
    if not sections:
        raise ConfigError(f"grid field '{field}' is not a model or schedule hyperparameter")
    return sections[0], name


def cmd_sweep(args) -> int:
    cfg = _run_config(args)
    _require_dataset(cfg)
    if cfg.split.val_months < 1:
        raise ConfigError("sweep needs split.val_months >= 1 to score on the validation block")
    grid_path = Path(args.grid)
    grid = _read_json(grid_path, "grid")
    if not isinstance(grid, dict) or not grid:
        raise ConfigError(f"{grid_path}: grid must be a non-empty JSON object of field -> values")
    targets = {}
    for field, values in grid.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"grid field '{field}' must map to a non-empty list of values")
        targets[field] = (_grid_target(field), values)

    series = _load_series(cfg.dataset, cfg.model, args.drop_short, series_ids=None)
    field_names = sorted(targets)
    combos = itertools.product(*(targets[name][1] for name in field_names))
    rows = []
    for combo in combos:
        model_updates, schedule_updates = {}, {}
        for name, value in zip(field_names, combo):
            (section, attr), _ = targets[name]
            (model_updates if section == "model" else schedule_updates)[attr] = value
        where = f"grid combination {dict(zip(field_names, combo))}: config section"
        model_cfg = _record(ModelConfig, {**cfg.model.to_dict(), **model_updates},
                            f"{where} 'model'")
        schedule = _record(TrainSchedule, {**asdict(cfg.schedule), **schedule_updates},
                           f"{where} 'train'")
        _, report = _train_and_score(series, cfg, model_cfg, schedule, "val", args.workers)
        row = {name: value for name, value in zip(field_names, combo)}
        row.update(
            val_mape=report.averaged["mape"],
            val_medape=report.averaged["medape"],
            val_rmse=report.averaged["rmse"],
            config_hash=config_hash(model_cfg),
        )
        rows.append(row)
        label = ", ".join(f"{k}={v}" for k, v in zip(field_names, combo))
        print(f"{label}: val MAPE {row['val_mape']:.3f}")

    best = min(rows, key=lambda r: r["val_mape"])
    out_dir = Path(args.out_dir or cfg.output_dir or "sweep")
    base_hash = config_hash(cfg.model)
    _write_csv(
        out_dir / "sweep.csv", base_hash, cfg.schedule.seed,
        field_names + ["val_mape", "val_medape", "val_rmse", "config_hash"],
        ([row[name] for name in field_names]
         + [repr(row["val_mape"]), repr(row["val_medape"]), repr(row["val_rmse"]),
            row["config_hash"]]
         for row in rows),
    )
    write_json(
        out_dir / "sweep.json",
        {
            "meta": _meta(base_hash, cfg.schedule.seed, dataset=cfg.dataset),
            "rows": rows,
            "best": best,
        },
    )
    best_label = ", ".join(f"{k}={best[k]}" for k in field_names)
    print(f"best by validation MAPE: {best_label} ({best['val_mape']:.3f}); table in {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _utf8_argument(text: str) -> str:
    """A command-line value as the UTF-8 text its bytes hold. Python decodes
    argv by the locale and escapes each byte it cannot decode (PEP 383), so
    under the C locale ``Österreich`` arrives as ``'\\udcc3\\udc96sterreich'``;
    ``os.fsencode`` gives the bytes back. A value that is not such bytes, as
    an in-process ``main(argv)`` may pass, stays as it is."""
    try:
        return os.fsencode(text).decode("utf-8")
    except UnicodeError:
        return text


def _add_config_args(sub):
    sub.add_argument("--config", required=True, help="JSON run-config file")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override a config field, e.g. --set model.tau=0.3")
    sub.add_argument("--drop-short", action="store_true",
                     help="drop too-short series instead of failing")
    sub.add_argument("--workers", type=int, default=1,
                     help="member training processes; with more than one, each runs one "
                          "BLAS thread unless OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or "
                          "MKL_NUM_THREADS is set")


def _add_ensemble_args(sub):
    sub.add_argument("--ensemble-size", type=int, default=None)
    sub.add_argument("--trials", type=int, default=None)
    sub.add_argument("--aggregation", choices=["median", "mean"], default=None)
    sub.add_argument("--ensemble-seed", type=int, default=None)


def _synth_args(sub):
    sub.add_argument("--out", required=True)
    sub.add_argument("--series", type=int, default=8)
    sub.add_argument("--months", type=int, default=60)
    sub.add_argument("--amplitude", type=float, default=0.2)
    sub.add_argument("--trend", type=float, default=0.02)
    sub.add_argument("--noise", type=float, default=0.01)
    sub.add_argument("--seed", type=int, default=0)


def _train_args(sub):
    _add_config_args(sub)
    sub.add_argument("--dry-run", action="store_true", help="validate and echo the config only")


def _forecast_args(sub):
    sub.add_argument("--manifest", required=True)
    sub.add_argument("--dataset", default=None, help="defaults to the dataset in the manifest")
    sub.add_argument("--series", default="all", type=_utf8_argument,
                     help="comma-separated ids, or 'all'")
    sub.add_argument("--anchor", default=None, metavar="YYYY-MM",
                     help="last lookback month (default: each series' final month)")
    sub.add_argument("--out", required=True, help="forecast CSV path")
    sub.add_argument("--decomposition", default=None, help="optional per-block JSON path")
    sub.add_argument("--trial-index", type=int, default=0)
    _add_ensemble_args(sub)


def _evaluate_args(sub):
    sub.add_argument("--manifest", required=True)
    sub.add_argument("--dataset", default=None)
    sub.add_argument("--split", choices=list(SPLIT_REGIONS), default="test")
    sub.add_argument("--out-dir", required=True)
    sub.add_argument("--label", default="ensemble", type=_utf8_argument,
                     help="model column in per_series.csv")
    _add_ensemble_args(sub)


def _ablate_args(sub):
    _add_config_args(sub)
    sub.add_argument("--out-dir", default=None)


def _dm_test_args(sub):
    sub.add_argument("--errors-a", required=True)
    sub.add_argument("--errors-b", required=True)
    sub.add_argument("--loss", choices=["absolute", "squared"], default="absolute")
    sub.add_argument("--horizon", type=int, default=12, help="h-step correction (lag window h-1)")
    sub.add_argument("--alpha", type=float, default=0.01)
    sub.add_argument("--out", default=None, help="optional JSON result path")


def _sweep_args(sub):
    _add_config_args(sub)
    sub.add_argument("--grid", required=True, help="JSON file: field -> list of values")
    sub.add_argument("--out-dir", default=None)


# each command's help text, the function that adds its arguments, and its handler
COMMANDS = {
    "synth": ("generate the synthetic benchmark dataset", _synth_args, cmd_synth),
    "train": ("train a model pool and write its manifest", _train_args, cmd_train),
    "forecast": ("forecast series from a trained pool", _forecast_args, cmd_forecast),
    "evaluate": ("score a trained pool on the held-out split", _evaluate_args, cmd_evaluate),
    "ablate": ("train + evaluate the full model and each reduced variant", _ablate_args,
               cmd_ablate),
    "dm-test": ("Diebold-Mariano equal-accuracy test on two error files", _dm_test_args,
                cmd_dm_test),
    "sweep": ("grid-search hyperparameters on the validation split", _sweep_args, cmd_sweep),
}


def build_parser(names) -> argparse.ArgumentParser:
    """The top-level parser with the subparsers of the commands ``names``."""
    parser = argparse.ArgumentParser(
        prog="loadcast",
        description="Mid-term load forecasting: train, forecast, evaluate, compare.",
    )
    commands = parser.add_subparsers(dest="command")
    if len(names) < len(COMMANDS):
        # the usage line of an error the top-level parser reports, such as
        # unrecognized arguments, names every command whichever it holds
        commands.metavar = "{" + ",".join(COMMANDS) + "}"
    for name in names:
        help_text, add_args, handler = COMMANDS[name]
        sub = commands.add_parser(name, help=help_text)
        add_args(sub)
        sub.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a command's run needs its own parser only; anything else (no arguments,
    # -h, an unknown word) gets every command's, for the top-level help and
    # the "invalid choice" error
    parser = build_parser(argv[:1] if argv and argv[0] in COMMANDS else list(COMMANDS))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except data.DatasetError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure -> exit 1, per the CLI contract
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
