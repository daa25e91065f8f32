"""In-memory span tracer for the benchmark's traced run.

Each wrapped function records one span: a name, the span that was open when
it was called (its parent), and start and end times. A wrapper is installed at
the attribute a caller looks the function up under, so a function that another
module imported by name is wrapped in that module. A site whose function no
longer exists is recorded as absent and skipped; its metrics read 0.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
import time
from collections import Counter

# (object that holds the attribute, attribute, span name). The span name's
# prefix up to the first dot is the layer.
SITES = [
    ("loadcast.cli", "main", "cli.main"),
    ("loadcast.cli", "cmd_synth", "cli.synth"),
    ("loadcast.cli", "cmd_train", "cli.train"),
    ("loadcast.cli", "cmd_evaluate", "cli.evaluate"),
    ("loadcast.cli", "cmd_forecast", "cli.forecast"),
    ("loadcast.data", "synthetic_dataset", "data.synthetic_dataset"),
    ("loadcast.data", "write_dataset_csv", "data.write_dataset_csv"),
    ("loadcast.data", "load_dataset", "data.load_dataset"),
    ("loadcast.data", "evaluation_windows", "data.evaluation_windows"),
    ("loadcast.train", "make_windows", "data.make_windows"),
    ("loadcast.data:StratifiedSampler", "draw_batch_indices", "data.sampler_draw"),
    ("loadcast.nn", "affine", "nn.affine"),
    ("loadcast.nn", "relu", "nn.relu"),
    ("loadcast.nn", "add", "nn.add"),
    ("loadcast.nn", "sub", "nn.sub"),
    ("loadcast.nn", "mul", "nn.mul"),
    ("loadcast.nn", "row_mean", "nn.row_mean"),
    ("loadcast.nn", "row_std", "nn.row_std"),
    ("loadcast.nn", "mean", "nn.mean"),
    ("loadcast.train", "backward", "nn.backward"),
    ("loadcast.train", "adam_step", "nn.adam_step"),
    ("loadcast.train", "init_params", "model.init_params"),
    ("loadcast.train", "forward_graph", "model.forward_graph"),
    ("loadcast.ensemble", "model_forward", "model.model_forward"),
    ("loadcast.cli", "model_forward", "model.model_forward"),
    ("loadcast.cli", "decompose", "model.decompose"),
    ("loadcast.train", "combined_loss_graph", "loss.combined_loss_graph"),
    ("loadcast.cli", "build_pool", "train.build_pool"),
    ("loadcast.train", "train_one", "train.train_one"),
    ("loadcast.train", "save_checkpoint", "train.save_checkpoint"),
    ("loadcast.train", "write_manifest", "train.write_manifest"),
    ("loadcast.train", "load_checkpoint", "train.load_checkpoint"),
    ("loadcast.cli", "load_pool", "train.load_pool"),
    ("loadcast.cli", "run_trials", "ensemble.run_trials"),
    ("loadcast.ensemble", "member_forecast_matrix", "ensemble.member_forecast_matrix"),
    ("loadcast.ensemble", "draw_member_indices", "ensemble.draw_member_indices"),
    ("loadcast.cli", "draw_member_indices", "ensemble.draw_member_indices"),
    ("loadcast.ensemble", "aggregate_metrics", "evaluation.aggregate_metrics"),
    ("loadcast.cli", "aggregate_metrics", "evaluation.aggregate_metrics"),
    ("loadcast.ensemble", "point_errors", "evaluation.point_errors"),
    ("loadcast.cli", "point_errors", "evaluation.point_errors"),
]

LAYERS = ("data", "nn", "model", "loss", "train", "ensemble", "evaluation", "cli")

ELEMENTWISE = ("nn.relu", "nn.add", "nn.sub", "nn.mul", "nn.row_mean", "nn.row_std", "nn.mean")

# Units of the per-layer metrics; "-computed" marks figures derived from
# shapes rather than measured.
UNITS = {
    "data.load_dataset_ms": "ms",
    "data.sampler_us_per_step": "us",
    "nn.affine_fwd_ms_per_step": "ms",
    "nn.affine_calls_per_step": "count",
    "nn.affine_gflop_per_step": "GFLOP-computed",
    "nn.affine_gflops": "GFLOP/s-computed",
    "nn.elementwise_fwd_ms_per_step": "ms",
    "nn.ops_per_step": "count",
    "nn.backward_ms_per_step": "ms",
    "nn.adam_ms_per_step": "ms",
    "model.forward_self_ms_per_step": "ms",
    "loss.graph_ms_per_step": "ms",
    "train.member_s": "s",
    "train.checkpoint_save_ms": "ms",
    "train.checkpoint_mb": "MB-computed",
    "train.manifest_write_ms": "ms",
    "train.manifest_writes": "count",
    "train.load_pool_ms": "ms",
    "train.checkpoint_load_ms": "ms",
    "train.checkpoint_loads_per_call": "count",
    "ensemble.member_matrix_ms": "ms",
    "ensemble.trials_self_ms": "ms",
    "evaluation.aggregate_metrics_ms_per_trial": "ms",
    "evaluation.point_errors_calls_per_trial": "count",
    "cli.train_self_ms": "ms",
    "cli.evaluate_self_ms": "ms",
    "cli.forecast_self_ms": "ms",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.absent_functions": "count",
    "trace.train_overhead_s": "s",
    "trace.evaluate_overhead_s": "s",
    "trace.forecast_overhead_ms": "ms",
}


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


class Tracer:
    """Wraps the functions in ``SITES`` and records a span per call."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name code, parent index, start ns, end ns]
        self.errors: Counter = Counter()
        self.absent: list[str] = []
        self._codes: dict[str, int] = {}
        self._stack: list[int] = []
        self._last_error = None
        self._undo: list[tuple] = []

    def install(self) -> None:
        for owner, attr, name in SITES:
            target = _resolve(owner)
            original = getattr(target, attr, None) if target is not None else None
            if original is None:
                self.absent.append(f"{owner}.{attr}")
                continue
            setattr(target, attr, self._wrap(original, name))
            self._undo.append((target, attr, original))

    def restore(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def _code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def _wrap(self, fn, name: str):
        code = self._code(name)
        layer = name.split(".", 1)[0]
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [code, stack[-1] if stack else -1, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                # An exception passes every enclosing wrapper; count it once,
                # in the layer it left first.
                if exc is not self._last_error:
                    self._last_error = exc
                    self.errors[layer] += 1
                raise
            finally:
                rec[3] = clock()
                stack.pop()

        return traced

    def write(self, path, extra: dict) -> None:
        """Write every span with its parent and its root (the request it belongs to)."""
        roots = []
        for i, (_, parent, _, _) in enumerate(self.spans):
            roots.append(i if parent < 0 else roots[parent])
        doc = {
            **extra,
            "columns": ["name", "parent", "root", "start_ns", "end_ns"],
            "names": self.names,
            "absent": self.absent,
            "spans": [[c, p, r, t0, t1] for (c, p, t0, t1), r in zip(self.spans, roots)],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


class SpanView:
    """Durations, self times and ancestry of the recorded spans."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        spans = tracer.spans
        self.code = [s[0] for s in spans]
        self.parent = [s[1] for s in spans]
        self.dur = [s[3] - s[2] for s in spans]
        child = [0] * len(spans)
        for p, d in zip(self.parent, self.dur):
            if p >= 0:
                child[p] += d
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def _codes(self, names) -> set:
        return {self.names.index(n) for n in names if n in self.names}

    def select(self, *names, under: str | None = None, parent: str | None = None) -> list[int]:
        """Indices of spans named ``names``, optionally below an ``under`` span
        or directly below a ``parent`` span."""
        wanted = self._codes(names)
        if under is not None:
            anc = self._codes([under])
            below = []
            for p in self.parent:
                below.append(p >= 0 and (self.code[p] in anc or below[p]))
        out = []
        for i, c in enumerate(self.code):
            if c not in wanted:
                continue
            if under is not None and not below[i]:
                continue
            if parent is not None and (
                self.parent[i] < 0 or self.names[self.code[self.parent[i]]] != parent
            ):
                continue
            out.append(i)
        return out

    def total_ms(self, idx) -> float:
        return sum(self.dur[i] for i in idx) / 1e6

    def median_ms(self, idx, self_time: bool = False) -> float:
        times = self.self_time if self_time else self.dur
        return statistics.median(times[i] for i in idx) / 1e6 if idx else 0.0


def _per(value: float, count: float) -> float:
    return value / count if count else 0.0


def layer_metrics(tracer: Tracer, *, steps: int, trials: int, gflop_per_step: float,
                  checkpoint_mb: float) -> dict:
    """Per-layer figures of one traced phase.

    ``steps`` and ``trials`` are the training steps and ensemble trials the
    phase ran, known from the workload's schedule and ensemble spec.
    ``gflop_per_step`` and ``checkpoint_mb`` are computed from the model's
    shapes, not measured.
    """
    v = SpanView(tracer)

    def train_ops(*names):
        return v.select(*names, under="cli.train")

    def in_trials(name):
        return v.select(name, parent="ensemble.run_trials")

    affine = train_ops("nn.affine")
    affine_ms = _per(v.total_ms(affine), steps)
    forecasts = v.select("cli.forecast")
    builds = v.select("train.build_pool")
    m = {
        "data.load_dataset_ms": v.median_ms(v.select("data.load_dataset")),
        "data.sampler_us_per_step": 1e3 * _per(v.total_ms(v.select("data.sampler_draw")), steps),
        "nn.affine_fwd_ms_per_step": affine_ms,
        "nn.affine_calls_per_step": _per(len(affine), steps),
        "nn.affine_gflop_per_step": gflop_per_step if steps else 0.0,
        "nn.affine_gflops": _per(gflop_per_step, affine_ms / 1e3) if steps else 0.0,
        "nn.elementwise_fwd_ms_per_step": _per(v.total_ms(train_ops(*ELEMENTWISE)), steps),
        "nn.ops_per_step": _per(len(train_ops("nn.affine", *ELEMENTWISE)), steps),
        "nn.backward_ms_per_step": _per(v.total_ms(v.select("nn.backward")), steps),
        "nn.adam_ms_per_step": _per(v.total_ms(v.select("nn.adam_step")), steps),
        "model.forward_self_ms_per_step": _per(
            sum(v.self_time[i] for i in train_ops("model.forward_graph")) / 1e6, steps
        ),
        "loss.graph_ms_per_step": _per(v.total_ms(v.select("loss.combined_loss_graph")), steps),
        "train.member_s": v.median_ms(v.select("train.train_one")) / 1e3,
        "train.checkpoint_save_ms": v.median_ms(v.select("train.save_checkpoint")),
        "train.checkpoint_mb": checkpoint_mb,
        "train.manifest_write_ms": v.median_ms(v.select("train.write_manifest")),
        "train.manifest_writes": _per(len(v.select("train.write_manifest")), len(builds)),
        "train.load_pool_ms": v.median_ms(v.select("train.load_pool")),
        "train.checkpoint_load_ms": v.median_ms(v.select("train.load_checkpoint")),
        "train.checkpoint_loads_per_call": _per(
            len(v.select("train.load_checkpoint", under="cli.forecast")), len(forecasts)
        ),
        "ensemble.member_matrix_ms": v.median_ms(v.select("ensemble.member_forecast_matrix")),
        "ensemble.trials_self_ms": v.median_ms(v.select("ensemble.run_trials"), self_time=True),
        "evaluation.aggregate_metrics_ms_per_trial": _per(
            v.total_ms(in_trials("evaluation.aggregate_metrics")), trials
        ),
        "evaluation.point_errors_calls_per_trial": _per(
            len(in_trials("evaluation.point_errors")), trials
        ),
        "cli.train_self_ms": v.median_ms(v.select("cli.train"), self_time=True),
        "cli.evaluate_self_ms": v.median_ms(v.select("cli.evaluate"), self_time=True),
        "cli.forecast_self_ms": v.median_ms(forecasts, self_time=True),
    }
    for layer in LAYERS:
        m[f"{layer}.errors"] = float(tracer.errors[layer])
    m["trace.absent_functions"] = float(len(tracer.absent))
    return m
