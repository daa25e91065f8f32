"""loadcast benchmark: one workload, one seed, one timed run.

Run from the repository root:

    python3 perfbench/run.py --workload pool-w64 --seed 1 --seconds 20 --trace 0

The benchmark imports loadcast from ``src/`` of the directory it runs in and
drives it through ``loadcast.cli.main``, in this process, with the BLAS thread
count fixed before numpy loads. It generates every input from ``--seed``,
checks every output, and prints as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end figures; with ``--trace 1`` they are the per-layer
figures of a traced run (see ``tracer.py``). Each run also writes its result
and the machine facts to ``perfbench/.results/``; ``compare.py`` compares two
sets of such files. The workloads are described in ``README.md``.
"""

import os

# Fixed before numpy is imported: one BLAS thread keeps timings steady on a
# small shared machine, and the benchmark measures single-core cost.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import facts as machine  # noqa: E402
import tracer as tracing  # noqa: E402

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent

# The default EnsembleSpec, written out so the benchmark knows the trial count.
ENSEMBLE = {"ensemble_size": 64, "trials": 100, "aggregation": "median"}
LOOKBACK = HORIZON = 12
BLOCKS, FC_LAYERS, BATCH = 6, 3, 256
MONTHS = 60


@dataclass(frozen=True)
class Workload:
    """One input shape. With ``train_in_setup`` the pool is built in set-up and
    a pass only scores it; otherwise a pass is synth -> train -> evaluate."""

    name: str
    series: int
    fc_width: int
    pool_size: int
    epochs: int
    batches_per_epoch: int
    forecasts_per_pass: int
    setup_reps: int
    train_in_setup: bool

    @property
    def steps_per_train(self) -> int:
        return self.pool_size * self.epochs * self.batches_per_epoch

    def gflop_per_step(self) -> float:
        """Forward affine FLOPs of one step, computed from the layer shapes."""
        w = self.fc_width
        per_row = LOOKBACK * w + (FC_LAYERS - 1) * w * w + w * (LOOKBACK + HORIZON)
        return 2.0 * BLOCKS * BATCH * per_row / 1e9

    def checkpoint_mb(self) -> float:
        """Parameter bytes of one member, computed from the array sizes."""
        w = self.fc_width
        hidden = (LOOKBACK + 1) * w + (FC_LAYERS - 1) * (w + 1) * w
        heads = (w + 1) * (LOOKBACK + HORIZON)
        return 8.0 * (hidden + heads) / 1e6


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pool-w64", 8, 64, 16, 2, 5, 16, 15, False),
        Workload("step-w512", 16, 512, 2, 1, 6, 16, 15, False),
        Workload("score-many", 128, 64, 16, 1, 2, 20, 5, True),
    )
}


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    if len(values) < 2:
        return max(values, default=0.0)
    return statistics.quantiles(values, n=10)[-1]


def _without_created_at(doc: dict) -> dict:
    doc.pop("created_at", None)
    doc.get("meta", {}).pop("created_at", None)
    return doc


class Bench:
    """Runs CLI commands for one workload, checks their outputs and keeps the
    timing samples of the current phase."""

    def __init__(self, cli, workload: Workload, seed: int, work: Path):
        self.cli = cli
        self.w = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list] = {}
        self.setup_samples: dict[str, list] = {}
        self.trains = 0
        self.evaluates = 0
        self._reference: dict = {}
        self._op_ok = True
        self._devnull = open(os.devnull, "w")
        self.csv = work / "data.csv"
        self.pool = work / "pool"
        self.manifest = self.pool / "manifest.json"
        self.eval_dir = work / "eval"
        self.config = work / "config.json"
        self.config.write_text(json.dumps({
            "dataset": str(self.csv),
            "output_dir": str(self.pool),
            "model": {"fc_width": workload.fc_width, "seed": seed},
            "train": {
                "epochs": workload.epochs,
                "batches_per_epoch": workload.batches_per_epoch,
                "batch_size": BATCH,
                "pool_size": workload.pool_size,
                "seed": seed,
            },
            "ensemble": {**ENSEMBLE, "seed": seed},
        }))
        self.series_ids: list[str] = []

    def close(self) -> None:
        self._devnull.close()

    # -- operations and checks ------------------------------------------------

    def command(self, *argv, output: Path) -> float | None:
        """One CLI command as one operation. ``output`` is removed first, so a
        failed command leaves no stale file behind. Returns the wall time in
        seconds, or None if the command failed."""
        self.attempted += 1
        self._op_ok = True
        output.unlink(missing_ok=True)
        with contextlib.redirect_stdout(self._devnull):
            start = time.perf_counter()
            code = self.cli.main(list(argv))
            elapsed = time.perf_counter() - start
        ok = self.check(code == 0, f"{argv[0]} exited {code}") and self.check(
            output.is_file(), f"{argv[0]} wrote no {output.name}"
        )
        return elapsed if ok else None

    def check(self, ok: bool, what: str) -> bool:
        """A failed check fails the current operation (once)."""
        if not ok and self._op_ok:
            self._op_ok = False
            self.failed += 1
            self.problems.append(what)
        return ok

    def same(self, key, value, what: str) -> None:
        """Repeats of one seed must give identical outputs. Only a digest is
        kept, so the references add no objects to the garbage collector's work."""
        blob = value if isinstance(value, bytes) else json.dumps(value, sort_keys=True).encode()
        digest = hashlib.sha256(blob).digest()
        reference = self._reference.setdefault(key, digest)
        self.check(digest == reference, f"{what} differs from the first run of this seed")

    def add(self, name: str, value: float, setup: bool = False) -> None:
        (self.setup_samples if setup else self.samples).setdefault(name, []).append(value)

    # -- commands ---------------------------------------------------------------

    def synth(self) -> float | None:
        elapsed = self.command("synth", "--out", str(self.csv), "--series", str(self.w.series),
                               "--months", str(MONTHS), "--seed", str(self.seed), output=self.csv)
        if elapsed is not None:
            self.same("dataset", self.csv.read_bytes(), "dataset")
        return elapsed

    def train(self, setup: bool = False) -> float | None:
        shutil.rmtree(self.pool, ignore_errors=True)
        elapsed = self.command("train", "--config", str(self.config), output=self.manifest)
        if elapsed is None:
            return None
        doc = _without_created_at(json.loads(self.manifest.read_text()))
        losses = [m["final_loss"] for m in doc["members"]]
        self.check(len(losses) == self.w.pool_size, "manifest lacks members")
        self.check(all(math.isfinite(x) for x in losses), "non-finite final_loss")
        self.same("manifest", doc, "manifest")
        if self._op_ok:
            self.add("train_s", elapsed, setup)
            self.add("train_windows_per_s", self.w.steps_per_train * BATCH / elapsed, setup)
            self.add("final_loss", sum(losses) / len(losses), setup)
            self.trains += not setup
        return elapsed

    def evaluate(self) -> float | None:
        path = self.eval_dir / "metrics.json"
        elapsed = self.command("evaluate", "--manifest", str(self.manifest),
                               "--out-dir", str(self.eval_dir), output=path)
        if elapsed is None:
            return None
        doc = _without_created_at(json.loads(path.read_text()))
        mape = doc["metrics"]["averaged"]["mape"]
        self.check(math.isfinite(mape) and mape > 0.0, f"test MAPE {mape}")
        self.same("metrics", doc, "metrics.json")
        if self._op_ok:
            self.add("evaluate_s", elapsed)
            self.add("test_mape", mape)
            self.evaluates += 1
        return elapsed

    def forecast(self, sid: str, decomposition: Path | None = None) -> None:
        out = self.work / "forecast.csv"
        argv = ["forecast", "--manifest", str(self.manifest), "--series", sid, "--out", str(out)]
        if decomposition is not None:
            decomposition.unlink(missing_ok=True)
            argv += ["--decomposition", str(decomposition)]
        elapsed = self.command(*argv, output=out)
        if elapsed is None:
            return
        with open(out, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")][1:]
        values = [float(r[3]) for r in rows if r[0] == sid]
        self.check(len(rows) == HORIZON and len(values) == HORIZON, f"forecast of {sid}: rows")
        self.check(all(math.isfinite(x) for x in values), f"forecast of {sid}: not finite")
        self.same(("forecast", sid), values, f"forecast of {sid}")
        if decomposition is None:
            if self._op_ok:
                self.add("forecast_ms", 1e3 * elapsed)
            return
        if self.check(decomposition.is_file(), "forecast wrote no decomposition"):
            doc = json.loads(decomposition.read_text())["series"][sid]
            sums = [sum(col) for col in zip(*doc["blocks"])]
            self.check(
                len(doc["blocks"]) == BLOCKS and all(
                    math.isclose(a, b, rel_tol=1e-12) for a, b in zip(sums, doc["forecast"])
                ),
                f"decomposition of {sid}: blocks do not sum to the forecast",
            )

    # -- workload ---------------------------------------------------------------

    def setup(self) -> None:
        """Data generation, plus the pool build when the workload scores only."""
        for _ in range(self.w.setup_reps):
            start = time.perf_counter()
            self.synth()
            if self.w.train_in_setup:
                self.train(setup=True)
            self.add("setup_s", time.perf_counter() - start, setup=True)
        with open(self.csv, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")][1:]
        self.series_ids = sorted({r[0] for r in rows})
        self.rng = random.Random(self.seed)

    def one_pass(self) -> None:
        if self.w.train_in_setup:
            stages = [median(self.setup_samples["setup_s"]), self.evaluate()]
        else:
            stages = [self.synth(), self.train(), self.evaluate()]
        if None not in stages:
            self.add("pipeline_s", sum(stages))
        for _ in range(self.w.forecasts_per_pass):
            self.forecast(self.rng.choice(self.series_ids))

    def measure(self, seconds: float) -> dict:
        """Passes until ``seconds`` have elapsed; returns the phase's samples."""
        self.samples, self.trains, self.evaluates = {}, 0, 0
        end = time.perf_counter() + seconds
        while True:
            self.one_pass()
            if time.perf_counter() >= end:
                return self.samples

    def check_decompositions(self, count: int = 3) -> None:
        for sid in self.series_ids[:count]:
            self.forecast(sid, decomposition=self.work / "blocks.json")


def end_to_end(bench: Bench) -> dict:
    both = {**bench.setup_samples, **bench.samples}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (median(both.get("setup_s")), "s"),
        "pipeline_s": (median(both.get("pipeline_s")), "s"),
        "train_windows_per_s": (median(both.get("train_windows_per_s")), "1/s"),
        "final_loss": (median(both.get("final_loss")), "loss"),
        "evaluate_s": (median(both.get("evaluate_s")), "s"),
        "test_mape": (median(both.get("test_mape")), "%"),
        "forecast_ms_p50": (median(both.get("forecast_ms")), "ms"),
        "forecast_ms_p90": (p90(both.get("forecast_ms", [])), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "success_rate": (1.0 - bench.failed / max(bench.attempted, 1), "ratio"),
    }


def traced_run(bench: Bench, seconds: float, spans_path: Path) -> dict:
    """Half the time untraced, half traced; per-layer figures from the spans."""
    untraced = bench.measure(seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = bench.measure(seconds / 2)
    finally:
        tracer.restore()
    w = bench.w
    metrics = tracing.layer_metrics(
        tracer,
        steps=bench.trains * w.steps_per_train,
        trials=bench.evaluates * ENSEMBLE["trials"],
        gflop_per_step=w.gflop_per_step(),
        checkpoint_mb=w.checkpoint_mb(),
    )

    def overhead(name: str) -> float:
        if not untraced.get(name) or not traced.get(name):
            return 0.0
        return median(traced[name]) - median(untraced[name])

    metrics["trace.train_overhead_s"] = overhead("train_s")
    metrics["trace.evaluate_overhead_s"] = overhead("evaluate_s")
    metrics["trace.forecast_overhead_ms"] = overhead("forecast_ms")
    tracer.write(spans_path, {"workload": w.name, "seed": bench.seed})
    return {name: (value, tracing.UNITS[name]) for name, value in metrics.items()}


def import_cli():
    """loadcast from ``src/`` of the working directory, never from elsewhere."""
    package = ROOT / "src" / "loadcast"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no loadcast sources at {package}; run from the repo root")
    sys.path.insert(0, str(ROOT / "src"))
    import loadcast.cli as cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported loadcast from {cli.__file__}, not {package}")
    return cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    facts = machine.collect(BLAS_THREADS)
    print("facts " + json.dumps(facts, sort_keys=True))
    results = HERE / ".results"
    results.mkdir(exist_ok=True)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = HERE / ".work" / f"{label}-{os.getpid()}"
    work.mkdir(parents=True)
    bench = Bench(cli, WORKLOADS[args.workload], args.seed, work)
    try:
        bench.setup()
        if args.trace:
            metrics = traced_run(bench, args.seconds, results / f"{label}.spans.json.gz")
        else:
            bench.measure(args.seconds)
        bench.check_decompositions()
        if not args.trace:
            metrics = end_to_end(bench)
    finally:
        bench.close()
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    samples = {**bench.setup_samples, **bench.samples}
    counts = {name: len(v) for name, v in samples.items()}
    (results / f"{label}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
         "facts": facts, "samples": samples, "problems": bench.problems, "result": result},
        indent=2, sort_keys=True,
    ) + "\n")
    print("samples " + json.dumps(counts, sort_keys=True))
    for problem in bench.problems:
        print(f"check failed: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
