"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are result files written by ``run.py`` (``perfbench/.results/
*.json``) or directories of them. The comparison is refused, with exit code 2,
when the machine facts recorded with the results differ. For each workload and
metric it prints both medians and quartiles, the change relative to BASE, and,
for end-to-end metrics, whether the change is worse than the bound in
``BENCHMARK.json``, or unresolved where BASE's own quartile spread exceeds it.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(arg: str) -> list[dict]:
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    if not base or not change:
        print("compare: no results found", file=sys.stderr)
        return 2
    facts = {json.dumps(r["facts"], sort_keys=True) for r in base + change}
    if len(facts) > 1:
        print("compare: refused, the results were taken on different machine facts:",
              file=sys.stderr)
        for f in sorted(facts):
            print(f"  {f}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    worse = 0
    keys = sorted({(r["workload"], r["trace"]) for r in base} & {(r["workload"], r["trace"]) for r in change})
    for workload, trace in keys:
        print(f"{workload} (trace {trace})")
        side = {
            name: [r["result"] for r in runs if (r["workload"], r["trace"]) == (workload, trace)]
            for name, runs in (("base", base), ("change", change))
        }
        for metric in side["base"][0]["metrics"]:
            values = {
                name: [res["metrics"][metric]["value"] for res in results if metric in res["metrics"]]
                for name, results in side.items()
            }
            if not values["base"] or not values["change"]:
                continue
            b, c = quartiles(values["base"]), quartiles(values["change"])
            rel = (c[1] - b[1]) / abs(b[1]) if b[1] else 0.0
            verdict = ""
            if metric in bounds:
                bound, better = bounds[metric]
                loss = rel if better == "lower" else -rel
                noise = (b[2] - b[0]) / abs(b[1]) if b[1] else 0.0
                verdict = "WORSE" if loss > bound else "ok"
                if noise > bound:
                    verdict = "unresolved (base spread above the bound)"
                worse += verdict == "WORSE"
            print(f"  {metric:44s} base {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}] n={len(values['base'])}"
                  f"  change {c[1]:.6g} [{c[0]:.6g}, {c[2]:.6g}] n={len(values['change'])}"
                  f"  {rel:+.2%} {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
