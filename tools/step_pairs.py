"""Time one training step of two source trees in alternating fresh processes.

    python3 tools/step_pairs.py TREE_A TREE_B [--width 64 512] [--pairs 10]
                                [--steps 20]

Each TREE is a checkout holding ``src/loadcast``. For each width and pair,
one process per tree imports loadcast from that tree, with the BLAS thread
variables set to 1 before numpy loads, and times ``loss_and_grad`` +
``adam_step`` on the production shape at that width (batch 256). Both trees
draw the same arrays from seed 0: the parameters from their ``init_params``,
then the lookback and target rows. After 3 untimed warm-up steps it times
``--steps`` steps and reports their median. Pairs alternate which tree runs
first.

It prints each process's median ms/step, then per width the median of each
side and the number of pairs each side won (ties count for neither). It also
says whether the two trees ended with the same loss and parameters, bit for
bit, in every pair.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# run in the child, with loadcast and numpy imported from its tree only
CHILD = """
import hashlib, json, sys, time
import numpy as np
from loadcast.model import ModelConfig, init_params, loss_and_grad
from loadcast.train import AdamState, adam_step

WARMUP = 3
width, steps = (int(a) for a in sys.argv[1:])
config = ModelConfig(fc_width=width)
rng = np.random.default_rng(0)
params = init_params(config, rng)
x = rng.uniform(1e3, 1e4, (256, config.lookback))
y = rng.uniform(1e3, 1e4, (256, config.horizon))
state = AdamState(lr=1e-3)
times = []
for k in range(WARMUP + steps):
    start = time.perf_counter()
    loss, _, grads = loss_and_grad(params, x, y, config)
    adam_step(params, grads, state)
    if k >= WARMUP:
        times.append(time.perf_counter() - start)
digest = hashlib.sha256(repr(float(loss)).encode())
for name in sorted(params):
    digest.update(params[name].tobytes())
print(json.dumps({"ms": 1e3 * float(np.median(times)), "digest": digest.hexdigest()}))
"""


def time_tree(tree: Path, width: int, args) -> dict:
    """One fresh process's median ms/step and result digest for ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **{v: "1" for v in THREAD_VARIABLES})
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(width), str(args.steps)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs=2, type=Path, metavar="TREE")
    parser.add_argument("--width", type=int, nargs="+", default=[64, 512])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--steps", type=int, default=20)
    args = parser.parse_args(argv)
    for tree in args.trees:
        if not (tree / "src" / "loadcast").is_dir():
            parser.error(f"{tree}: no src/loadcast")
    names = ("A", "B")
    for width in args.width:
        ms = {name: [] for name in names}
        same = True
        for pair in range(args.pairs):
            order = names if pair % 2 == 0 else names[::-1]
            result = {}
            for name in order:
                result[name] = time_tree(args.trees[names.index(name)], width, args)
                ms[name].append(result[name]["ms"])
            same &= result["A"]["digest"] == result["B"]["digest"]
            print(f"width {width} pair {pair + 1} ({order[0]} first): "
                  f"A {result['A']['ms']:.2f} ms, B {result['B']['ms']:.2f} ms", flush=True)
        wins = {name: sum(m < o for m, o in zip(ms[name], ms[other]))
                for name, other in zip(names, names[::-1])}
        print(f"width {width}: median A {statistics.median(ms['A']):.2f} ms, "
              f"B {statistics.median(ms['B']):.2f} ms; pairs won A {wins['A']}, "
              f"B {wins['B']} of {args.pairs}; results identical: {'yes' if same else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
