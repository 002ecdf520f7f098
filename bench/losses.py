"""Layer benchmark for the losses: time per call of every loss-check case.

    python bench/losses.py                                  # this checkout, run "head"
    python bench/losses.py --src ../other/src --label parent

Times every kind in `gradcheck.LOSS_CASES` (the cases `eobkit loss-check`
verifies) on three shapes of prediction:

* `1x64`: one 1-d window of length 64, as the suite's analytic call makes;
* `128x64`: a training batch of 128 windows;
* `256x128`: the probe stack that the finite-difference oracle scores for
  L = 128, 2L rows against one 1-d target.

Each shape is timed twice: `value`, the call alone (the gradient is computed
lazily and never read, as on the probe stack and in validation passes), and
`value_grad`, the call and a read of its gradient. Inputs are the case's own
margin-safe pairs, drawn at seed 0.

Every input and loss is built before any call is timed: a call timed right
after its input was built read up to 3x its later time on a 2-core host.
Each loop makes a fixed number of calls. Five rounds, after one untimed
warm-up round, run every loop once in turn, so that a stall of the host
that lasts a moment lands in one sample of many loops rather than in every
sample of one; each figure is a loop's median over the rounds, divided by
its calls. The run, with its
environment block (cores, BLAS thread variables, numpy, scipy and BLAS
versions), is stored under `runs[<label>]` in `BENCH_losses.json` at the
checkout root; other labels in that file are kept, so runs of two versions
of the package sit side by side.
"""

from __future__ import annotations

import argparse
import os
import sys

from common import REPEATS, median_seconds_by_rounds, write_run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, "BENCH_losses.json")
# name: (rows, L, calls per timed loop); rows = 1 is a 1-d input, and rows = 2L a probe stack
SHAPES = {"1x64": (1, 64, 200), "128x64": (128, 64, 20), "256x128": (256, 128, 10)}


def case_inputs(np, case, rows: int, L: int, rng):
    """Target, prediction and loss of one case at one shape."""
    if rows == 1:
        x, x_hat = case.make_pair(rng, L)
    elif rows == 2 * L:
        x, x_hat = case.make_pair(rng, L)
        steps = 1e-6 * np.eye(L)
        x_hat = np.concatenate([x_hat + steps, x_hat - steps])
    else:
        x, x_hat = (np.stack(a) for a in zip(*(case.make_pair(rng, L) for _ in range(rows))))
    return x, x_hat, case.make_loss(rng, L)


def loops(x, x_hat, loss, calls: int) -> tuple:
    """The two timed loops of one case and shape: value only, and value and gradient."""
    def value():
        for _ in range(calls):
            loss(x, x_hat).value

    def value_grad():
        for _ in range(calls):
            loss(x, x_hat).grad_wrt_prediction

    return value, value_grad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the eobkit package to time")
    parser.add_argument("--label", default="head", help="key of this run in the output file")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import numpy as np
    from worker import environment

    from eobkit import gradcheck
    from eobkit.processes import make_rng

    rng = make_rng(0)
    timed = {}
    for case in gradcheck.LOSS_CASES:
        for shape, (rows, L, calls) in SHAPES.items():
            value, value_grad = loops(*case_inputs(np, case, rows, L, rng), calls)
            timed[case.name, "value", shape] = value
            timed[case.name, "value_grad", shape] = value_grad
    median_us: dict[str, dict[str, dict[str, float]]] = {}
    for (name, kind, shape), seconds in median_seconds_by_rounds(timed).items():
        us = 1e6 * seconds / SHAPES[shape][2]
        median_us.setdefault(name, {}).setdefault(kind, {})[shape] = us
        print(f"{name:24s} {kind:10s} {shape:8s} {us:10.1f} us", flush=True)

    write_run(OUT, args.label, {"environment": environment(), "median_us": median_us},
              shapes={shape: {"rows": rows, "length": L, "calls_per_loop": calls}
                      for shape, (rows, L, calls) in SHAPES.items()},
              statistic=f"median of {REPEATS} rounds, each running every loop once, after "
                        "one warm-up round; microseconds per call")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
