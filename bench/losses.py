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

The oracle row times the whole finite-difference check at one length:
`run_gradient_suite(lengths=(L,), instances=33, seed=0)` over every case, at
L = 8, 32 and 128 (33 is the share of each length in `loss-check`'s default
100 instances), reported in seconds per checked instance: the loop's time
over its 33 instances of each of the 14 cases.

The draw row times the suite's instance draws alone at the same lengths: every
case block-draws its 33 instances as the suite does, `make_pair(rng, L, (33,))`
then `draw(rng, L, (33,))`, reported in seconds per drawn instance.
"""

from __future__ import annotations

from functools import partial

import common

# name: (rows, L, calls per timed loop); rows = 1 is a 1-d input, and rows = 2L a probe stack
SHAPES = {"1x64": (1, 64, 200), "128x64": (128, 64, 20), "256x128": (256, 128, 10)}
ORACLE_LENGTHS = (8, 32, 128)
ORACLE_INSTANCES = 33
# kind of loop: the attribute of the loss's result that each call reads
READS = {"value": "value", "value_grad": "grad_wrt_prediction"}


def case_inputs(np, case, rows: int, L: int, rng):
    """Target, prediction and loss of one case at one shape."""
    if rows == 1:
        x, x_hat = case.make_pair(rng, L)
    elif rows == 2 * L:
        x, x_hat = case.make_pair(rng, L)
        steps = 1e-6 * np.eye(L)
        x_hat = np.concatenate([x_hat + steps, x_hat - steps])
    else:
        x, x_hat = case.make_pair(rng, L, (rows,))
    return x, x_hat, case.make_loss(rng, L)


def loop(read: str, loss, x, x_hat, calls: int) -> None:
    """calls calls of loss(x, x_hat), each reading the attribute `read` of its result."""
    for _ in range(calls):
        getattr(loss(x, x_hat), read)


def draw_blocks(cases, L: int, n: int, rng) -> None:
    """Every case's block of n instances at length L: pairs, then magnitudes."""
    for case in cases:
        case.make_pair(rng, L, (n,))
        case.draw(rng, L, (n,))


def measure() -> tuple[dict, dict]:
    import numpy as np

    from eobkit import gradcheck
    from eobkit.processes import make_rng

    rng = make_rng(0)
    loops = {}
    for case in gradcheck.LOSS_CASES:
        for shape, (rows, L, calls) in SHAPES.items():
            x, x_hat, loss = case_inputs(np, case, rows, L, rng)
            for kind, read in READS.items():
                loops["median_us", case.name, kind, shape] = (
                    partial(loop, read, loss, x, x_hat, calls), calls, "us")
    instances = ORACLE_INSTANCES * len(gradcheck.LOSS_CASES)
    for L in ORACLE_LENGTHS:
        loops["oracle_s_per_instance", L] = (
            partial(gradcheck.run_gradient_suite, lengths=(L,), instances=ORACLE_INSTANCES,
                    seed=0), instances, "s")
        loops["draw_s_per_instance", L] = (
            partial(draw_blocks, gradcheck.LOSS_CASES, L, ORACLE_INSTANCES, rng), instances, "s")

    return common.time_table(loops), dict(
        shapes={shape: {"rows": rows, "length": L, "calls_per_loop": calls}
                for shape, (rows, L, calls) in SHAPES.items()},
        oracle={"lengths": list(ORACLE_LENGTHS), "instances_per_case": ORACLE_INSTANCES,
                "cases": len(gradcheck.LOSS_CASES), "seed": 0},
        statistic=common.STATISTIC)


if __name__ == "__main__":
    raise SystemExit(common.main("losses", __doc__, measure))
