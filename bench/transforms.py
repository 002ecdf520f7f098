"""Layer benchmark for the DFT and the DWT: time per call against window length L and rows.

    python bench/transforms.py                                  # this checkout, run "head"
    python bench/transforms.py --src ../other/src --label parent

Times `dft_forward` and `dft_inverse`, and `dwt_forward` and `dwt_inverse`
(db2, 2 levels, as the benchmark's wavelet workloads use), on a (rows, L)
block of normal draws, for L = 32, 64, ..., 2048 and rows = 1 (a 1-d input)
or 128. A package whose DFT takes one 1-d row at a time (a `Spectrum` in
and out) is timed on the block as a loop over its rows. DWT window lengths
up to 256 go through one product with a cached L x L operator and longer
ones through the O(L) filter bank. `dense_forward` and `dense_inverse` time
that product alone at every L, with the operator built beforehand from
`dwt_matrix`, so one run shows where the dense product stops paying.

Every input is built before any call is timed. Each figure is the median
of five calls, after one untimed warm-up call. The run, with its
environment block (cores, BLAS thread variables, numpy, scipy and BLAS
versions), is stored under `runs[<label>]` in
`BENCH_transforms.json` at the checkout root; other labels in that file are
kept, so runs of two versions of the package sit side by side.
"""

from __future__ import annotations

import argparse
import os
import sys

from common import REPEATS, median_seconds, write_run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, "BENCH_transforms.json")
LENGTHS = (32, 64, 128, 256, 512, 1024, 2048)
ROWS = (1, 128)
WAVELET, LEVELS = "db2", 2


def dft_calls(transforms, x) -> dict:
    """Forward and inverse DFT of the rows of x, as the package under test offers them."""
    if not hasattr(transforms, "Spectrum"):
        f = transforms.dft_forward(x)
        return {"dft_forward": lambda: transforms.dft_forward(x),
                "dft_inverse": lambda: transforms.dft_inverse(f)}
    rows = x.reshape(-1, x.shape[-1])
    spectra = [transforms.dft_forward(row) for row in rows]
    return {"dft_forward": lambda: [transforms.dft_forward(row) for row in rows],
            "dft_inverse": lambda: [transforms.dft_inverse(f) for f in spectra]}


def timed_calls(np, transforms, x) -> dict:
    """Every call timed on the block x, with the inputs it reads built here."""
    w = transforms.dwt_forward(x, WAVELET, LEVELS)
    op = np.ascontiguousarray(transforms.dwt_matrix(x.shape[-1], WAVELET, LEVELS).T)
    return {
        **dft_calls(transforms, x),
        "dwt_forward": lambda: transforms.dwt_forward(x, WAVELET, LEVELS),
        "dwt_inverse": lambda: transforms.dwt_inverse(w),
        "dense_forward": lambda: x @ op,
        "dense_inverse": lambda: w.coeffs @ op.T,
    }


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

    from eobkit import transforms

    rng = np.random.default_rng(0)
    # every input is built before any timing: a call timed right after its input was
    # built read up to 3x its later time on a 2-core host
    timed = {(rows, L): timed_calls(np, transforms, rng.normal(size=L if rows == 1 else (rows, L)))
             for rows in ROWS for L in LENGTHS}
    median_us: dict[str, dict[str, dict[str, float]]] = {}
    for (rows, L), calls in timed.items():
        for name, fn in calls.items():
            us = 1e6 * median_seconds(fn)
            median_us.setdefault(name, {}).setdefault(str(rows), {})[str(L)] = us
            print(f"{name:13s} rows={rows:4d} L={L:5d} {us:10.1f} us", flush=True)

    write_run(OUT, args.label, {"environment": environment(), "median_us": median_us},
              wavelet={"name": WAVELET, "levels": LEVELS}, lengths=list(LENGTHS),
              rows=list(ROWS),
              statistic=f"median of {REPEATS} calls after one warm-up, microseconds per call")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
