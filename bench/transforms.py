"""Layer benchmark for the DFT and the DWT: time per call against window length L and rows.

    python bench/transforms.py                                  # this checkout, run "head"
    python bench/transforms.py --src ../other/src --label parent

Times `dft_forward` and `dft_inverse`, and `dwt_forward` and `dwt_inverse`
(db2, 2 levels, as the benchmark's wavelet workloads use), on a (rows, L)
block of normal draws, for L = 32, 64, ..., 2048 and rows = 1 (a 1-d input)
or 128. DWT window lengths up to 256 go through one product with a cached
L x L operator and longer ones through the O(L) filter bank. `dense_forward`
and `dense_inverse` time that product alone at every L, with the operator
built beforehand from `dwt_matrix`, so one run shows where the dense product
stops paying.

A loop makes max(1, 65 536 // (rows L)) calls, so no loop is a single short
call, which, timed after the other loops' large ones, reads a cold cache.
"""

from __future__ import annotations

from functools import partial

import common

LENGTHS = (32, 64, 128, 256, 512, 1024, 2048)
ROWS = (1, 128)
WAVELET, LEVELS = "db2", 2
LOOP_SIZE = 1 << 16


def measure() -> tuple[dict, dict]:
    import numpy as np

    from eobkit import transforms

    rng = np.random.default_rng(0)
    loops = {}
    for rows in ROWS:
        for L in LENGTHS:
            x = rng.normal(size=L if rows == 1 else (rows, L))
            f, w = transforms.dft_forward(x), transforms.dwt_forward(x, WAVELET, LEVELS)
            op = np.ascontiguousarray(transforms.dwt_matrix(L, WAVELET, LEVELS).T)
            n = max(1, LOOP_SIZE // (rows * L))
            for name, fn in {
                "dft_forward": partial(transforms.dft_forward, x),
                "dft_inverse": partial(transforms.dft_inverse, f),
                "dwt_forward": partial(transforms.dwt_forward, x, WAVELET, LEVELS),
                "dwt_inverse": partial(transforms.dwt_inverse, w),
                "dense_forward": partial(np.matmul, x, op),
                "dense_inverse": partial(np.matmul, w.coeffs, op.T),
            }.items():
                loops["median_us", name, rows, L] = (partial(common.repeat, fn, n), n, "us")

    return common.time_table(loops), dict(
        wavelet={"name": WAVELET, "levels": LEVELS}, lengths=list(LENGTHS), rows=list(ROWS),
        statistic=common.STATISTIC)


if __name__ == "__main__":
    raise SystemExit(common.main("transforms", __doc__, measure))
