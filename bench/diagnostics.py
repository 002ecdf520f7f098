"""Layer benchmark for the orthogonality diagnostics: time against sample count n.

    python bench/diagnostics.py                                  # this checkout, run "head"
    python bench/diagnostics.py --src ../other/src --label parent

Times `spearman_mean`, `sample_correlation` and `orthogonality_report` on
(n, 32) windows of an AR(1) series (phi = 0.9), for n = 1 024, 4 065 and
16 384, in three coordinates: the raw windows, their real Fourier
coordinates and their DWT coefficients (db2, 2 levels, as `eobkit diagnose
--transform dwt` and the benchmark's `bias-analysis` workload use). 4 065 is
the window count of `bias-analysis`. It also times a 1-d `dwt_forward`
call at L = 32 and L = 64, the call that `bias-analysis` makes once per
window, as a loop of 1 000 calls.
"""

from __future__ import annotations

from functools import partial

import common

SAMPLES = (1024, 4065, 16384)
WINDOW = 32
ROW_LENGTHS = (32, 64)
ROW_CALLS = 1000
PHI = 0.9
WAVELET, LEVELS = "db2", 2
REPORTS = ("spearman_mean", "sample_correlation", "orthogonality_report")


def measure() -> tuple[dict, dict]:
    from eobkit import diagnostics, transforms
    from eobkit.processes import ARSpec, Gaussian, simulate_ar

    spec = ARSpec(c=0.0, phi=(PHI,), innovation=Gaussian(0.0, 0.5), sigma_eps2=0.25)
    series = simulate_ar(spec, max(SAMPLES) + WINDOW - 1, seed=0)
    loops = {}
    for n in SAMPLES:
        windows = diagnostics.sliding_windows(series[:n + WINDOW - 1], WINDOW)
        coords = {"raw": windows,
                  "fourier": transforms.real_fourier_coordinates(windows),
                  "dwt": transforms.dwt_forward(windows, WAVELET, LEVELS).coeffs}
        for kind, w in coords.items():
            for name in REPORTS:
                fn = partial(getattr(diagnostics, name), w)
                loops["median_s", name, kind, n] = (fn, 1, "s")
    for L in ROW_LENGTHS:
        dwt = partial(transforms.dwt_forward, series[:L], WAVELET, LEVELS)
        loops["dwt_forward_1d_us_per_call", L] = (partial(common.repeat, dwt, ROW_CALLS),
                                                  ROW_CALLS, "us")

    return common.time_table(loops), dict(
        spec={"phi": [PHI], "sigma_eps2": 0.25}, window=WINDOW, samples=list(SAMPLES),
        wavelet={"name": WAVELET, "levels": LEVELS}, row_lengths=list(ROW_LENGTHS),
        row_calls=ROW_CALLS, statistic=common.STATISTIC)


if __name__ == "__main__":
    raise SystemExit(common.main("diagnostics", __doc__, measure))
