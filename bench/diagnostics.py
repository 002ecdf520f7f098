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
window, as a loop of 1 000 calls divided by 1 000.

Each figure is the median of five calls (or loops), after one untimed warm-up.
The run, with its environment block (cores, BLAS thread variables, numpy,
scipy and BLAS versions), is stored under `runs[<label>]` in
`BENCH_diagnostics.json` at the checkout root; other labels in that file
are kept, so runs of two versions of the package sit side by side.
"""

from __future__ import annotations

import common
from common import REPEATS, median_seconds

SAMPLES = (1024, 4065, 16384)
WINDOW = 32
ROW_LENGTHS = (32, 64)
ROW_CALLS = 1000
PHI = 0.9
WAVELET, LEVELS = "db2", 2


def measure() -> tuple[dict, dict]:
    from eobkit import diagnostics, transforms
    from eobkit.processes import ARSpec, Gaussian, simulate_ar

    spec = ARSpec(c=0.0, phi=(PHI,), innovation=Gaussian(0.0, 0.5), sigma_eps2=0.25)
    series = simulate_ar(spec, max(SAMPLES) + WINDOW - 1, seed=0)
    median_s: dict[str, dict[str, dict[str, float]]] = {}
    # every input is built before any timing: a call timed right after its input was
    # built read up to 3x its later time on a 2-core host
    coords = {}
    for n in SAMPLES:
        windows = diagnostics.sliding_windows(series[:n + WINDOW - 1], WINDOW)
        coords[n] = {"raw": windows,
                     "fourier": transforms.real_fourier_coordinates(windows),
                     "dwt": transforms.dwt_forward(windows, WAVELET, LEVELS).coeffs}
    for n in SAMPLES:
        for kind, w in coords[n].items():
            timed = {
                "spearman_mean": lambda: diagnostics.spearman_mean(w),
                "sample_correlation": lambda: diagnostics.sample_correlation(w),
                "orthogonality_report": lambda: diagnostics.orthogonality_report(w),
            }
            for name, fn in timed.items():
                median_s.setdefault(name, {}).setdefault(kind, {})[str(n)] = median_seconds(fn)
                print(f"{name:20s} {kind:7s} n={n:6d} {median_s[name][kind][str(n)]:.6f} s",
                      flush=True)
    row_us: dict[str, float] = {}
    for L in ROW_LENGTHS:
        row = series[:L]

        def loop():
            for _ in range(ROW_CALLS):
                transforms.dwt_forward(row, WAVELET, LEVELS)

        loop = median_seconds(loop)
        row_us[str(L)] = 1e6 * loop / ROW_CALLS
        print(f"dwt_forward 1-d L={L:3d} {row_us[str(L)]:.2f} us per call", flush=True)

    return {"median_s": median_s, "dwt_forward_1d_us_per_call": row_us}, dict(
        spec={"phi": [PHI], "sigma_eps2": 0.25}, window=WINDOW, samples=list(SAMPLES),
        wavelet={"name": WAVELET, "levels": LEVELS}, row_lengths=list(ROW_LENGTHS),
        statistic=f"median of {REPEATS} calls after one warm-up, seconds; the 1-d "
                  f"dwt_forward: median of {REPEATS} loops of {ROW_CALLS} calls, "
                  "microseconds per call")


if __name__ == "__main__":
    raise SystemExit(common.main("diagnostics", __doc__, measure))
