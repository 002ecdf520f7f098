"""Layer benchmark for the theory module: time against window length T.

    python bench/theory.py                                  # this checkout, run "head"
    python bench/theory.py --src ../other/src --label parent

Times, for an AR(1) with phi = 0.9, at T = 16, 128, 512 and 2048:

* `autocorrelations(spec, T-1)`: rho_0..rho_{T-1} alone;
* `corr_matrix_from_ar(spec, T)`: autocorrelations, Toeplitz build, validation;
* `eob_mgm(CorrMatrix(values))` on a Toeplitz array built beforehand: the
  determinant form, with the validation and the Cholesky that `CorrMatrix`
  runs when it is built (`eob_mgm` itself only sums the log-diagonal);
* `eob_ar_closed_form(spec, T)`: the autoregressive closed form;
* `szego_convergence_curve(spec, [T])`: one point of the Szegő curve.

Every input is built before any call is timed. Each figure is the median
of five calls, after one untimed warm-up call. The run, with its
environment block (cores, BLAS thread variables, numpy, scipy and BLAS
versions), is stored under `runs[<label>]` in
`BENCH_theory.json` at the checkout root; other labels in that file are
kept, so runs of two versions of the package sit side by side.
"""

from __future__ import annotations

import argparse
import os
import sys

from common import REPEATS, median_seconds, write_run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, "BENCH_theory.json")
SWEEP = (16, 128, 512, 2048)
PHI = 0.9


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the eobkit package to time")
    parser.add_argument("--label", default="head", help="key of this run in the output file")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from worker import environment

    from eobkit import theory
    from eobkit.processes import ARSpec, Gaussian

    spec = ARSpec(c=0.0, phi=(PHI,), innovation=Gaussian(0.0, 0.5), sigma_eps2=0.25)
    # every input is built before any timing: a call timed right after its input was
    # built read up to 3x its later time on a 2-core host
    arrays = {T: theory.corr_matrix_from_ar(spec, T).values for T in SWEEP}
    median_s: dict[str, dict[str, float]] = {}
    for T, values in arrays.items():
        timed = {
            "autocorrelations": lambda: theory.autocorrelations(spec, T - 1),
            "corr_matrix_from_ar": lambda: theory.corr_matrix_from_ar(spec, T),
            "eob_mgm_with_cholesky": lambda: theory.eob_mgm(theory.CorrMatrix(values)),
            "eob_ar_closed_form": lambda: theory.eob_ar_closed_form(spec, T),
            "szego_convergence_curve": lambda: theory.szego_convergence_curve(spec, [T]),
        }
        for name, fn in timed.items():
            median_s.setdefault(name, {})[str(T)] = median_seconds(fn)
            print(f"{name:24s} T={T:5d} {median_s[name][str(T)]:.6f} s", flush=True)

    write_run(OUT, args.label, {"environment": environment(), "median_s": median_s},
              spec={"phi": [PHI], "sigma_eps2": 0.25}, sweep=list(SWEEP),
              statistic=f"median of {REPEATS} calls after one warm-up, seconds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
