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

A loop makes 2048 // T calls of the first three, which cost O(T) and more, and
64 of the closed forms, so no loop is one short call read cold after large ones.
"""

from __future__ import annotations

from functools import partial

import common

SWEEP = (16, 128, 512, 2048)
PHI = 0.9
CLOSED_FORM_CALLS = 64


def measure() -> tuple[dict, dict]:
    from eobkit import theory
    from eobkit.processes import ARSpec, Gaussian

    spec = ARSpec(c=0.0, phi=(PHI,), innovation=Gaussian(0.0, 0.5), sigma_eps2=0.25)
    loops = {}
    for T in SWEEP:
        values = theory.corr_matrix_from_ar(spec, T).values
        for n, calls in ((SWEEP[-1] // T, {
            "autocorrelations": partial(theory.autocorrelations, spec, T - 1),
            "corr_matrix_from_ar": partial(theory.corr_matrix_from_ar, spec, T),
            "eob_mgm_with_cholesky": lambda v=values: theory.eob_mgm(theory.CorrMatrix(v)),
        }), (CLOSED_FORM_CALLS, {
            "eob_ar_closed_form": partial(theory.eob_ar_closed_form, spec, T),
            "szego_convergence_curve": partial(theory.szego_convergence_curve, spec, [T]),
        })):
            loops.update({("median_s", name, T): (partial(common.repeat, fn, n), n, "s")
                          for name, fn in calls.items()})

    return common.time_table(loops), dict(
        spec={"phi": [PHI], "sigma_eps2": 0.25}, sweep=list(SWEEP), statistic=common.STATISTIC)


if __name__ == "__main__":
    raise SystemExit(common.main("theory", __doc__, measure))
