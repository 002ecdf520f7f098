"""Output checks, computed apart from eobkit or from properties the method must have.

Every check returns a list of problems; an empty list means the output
passed. Nothing here imports eobkit except `check_own_gradient`, which needs
a loss instance from `gradcheck.LOSS_CASES` to differentiate.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

GRID_HEADER = ["ssnr_x", "horizon", "replication", "mse_actual", "mse_relative",
               "mse_opt_rel", "inefficiency"]
IDENTITY_RTOL = 1e-9
# The test split of a grid cell is 1500 samples of an AR(1) with phi^2 = 31/32,
# whose correlation time is ~60 samples. On it, the exact h-step optimum
# forecaster itself scores between 0.45 and 1.88 times its expected eta over
# 3000 seeds, so the eta range is wide: a floor well below that spread, and a
# ceiling at twice the eta of forecasting the process mean.
ETA_FLOOR = 0.35
ETA_CEILING = 2.0


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def eta_optimum(ssnr_z: float, horizon: int) -> float:
    """Exact mean h-step error of the AR(1) core over sigma_z^2: 1 - (1/h) sum phi^2k."""
    phi2 = (ssnr_z - 1.0) / ssnr_z
    return 1.0 - sum(phi2 ** k for k in range(1, horizon + 1)) / horizon


def check_grid(csv_text: str, meta: dict, grid: dict) -> list[str]:
    """Completeness, finiteness, the three row identities and the eta range."""
    problems: list[str] = []
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or rows[0] != GRID_HEADER:
        return [f"grid CSV header is {rows[0] if rows else None}, expected {GRID_HEADER}"]
    if meta.get("failures"):
        problems.append(f"grid sidecar lists failed cells: {meta['failures']}")
    sigma_eps2 = grid.get("sigma_eps2", 0.25)
    ssnr_z = grid.get("ssnr_z", 32.0)
    expected = sorted((float(v), int(h), r) for v in grid["ssnr_x_values"]
                      for h in grid["horizons"] for r in range(grid["replications"]))
    seen = []
    eta: dict[tuple[float, int], list[float]] = {}
    for row in rows[1:]:
        if len(row) != len(GRID_HEADER):
            problems.append(f"grid row has {len(row)} fields: {row}")
            continue
        ssnr_x, horizon, rep = float(row[0]), int(row[1]), int(row[2])
        mse_actual, mse_rel, mse_opt_rel, ineff = (float(v) for v in row[3:])
        seen.append((ssnr_x, horizon, rep))
        cell = f"cell ({ssnr_x:g}, {horizon}, {rep})"
        if not all(math.isfinite(v) for v in (mse_actual, mse_rel, mse_opt_rel, ineff)):
            problems.append(f"{cell} has a non-finite value: {row}")
            continue
        if not _close(mse_opt_rel, ssnr_z / ssnr_x, IDENTITY_RTOL):
            problems.append(f"{cell}: mse_opt_rel {mse_opt_rel!r} != ssnr_z/ssnr_x")
        if not _close(mse_actual, mse_rel * sigma_eps2 * ssnr_x, IDENTITY_RTOL):
            problems.append(f"{cell}: mse_actual {mse_actual!r} != "
                            f"mse_relative * sigma_eps2 * ssnr_x")
        if not _close(ineff, mse_rel / mse_opt_rel, IDENTITY_RTOL):
            problems.append(f"{cell}: inefficiency {ineff!r} != mse_relative / mse_opt_rel")
        eta.setdefault((ssnr_x, horizon), []).append(ineff)
    if sorted(seen) != expected:
        problems.append(f"grid CSV has cells {sorted(seen)}, expected {expected}")
    for (ssnr_x, horizon), values in sorted(eta.items()):
        mean = sum(values) / len(values)
        floor = ETA_FLOOR * eta_optimum(ssnr_z, horizon)
        ceiling = ETA_CEILING * ssnr_x / ssnr_z
        if not floor < mean < ceiling:
            problems.append(f"level {ssnr_x:g}, h={horizon}: replication-mean eta "
                            f"{mean:.4f} outside ({floor:.4f}, {ceiling:.4f})")
    return problems


# ---------------------------------------------------------------------------
# Gradient suite
# ---------------------------------------------------------------------------

def check_gradient_report(report: dict, case_names: list[str]) -> list[str]:
    problems = []
    checks = report.get("checks", [])
    names = [c.get("name") for c in checks]
    if names != case_names:
        problems.append(f"loss-check reported cases {names}, expected {case_names}")
    for c in checks:
        if not c.get("passed") or not c["max_rel_err"] < c["tolerance"]:
            problems.append(f"case {c.get('name')} failed: max_rel_err "
                            f"{c.get('max_rel_err')} vs tolerance {c.get('tolerance')}")
        if not c.get("instances", 0) >= 1:
            problems.append(f"case {c.get('name')} checked no instance")
    if report.get("all_passed") is not True:
        problems.append("loss-check report says not all cases passed")
    return problems


def central_difference_4(fn, x: np.ndarray, h_scale: float = 1e-5) -> np.ndarray:
    """Fourth-order central differences, one coordinate at a time."""
    h = h_scale * max(1.0, float(np.max(np.abs(x))))
    grad = np.empty_like(x)
    for i in range(x.size):
        probes = []
        for step in (2.0, 1.0, -1.0, -2.0):
            p = x.copy()
            p[i] += step * h
            probes.append(fn(p))
        grad[i] = (-probes[0] + 8.0 * probes[1] - 8.0 * probes[2] + probes[3]) / (12.0 * h)
    return grad


def gradient_agreement(analytic: np.ndarray, fd: np.ndarray, tolerance: float,
                       name: str) -> list[str]:
    denom = max(float(np.max(np.abs(analytic))), float(np.max(np.abs(fd))), 1e-12)
    err = float(np.max(np.abs(analytic - fd))) / denom
    if not err < tolerance:
        return [f"case {name}: analytic gradient differs from the benchmark's own "
                f"finite differences by {err:.3e} (tolerance {tolerance:g})"]
    return []


def check_own_gradient(case, seed: int, length: int = 32) -> list[str]:
    """One instance of a gradcheck case, differentiated by the benchmark itself."""
    rng = np.random.default_rng(seed)
    x, x_hat = case.make_pair(rng, length)
    loss = case.make_loss(rng, length)
    analytic = np.asarray(loss(x, x_hat).grad_wrt_prediction, dtype=float)
    fd = central_difference_4(lambda xh: float(loss(x, xh).value), x_hat)
    return gradient_agreement(analytic, fd, case.tolerance, case.name)


# ---------------------------------------------------------------------------
# Bias analysis
# ---------------------------------------------------------------------------

def step_up(reflection) -> np.ndarray:
    """Levinson step-up: reflection coefficients in (-1, 1) -> stationary AR coefficients."""
    a = np.empty(0)
    for k in reflection:
        a = np.concatenate([a - k * a[::-1], [k]])
    return a


def ma_reference(phi, max_lag: int, tail: float = 1e-18) -> tuple[np.ndarray, float]:
    """(rho_0..rho_max_lag, SSNR) summed from the MA(inf) weights psi_j.

    psi_0 = 1, psi_j = sum_i phi_i psi_{j-i}; gamma_k / sigma_eps^2 = sum_j
    psi_j psi_{j+k}; SSNR = gamma_0 / sigma_eps^2. The sum runs until a
    stretch of weights falls below `tail`, and at least to max_lag.
    """
    phi = np.asarray(phi, dtype=float)
    p = phi.size
    psi = [1.0]
    j = 0
    while True:
        j += 1
        recent = psi[max(0, j - p):j][::-1]
        psi.append(float(np.dot(phi[:len(recent)], recent)))
        if j > max_lag + p and max(abs(v) for v in psi[-p - 8:]) < tail:
            break
        if j > 200_000:
            raise ValueError(f"MA weights of phi={phi} do not decay")
    psi = np.asarray(psi)
    acov = np.array([float(np.dot(psi[:psi.size - k], psi[k:])) for k in range(max_lag + 1)])
    return acov / acov[0], float(acov[0])


def toeplitz_logdet(rho: np.ndarray, T: int) -> float:
    idx = np.abs(np.arange(T)[:, None] - np.arange(T)[None, :])
    sign, logdet = np.linalg.slogdet(rho[idx])
    if sign <= 0:
        raise ValueError(f"reference Toeplitz matrix at T={T} is not positive definite")
    return float(logdet)


def check_theory(phi, sweep, closed, dense, curve, residual) -> list[str]:
    """Closed form, dense form and Szego curve against the benchmark's own slogdet.

    `closed` and `curve` cover the whole sweep; `dense` covers its first
    len(dense) lengths. For an AR(1) the reference is the exact
    -(T-1)/2 log(1-phi^2); otherwise it is -1/2 slogdet of the Toeplitz
    matrix of autocorrelations summed from the MA(inf) weights.
    """
    problems = []
    name = f"AR({len(phi)}) phi={tuple(round(v, 4) for v in phi)}"
    rho, ssnr = ma_reference(phi, max(sweep))
    if len(phi) == 1:
        refs = [-(T - 1) / 2.0 * math.log(1.0 - phi[0] ** 2) for T in sweep]
        rtol = 1e-9
    else:
        refs = [-0.5 * toeplitz_logdet(rho, T) for T in sweep]
        rtol = 1e-8
    for i, (T, ref) in enumerate(zip(sweep, refs)):
        values = {"closed form": closed[i],
                  "Szego curve value": -0.5 * T * math.log(curve[i][1])}
        if i < len(dense):
            values["dense form"] = dense[i]
            if abs(closed[i] - dense[i]) > 1e-8 * max(1.0, abs(closed[i])):
                problems.append(f"{name}, T={T}: closed {closed[i]!r} and dense "
                                f"{dense[i]!r} differ")
        for label, value in values.items():
            if abs(value - ref) > rtol * max(1.0, abs(ref)):
                problems.append(f"{name}, T={T}: {label} gives {value!r} nats, "
                                f"reference {ref!r}")
    T_last, geo = curve[-1]
    if T_last != sweep[-1] or not _close(geo, 1.0 / ssnr, 0.02):
        problems.append(f"{name}: det(R)^(1/T) at T={T_last} is {geo!r}, "
                        f"not within 2% of 1/SSNR = {1.0 / ssnr!r}")
    if not residual < 1e-8:
        problems.append(f"{name}: determinant decomposition residual {residual!r}")
    return problems


def check_series(family: str, phi: float, sigma_eps2: float, series: np.ndarray,
                 ssnr_estimate: float, reports: dict[str, dict], window: int,
                 n_windows: int) -> list[str]:
    """Moments, the SSNR estimate and diagnostics of one AR(1) series.

    Tolerances are six standard errors of the sample statistic for a long
    AR(1) sample (Bartlett's formulas), so a correct generator fails them
    with negligible probability.
    """
    problems = []
    n = series.size
    ssnr = 1.0 / (1.0 - phi ** 2)
    sigma_z2 = sigma_eps2 * ssnr
    se_mean = math.sqrt(sigma_z2 * (1.0 + phi) / ((1.0 - phi) * n))
    mean = float(np.mean(series))
    if abs(mean) > 6.0 * se_mean:
        problems.append(f"{family}: series mean {mean:.5f}, expected 0 within {6 * se_mean:.5f}")
    rel_se_var = math.sqrt(2.0 * (1.0 + phi ** 2) / ((1.0 - phi ** 2) * n))
    var = float(np.var(series))
    if abs(var / sigma_z2 - 1.0) > 6.0 * rel_se_var:
        problems.append(f"{family}: series variance {var:.5f}, expected {sigma_z2:.5f} "
                        f"within {6 * rel_se_var:.2%}")
    rel_se_ssnr = 2.0 * phi / math.sqrt((1.0 - phi ** 2) * n)
    if abs(ssnr_estimate / ssnr - 1.0) > 6.0 * rel_se_ssnr:
        problems.append(f"{family}: estimate_ssnr {ssnr_estimate:.5f}, expected "
                        f"{ssnr:.5f} within {6 * rel_se_ssnr:.2%}")
    for coords, rep in reports.items():
        where = f"{family}/{coords}"
        if rep["dim"] != window or rep["n_samples"] != n_windows:
            problems.append(f"{where}: report shape ({rep['dim']}, {rep['n_samples']}), "
                            f"expected ({window}, {n_windows})")
        for key in ("ode_ratio", "spearman_mean", "eigen_entropy"):
            if not 0.0 <= rep[key] <= 1.0:
                problems.append(f"{where}: {key} {rep[key]!r} outside [0, 1]")
        if not 0.0 <= rep["dist_identity"] <= window:
            problems.append(f"{where}: dist_identity {rep['dist_identity']!r} outside [0, L]")
    if not reports["raw"]["ode_ratio"] > reports["fourier"]["ode_ratio"]:
        problems.append(f"{family}: ODE ratio of raw windows {reports['raw']['ode_ratio']:.4f} "
                        f"does not exceed that of Fourier coordinates "
                        f"{reports['fourier']['ode_ratio']:.4f}")
    return problems
