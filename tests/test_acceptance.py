"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single [PASS]/[FAIL] line (visible with pytest -s) and
asserts the criterion. Heavy artifacts (the random spec pool and the three
grid runs) are shared through module-scoped fixtures.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_stationary_spec
from eobkit import gradcheck
from eobkit.diagnostics import dist_identity, eigen_entropy, ode_ratio
from eobkit.experiments import (GridSpec, LossSpec, ModelSpec, TrainConfig,
                                insight_experiment, paradox_trend_test, run_grid)
from eobkit.losses import (EmaMagnitudes, HarmonizedConfig, freq_real_imag_l2,
                           harmonized_l2, temporal_l2)
from eobkit.processes import ARSpec, Gaussian
from eobkit.theory import (CorrMatrix, corr_matrix_from_ar, eob_ar_closed_form,
                           eob_gmm_lower_bound, eob_mgm, szego_convergence_curve,
                           verify_determinant_decomposition)
from eobkit.transforms import dft_forward, dft_inverse, dwt_forward, dwt_inverse, dwt_matrix


def report(number: int, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number:2d}: {detail}")
    assert passed, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def spec_pool():
    rng = np.random.default_rng(2024)
    pool = []
    for i in range(50):
        p = int(rng.integers(1, 4))
        pool.append(random_stationary_spec(rng, p))
    return pool


def test_criterion_01_closed_form_cross_check(spec_pool):
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(7)
    for spec in spec_pool:
        T = int(rng.integers(spec.p + 1, 33))
        a = eob_ar_closed_form(spec, T).value_nats
        b = eob_mgm(corr_matrix_from_ar(spec, T)).value_nats
        worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    elapsed = time.perf_counter() - start
    report(1, worst < 1e-8 and elapsed < 5.0,
           f"closed form vs determinant: max rel diff {worst:.2e} "
           f"(50 specs, {elapsed:.2f}s)")


def test_criterion_02_determinant_decomposition(spec_pool):
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(8)
    for spec in spec_pool:
        T = int(rng.integers(spec.p + 1, 65))
        worst = max(worst, verify_determinant_decomposition(spec, T))
    elapsed = time.perf_counter() - start
    report(2, worst < 1e-8 and elapsed < 5.0,
           f"det(R) = det(R_p) * SSNR^-(T-p): max residual {worst:.2e} "
           f"(T up to 64, {elapsed:.2f}s)")


def test_criterion_03_szego_limit():
    start = time.perf_counter()
    spec = ARSpec(c=0.0, phi=(0.5,), innovation=Gaussian(0.0, 0.5), sigma_eps2=0.25)
    curve = szego_convergence_curve(spec, [2, 4, 8, 16, 32, 64, 128, 256, 512])
    values = [v for _, v in curve]
    final_ok = abs(values[-1] - 0.75) / 0.75 < 0.02
    monotone = all(b < a for a, b in zip(values, values[1:]))
    elapsed = time.perf_counter() - start
    report(3, final_ok and monotone and elapsed < 10.0,
           f"geometric-mean determinant at T=512 is {values[-1]:.5f} "
           f"(target 0.75 within 2%), monotone={monotone}, {elapsed:.2f}s")


def test_criterion_04_monte_carlo_eob():
    start = time.perf_counter()
    phi, sigma_eps2, T, n_rep = 0.6, 0.25, 16, 10_000
    sigma_z2 = sigma_eps2 / (1.0 - phi**2)
    rng = np.random.default_rng(20240)
    z = np.empty((n_rep, T))
    z[:, 0] = rng.normal(0.0, math.sqrt(sigma_z2), size=n_rep)
    eps = rng.normal(0.0, math.sqrt(sigma_eps2), size=(n_rep, T - 1))
    for t in range(1, T):
        z[:, t] = phi * z[:, t - 1] + eps[:, t - 1]
    log_cond = (-0.5 * math.log(2 * math.pi * sigma_eps2)
                - (z[:, 1:] - phi * z[:, :-1]) ** 2 / (2 * sigma_eps2))
    log_marg = -0.5 * math.log(2 * math.pi * sigma_z2) - z[:, 1:] ** 2 / (2 * sigma_z2)
    bias = np.sum(log_cond - log_marg, axis=1)
    spec = ARSpec(c=0.0, phi=(phi,), innovation=Gaussian(0.0, 0.5), sigma_eps2=sigma_eps2)
    closed = eob_ar_closed_form(spec, T).value_nats
    se = float(np.std(bias, ddof=1)) / math.sqrt(n_rep)
    gap = abs(float(np.mean(bias)) - closed)
    elapsed = time.perf_counter() - start
    report(4, gap < 3.0 * se and elapsed < 30.0,
           f"Monte-Carlo mean within {gap / se:.2f} standard errors of the closed "
           f"form {closed:.5f} nats ({n_rep} replications, {elapsed:.2f}s)")


def test_criterion_05_l2_invariance():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    worst_value, worst_grad = 0.0, 0.0
    for i in range(100):
        L = (8, 32, 128)[i % 3]
        x, x_hat = rng.normal(size=L), rng.normal(size=L)
        freq = freq_real_imag_l2(x, x_hat)
        temp = temporal_l2(x, x_hat)
        worst_value = max(worst_value, abs(freq.value - temp.value) / temp.value)
        denom = float(np.max(np.abs(temp.grad_wrt_prediction)))
        worst_grad = max(worst_grad, float(np.max(np.abs(
            freq.grad_wrt_prediction - temp.grad_wrt_prediction))) / denom)
    elapsed = time.perf_counter() - start
    report(5, worst_value < 1e-9 and worst_grad < 1e-9 and elapsed < 2.0,
           f"spectral l2 equals temporal l2: value diff {worst_value:.2e}, "
           f"grad diff {worst_grad:.2e} (100 pairs, {elapsed:.2f}s)")


def test_criterion_06_gradient_suite():
    start = time.perf_counter()
    reports = gradcheck.run_gradient_suite(lengths=(8, 32, 128), instances=100, seed=0)
    elapsed = time.perf_counter() - start
    failed = [r for r in reports if not r.passed]
    worst = max(r.max_rel_err / r.tolerance for r in reports)
    report(6, not failed and elapsed < 60.0,
           f"{len(reports)} losses vs finite differences, worst err/tol {worst:.2e} "
           f"({elapsed:.1f}s)" + (f"; FAILED: {[r.name for r in failed]}" if failed else ""))


def test_criterion_07_harmonized_degeneracy():
    rng = np.random.default_rng(77)
    cfg = HarmonizedConfig(norm="l2", gamma=0.5, eps=1e-8, transform="dft")
    ema = EmaMagnitudes(f_bar=np.full(32, 1.3), beta=0.3)
    ratios = []
    for _ in range(100):
        x, x_hat = rng.normal(size=32), rng.normal(size=32)
        ratios.append(harmonized_l2(x, x_hat, ema, cfg).value
                      / temporal_l2(x, x_hat).value)
    spread = (max(ratios) - min(ratios)) / ratios[0]
    report(7, spread < 1e-9,
           f"flat magnitude profile degenerates to scaled MSE: ratio spread {spread:.2e} "
           f"across 100 pairs")


def test_criterion_08_transform_correctness():
    rng = np.random.default_rng(88)
    worst_rt = 0.0
    for L in (8, 17, 32, 64, 100, 128):
        x = rng.normal(size=L)
        worst_rt = max(worst_rt, float(np.max(np.abs(dft_inverse(dft_forward(x)) - x))))
    for wavelet in ("haar", "db2"):
        for L, levels in ((16, 2), (32, 3), (64, 3)):
            x = rng.normal(size=L)
            worst_rt = max(worst_rt, float(np.max(np.abs(
                dwt_inverse(dwt_forward(x, wavelet, levels)) - x))))
    worst_ortho = 0.0
    for wavelet in ("haar", "db2"):
        for L, levels in ((8, 1), (16, 2), (32, 2), (64, 3)):
            W = dwt_matrix(L, wavelet, levels)
            worst_ortho = max(worst_ortho, float(np.max(np.abs(W.T @ W - np.eye(L)))))
    report(8, worst_rt < 1e-10 and worst_ortho < 1e-10,
           f"round-trip error {worst_rt:.2e}, materialized W orthogonality "
           f"{worst_ortho:.2e} (L <= 64)")


# --- desk-scale training criteria -----------------------------------------

GRID = GridSpec(ssnr_x_values=(32.0, 104.0, 176.0, 248.0, 320.0), horizons=(64,),
                replications=3, seed=0)
MODEL = ModelSpec(kind="linear")


def desk_cfg(loss: LossSpec) -> TrainConfig:
    return TrainConfig(optimizer="adam", lr=1e-3, max_epochs=60, patience=10,
                       batch_size=128, loss=loss, split=0.7)


@pytest.fixture(scope="module")
def temporal_grid():
    cfg = desk_cfg(LossSpec(kind="temporal", norm="l2"))
    return run_grid(GRID, MODEL, cfg, jobs=1)


HARMONIZED_LOSS = LossSpec(kind="harmonized", norm="l1", gamma=0.5, beta=0.3,
                           eps=1e-8, transform="dft")


@pytest.fixture(scope="module")
def harmonized_grid():
    return run_grid(GRID, MODEL, desk_cfg(HARMONIZED_LOSS), jobs=1)


@pytest.fixture(scope="module")
def unweighted_grid():
    """The harmonized arm with its magnitude weights off: plain l1 over the DFT."""
    return run_grid(GRID, MODEL, desk_cfg(replace(HARMONIZED_LOSS, gamma=0.0)), jobs=1)


def test_criterion_09_paradox_trend(temporal_grid):
    start = time.perf_counter()
    assert not temporal_grid.failures, temporal_grid.failures
    stats = paradox_trend_test(temporal_grid.points)[0]
    elapsed = time.perf_counter() - start
    report(9, stats.spearman_ssnr_eta > 0.8 and stats.mse_rel_violations <= 1,
           f"inefficiency vs SSNR_x Spearman {stats.spearman_ssnr_eta:+.2f} (> 0.8), "
           f"relative-MSE increases {stats.mse_rel_violations} (<= 1); "
           f"eta by level {[round(v, 3) for v in stats.eta_by_ssnr.values()]}")


def test_criterion_10_debiasing_direction(temporal_grid, harmonized_grid, unweighted_grid):
    # The weights w_k = 1 + gamma * f_bar_k exist so that the constant-magnitude
    # l1 pressure does not starve strong bins; turning them on must lower eta
    # against the same DFT-l1 loss without them. The comparison is strict so
    # that a gamma dropped between LossSpec and HarmonizedConfig, which makes
    # the two arms identical, fails. Harmonized against temporal MSE changes
    # sign with the grid seed on this convex, well-specified linear model, so
    # it is reported, not asserted.
    assert not harmonized_grid.failures, harmonized_grid.failures
    assert not unweighted_grid.failures, unweighted_grid.failures
    temp = paradox_trend_test(temporal_grid.points)[0].eta_by_ssnr
    harm = paradox_trend_test(harmonized_grid.points)[0].eta_by_ssnr
    flat = paradox_trend_test(unweighted_grid.points)[0].eta_by_ssnr
    wins = sum(1 for level in flat if harm[level] < flat[level])
    vs_temporal = sum(1 for level in temp if harm[level] <= temp[level])
    detail = (f"weighted harmonized-l1 eta < unweighted (gamma=0) DFT-l1 eta in "
              f"{wins}/5 levels (need >= 4); harmonized "
              f"{[round(v, 3) for v in harm.values()]} vs unweighted "
              f"{[round(v, 3) for v in flat.values()]}; vs temporal MSE "
              f"{[round(v, 3) for v in temp.values()]} ({vs_temporal}/5 at or below)")
    report(10, wins >= 4, detail)


def test_criterion_11_insight_leakage():
    start = time.perf_counter()
    results = []
    for seed in (0, 1, 2):
        rep = insight_experiment(K=3, fmax=15, n=3072, history=64, horizon=128, seed=seed)
        results.append((seed, rep.leakage["temporal"], rep.leakage["harmonized"]))
    elapsed = time.perf_counter() - start
    all_ordered = all(harm < temp for _, temp, harm in results)
    detail = ", ".join(f"seed {s}: {h:.4f} vs {t:.4f}" for s, t, h in results)
    report(11, all_ordered and elapsed < 300.0,
           f"out-of-band leakage harmonized < temporal on all seeds ({detail}; "
           f"{elapsed:.0f}s)")


def test_criterion_12_diagnostics_identities():
    identity = CorrMatrix.identity(8)
    exact = (eigen_entropy(identity) == 1.0 and ode_ratio(identity) == 0.0
             and dist_identity(identity) == 0.0)
    R1 = CorrMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    R5 = CorrMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
    expected_entropy = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    hand = (abs(ode_ratio(R1) - 0.5) < 1e-9
            and abs(ode_ratio(R5) - 0.2) < 1e-9
            and abs(eigen_entropy(R5) - expected_entropy) < 1e-9
            and abs(dist_identity(R5) - math.sqrt(0.5)) < 1e-9)
    report(12, exact and hand,
           "identity-matrix diagnostics exact; 2x2 hand values within 1e-9")


def test_criterion_13_gmm_bound_arithmetic():
    degenerate = eob_gmm_lower_bound([1.0], [2.0])
    uniform2 = eob_gmm_lower_bound([0.5, 0.5], [2.0, 2.0])
    ok = degenerate == 2.0 and abs(uniform2 - (2.0 - math.log(2.0))) < 1e-12
    report(13, ok,
           f"degenerate mixture returns the component exactly; uniform-2 gives "
           f"mean - ln 2 within 1e-12 ({uniform2:.12f})")
