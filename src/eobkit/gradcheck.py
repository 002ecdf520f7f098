"""Finite-difference verification of every analytic loss gradient.

Central differences are the independent oracle: for each registered loss,
random instances are generated (with explicit margins keeping kinked
losses away from their non-differentiable points and phase losses away
from empty bins), the analytic gradient is compared coordinate-wise
against (f(x+h) - f(x-h)) / 2h, and the worst relative error is reported.

Smooth losses must agree to 1e-5, kinked ones to 1e-4 at margin-safe
points.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import losses
from .processes import make_rng
from .transforms import dft_inverse

__all__ = ["GradCase", "GradCheckReport", "LOSS_CASES", "central_difference",
           "relative_error", "run_gradient_suite"]

SMOOTH_TOL = 1e-5
KINKED_TOL = 1e-4


def central_difference(fn: Callable[[np.ndarray], np.ndarray], x_hat: np.ndarray,
                       h_scale: float = 1e-6) -> np.ndarray:
    """Central finite differences of a per-row function of a 1-D prediction.

    `fn` gets every probe in one call, as a (2L, L) stack: rows x_hat + h*e_i,
    then rows x_hat - h*e_i. It returns their 2L values. The stack is one copy
    of x_hat per row with the steps added on its two diagonals.
    """
    L = x_hat.size
    h = h_scale * max(1.0, float(np.max(np.abs(x_hat))))
    probes = np.broadcast_to(x_hat, (2 * L, L)).copy()
    i = np.arange(L)
    probes[i, i] += h
    probes[L + i, i] -= h
    values = fn(probes)
    return (values[:L] - values[L:]) / (2.0 * h)


def relative_error(analytic: np.ndarray, fd: np.ndarray) -> float:
    denom = max(float(np.max(np.abs(analytic))), float(np.max(np.abs(fd))), 1e-12)
    return float(np.max(np.abs(analytic - fd))) / denom


# ---------------------------------------------------------------------------
# Margin-safe instance constructors
# ---------------------------------------------------------------------------

def _signed(rng: np.random.Generator, lo: float, hi: float, size: int) -> np.ndarray:
    """Random signs times magnitudes in [lo, hi]; the signs are the stream of
    rng.choice([-1.0, 1.0], size), drawn without choice's overhead."""
    return np.array([-1.0, 1.0])[rng.integers(0, 2, size)] * rng.uniform(lo, hi, size=size)


def _bins(L: int) -> tuple[np.ndarray, np.ndarray]:
    """Free bins 1..(L+1)//2 - 1 and the real bins (0, and L/2 for even L)."""
    return np.arange(1, (L + 1) // 2), np.array([0, L // 2] if L % 2 == 0 else [0])


def _hermitian(L: int, free_values: np.ndarray, real_values: np.ndarray) -> np.ndarray:
    """Spectrum of a real signal; the mirror bins L - k are set by conjugate symmetry."""
    free, real = _bins(L)
    spec = np.zeros(L, dtype=complex)
    spec[free] = free_values
    spec[L - free] = np.conj(free_values)
    spec[real] = real_values
    return spec


def _hermitian_margin_spectrum(rng: np.random.Generator, L: int,
                               lo: float = 0.2, hi: float = 1.0) -> np.ndarray:
    """Spectrum of a real signal with |re|, |im| in [lo, hi] on all free bins, |re| on real ones."""
    free, real = _bins(L)
    return _hermitian(L, _signed(rng, lo, hi, free.size) + 1j * _signed(rng, lo, hi, free.size),
                      _signed(rng, lo, hi, real.size))


def _smooth_pair(rng: np.random.Generator, L: int) -> tuple[np.ndarray, np.ndarray]:
    x = rng.normal(size=L)
    return x, x + 0.5 * rng.normal(size=L)


def _time_margin_pair(rng: np.random.Generator, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Error entries bounded away from zero (temporal kinks)."""
    x_hat = rng.normal(size=L)
    return x_hat + _signed(rng, 0.2, 1.0, L), x_hat


def _spectral_margin_pair(rng: np.random.Generator, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Error spectrum bounded away from zero per re/im part (spectral kinks)."""
    x_hat = rng.normal(size=L)
    e = dft_inverse(_hermitian_margin_spectrum(rng, L))
    return x_hat + e, x_hat


def _polar_margin_pair(rng: np.random.Generator, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Predicted amplitudes in [0.5, 1.5]; amp gaps in [0.15, 0.3], phase gaps in [0.15, 0.5]."""
    free, real = _bins(L)
    amp_hat = rng.uniform(0.5, 1.5, size=free.size)
    phase_hat = rng.uniform(-2.0, 2.0, size=free.size)
    amp = amp_hat + _signed(rng, 0.15, 0.3, free.size)
    phase = phase_hat + _signed(rng, 0.15, 0.5, free.size)
    # real bins carry an amplitude-only gap; their phase is locally constant
    real_hat = rng.uniform(0.5, 1.5, size=real.size)
    real_amp = real_hat + rng.uniform(0.15, 0.3, size=real.size)
    x_hat = dft_inverse(_hermitian(L, amp_hat * np.exp(1j * phase_hat), real_hat))
    x = dft_inverse(_hermitian(L, amp * np.exp(1j * phase), real_amp))
    return x, x_hat


def _positive_mags(rng: np.random.Generator, L: int) -> np.ndarray:
    return rng.uniform(0.2, 2.0, size=L)


# ---------------------------------------------------------------------------
# Case registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradCase:
    name: str
    tolerance: float
    make_pair: Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]]
    make_loss: Callable[[np.random.Generator, int], Callable[[np.ndarray, np.ndarray], losses.LossEval]]


def _fixed(fn):
    return lambda rng, L: fn


def _harmonized(norm: str, transform: str):
    def make(rng: np.random.Generator, L: int):
        cfg = losses.HarmonizedConfig(norm=norm, gamma=0.5, transform=transform,
                                      wavelet="db2", levels=1)
        ema = losses.EmaMagnitudes(f_bar=_positive_mags(rng, L), beta=0.3)
        if norm == "l2":
            return lambda x, xh: losses.harmonized_l2(x, xh, ema, cfg)
        return lambda x, xh: losses.harmonized_l1(x, xh, ema, cfg)
    return make


def _whitened(norm: str):
    def make(rng: np.random.Generator, L: int):
        f_bar = _positive_mags(rng, L)
        return lambda x, xh: losses.whitened_loss(x, xh, f_bar, norm)
    return make


LOSS_CASES: tuple[GradCase, ...] = (
    GradCase("temporal_l2", SMOOTH_TOL, _smooth_pair, _fixed(losses.temporal_l2)),
    GradCase("temporal_l1", KINKED_TOL, _time_margin_pair, _fixed(losses.temporal_l1)),
    GradCase("freq_real_imag_l2", SMOOTH_TOL, _smooth_pair, _fixed(losses.freq_real_imag_l2)),
    GradCase("freq_real_imag_l1", KINKED_TOL, _spectral_margin_pair,
             _fixed(losses.freq_real_imag_l1)),
    GradCase("amp_phase_l2", SMOOTH_TOL, _polar_margin_pair,
             _fixed(lambda x, xh: losses.freq_amp_phase(x, xh, "l2"))),
    GradCase("amp_phase_l1", KINKED_TOL, _polar_margin_pair,
             _fixed(lambda x, xh: losses.freq_amp_phase(x, xh, "l1"))),
    GradCase("error_amp_phase_l2", SMOOTH_TOL, _spectral_margin_pair,
             _fixed(lambda x, xh: losses.freq_error_amp_phase(x, xh, "l2"))),
    GradCase("error_amp_phase_l1", KINKED_TOL, _spectral_margin_pair,
             _fixed(lambda x, xh: losses.freq_error_amp_phase(x, xh, "l1"))),
    GradCase("harmonized_l2_dft", SMOOTH_TOL, _smooth_pair, _harmonized("l2", "dft")),
    GradCase("harmonized_l1_dft", KINKED_TOL, _spectral_margin_pair, _harmonized("l1", "dft")),
    GradCase("harmonized_l2_dwt", SMOOTH_TOL, _smooth_pair, _harmonized("l2", "dwt")),
    GradCase("harmonized_l1_identity", KINKED_TOL, _time_margin_pair,
             _harmonized("l1", "identity")),
    GradCase("whitened_l2", SMOOTH_TOL, _smooth_pair, _whitened("l2")),
    GradCase("whitened_l1", KINKED_TOL, _spectral_margin_pair, _whitened("l1")),
)


@dataclass(frozen=True)
class GradCheckReport:
    name: str
    tolerance: float
    max_rel_err: float
    instances: int

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def run_gradient_suite(lengths: tuple[int, ...] = (8, 32, 128), instances: int = 100,
                       seed: int = 0, names: tuple[str, ...] | None = None
                       ) -> list[GradCheckReport]:
    """Run the FD oracle on the registered losses.

    `instances` is per loss, split evenly across `lengths`; the leading lengths get the rest.
    """
    cases = LOSS_CASES if names is None else tuple(c for c in LOSS_CASES if c.name in names)
    if names is not None and len(cases) != len(names):
        known = {c.name for c in LOSS_CASES}
        raise ValueError(f"unknown loss case(s): {sorted(set(names) - known)}")
    if instances < 1:
        raise ValueError(f"instances must be >= 1, got {instances}")
    reports = []
    rng = make_rng(seed)
    per_length, extra = divmod(instances, len(lengths))
    for case in cases:
        worst = 0.0
        count = 0
        for i, L in enumerate(lengths):
            for _ in range(per_length + (i < extra)):
                x, x_hat = case.make_pair(rng, L)
                loss_fn = case.make_loss(rng, L)
                analytic = loss_fn(x, x_hat).grad_wrt_prediction
                fd = central_difference(lambda xh: loss_fn(x, xh).value, x_hat)
                worst = max(worst, relative_error(analytic, fd))
                count += 1
        reports.append(GradCheckReport(name=case.name, tolerance=case.tolerance,
                                       max_rel_err=worst, instances=count))
    return reports
