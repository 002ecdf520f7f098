"""Finite-difference verification of every analytic loss gradient.

Central differences are the independent oracle: for each registered loss,
random instances are generated (with explicit margins keeping kinked
losses away from their non-differentiable points and phase losses away
from empty bins), the analytic gradient is compared coordinate-wise
against (f(x+h) - f(x-h)) / 2h, and the worst relative error is reported.

The n instances of each loss and length are drawn as one (n, L) block
(the spectral and polar pairs assemble their Hermitian spectra and run
their inverse DFT once, on the block's last axis) and scored as that
block: the analytic gradient is one call on the (n, L) block, and the
central differences score blocks of instances as (block, 2L, L) probe
stacks in one value-only call each, a block holding at most
PROBE_VALUES_PER_CALL probe values (one instance when 2L * L exceeds it).

Smooth losses must agree to 1e-5, kinked ones to 1e-4 at margin-safe
points.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import losses
from .processes import _int, make_rng
from .transforms import dft_inverse

__all__ = ["GradCase", "GradCheckReport", "LOSS_CASES", "central_difference",
           "relative_error", "run_gradient_suite"]

SMOOTH_TOL = 1e-5
KINKED_TOL = 1e-4
# the probe stack of one L = 128 instance: 2L rows of L values
PROBE_VALUES_PER_CALL = 32_768
H_SCALE = 1e-6


def central_difference(fn: Callable[[np.ndarray], np.ndarray], x_hat: np.ndarray) -> np.ndarray:
    """Central finite differences of a per-row function of an (..., L) prediction.

    Each row gets its own step h = H_SCALE * max(1, max|row|). `fn` gets every
    probe in one call, as an (..., 2L, L) stack: for each row, the rows
    row + h*e_i, then the rows row - h*e_i. It returns their (..., 2L) values.
    The stack is one copy of the row per probe with the steps added on its two
    diagonals.
    """
    L = x_hat.shape[-1]
    h = H_SCALE * np.maximum(1.0, np.max(np.abs(x_hat), axis=-1, keepdims=True))
    probes = np.repeat(x_hat[..., None, :], 2 * L, axis=-2)
    i = np.arange(L)
    probes[..., i, i] += h
    probes[..., L + i, i] -= h
    values = fn(probes)
    return (values[..., :L] - values[..., L:]) / (2.0 * h)


def relative_error(analytic: np.ndarray, fd: np.ndarray) -> np.ndarray:
    """max|analytic - fd| / max(max|analytic|, max|fd|, 1e-12), per row of the last axis."""
    denom = np.maximum(np.maximum(np.max(np.abs(analytic), axis=-1),
                                  np.max(np.abs(fd), axis=-1)), 1e-12)
    return np.max(np.abs(analytic - fd), axis=-1) / denom


# ---------------------------------------------------------------------------
# Margin-safe instance constructors
# ---------------------------------------------------------------------------

def _signed(rng: np.random.Generator, lo: float, hi: float, size: int,
            shape: tuple[int, ...] = ()) -> np.ndarray:
    """A shape + (size,) array of random signs times magnitudes in [lo, hi]; the signs are
    the stream of rng.choice([-1.0, 1.0], shape + (size,)), drawn without choice's overhead."""
    dims = shape + (size,)
    return np.array([-1.0, 1.0])[rng.integers(0, 2, dims)] * rng.uniform(lo, hi, size=dims)


def _bins(L: int) -> tuple[np.ndarray, np.ndarray]:
    """Free bins 1..(L+1)//2 - 1 and the real bins (0, and L/2 for even L)."""
    return np.arange(1, (L + 1) // 2), np.array([0, L // 2] if L % 2 == 0 else [0])


def _hermitian(L: int, free_values: np.ndarray, real_values: np.ndarray) -> np.ndarray:
    """Spectra of real signals, on the last axis of (..., L), from the values of the free and
    the real bins (..., n_free) and (..., n_real); the mirror bins L - k are set by conjugate
    symmetry."""
    free, real = _bins(L)
    spec = np.zeros(free_values.shape[:-1] + (L,), dtype=complex)
    spec[..., free] = free_values
    spec[..., L - free] = np.conj(free_values)
    spec[..., real] = real_values
    return spec


def _hermitian_margin_spectrum(rng: np.random.Generator, L: int, lo: float = 0.2,
                               hi: float = 1.0, shape: tuple[int, ...] = ()) -> np.ndarray:
    """shape + (L,) spectra of real signals with |re|, |im| in [lo, hi] on all free bins,
    |re| on real ones."""
    free, real = _bins(L)
    return _hermitian(L, _signed(rng, lo, hi, free.size, shape)
                      + 1j * _signed(rng, lo, hi, free.size, shape),
                      _signed(rng, lo, hi, real.size, shape))


def _smooth_pair(rng: np.random.Generator, L: int, shape: tuple[int, ...] = ()
                 ) -> tuple[np.ndarray, np.ndarray]:
    x = rng.normal(size=shape + (L,))
    return x, x + 0.5 * rng.normal(size=shape + (L,))


def _time_margin_pair(rng: np.random.Generator, L: int, shape: tuple[int, ...] = ()
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Error entries bounded away from zero (temporal kinks)."""
    x_hat = rng.normal(size=shape + (L,))
    return x_hat + _signed(rng, 0.2, 1.0, L, shape), x_hat


def _spectral_margin_pair(rng: np.random.Generator, L: int, shape: tuple[int, ...] = ()
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Error spectrum bounded away from zero per re/im part (spectral kinks)."""
    x_hat = rng.normal(size=shape + (L,))
    e = dft_inverse(_hermitian_margin_spectrum(rng, L, shape=shape))
    return x_hat + e, x_hat


def _polar_margin_pair(rng: np.random.Generator, L: int, shape: tuple[int, ...] = ()
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Predicted amplitudes in [0.5, 1.5]; amp gaps in [0.15, 0.3], phase gaps in [0.15, 0.5]."""
    free, real = _bins(L)
    free_shape, real_shape = shape + (free.size,), shape + (real.size,)
    amp_hat = rng.uniform(0.5, 1.5, size=free_shape)
    phase_hat = rng.uniform(-2.0, 2.0, size=free_shape)
    amp = amp_hat + _signed(rng, 0.15, 0.3, free.size, shape)
    phase = phase_hat + _signed(rng, 0.15, 0.5, free.size, shape)
    # real bins carry an amplitude-only gap; their phase is locally constant
    real_hat = rng.uniform(0.5, 1.5, size=real_shape)
    real_amp = real_hat + rng.uniform(0.15, 0.3, size=real_shape)
    x_hat = dft_inverse(_hermitian(L, amp_hat * np.exp(1j * phase_hat), real_hat))
    x = dft_inverse(_hermitian(L, amp * np.exp(1j * phase), real_amp))
    return x, x_hat


def _positive_mags(rng: np.random.Generator, L: int, shape: tuple[int, ...] = ()) -> np.ndarray:
    return rng.uniform(0.2, 2.0, size=shape + (L,))


# ---------------------------------------------------------------------------
# Case registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradCase:
    """One registered loss: `loss(x, x_hat, *mags)` on (..., L) rows, where mags is
    one (..., L) magnitude array per row when `draw_mags` is set and empty otherwise.

    `make_pair(rng, L, shape)` and `draw_mags(rng, L, shape)` draw a block of instances,
    shape + (L,) arrays; at shape=() they draw one instance."""

    name: str
    tolerance: float
    make_pair: Callable[[np.random.Generator, int, tuple[int, ...]],
                        tuple[np.ndarray, np.ndarray]]
    loss: Callable[..., losses.LossEval]
    draw_mags: Callable[[np.random.Generator, int, tuple[int, ...]], np.ndarray] | None = None
    even_lengths: bool = False

    def draw(self, rng: np.random.Generator, L: int, shape: tuple[int, ...] = ()
             ) -> tuple[np.ndarray, ...]:
        """The magnitude arguments of a block of instances: () or (one shape + (L,) draw,)."""
        return () if self.draw_mags is None else (self.draw_mags(rng, L, shape),)

    def make_loss(self, rng: np.random.Generator, L: int
                  ) -> Callable[[np.ndarray, np.ndarray], losses.LossEval]:
        """The loss of one instance as (x, x_hat) -> LossEval, its magnitudes drawn from rng."""
        mags = self.draw(rng, L)
        return lambda x, x_hat: self.loss(x, x_hat, *mags)


def _harmonized(norm: str, transform: str) -> Callable[..., losses.LossEval]:
    cfg = losses.HarmonizedConfig(norm=norm, gamma=0.5, transform=transform,
                                  wavelet="db2", levels=1)

    def loss(x: np.ndarray, x_hat: np.ndarray, f_bar: np.ndarray) -> losses.LossEval:
        # looked up on the module per call, so that the benchmark's tracer sees the calls
        ema = losses.EmaMagnitudes(f_bar=f_bar, beta=0.3)
        if norm == "l2":
            return losses.harmonized_l2(x, x_hat, ema, cfg)
        return losses.harmonized_l1(x, x_hat, ema, cfg)
    return loss


LOSS_CASES: tuple[GradCase, ...] = (
    GradCase("temporal_l2", SMOOTH_TOL, _smooth_pair, losses.temporal_l2),
    GradCase("temporal_l1", KINKED_TOL, _time_margin_pair, losses.temporal_l1),
    GradCase("freq_real_imag_l2", SMOOTH_TOL, _smooth_pair, losses.freq_real_imag_l2),
    GradCase("freq_real_imag_l1", KINKED_TOL, _spectral_margin_pair, losses.freq_real_imag_l1),
    GradCase("amp_phase_l2", SMOOTH_TOL, _polar_margin_pair,
             partial(losses.freq_amp_phase, norm="l2")),
    GradCase("amp_phase_l1", KINKED_TOL, _polar_margin_pair,
             partial(losses.freq_amp_phase, norm="l1")),
    GradCase("error_amp_phase_l2", SMOOTH_TOL, _spectral_margin_pair,
             partial(losses.freq_error_amp_phase, norm="l2")),
    GradCase("error_amp_phase_l1", KINKED_TOL, _spectral_margin_pair,
             partial(losses.freq_error_amp_phase, norm="l1")),
    GradCase("harmonized_l2_dft", SMOOTH_TOL, _smooth_pair, _harmonized("l2", "dft"),
             _positive_mags),
    GradCase("harmonized_l1_dft", KINKED_TOL, _spectral_margin_pair, _harmonized("l1", "dft"),
             _positive_mags),
    # a one-level DWT needs an even window
    GradCase("harmonized_l2_dwt", SMOOTH_TOL, _smooth_pair, _harmonized("l2", "dwt"),
             _positive_mags, even_lengths=True),
    GradCase("harmonized_l1_identity", KINKED_TOL, _time_margin_pair,
             _harmonized("l1", "identity"), _positive_mags),
    GradCase("whitened_l2", SMOOTH_TOL, _smooth_pair, partial(losses.whitened_loss, norm="l2"),
             _positive_mags),
    GradCase("whitened_l1", KINKED_TOL, _spectral_margin_pair,
             partial(losses.whitened_loss, norm="l1"), _positive_mags),
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
        # JSON has no NaN or inf: such an error is written as null, next to "passed": false
        err = self.max_rel_err if math.isfinite(self.max_rel_err) else None
        return {**asdict(self), "max_rel_err": err, "passed": self.passed}


def _checked_lengths(lengths, cases: tuple[GradCase, ...]) -> tuple[int, ...]:
    if len(lengths) == 0:
        raise ValueError("lengths must name at least one window length")
    try:
        lengths = tuple(_int(L) for L in lengths)
    except ValueError as exc:
        raise ValueError(f"lengths: {exc}") from None
    if min(lengths) < 1:
        raise ValueError(f"lengths must be >= 1, got {min(lengths)}")
    odd = [L for L in lengths if L % 2]
    even_only = [c.name for c in cases if c.even_lengths]
    if odd and even_only:
        raise ValueError(f"lengths must be even for {', '.join(even_only)}, got {odd[0]}")
    return lengths


def _score(case: GradCase, x: np.ndarray, x_hat: np.ndarray,
           mags: tuple[np.ndarray, ...]) -> float:
    """Worst relative error over the (n, L) rows of one case at one length: one analytic
    call on the block, and one finite-difference call per block of instances."""
    n, L = x_hat.shape
    analytic = case.loss(x, x_hat, *mags).grad_wrt_prediction
    block = max(1, PROBE_VALUES_PER_CALL // (2 * L * L))
    worst = 0.0
    for start in range(0, n, block):
        rows = slice(start, start + block)
        # the target and magnitudes of each instance broadcast over its 2L probes
        x_rows, mag_rows = x[rows, None], tuple(m[rows, None] for m in mags)
        fd = central_difference(lambda probes: case.loss(x_rows, probes, *mag_rows).value,
                                x_hat[rows])
        worst = np.maximum(worst, np.max(relative_error(analytic[rows], fd)))  # NaN wins
    return float(worst)


def run_gradient_suite(lengths: tuple[int, ...] = (8, 32, 128), instances: int = 100,
                       seed: int = 0, names: tuple[str, ...] | None = None
                       ) -> list[GradCheckReport]:
    """Run the FD oracle on the registered losses.

    `instances` is per loss, split evenly across `lengths`; the leading lengths get the rest.
    From one generator, in turn, the n instances of each case and length are drawn as one
    block, pairs then magnitudes, and scored together.
    """
    if names is not None and len(names) == 0:
        raise ValueError("names must name at least one loss case")
    cases = LOSS_CASES if names is None else tuple(c for c in LOSS_CASES if c.name in names)
    if names is not None and len(cases) != len(names):
        if "" in names:
            raise ValueError(f"empty loss case name in {list(names)}")
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise ValueError(f"duplicate loss case(s): {duplicates}")
        known = {c.name for c in LOSS_CASES}
        raise ValueError(f"unknown loss case(s): {sorted(set(names) - known)}")
    if instances < 1:
        raise ValueError(f"instances must be >= 1, got {instances}")
    lengths = _checked_lengths(lengths, cases)
    reports = []
    rng = make_rng(seed)
    per_length, extra = divmod(instances, len(lengths))
    for case in cases:
        worst = 0.0
        for i, L in enumerate(lengths):
            n = per_length + (i < extra)
            if n == 0:
                continue
            x, x_hat = case.make_pair(rng, L, (n,))
            mags = case.draw(rng, L, (n,))
            worst = np.maximum(worst, _score(case, x, x_hat, mags))  # NaN wins
        reports.append(GradCheckReport(name=case.name, tolerance=case.tolerance,
                                       max_rel_err=float(worst), instances=instances))
    return reports
