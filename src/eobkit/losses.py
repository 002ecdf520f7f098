"""Loss catalogue with analytic gradients, temporal and coefficient-domain.

Conventions shared by every loss here:

* signature is (target, prediction); the reported gradient is taken with
  respect to the prediction and lives in the temporal domain;
* sgn(0) = 0 (subgradient choice at kinks);
* spectra use the unitary DFT, and sums run over all L complex bins --
  conjugate-symmetric pairs are double counted uniformly, a constant
  factor that does not move any minimizer. A real signal's spectrum is
  fixed by its bins 0..L//2, so the losses compute on that half spectrum
  and count each bin with its multiplicity (1 at DC and Nyquist, 2
  elsewhere), which gives the full sums; per-bin weights of bins k and
  L - k are folded into their mean. The public `transforms.dft_forward`
  and `coefficient_magnitudes` stay full;
* phase terms exclude bins whose predicted (or error) amplitude falls
  below the configured eps, since the phase gradient carries a 1/amplitude
  factor that blows up on empty bins.

Gradients of coefficient-domain losses are pulled back to the temporal
domain through the transform adjoint: for the half spectrum that is
`transforms._rdft_synthesis` (an inverse real FFT, which carries the
multiplicities) applied to the per-bin gradient (d/dRe + j*d/dIm), and for
orthogonal real transforms it is the inverse transform itself.

All functions act on the last axis of (..., L) arrays and return values per
row; the caller reduces over rows. The target broadcasts to the
prediction's shape (same last axis), so one series is scored against a
batch or a stack of finite-difference probes in one call. Eight losses are
one kernel, sum_k w_k pen(d_k) over the coefficients d of the residual
x - x_hat, which transforms the residual once: temporal (identity, w = 1),
real/imaginary (DFT, w = 1), harmonized (any transform, magnitude weights)
and whitened (w = 1/f_bar^p). Only the amplitude/phase losses, which are
nonlinear in the coefficients, transform the target and the prediction
apart. Values are computed at once and gradients on first access, so a
caller that reads only values never runs the pullback.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import transforms
from .processes import _cast

__all__ = [
    "EmaMagnitudes",
    "HarmonizedConfig",
    "LossEval",
    "coefficient_magnitudes",
    "freq_amp_phase",
    "freq_error_amp_phase",
    "freq_real_imag_l1",
    "freq_real_imag_l2",
    "harmonized_l1",
    "harmonized_l2",
    "temporal_l1",
    "temporal_l2",
    "update_ema",
    "whitened_loss",
]


@dataclass(frozen=True)
class LossEval:
    """Loss value per row (a float for 1-D input) plus the temporal-domain gradient.

    The gradient has the prediction's shape and is computed on first access.
    Losses made of several terms (amplitude/phase splits) expose them in
    `parts`; the top-level value and gradient are the sums of the parts.
    """

    value: float | np.ndarray
    _grad_fn: Callable[[], np.ndarray] = field(repr=False, compare=False)
    parts: dict[str, "LossEval"] = field(default_factory=dict)

    @functools.cached_property
    def grad_wrt_prediction(self) -> np.ndarray:
        return self._grad_fn()


def _penalty(r: np.ndarray, norm: str) -> np.ndarray:
    return r**2 if norm == "l2" else np.abs(r)


def _sum_of_parts(parts: dict[str, LossEval]) -> LossEval:
    first, second = parts.values()
    return LossEval(value=first.value + second.value,
                    _grad_fn=lambda: first.grad_wrt_prediction + second.grad_wrt_prediction,
                    parts=parts)


@dataclass(frozen=True)
class EmaMagnitudes:
    """Exponential moving average of per-coefficient magnitudes."""

    f_bar: np.ndarray
    beta: float
    epoch: int = 0

    def __post_init__(self):
        f_bar = np.array(self.f_bar, dtype=float)
        if np.any(f_bar < 0.0):
            raise ValueError("magnitude estimates must be non-negative")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must lie in [0, 1), got {self.beta}")
        f_bar.flags.writeable = False
        object.__setattr__(self, "f_bar", f_bar)

    @classmethod
    def zeros(cls, length: int, beta: float) -> "EmaMagnitudes":
        return cls(f_bar=np.zeros(length), beta=beta)


def update_ema(ema: EmaMagnitudes, target_magnitudes: np.ndarray) -> EmaMagnitudes:
    """f_bar' = beta * f_bar + (1 - beta) * m, element-wise; epoch + 1."""
    m = np.asarray(target_magnitudes, dtype=float)
    if m.shape != ema.f_bar.shape:
        raise ValueError(f"length mismatch: ema has {ema.f_bar.shape}, update has {m.shape}")
    if np.any(m < 0.0):
        raise ValueError("target magnitudes must be non-negative")
    return EmaMagnitudes(f_bar=ema.beta * ema.f_bar + (1.0 - ema.beta) * m,
                         beta=ema.beta, epoch=ema.epoch + 1)


@dataclass(frozen=True)
class HarmonizedConfig:
    """Selector for the magnitude-adaptive losses.

    gamma balances the adaptive term against the plain norm; eps guards
    against division blow-up on empty bins. wavelet/levels only matter for
    transform="dwt". Defaults follow the forecasting setting (gamma=0.5);
    use gamma=0.3 for imputation-style reconstruction.
    """

    norm: str = "l1"
    gamma: float = 0.5
    eps: float = 1e-8
    transform: str = "dft"
    wavelet: str = "haar"
    levels: int = 1

    def __post_init__(self):
        _cast(self)
        if self.norm not in ("l1", "l2"):
            raise ValueError(f"norm must be 'l1' or 'l2', got {self.norm!r}")
        if self.transform not in ("dft", "dwt", "identity"):
            raise ValueError(f"transform must be dft, dwt or identity, got {self.transform!r}")
        transforms._check_dwt(self.wavelet, self.levels)
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.eps <= 0.0:
            raise ValueError(f"eps must be > 0, got {self.eps}")


# ---------------------------------------------------------------------------
# Transform plumbing and the coefficient-loss kernel
# ---------------------------------------------------------------------------

def _check_lengths(x: np.ndarray, x_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The target must broadcast to the prediction's shape with the same last axis."""
    x = np.asarray(x, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    if (x.ndim > x_hat.ndim or x.shape[-1:] != x_hat.shape[-1:]
            or any(a not in (1, b) for a, b in zip(x.shape, x_hat.shape[x_hat.ndim - x.ndim:]))):
        raise ValueError(f"length mismatch: target {x.shape} vs prediction {x_hat.shape}")
    if x_hat.ndim < 1 or x_hat.shape[-1] < 1:
        raise ValueError("inputs must have at least one sample")
    return x, x_hat


def _forward_coeffs(x: np.ndarray, transform: str, wavelet: str, levels: int) -> np.ndarray:
    """Coefficients of x under a real orthogonal transform (dwt or identity)."""
    if transform == "dwt":
        return transforms._dwt_analysis(x, wavelet, levels)
    if transform == "identity":
        return x
    raise ValueError(f"transform must be dft, dwt or identity, got {transform!r}")


def _pullback(g: np.ndarray, transform: str, wavelet: str, levels: int) -> np.ndarray:
    """Temporal gradient from a coefficient gradient: the adjoint of _forward_coeffs."""
    if transform == "dwt":
        return transforms._dwt_synthesis(g, wavelet, levels)
    return g


def coefficient_magnitudes(x: np.ndarray, cfg: HarmonizedConfig) -> np.ndarray:
    """Per-bin magnitudes |f_k| of x under cfg.transform (complex modulus for dft)."""
    x = np.asarray(x, dtype=float)
    if cfg.transform == "dft":
        return np.abs(transforms.dft_forward(x))
    return np.abs(_forward_coeffs(x, cfg.transform, cfg.wavelet, cfg.levels))


def _coefficient_loss(x: np.ndarray, x_hat: np.ndarray, weights: float | np.ndarray,
                      norm: str, transform: str, wavelet: str = "haar",
                      levels: int = 1) -> LossEval:
    """sum_k w_k pen(d_k) over the coefficients d of the residual x - x_hat.

    The one kernel of every loss linear in the coefficients: `weights` is 1 or
    one weight per bin, as an (L,) array shared by every row or an (..., L)
    array of per-row weights that broadcasts against the rows; pen is |.| or
    (.)^2 on the real and imaginary parts, and the gradient is pulled back
    through the transform's adjoint. For dft,
    d is the half spectrum: pen(d_k) = pen(d_{L-k}), so the full sum is
    sum_k m_k w~_k pen(d_k) over bins 0..L//2 with w~_k = (w_k + w_{L-k})/2,
    exact for any weights, and w~ * pen'(d) pulls back through the synthesis.
    """
    x, x_hat = _check_lengths(x, x_hat)
    L = x_hat.shape[-1]
    if np.ndim(weights) and np.shape(weights)[-1] != L:
        raise ValueError(f"length mismatch: weights of shape {np.shape(weights)}, "
                         f"series of length {L}")
    if transform == "dft":
        d = transforms._rdft_analysis(x - x_hat)
        multiplicity, mirror = transforms._rdft_bins(L)
        if np.ndim(weights):
            weights = 0.5 * (weights[..., :mirror.size] + weights[..., mirror])
        value_weights = multiplicity * weights
        pen = _penalty(d.real, norm) + _penalty(d.imag, norm)
    else:
        d = _forward_coeffs(x - x_hat, transform, wavelet, levels)
        value_weights = weights
        pen = _penalty(d, norm)

    def grad() -> np.ndarray:
        if norm == "l2":
            g = -2.0 * weights * d
        elif np.iscomplexobj(d):
            g = -weights * (np.sign(d.real) + 1j * np.sign(d.imag))
        else:
            g = -weights * np.sign(d)
        if transform == "dft":
            return transforms._rdft_synthesis(g, L)
        return _pullback(g, transform, wavelet, levels)

    return LossEval(value=np.sum(value_weights * pen, axis=-1), _grad_fn=grad)


# ---------------------------------------------------------------------------
# Temporal baselines
# ---------------------------------------------------------------------------

def temporal_l2(x: np.ndarray, x_hat: np.ndarray) -> LossEval:
    """Squared error; gradient -2(x - x_hat) scales with the error (dominance)."""
    return _coefficient_loss(x, x_hat, 1.0, "l2", "identity")


def temporal_l1(x: np.ndarray, x_hat: np.ndarray) -> LossEval:
    """Absolute error; gradient -sgn(x - x_hat) has magnitude 1 or 0 (fatigue)."""
    return _coefficient_loss(x, x_hat, 1.0, "l1", "identity")


# ---------------------------------------------------------------------------
# Real/imaginary decoupling
# ---------------------------------------------------------------------------

def freq_real_imag_l2(x: np.ndarray, x_hat: np.ndarray) -> LossEval:
    """Squared error on real and imaginary spectral parts.

    By unitarity this equals the temporal squared error and its gradient
    collapses to -2(x - x_hat); both are computed in the spectral domain
    here so the equivalence is observable rather than assumed.
    """
    return _coefficient_loss(x, x_hat, 1.0, "l2", "dft")


def freq_real_imag_l1(x: np.ndarray, x_hat: np.ndarray) -> LossEval:
    """Absolute error on real and imaginary spectral parts.

    Not equivalent to the temporal l1: the l1 ball is not rotation
    invariant, so this is a genuinely different (sparsity-seeking)
    objective.
    """
    return _coefficient_loss(x, x_hat, 1.0, "l1", "dft")


# ---------------------------------------------------------------------------
# Amplitude / phase decoupling
# ---------------------------------------------------------------------------

def _wrap_phase(delta: np.ndarray) -> np.ndarray:
    """Wrap differences of two np.angle values into (-pi, pi].

    a = delta + pi lies in [-pi, 3pi], so one shift by 2pi brings it into [0, 2pi)
    and gives np.mod(a, 2pi) bit for bit: a - 2pi is exact for a >= 2pi (Sterbenz),
    and a + 2pi for a < 0 is the sum np.mod itself rounds.
    """
    a = delta + math.pi
    a = np.where(a >= 2.0 * math.pi, a - 2.0 * math.pi, np.where(a < 0.0, a + 2.0 * math.pi, a))
    wrapped = a - math.pi
    return np.where(wrapped == -math.pi, math.pi, wrapped)


def _amp_phase_of(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    amp = np.abs(c)
    phase = np.where(amp > 0.0, np.angle(c), 0.0)
    return amp, phase


def freq_amp_phase(x: np.ndarray, x_hat: np.ndarray, norm: str = "l2",
                   eps: float = 1e-8) -> LossEval:
    """Separate penalties on amplitude and phase spectra.

    Phase differences are wrapped into (-pi, pi]. Bins whose predicted
    amplitude is below eps are excluded from the phase term entirely: the
    phase gradient scales with 1/amplitude and explodes on empty bins.
    Both spectra are halved: amplitudes and wrapped phase gaps of bin L - k
    equal those of bin k up to sign, so each half bin counts m_k times.
    """
    if norm not in ("l1", "l2"):
        raise ValueError(f"norm must be 'l1' or 'l2', got {norm!r}")
    x, x_hat = _check_lengths(x, x_hat)
    L = x_hat.shape[-1]
    multiplicity = transforms._rdft_bins(L)[0]
    amp, phase = _amp_phase_of(transforms._rdft_analysis(x))
    amp_hat, phase_hat = _amp_phase_of(transforms._rdft_analysis(x_hat))
    amp_diff = amp - amp_hat
    alive = amp_hat >= eps
    phase_diff = np.where(alive, _wrap_phase(phase - phase_hat), 0.0)
    amp_value = np.sum(multiplicity * _penalty(amp_diff, norm), axis=-1)
    phase_value = np.sum(multiplicity * _penalty(phase_diff, norm), axis=-1)

    def amp_grad() -> np.ndarray:
        de_damp = -2.0 * amp_diff if norm == "l2" else -np.sign(amp_diff)
        return transforms._rdft_synthesis(
            de_damp * (np.cos(phase_hat) + 1j * np.sin(phase_hat)), L)

    def phase_grad() -> np.ndarray:
        de_dphase = -2.0 * phase_diff if norm == "l2" else -np.sign(phase_diff)
        inv_amp = np.where(alive, 1.0 / np.where(alive, amp_hat, 1.0), 0.0)
        # d(phase_hat)/d(re, im) = (-sin, cos)/amp_hat
        return transforms._rdft_synthesis(
            de_dphase * inv_amp * (-np.sin(phase_hat) + 1j * np.cos(phase_hat)), L)

    return _sum_of_parts({"amplitude": LossEval(value=amp_value, _grad_fn=amp_grad),
                          "phase": LossEval(value=phase_value, _grad_fn=phase_grad)})


def freq_error_amp_phase(x: np.ndarray, x_hat: np.ndarray, norm: str = "l2",
                         eps: float = 1e-8) -> LossEval:
    """Penalties on the amplitude and phase of the error spectrum U(x - x_hat).

    The squared error amplitude is the temporal squared error in disguise
    (Parseval), so that variant brings no structural change. The l1 error
    amplitude is different: its gradient -Re IDFT(exp(j*error_phase)) has a
    unit-modulus spectrum, i.e. it whitens the update across frequencies.
    Error-phase terms are guarded by the amplitude threshold eps, and the
    whole loss degenerates to zero value and zero gradient at x_hat = x.
    The error spectrum is halved, each bin counting m_k times, as in
    freq_amp_phase.
    """
    if norm not in ("l1", "l2"):
        raise ValueError(f"norm must be 'l1' or 'l2', got {norm!r}")
    x, x_hat = _check_lengths(x, x_hat)
    L = x_hat.shape[-1]
    multiplicity = transforms._rdft_bins(L)[0]
    fe = transforms._rdft_analysis(x - x_hat)
    err_amp, err_phase = _amp_phase_of(fe)
    alive = err_amp >= eps
    phase_term = np.where(alive, err_phase, 0.0)
    amp_value = np.sum(multiplicity * _penalty(err_amp, norm), axis=-1)
    phase_value = np.sum(multiplicity * _penalty(phase_term, norm), axis=-1)

    def amp_grad() -> np.ndarray:
        if norm == "l2":
            # identical to the temporal squared error; gradient -2(x - x_hat)
            return -transforms._rdft_synthesis(2.0 * fe, L)
        return -transforms._rdft_synthesis(np.where(alive, np.exp(1j * err_phase), 0.0), L)

    def phase_grad() -> np.ndarray:
        de_dphase = 2.0 * phase_term if norm == "l2" else np.sign(phase_term)
        inv_amp2 = np.where(alive, 1.0 / np.where(alive, err_amp**2, 1.0), 0.0)
        # d(err_phase)/d(fe) = (-Im fe, Re fe)/|fe|^2 and d(fe)/d(x_hat) = -U
        return -transforms._rdft_synthesis(
            de_dphase * inv_amp2 * (-fe.imag + 1j * fe.real), L)

    return _sum_of_parts({"error_amplitude": LossEval(value=amp_value, _grad_fn=amp_grad),
                          "error_phase": LossEval(value=phase_value, _grad_fn=phase_grad)})


# ---------------------------------------------------------------------------
# Magnitude-adaptive (harmonized) and strictly whitened losses
# ---------------------------------------------------------------------------

def harmonized_l2(x: np.ndarray, x_hat: np.ndarray, ema: EmaMagnitudes,
                  cfg: HarmonizedConfig) -> LossEval:
    """Weighted squared coefficient error, weights w_k = 1 + gamma/(f_bar_k + eps).

    Weak bins get up-weighted so strong bins stop dominating the update;
    with gamma = 0 or a flat magnitude profile this is the plain (scaled)
    squared loss, and the minimizer is always x_hat = x.
    """
    if cfg.norm != "l2":
        raise ValueError(f"config norm is {cfg.norm!r}, expected 'l2'")
    return _coefficient_loss(x, x_hat, 1.0 + cfg.gamma / (ema.f_bar + cfg.eps), "l2",
                             cfg.transform, cfg.wavelet, cfg.levels)


def harmonized_l1(x: np.ndarray, x_hat: np.ndarray, ema: EmaMagnitudes,
                  cfg: HarmonizedConfig) -> LossEval:
    """Weighted absolute coefficient error, weights w_k = 1 + gamma * f_bar_k.

    Strong bins get amplified so the constant-magnitude l1 pressure does
    not starve them.
    """
    if cfg.norm != "l1":
        raise ValueError(f"config norm is {cfg.norm!r}, expected 'l1'")
    return _coefficient_loss(x, x_hat, 1.0 + cfg.gamma * ema.f_bar, "l1",
                             cfg.transform, cfg.wavelet, cfg.levels)


def whitened_loss(x: np.ndarray, x_hat: np.ndarray, f_bar: np.ndarray,
                  norm: str = "l2", transform: str = "dft") -> LossEval:
    """Strict per-bin whitening: weights 1/f_bar^2 (l2) or 1/f_bar (l1).

    Theoretically unbiased but practically pathological: magnitudes near
    zero on noise-dominated bins make the weights explode, which is why
    this exists as a baseline rather than a recommendation. Zero
    magnitudes are rejected outright.
    """
    if norm not in ("l1", "l2"):
        raise ValueError(f"norm must be 'l1' or 'l2', got {norm!r}")
    f_bar = np.asarray(f_bar, dtype=float)
    if np.any(f_bar <= 0.0):
        raise ValueError("whitened loss requires strictly positive magnitudes for every bin")
    return _coefficient_loss(x, x_hat, 1.0 / f_bar ** (2 if norm == "l2" else 1), norm, transform)
