"""Loss catalogue with analytic gradients, temporal and coefficient-domain.

Conventions shared by every loss here:

* signature is (target, prediction); the reported gradient is taken with
  respect to the prediction and lives in the temporal domain;
* sgn(0) = 0 (subgradient choice at kinks);
* spectra use the unitary DFT, so sums run over all L complex bins --
  conjugate-symmetric pairs are double counted uniformly, a constant
  factor that does not move any minimizer;
* phase terms exclude bins whose predicted (or error) amplitude falls
  below the configured eps, since the phase gradient carries a 1/amplitude
  factor that blows up on empty bins.

Gradients of coefficient-domain losses are pulled back to the temporal
domain through the transform adjoint: for the unitary DFT that is the
real part of the inverse transform applied to the coefficient gradient
(d/dRe + j*d/dIm), and for orthogonal real transforms it is the inverse
transform itself.

All functions act on the last axis of (..., L) arrays and return values per
row, with shape x.shape[:-1]; the caller reduces over rows. A batch of
series, or a stack of finite-difference probes, is evaluated in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import transforms

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

    Losses made of several terms (amplitude/phase splits) expose them in
    `parts`; the top-level value and gradient are the sums of the parts.
    """

    value: float | np.ndarray
    grad_wrt_prediction: np.ndarray
    parts: dict[str, "LossEval"] = field(default_factory=dict)


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
        if self.norm not in ("l1", "l2"):
            raise ValueError(f"norm must be 'l1' or 'l2', got {self.norm!r}")
        if self.transform not in ("dft", "dwt", "identity"):
            raise ValueError(f"transform must be dft, dwt or identity, got {self.transform!r}")
        if not math.isfinite(self.gamma) or self.gamma < 0.0:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not math.isfinite(self.eps) or self.eps <= 0.0:
            raise ValueError(f"eps must be finite and > 0, got {self.eps}")


# ---------------------------------------------------------------------------
# Transform plumbing
# ---------------------------------------------------------------------------

def _check_lengths(x: np.ndarray, x_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    if x.shape != x_hat.shape:
        raise ValueError(f"length mismatch: target {x.shape} vs prediction {x_hat.shape}")
    if x.shape[-1] < 1:
        raise ValueError("inputs must have at least one sample")
    return x, x_hat


def _dft(x: np.ndarray) -> np.ndarray:
    return np.fft.fft(x, norm="ortho", axis=-1)


def _dft_pullback(g: np.ndarray) -> np.ndarray:
    # adjoint of x -> fft(x) restricted to real inputs: Re(U^H g)
    return np.fft.ifft(g, norm="ortho", axis=-1).real


def _forward_coeffs(x: np.ndarray, cfg: HarmonizedConfig) -> np.ndarray:
    """Coefficients of x under cfg.transform: complex for dft, real otherwise."""
    if cfg.transform == "dft":
        return _dft(x)
    if cfg.transform == "dwt":
        return transforms.dwt_forward(x, cfg.wavelet, cfg.levels).coeffs
    return x


def _pullback(g: np.ndarray, cfg: HarmonizedConfig) -> np.ndarray:
    if cfg.transform == "dft":
        return _dft_pullback(g)
    if cfg.transform == "dwt":
        return transforms.dwt_inverse(transforms.WaveletCoeffs(g, cfg.levels, cfg.wavelet))
    return g


def coefficient_magnitudes(x: np.ndarray, cfg: HarmonizedConfig) -> np.ndarray:
    """Per-bin magnitudes |f_k| of x under cfg.transform (complex modulus for dft)."""
    return np.abs(_forward_coeffs(np.asarray(x, dtype=float), cfg))


# ---------------------------------------------------------------------------
# Temporal baselines
# ---------------------------------------------------------------------------

def temporal_l2(x: np.ndarray, x_hat: np.ndarray) -> LossEval:
    """Squared error; gradient -2(x - x_hat) scales with the error (dominance)."""
    x, x_hat = _check_lengths(x, x_hat)
    e = x - x_hat
    return LossEval(value=np.sum(e**2, axis=-1), grad_wrt_prediction=-2.0 * e)


def temporal_l1(x: np.ndarray, x_hat: np.ndarray) -> LossEval:
    """Absolute error; gradient -sgn(x - x_hat) has magnitude 1 or 0 (fatigue)."""
    x, x_hat = _check_lengths(x, x_hat)
    e = x - x_hat
    return LossEval(value=np.sum(np.abs(e), axis=-1), grad_wrt_prediction=-np.sign(e))


# ---------------------------------------------------------------------------
# Real/imaginary decoupling
# ---------------------------------------------------------------------------

def freq_real_imag_l2(x: np.ndarray, x_hat: np.ndarray) -> LossEval:
    """Squared error on real and imaginary spectral parts.

    By unitarity this equals the temporal squared error and its gradient
    collapses to -2(x - x_hat); both are computed in the spectral domain
    here so the equivalence is observable rather than assumed.
    """
    x, x_hat = _check_lengths(x, x_hat)
    d = _dft(x) - _dft(x_hat)
    value = np.sum(d.real**2 + d.imag**2, axis=-1)
    return LossEval(value=value, grad_wrt_prediction=_dft_pullback(-2.0 * d))


def freq_real_imag_l1(x: np.ndarray, x_hat: np.ndarray) -> LossEval:
    """Absolute error on real and imaginary spectral parts.

    Not equivalent to the temporal l1: the l1 ball is not rotation
    invariant, so this is a genuinely different (sparsity-seeking)
    objective.
    """
    x, x_hat = _check_lengths(x, x_hat)
    d = _dft(x) - _dft(x_hat)
    value = np.sum(np.abs(d.real) + np.abs(d.imag), axis=-1)
    g = -(np.sign(d.real) + 1j * np.sign(d.imag))
    return LossEval(value=value, grad_wrt_prediction=_dft_pullback(g))


# ---------------------------------------------------------------------------
# Amplitude / phase decoupling
# ---------------------------------------------------------------------------

def _wrap_phase(delta: np.ndarray) -> np.ndarray:
    """Wrap angle differences into (-pi, pi]."""
    wrapped = np.mod(delta + math.pi, 2.0 * math.pi) - math.pi
    wrapped = np.where(wrapped == -math.pi, math.pi, wrapped)
    return wrapped


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
    """
    if norm not in ("l1", "l2"):
        raise ValueError(f"norm must be 'l1' or 'l2', got {norm!r}")
    x, x_hat = _check_lengths(x, x_hat)
    amp, phase = _amp_phase_of(_dft(x))
    amp_hat, phase_hat = _amp_phase_of(_dft(x_hat))

    cos_h, sin_h = np.cos(phase_hat), np.sin(phase_hat)
    amp_diff = amp - amp_hat
    if norm == "l2":
        amp_value = np.sum(amp_diff**2, axis=-1)
        de_damp = -2.0 * amp_diff
    else:
        amp_value = np.sum(np.abs(amp_diff), axis=-1)
        de_damp = -np.sign(amp_diff)
    amp_grad = _dft_pullback(de_damp * (cos_h + 1j * sin_h))
    amp_part = LossEval(value=amp_value, grad_wrt_prediction=amp_grad)

    alive = amp_hat >= eps
    phase_diff = np.where(alive, _wrap_phase(phase - phase_hat), 0.0)
    if norm == "l2":
        phase_value = np.sum(phase_diff**2, axis=-1)
        de_dphase = -2.0 * phase_diff
    else:
        phase_value = np.sum(np.abs(phase_diff), axis=-1)
        de_dphase = -np.sign(phase_diff)
    inv_amp = np.where(alive, 1.0 / np.where(alive, amp_hat, 1.0), 0.0)
    # d(phase_hat)/d(re, im) = (-sin, cos)/amp_hat
    g = de_dphase * inv_amp * (-sin_h + 1j * cos_h)
    phase_part = LossEval(value=phase_value, grad_wrt_prediction=_dft_pullback(g))

    return LossEval(value=amp_part.value + phase_part.value,
                    grad_wrt_prediction=amp_part.grad_wrt_prediction + phase_part.grad_wrt_prediction,
                    parts={"amplitude": amp_part, "phase": phase_part})


def freq_error_amp_phase(x: np.ndarray, x_hat: np.ndarray, norm: str = "l2",
                         eps: float = 1e-8) -> LossEval:
    """Penalties on the amplitude and phase of the error spectrum U(x - x_hat).

    The squared error amplitude is the temporal squared error in disguise
    (Parseval), so that variant brings no structural change. The l1 error
    amplitude is different: its gradient -Re IDFT(exp(j*error_phase)) has a
    unit-modulus spectrum, i.e. it whitens the update across frequencies.
    Error-phase terms are guarded by the amplitude threshold eps, and the
    whole loss degenerates to zero value and zero gradient at x_hat = x.
    """
    if norm not in ("l1", "l2"):
        raise ValueError(f"norm must be 'l1' or 'l2', got {norm!r}")
    x, x_hat = _check_lengths(x, x_hat)
    fe = _dft(x - x_hat)
    err_amp, err_phase = _amp_phase_of(fe)
    alive = err_amp >= eps

    if norm == "l2":
        amp_value = np.sum(err_amp**2, axis=-1)
        # identical to the temporal squared error; gradient -2(x - x_hat)
        amp_grad = -_dft_pullback(2.0 * fe)
    else:
        amp_value = np.sum(err_amp, axis=-1)
        unit = np.where(alive, np.exp(1j * err_phase), 0.0)
        amp_grad = -_dft_pullback(unit)
    amp_part = LossEval(value=amp_value, grad_wrt_prediction=amp_grad)

    phase_term = np.where(alive, err_phase, 0.0)
    if norm == "l2":
        phase_value = np.sum(phase_term**2, axis=-1)
        de_dphase = 2.0 * phase_term
    else:
        phase_value = np.sum(np.abs(phase_term), axis=-1)
        de_dphase = np.sign(phase_term)
    inv_amp2 = np.where(alive, 1.0 / np.where(alive, err_amp**2, 1.0), 0.0)
    # d(err_phase)/d(fe) = (-Im fe, Re fe)/|fe|^2 and d(fe)/d(x_hat) = -U
    g = de_dphase * inv_amp2 * (-fe.imag + 1j * fe.real)
    phase_part = LossEval(value=phase_value, grad_wrt_prediction=-_dft_pullback(g))

    return LossEval(value=amp_part.value + phase_part.value,
                    grad_wrt_prediction=amp_part.grad_wrt_prediction + phase_part.grad_wrt_prediction,
                    parts={"error_amplitude": amp_part, "error_phase": phase_part})


# ---------------------------------------------------------------------------
# Magnitude-adaptive (harmonized) and strictly whitened losses
# ---------------------------------------------------------------------------

def _check_ema(ema: EmaMagnitudes, n_bins: int) -> None:
    if ema.f_bar.shape[0] != n_bins:
        raise ValueError(
            f"length mismatch: ema tracks {ema.f_bar.shape[0]} bins, series has {n_bins}")


def _weighted_coeff_loss(x: np.ndarray, x_hat: np.ndarray, weights: np.ndarray,
                         norm: str, cfg: HarmonizedConfig) -> LossEval:
    f = _forward_coeffs(x, cfg)
    f_hat = _forward_coeffs(x_hat, cfg)
    d = f - f_hat
    if np.iscomplexobj(d):
        if norm == "l2":
            value = np.sum(weights * (d.real**2 + d.imag**2), axis=-1)
            g = -2.0 * weights * d
        else:
            value = np.sum(weights * (np.abs(d.real) + np.abs(d.imag)), axis=-1)
            g = -weights * (np.sign(d.real) + 1j * np.sign(d.imag))
    else:
        if norm == "l2":
            value = np.sum(weights * d**2, axis=-1)
            g = -2.0 * weights * d
        else:
            value = np.sum(weights * np.abs(d), axis=-1)
            g = -weights * np.sign(d)
    return LossEval(value=value, grad_wrt_prediction=_pullback(g, cfg))


def harmonized_l2(x: np.ndarray, x_hat: np.ndarray, ema: EmaMagnitudes,
                  cfg: HarmonizedConfig) -> LossEval:
    """Weighted squared coefficient error, weights w_k = 1 + gamma/(f_bar_k + eps).

    Weak bins get up-weighted so strong bins stop dominating the update;
    with gamma = 0 or a flat magnitude profile this is the plain (scaled)
    squared loss, and the minimizer is always x_hat = x.
    """
    if cfg.norm != "l2":
        raise ValueError(f"config norm is {cfg.norm!r}, expected 'l2'")
    x, x_hat = _check_lengths(x, x_hat)
    _check_ema(ema, x.shape[-1])
    weights = 1.0 + cfg.gamma / (ema.f_bar + cfg.eps)
    return _weighted_coeff_loss(x, x_hat, weights, "l2", cfg)


def harmonized_l1(x: np.ndarray, x_hat: np.ndarray, ema: EmaMagnitudes,
                  cfg: HarmonizedConfig) -> LossEval:
    """Weighted absolute coefficient error, weights w_k = 1 + gamma * f_bar_k.

    Strong bins get amplified so the constant-magnitude l1 pressure does
    not starve them.
    """
    if cfg.norm != "l1":
        raise ValueError(f"config norm is {cfg.norm!r}, expected 'l1'")
    x, x_hat = _check_lengths(x, x_hat)
    _check_ema(ema, x.shape[-1])
    weights = 1.0 + cfg.gamma * ema.f_bar
    return _weighted_coeff_loss(x, x_hat, weights, "l1", cfg)


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
    x, x_hat = _check_lengths(x, x_hat)
    f_bar = np.asarray(f_bar, dtype=float)
    if f_bar.shape[0] != x.shape[-1]:
        raise ValueError(
            f"length mismatch: f_bar has {f_bar.shape[0]} bins, series has {x.shape[-1]}")
    if np.any(f_bar <= 0.0):
        raise ValueError("whitened loss requires strictly positive magnitudes for every bin")
    cfg = HarmonizedConfig(norm=norm, gamma=0.0, eps=1.0, transform=transform)
    weights = 1.0 / f_bar**2 if norm == "l2" else 1.0 / f_bar
    return _weighted_coeff_loss(x, x_hat, weights, norm, cfg)
