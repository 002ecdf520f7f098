"""Loss catalogue with analytic gradients, temporal and coefficient-domain.

Conventions shared by every loss here:

* signature is (target, prediction); the reported gradient is taken with
  respect to the prediction and lives in the temporal domain;
* sgn(0) = 0 (subgradient choice at kinks), and an empty bin's unit phasor
  is 1, the phasor of its phase 0;
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
  factor that blows up on empty bins; amplitude terms keep every bin.

One penalty rule serves every loss: pen(r) = r^2 or |r| (`_penalty`) with
pen'(r) = 2r or sgn r (`_penalty_grad`), so l2 gradients scale with the
residual and l1 gradients have constant magnitude. Two kernels apply it.
`_coefficient_loss`, sum_k w_k pen(d_k) over the coefficients d of the
residual x - x_hat transformed once, is eight losses: temporal (identity,
w = 1), real/imaginary (DFT, w = 1), harmonized (DFT, DWT or identity,
magnitude weights) and whitened (DFT only, w = 1/f_bar^p). `_polar_loss`
penalizes an amplitude and a phase residual of one reference half
spectrum, the prediction's or the error's. Gradients are pulled back
through the transform adjoint: `transforms._rdft_synthesis` (an inverse
real FFT, which carries the multiplicities) of the per-bin gradient
(d/dRe + j*d/dIm) for the half spectrum, the inverse transform otherwise.

All functions act on the last axis of (..., L) arrays and return values per
row; the caller reduces over rows. The target broadcasts to the
prediction's shape (same last axis), so one series is scored against a
batch or a stack of finite-difference probes in one call. Values are
computed at once and gradients on first access, so a caller that reads
only values never runs the pullback.
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


def _check_norm(norm: str) -> None:
    if norm not in ("l1", "l2"):
        raise ValueError(f"norm must be 'l1' or 'l2', got {norm!r}")


def _penalty(r: np.ndarray, norm: str) -> np.ndarray:
    return r**2 if norm == "l2" else np.abs(r)


def _penalty_grad(r: np.ndarray, norm: str) -> np.ndarray:
    """pen'(r): 2r for l2, sgn r for l1, the latter on each of the real and imaginary parts.

    2r is r + r, exact with the signs of zeros (2.0 * r multiplies a complex r by 2 + 0j).
    """
    if norm == "l2":
        return r + r
    if np.iscomplexobj(r):
        return _penalty_grad(r.real, norm) + 1j * _penalty_grad(r.imag, norm)
    return np.sign(r)


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
        _check_norm(self.norm)
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


def coefficient_magnitudes(x: np.ndarray, cfg: HarmonizedConfig) -> np.ndarray:
    """Per-bin magnitudes |f_k| of x under cfg.transform (complex modulus for dft)."""
    x = np.asarray(x, dtype=float)
    if cfg.transform == "dft":
        return np.abs(transforms.dft_forward(x))
    return np.abs(transforms._dwt_analysis(x, cfg.wavelet, cfg.levels)
                  if cfg.transform == "dwt" else x)


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
        d = transforms._dwt_analysis(x - x_hat, wavelet, levels) if transform == "dwt" else x - x_hat
        value_weights = weights
        pen = _penalty(d, norm)

    def grad() -> np.ndarray:
        g = -weights * _penalty_grad(d, norm)
        if transform == "dft":
            return transforms._rdft_synthesis(g, L)
        return transforms._dwt_synthesis(g, wavelet, levels) if transform == "dwt" else g

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
    return amp, np.where(amp > 0.0, np.angle(c), 0.0)


def _polar_loss(names: tuple[str, str], L: int, ref: np.ndarray, ref_amp: np.ndarray,
                amp_res: np.ndarray, phase_res: np.ndarray, norm: str, eps: float) -> LossEval:
    """Parts `names`: sum_k m_k pen(r_k) of an amplitude and a phase residual r of the
    half spectrum ref, the phase part without the bins where |ref| < eps.

    A residual is +-|ref| or +-arg ref plus terms free of the prediction, and ref moves
    with the prediction by -+U (opposite signs), so the parts pull back -pen'(r) along
    the unit phasor ref/|ref| and along d(arg ref)/d(Re, Im) = j ref/|ref|^2.
    """
    _check_norm(norm)
    multiplicity = transforms._rdft_bins(L)[0]
    alive = ref_amp >= eps
    phase_res = np.where(alive, phase_res, 0.0)

    def amp_grad() -> np.ndarray:
        u = np.divide(ref, ref_amp, out=np.ones_like(ref), where=ref_amp > 0.0)
        return transforms._rdft_synthesis(-_penalty_grad(amp_res, norm) * u, L)

    def phase_grad() -> np.ndarray:
        direction = np.divide(1j * ref, ref_amp**2, out=np.zeros_like(ref), where=alive)
        return transforms._rdft_synthesis(-_penalty_grad(phase_res, norm) * direction, L)

    def part(res: np.ndarray, grad: Callable[[], np.ndarray]) -> LossEval:
        return LossEval(value=np.sum(multiplicity * _penalty(res, norm), axis=-1), _grad_fn=grad)

    return _sum_of_parts(dict(zip(names, (part(amp_res, amp_grad), part(phase_res, phase_grad)))))


def freq_amp_phase(x: np.ndarray, x_hat: np.ndarray, norm: str = "l2",
                   eps: float = 1e-8) -> LossEval:
    """Separate penalties on amplitude and phase spectra.

    Phase differences are wrapped into (-pi, pi]. Bins whose predicted
    amplitude is below eps are excluded from the phase term entirely: the
    phase gradient scales with 1/amplitude and explodes on empty bins.
    Both spectra are halved: amplitudes and wrapped phase gaps of bin L - k
    equal those of bin k up to sign, so each half bin counts m_k times.
    """
    x, x_hat = _check_lengths(x, x_hat)
    amp, phase = _amp_phase_of(transforms._rdft_analysis(x))
    c_hat = transforms._rdft_analysis(x_hat)
    amp_hat, phase_hat = _amp_phase_of(c_hat)
    return _polar_loss(("amplitude", "phase"), x_hat.shape[-1], c_hat, amp_hat,
                       amp - amp_hat, _wrap_phase(phase - phase_hat), norm, eps)


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
    x, x_hat = _check_lengths(x, x_hat)
    fe = transforms._rdft_analysis(x - x_hat)
    err_amp, err_phase = _amp_phase_of(fe)
    return _polar_loss(("error_amplitude", "error_phase"), x_hat.shape[-1], fe, err_amp,
                       err_amp, err_phase, norm, eps)


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
                  norm: str = "l2") -> LossEval:
    """Strict per-bin whitening over the DFT: weights 1/f_bar^2 (l2) or 1/f_bar (l1).

    Theoretically unbiased but practically pathological: magnitudes near
    zero on noise-dominated bins make the weights explode, which is why
    this exists as a baseline rather than a recommendation. Zero
    magnitudes are rejected outright.
    """
    _check_norm(norm)
    f_bar = np.asarray(f_bar, dtype=float)
    if np.any(f_bar <= 0.0):
        raise ValueError("whitened loss requires strictly positive magnitudes for every bin")
    return _coefficient_loss(x, x_hat, 1.0 / f_bar ** (2 if norm == "l2" else 1), norm, "dft")
